// Memory-system tests: SRAM functional store, request timing, arbitration
// policies and bandwidth limits, and MMIO routing (including stalled reads
// — the FE's CPU-stall mechanism).
#include <gtest/gtest.h>

#include <map>

#include "harness/experiment.h"
#include "harness/system.h"
#include "mem/layout.h"
#include "mem/memory_system.h"
#include "obs/trace.h"
#include "sim/rng.h"

namespace hht::mem {
namespace {

TEST(Sram, ReadWriteAllSizes) {
  Sram sram(64);
  sram.write(0, 4, 0xAABBCCDD);
  EXPECT_EQ(sram.read(0, 4), 0xAABBCCDDu);
  EXPECT_EQ(sram.read(0, 1), 0xDDu);         // little-endian
  EXPECT_EQ(sram.read(1, 2), 0xBBCCu);
  sram.write(8, 1, 0x12345678);              // only low byte stored
  EXPECT_EQ(sram.read(8, 4), 0x78u);
}

TEST(Sram, BoundsChecked) {
  Sram sram(16);
  EXPECT_NO_THROW(sram.read(12, 4));
  EXPECT_THROW(sram.read(13, 4), std::out_of_range);
  EXPECT_THROW(sram.write(16, 1, 0), std::out_of_range);
  EXPECT_THROW(sram.read(0xFFFFFFFF, 4), std::out_of_range);
}

TEST(Sram, TypedPeekPoke) {
  Sram sram(64);
  sram.pokeValue<float>(4, 3.5f);
  EXPECT_EQ(sram.peekValue<float>(4), 3.5f);
  const std::vector<std::uint32_t> xs{1, 2, 3};
  sram.pokeArray<std::uint32_t>(16, xs);
  EXPECT_EQ(sram.peekArray<std::uint32_t>(16, 3), xs);
}

// The SRAM is backed by lazily zeroed pages (DESIGN.md §2). These pin
// what a zero-filled buffer guarantees: zeros on first read, bounds at
// size() rather than the page-rounded mapping, no sharing between
// machines, and all-zero snapshot bytes.
TEST(Sram, FreshEightMegabytesReadZeroAtBothEnds) {
  const std::size_t bytes = 8u << 20;
  Sram sram(bytes);
  EXPECT_EQ(sram.size(), bytes);
  EXPECT_EQ(sram.read(0, 4), 0u);
  EXPECT_EQ(sram.read(static_cast<Addr>(bytes - 4), 4), 0u);
}

TEST(Sram, BoundIsSizeNotThePageRoundedMapping) {
  for (const std::size_t bytes : {std::size_t{256}, std::size_t{4097}}) {
    Sram sram(bytes);
    const Addr end = static_cast<Addr>(bytes);
    EXPECT_NO_THROW(sram.read(end - 1, 1)) << bytes;
    EXPECT_NO_THROW(sram.write(end - 1, 1, 0xAB)) << bytes;
    EXPECT_THROW(sram.read(end, 1), std::out_of_range) << bytes;
    EXPECT_THROW(sram.write(end, 1, 0), std::out_of_range) << bytes;
    EXPECT_THROW(sram.read(end - 2, 4), std::out_of_range) << bytes;
    const std::byte one[1] = {std::byte{1}};
    EXPECT_THROW(sram.pokeBytes(end, one), std::out_of_range) << bytes;
    EXPECT_FALSE(sram.inBounds(end, 1)) << bytes;
  }
}

TEST(Sram, TwoLiveSystemsNeverAlias) {
  harness::System a(harness::defaultConfig());
  harness::System b(harness::defaultConfig());
  Sram& sa = a.memory().sram();
  Sram& sb = b.memory().sram();
  const Addr last = static_cast<Addr>(sa.size() - 4);
  sa.write(0, 4, 0x11111111);
  sa.write(last, 4, 0x22222222);
  EXPECT_EQ(sb.read(0, 4), 0u);
  EXPECT_EQ(sb.read(last, 4), 0u);
  sb.write(0, 4, 0x33333333);
  EXPECT_EQ(sa.read(0, 4), 0x11111111u);
  EXPECT_EQ(sa.read(last, 4), 0x22222222u);
}

TEST(Sram, UntouchedSnapshotIsAllZeroAndRestoresBitIdentically) {
  const harness::SystemConfig cfg = harness::defaultConfig();
  harness::System fresh(cfg);
  sim::StateIo got;
  fresh.memory().sram().io(got);
  sim::StateIo want;
  want.tag("SRAM");
  std::vector<std::uint8_t> zeros(cfg.memory.sram_bytes, 0);
  want.bytes(zeros);
  std::uint64_t latent_flips = 0;
  want.u64(latent_flips);
  EXPECT_EQ(got.data(), want.data());

  const isa::Program idle("idle", {});
  const std::vector<std::uint8_t> snap = fresh.checkpoint(idle, 0);
  harness::System target(cfg);
  target.restore(snap, idle);
  EXPECT_EQ(target.checkpoint(idle, 0), snap);

  // Restoring copies every byte, so it also wipes a machine's writes.
  harness::System dirty(cfg);
  dirty.memory().sram().write(0x1000, 4, 0xDEADBEEF);
  dirty.restore(snap, idle);
  EXPECT_EQ(dirty.memory().sram().read(0x1000, 4), 0u);
  EXPECT_EQ(dirty.checkpoint(idle, 0), snap);
}

TEST(Arena, AlignedBumpAllocation) {
  Arena arena(0x100, 0x100);
  EXPECT_EQ(arena.allocate(3, 4), 0x100u);
  EXPECT_EQ(arena.allocate(4, 4), 0x104u);   // bumped past the 3-byte block
  EXPECT_EQ(arena.allocate(1, 16), 0x110u);  // 16-byte alignment
  EXPECT_THROW(arena.allocate(0x1000), std::runtime_error);
}

MemorySystemConfig smallConfig() {
  MemorySystemConfig cfg;
  cfg.sram_bytes = 4096;
  cfg.sram_latency = 2;
  cfg.grants_per_cycle = 1;
  return cfg;
}

/// Ports of tile 0's requesters, the tile a MemAccess names by default.
const std::uint32_t kCpuPort = requesterIndex(Requester::Cpu, 0);
const std::uint32_t kHhtPort = requesterIndex(Requester::Hht, 0);

/// Tick until tile 0's CPU request `id` completes; returns (data, cycles
/// waited).
std::pair<std::uint32_t, int> waitFor(MemorySystem& mem, RequestId id,
                                      sim::Cycle& now) {
  for (int waited = 0; waited < 100; ++waited) {
    mem.tick(now++);
    if (auto r = mem.takeResponse(kCpuPort, id)) return {r->data, waited};
  }
  ADD_FAILURE() << "request never completed";
  return {0, -1};
}

TEST(MemorySystem, ReadSeesPriorWrite) {
  MemorySystem mem(smallConfig());
  sim::Cycle now = 0;
  mem.submit({0x40, 4, true, 0xDEADBEEF, Requester::Cpu});
  const RequestId id = mem.submit({0x40, 4, false, 0, Requester::Cpu});
  const auto [data, waited] = waitFor(mem, id, now);
  EXPECT_EQ(data, 0xDEADBEEFu);
  EXPECT_GE(waited, 1);  // latency 2 => not same-tick
}

TEST(MemorySystem, LatencyIsConfigLatency) {
  MemorySystemConfig cfg = smallConfig();
  cfg.sram_latency = 5;
  MemorySystem mem(cfg);
  sim::Cycle now = 0;
  const RequestId id = mem.submit({0, 4, false, 0, Requester::Cpu});
  const auto [data, waited] = waitFor(mem, id, now);
  (void)data;
  EXPECT_EQ(waited, 5);  // granted at tick 0, retired `latency` ticks later
}

TEST(MemorySystem, BandwidthLimitSpreadsGrants) {
  MemorySystemConfig cfg = smallConfig();
  cfg.sram_latency = 1;
  cfg.grants_per_cycle = 1;
  MemorySystem mem(cfg);
  std::vector<RequestId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(mem.submit({static_cast<Addr>(4 * i), 4, false, 0,
                              Requester::Cpu}));
  }
  // With 1 grant/cycle and latency 1, completions arrive one per cycle.
  sim::Cycle now = 0;
  std::vector<int> completion_cycle(4, -1);
  for (int cycle = 0; cycle < 10; ++cycle) {
    mem.tick(now++);
    for (int i = 0; i < 4; ++i) {
      if (completion_cycle[i] < 0 && mem.takeResponse(kCpuPort, ids[i])) {
        completion_cycle[i] = cycle;
      }
    }
  }
  for (int i = 1; i < 4; ++i) {
    ASSERT_GE(completion_cycle[i], 0);
    EXPECT_EQ(completion_cycle[i], completion_cycle[i - 1] + 1);
  }
}

TEST(MemorySystem, CpuPriorityStarvesHhtUnderContention) {
  MemorySystemConfig cfg = smallConfig();
  cfg.grants_per_cycle = 1;
  cfg.policy = ArbiterPolicy::CpuPriority;
  MemorySystem mem(cfg);
  const RequestId hht = mem.submit({0, 4, false, 0, Requester::Hht});
  const RequestId cpu = mem.submit({4, 4, false, 0, Requester::Cpu});
  // CPU submitted *after* but must be granted first.
  sim::Cycle now = 0;
  int cpu_done = -1, hht_done = -1;
  for (int cycle = 0; cycle < 10; ++cycle) {
    mem.tick(now++);
    if (cpu_done < 0 && mem.takeResponse(kCpuPort, cpu)) cpu_done = cycle;
    if (hht_done < 0 && mem.takeResponse(kHhtPort, hht)) hht_done = cycle;
  }
  EXPECT_LT(cpu_done, hht_done);
  EXPECT_GT(mem.stats().value("mem.hht.conflict_cycles"), 0u);
}

// Regression (starvation bound): under CpuPriority a saturating CPU stream
// used to defer an HHT grant forever — the arbiter had no rotation escape.
// With cpu_starvation_limit = L the HHT request must be granted after at
// most L consecutive CPU grants. This test FAILS pre-fix (the HHT read
// never completes within the window and forced_rotations stays 0).
TEST(MemorySystem, CpuPriorityStarvationIsBounded) {
  MemorySystemConfig cfg = smallConfig();
  cfg.policy = ArbiterPolicy::CpuPriority;
  cfg.cpu_starvation_limit = 8;
  MemorySystem mem(cfg);
  const RequestId hht = mem.submit({0, 4, false, 0, Requester::Hht});
  sim::Cycle now = 0;
  int hht_done = -1;
  for (int cycle = 0; cycle < 64; ++cycle) {
    // One fresh CPU read every cycle: the CPU port is never empty, so an
    // unbounded CpuPriority arbiter would grant CPU forever.
    const RequestId cpu =
        mem.submit({static_cast<Addr>(4 + 4 * (cycle % 64)), 4, false, 0,
                    Requester::Cpu});
    mem.tick(now++);
    mem.takeResponse(kCpuPort, cpu);  // drain whatever completed; id reuse-free
    if (hht_done < 0 && mem.takeResponse(kHhtPort, hht)) hht_done = cycle;
  }
  ASSERT_GE(hht_done, 0) << "HHT request starved past the bound";
  // Granted after at most cpu_starvation_limit CPU grants, plus latency.
  EXPECT_LE(hht_done,
            static_cast<int>(cfg.cpu_starvation_limit + cfg.sram_latency + 2));
  EXPECT_GE(mem.stats().value("mem.arb.forced_rotations"), 1u);
}

// The pre-fix behaviour stays reachable: limit 0 means unbounded CPU
// priority, documenting exactly the starvation the bound exists to prevent.
TEST(MemorySystem, CpuPriorityLimitZeroIsUnbounded) {
  MemorySystemConfig cfg = smallConfig();
  cfg.policy = ArbiterPolicy::CpuPriority;
  cfg.cpu_starvation_limit = 0;
  MemorySystem mem(cfg);
  const RequestId hht = mem.submit({0, 4, false, 0, Requester::Hht});
  sim::Cycle now = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    const RequestId cpu =
        mem.submit({static_cast<Addr>(4 + 4 * (cycle % 64)), 4, false, 0,
                    Requester::Cpu});
    mem.tick(now++);
    mem.takeResponse(kCpuPort, cpu);
    EXPECT_FALSE(mem.takeResponse(kHhtPort, hht))
        << "limit 0 must reproduce the unbounded pre-fix arbiter";
  }
  EXPECT_EQ(mem.stats().value("mem.arb.forced_rotations"), 0u);
}

// Regression (conflict accounting): conflict_cycles counts *cycles a
// requester spent with work queued but ungranted*, not re-arbitration
// attempts. Three same-port reads at G=1, latency 1: cycle 0 grants one
// (2 left waiting -> +1), cycle 1 grants the next (1 left -> +1), cycle 2
// drains the queue. Exactly 2 — the pre-fix per-waiting-request tally said
// 3 (and diverged further as queues deepened), inflating every
// fig6/fig7-style stall attribution.
TEST(MemorySystem, ConflictCyclesCountUniqueStalledCycles) {
  MemorySystemConfig cfg = smallConfig();
  cfg.sram_latency = 1;
  cfg.grants_per_cycle = 1;
  MemorySystem mem(cfg);
  for (int i = 0; i < 3; ++i) {
    mem.submit({static_cast<Addr>(4 * i), 4, false, 0, Requester::Cpu});
  }
  sim::Cycle now = 0;
  while (!mem.idle() && now < 20) mem.tick(now++);
  EXPECT_EQ(mem.stats().value("mem.cpu.conflict_cycles"), 2u);
}

// Property test: random multi-requester schedules over every tile count and
// both policies. Invariants, independent of policy:
//   - conservation: every submitted read completes, per-requester grant
//     counters sum to mem.grants, and each equals that port's submissions;
//   - bandwidth/exclusivity: never more than grants_per_cycle kMemGrant
//     events in one cycle;
//   - bounded wait (RoundRobin only): with per-port outstanding capped at
//     4, no request waits longer than a full rotation of everyone's cap.
TEST(MemorySystem, MultiRequesterArbitrationProperties) {
  for (const std::uint32_t tiles : {1u, 2u, 4u}) {
    for (const ArbiterPolicy policy :
         {ArbiterPolicy::CpuPriority, ArbiterPolicy::RoundRobin}) {
      MemorySystemConfig cfg = smallConfig();
      cfg.num_tiles = tiles;
      cfg.policy = policy;
      cfg.grants_per_cycle = 1;
      MemorySystem mem(cfg);
      obs::TraceSink sink;
      mem.setTraceSink(&sink);

      const std::uint32_t ports = cfg.numRequesters();
      sim::Rng rng(0xA5B1 + tiles * 16 + static_cast<int>(policy));
      struct Outstanding {
        RequestId id;
        sim::Cycle submitted;
        std::uint32_t port;
      };
      std::vector<Outstanding> pending;
      std::vector<std::uint32_t> in_flight(ports, 0);
      std::vector<std::uint64_t> submitted(ports, 0);
      std::uint64_t max_wait = 0;
      sim::Cycle now = 0;

      const auto drainCompleted = [&] {
        for (std::size_t i = 0; i < pending.size();) {
          if (mem.takeResponse(pending[i].port, pending[i].id)) {
            max_wait = std::max<std::uint64_t>(max_wait,
                                               now - pending[i].submitted);
            --in_flight[pending[i].port];
            pending[i] = pending.back();
            pending.pop_back();
          } else {
            ++i;
          }
        }
      };

      for (int cycle = 0; cycle < 256; ++cycle) {
        for (std::uint32_t port = 0; port < ports; ++port) {
          // ~50% chance per port per cycle, capped at 4 outstanding so the
          // round-robin wait bound below is meaningful.
          if (in_flight[port] < 4 && rng.nextBool(0.5)) {
            const MemAccess access{static_cast<Addr>(4 * port), 4, false, 0,
                                   requesterRole(port),
                                   static_cast<std::uint8_t>(
                                       requesterTile(port))};
            pending.push_back({mem.submit(access), now, port});
            ++in_flight[port];
            ++submitted[port];
          }
        }
        mem.tick(now++);
        drainCompleted();
      }
      while (!mem.idle() && now < 2048) {
        mem.tick(now++);
        drainCompleted();
      }
      EXPECT_TRUE(pending.empty())
          << pending.size() << " reads never completed (tiles=" << tiles
          << ")";

      // Conservation.
      std::uint64_t total = 0;
      for (std::uint32_t port = 0; port < ports; ++port) {
        const std::uint64_t grants =
            mem.stats().value("mem." + requesterLabel(port) + ".grants");
        EXPECT_EQ(grants, submitted[port])
            << "port " << port << " tiles=" << tiles;
        total += grants;
      }
      EXPECT_EQ(mem.stats().value("mem.grants"), total);

      // Bandwidth / per-bank exclusivity: grants per cycle never exceed G.
      std::map<sim::Cycle, std::uint32_t> grants_at;
      for (const obs::TraceEvent& ev : sink.events()) {
        if (ev.kind == obs::EventKind::kMemGrant) ++grants_at[ev.cycle];
      }
      for (const auto& [cycle, count] : grants_at) {
        EXPECT_LE(count, cfg.grants_per_cycle) << "cycle " << cycle;
      }

      // Bounded wait under round-robin: a port's oldest request is granted
      // after at most everyone else's full outstanding cap drains ahead of
      // it, plus its own queue and the SRAM latency.
      if (policy == ArbiterPolicy::RoundRobin) {
        const std::uint64_t bound =
            static_cast<std::uint64_t>(4) * ports + cfg.sram_latency + 8;
        EXPECT_LE(max_wait, bound) << "tiles=" << tiles;
      }
    }
  }
}

TEST(MemorySystem, RoundRobinAlternates) {
  MemorySystemConfig cfg = smallConfig();
  cfg.grants_per_cycle = 1;
  cfg.policy = ArbiterPolicy::RoundRobin;
  MemorySystem mem(cfg);
  // Queue 2 HHT then 2 CPU; round-robin grants CPU, HHT, CPU, HHT.
  const RequestId h1 = mem.submit({0, 4, false, 0, Requester::Hht});
  const RequestId h2 = mem.submit({4, 4, false, 0, Requester::Hht});
  const RequestId c1 = mem.submit({8, 4, false, 0, Requester::Cpu});
  const RequestId c2 = mem.submit({12, 4, false, 0, Requester::Cpu});
  sim::Cycle now = 0;
  std::vector<RequestId> completion_order;
  for (int cycle = 0; cycle < 12 && completion_order.size() < 4; ++cycle) {
    mem.tick(now++);
    for (const auto& [who, id] :
         {std::pair{kHhtPort, h1}, {kHhtPort, h2}, {kCpuPort, c1},
          {kCpuPort, c2}}) {
      if (mem.takeResponse(who, id)) completion_order.push_back(id);
    }
  }
  ASSERT_EQ(completion_order.size(), 4u);
  EXPECT_EQ(completion_order[0], c1);
  EXPECT_EQ(completion_order[1], h1);
  EXPECT_EQ(completion_order[2], c2);
  EXPECT_EQ(completion_order[3], h2);
}

TEST(MemorySystem, PerRequesterFifoOrder) {
  MemorySystem mem(smallConfig());
  const RequestId a = mem.submit({0, 4, false, 0, Requester::Cpu});
  const RequestId b = mem.submit({4, 4, false, 0, Requester::Cpu});
  sim::Cycle now = 0;
  bool a_done = false;
  for (int cycle = 0; cycle < 10; ++cycle) {
    mem.tick(now++);
    if (mem.takeResponse(kCpuPort, b)) {
      EXPECT_TRUE(a_done) << "younger same-requester read completed first";
      break;
    }
    if (mem.takeResponse(kCpuPort, a)) a_done = true;
  }
  EXPECT_TRUE(a_done);
}

TEST(MemorySystem, ManyUnclaimedResponsesStayClaimableInAnyOrder) {
  // Completed responses wait in a per-port slot table indexed by the id's
  // sequence number. Far more unclaimed responses than its initial size
  // (on a 3-tile machine, whose 6 ports make the id stride not a power of
  // two) must all stay claimable, newest first, with the right data —
  // and kInvalidRequest, the id a faulted walker holds, never matches.
  MemorySystemConfig cfg = smallConfig();
  cfg.num_tiles = 3;
  cfg.grants_per_cycle = 4;
  MemorySystem mem(cfg);
  for (Addr a = 0; a < 4 * 100; a += 4) mem.sram().write(a, 4, a * 7 + 1);
  std::vector<RequestId> ids;
  for (Addr a = 0; a < 4 * 100; a += 4) {
    ids.push_back(mem.submit({a, 4, false, 0, Requester::Hht, 2}));
  }
  sim::Cycle now = 0;
  while (!mem.hasResponses(Requester::Hht, 2) || mem.nextEventCycle(now) !=
                                                     sim::kNeverCycle) {
    mem.tick(now++);
  }
  const std::uint32_t who = requesterIndex(Requester::Hht, 2);
  for (std::uint32_t port = 0; port < cfg.numRequesters(); ++port) {
    EXPECT_FALSE(mem.takeResponse(port, kInvalidRequest).has_value()) << port;
  }
  for (std::size_t i = ids.size(); i-- > 0;) {
    const auto r = mem.takeResponse(who, ids[i]);
    ASSERT_TRUE(r.has_value()) << "response " << i << " lost";
    EXPECT_EQ(r->data, static_cast<std::uint32_t>(i * 4 * 7 + 1));
    EXPECT_FALSE(mem.takeResponse(who, ids[i]).has_value()) << "claimed twice";
  }
  EXPECT_TRUE(mem.idle());
}

TEST(MemorySystem, IdleTracksOutstandingWork) {
  MemorySystem mem(smallConfig());
  EXPECT_TRUE(mem.idle());
  const RequestId id = mem.submit({0, 4, false, 0, Requester::Cpu});
  EXPECT_FALSE(mem.idle());
  sim::Cycle now = 0;
  waitFor(mem, id, now);
  EXPECT_TRUE(mem.idle());
  // Posted writes drain without any takeResponse call.
  mem.submit({0, 4, true, 1, Requester::Cpu});
  EXPECT_FALSE(mem.idle());
  mem.tick(now++);
  EXPECT_TRUE(mem.idle());
}

/// Scripted MMIO device: not-ready for the first `stall_reads` attempts.
class StubDevice : public MmioDevice {
 public:
  MmioReadResult mmioRead(Addr offset, std::uint32_t, Requester) override {
    ++read_attempts;
    if (stall_reads > 0) {
      --stall_reads;
      return {false, 0};
    }
    return {true, 0x1000 + offset};
  }
  void mmioWrite(Addr offset, std::uint32_t, std::uint32_t value, Requester) override {
    last_write_offset = offset;
    last_write_value = value;
  }

  int stall_reads = 0;
  int read_attempts = 0;
  Addr last_write_offset = 0;
  std::uint32_t last_write_value = 0;
};

TEST(MemorySystem, MmioRoutesToDevice) {
  MemorySystemConfig cfg = smallConfig();
  MemorySystem mem(cfg);
  StubDevice dev;
  mem.attachMmioDevice(&dev);
  ASSERT_TRUE(mem.isMmio(cfg.mmio_base + 0x20));
  ASSERT_FALSE(mem.isMmio(0x20));

  mem.submit({cfg.mmio_base + 0x08, 4, true, 77, Requester::Cpu});
  sim::Cycle now = 0;
  mem.tick(now++);
  EXPECT_EQ(dev.last_write_offset, 0x08u);
  EXPECT_EQ(dev.last_write_value, 77u);

  const RequestId id = mem.submit({cfg.mmio_base + 0x40, 4, false, 0,
                                   Requester::Cpu});
  const auto [data, waited] = waitFor(mem, id, now);
  (void)waited;
  EXPECT_EQ(data, 0x1040u);
}

TEST(MemorySystem, StalledMmioReadRetriesEveryCycle) {
  MemorySystemConfig cfg = smallConfig();
  MemorySystem mem(cfg);
  StubDevice dev;
  dev.stall_reads = 3;
  mem.attachMmioDevice(&dev);
  const RequestId id = mem.submit({cfg.mmio_base, 4, false, 0, Requester::Cpu});
  sim::Cycle now = 0;
  const auto [data, waited] = waitFor(mem, id, now);
  EXPECT_EQ(data, 0x1000u);
  EXPECT_EQ(dev.read_attempts, 4);  // 3 stalls + 1 success
  EXPECT_GE(waited, 3);
}

TEST(MemorySystem, UnmappedMmioReadsZero) {
  MemorySystem mem(smallConfig());
  const RequestId id =
      mem.submit({mem.config().mmio_base, 4, false, 0, Requester::Cpu});
  sim::Cycle now = 0;
  const auto [data, waited] = waitFor(mem, id, now);
  (void)waited;
  EXPECT_EQ(data, 0u);
}

}  // namespace
}  // namespace hht::mem
