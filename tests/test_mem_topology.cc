// Memory-topology tests (DESIGN.md §17): the composable node/edge memory
// system. Property harness over randomized topologies and request streams
// (conservation, per-channel bandwidth exclusivity, bounded wait under
// round-robin), directed checks of address interleaving, tile-L1 local
// completion, link-bandwidth metering, snapshot round-trips of
// hierarchical state, scrub/SECDED behaviour across channels, the stall
// profiler's exact-horizon partition on a hierarchical run, and config
// validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "harness/experiment.h"
#include "mem/memory_system.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sim/rng.h"
#include "sim/state_io.h"
#include "workload/synthetic.h"

namespace hht::mem {
namespace {

using harness::Kernel;

MemorySystemConfig baseConfig() {
  MemorySystemConfig cfg;
  cfg.sram_bytes = 8192;
  cfg.sram_latency = 2;
  cfg.grants_per_cycle = 1;
  return cfg;
}

/// The Occamy-style hierarchy fig_scaleout ablates: per-tile L1 over 4
/// interleaved channels.
MemorySystemConfig hierConfig(std::uint32_t tiles) {
  MemorySystemConfig cfg = baseConfig();
  cfg.num_tiles = tiles;
  cfg.topology.channels = 4;
  cfg.topology.interleave_bytes = 64;
  cfg.topology.tile_l1_enabled = true;
  cfg.topology.tile_l1.size_bytes = 512;
  cfg.topology.tile_l1.line_bytes = 16;
  cfg.topology.tile_l1.ways = 2;
  cfg.topology.tile_l1.hit_latency = 1;
  cfg.topology.tile_l1.miss_penalty = 4;
  return cfg;
}

std::vector<std::uint8_t> snapshotOf(const MemorySystem& mem) {
  sim::StateWriter w;
  mem.serialize(w);
  return w.data();
}

/// A submitted read and the requester port that polls for it.
struct Ticket {
  std::uint32_t port;
  RequestId id;
};

/// Claim `t`'s response if it has arrived.
bool claim(MemorySystem& mem, const Ticket& t) {
  return mem.takeResponse(t.port, t.id).has_value();
}

/// Drive `mem` with a deterministic random read/write stream and drain it;
/// returns every *read* submitted (writes are posted).
std::vector<Ticket> driveRandomStream(MemorySystem& mem, sim::Rng& rng,
                                      int cycles, sim::Cycle& now,
                                      std::vector<Ticket>* open) {
  const std::uint32_t ports = mem.config().numRequesters();
  std::vector<Ticket> reads;
  for (int c = 0; c < cycles; ++c) {
    for (std::uint32_t port = 0; port < ports; ++port) {
      if (!rng.nextBool(0.4)) continue;
      const bool is_write = rng.nextBool(0.25);
      const Addr addr =
          static_cast<Addr>(rng.nextBelow(mem.config().sram_bytes / 4)) * 4;
      const MemAccess access{addr, 4, is_write,
                             is_write
                                 ? static_cast<std::uint32_t>(
                                       rng.nextBelow(0x1'0000))
                                 : 0,
                             requesterRole(port),
                             static_cast<std::uint8_t>(requesterTile(port))};
      const RequestId id = mem.submit(access);
      if (!is_write) {
        reads.push_back({port, id});
        if (open != nullptr) open->push_back({port, id});
      }
    }
    mem.tick(now++);
    if (open != nullptr) {
      std::erase_if(*open, [&](const Ticket& t) { return claim(mem, t); });
    }
  }
  return reads;
}

// --- property harness: randomized topologies x request streams ---

/// One random topology drawn from the full config space the simulator
/// supports (flat, channel-split, linked, L1, prefetching).
TopologyConfig randomTopology(sim::Rng& rng) {
  TopologyConfig topo;
  const std::uint32_t kChannelChoices[] = {1, 2, 3, 4, 8};
  topo.channels = kChannelChoices[rng.nextBelow(5)];
  const std::uint32_t kGranules[] = {16, 64, 256};
  topo.interleave_bytes = kGranules[rng.nextBelow(3)];
  topo.link_latency = rng.nextBelow(3);
  topo.link_bandwidth =
      static_cast<std::uint32_t>(rng.nextBelow(3));  // 0 = unbounded
  if (rng.nextBool(0.5)) {
    topo.tile_l1_enabled = true;
    topo.tile_l1.size_bytes = 256;
    topo.tile_l1.line_bytes = 16;
    topo.tile_l1.ways = 2;
    topo.tile_l1.hit_latency = 1;
    topo.tile_l1.miss_penalty = 3;
    if (rng.nextBool(0.5)) {
      topo.hht_prefetch_enabled = true;
      topo.hht_prefetch_degree =
          1 + static_cast<std::uint32_t>(rng.nextBelow(3));
      topo.hht_prefetch_queue =
          4 + static_cast<std::uint32_t>(rng.nextBelow(12));
    }
  }
  if (rng.nextBool(0.3)) {
    topo.nodes.resize(topo.channels);
    for (auto& node : topo.nodes) {
      node.grants_per_cycle =
          static_cast<std::uint32_t>(rng.nextBelow(3));  // 0 = inherit
      node.extra_latency = rng.nextBelow(3);
    }
  }
  return topo;
}

// Conservation: every accepted request is answered exactly once, on every
// topology. Reads complete with exactly one response; after the stream
// drains the system reaches idle (no request is lost in a lane, channel
// queue or in-flight list, and none is duplicated — a second takeResponse
// on a consumed id must miss).
TEST(MemTopology, RandomizedTopologiesConserveEveryRequest) {
  for (std::uint64_t trial = 0; trial < 24; ++trial) {
    sim::Rng rng(0x70'01 + trial * 977);
    MemorySystemConfig cfg = baseConfig();
    cfg.num_tiles = 1u << rng.nextBelow(3);  // 1, 2 or 4
    cfg.policy = rng.nextBool(0.5) ? ArbiterPolicy::CpuPriority
                                   : ArbiterPolicy::RoundRobin;
    cfg.grants_per_cycle =
        1 + static_cast<std::uint32_t>(rng.nextBelow(2));
    cfg.topology = randomTopology(rng);
    ASSERT_NO_THROW(cfg.validate()) << "trial " << trial;
    MemorySystem mem(cfg);

    sim::Cycle now = 0;
    std::vector<Ticket> open;
    const std::vector<Ticket> reads =
        driveRandomStream(mem, rng, 96, now, &open);
    for (int guard = 0; !mem.idle() && guard < 4096; ++guard) {
      mem.tick(now++);
      std::erase_if(open, [&](const Ticket& t) { return claim(mem, t); });
    }
    EXPECT_TRUE(mem.idle()) << "trial " << trial << " never drained:\n"
                            << mem.describeState();
    EXPECT_TRUE(open.empty())
        << "trial " << trial << ": " << open.size()
        << " accepted reads never answered";
    // Exactly once: every id was consumed above; a second poll must miss.
    for (const Ticket& t : reads) {
      EXPECT_FALSE(claim(mem, t))
          << "trial " << trial << " duplicated response id=" << t.id;
    }
  }
}

// Per-link bandwidth exclusivity: no channel ever issues more grants in
// one cycle than its (possibly node-overridden) grant budget. The grant
// trace payload carries the granting channel in bits 56+.
TEST(MemTopology, PerChannelGrantBudgetIsExclusive) {
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    sim::Rng rng(0x70'31 + trial * 131);
    MemorySystemConfig cfg = baseConfig();
    cfg.num_tiles = 4;
    cfg.grants_per_cycle =
        1 + static_cast<std::uint32_t>(rng.nextBelow(2));
    cfg.topology.channels =
        2 + static_cast<std::uint32_t>(rng.nextBelow(3));
    cfg.topology.interleave_bytes = 16;
    if (rng.nextBool(0.5)) {
      cfg.topology.nodes.resize(cfg.topology.channels);
      for (auto& node : cfg.topology.nodes) {
        node.grants_per_cycle =
            1 + static_cast<std::uint32_t>(rng.nextBelow(2));
      }
    }
    MemorySystem mem(cfg);
    obs::TraceSink sink;
    mem.setTraceSink(&sink);

    sim::Cycle now = 0;
    std::vector<Ticket> open;
    driveRandomStream(mem, rng, 128, now, &open);
    for (int guard = 0; !mem.idle() && guard < 2048; ++guard) {
      mem.tick(now++);
      std::erase_if(open, [&](const Ticket& t) { return claim(mem, t); });
    }

    std::map<std::pair<sim::Cycle, std::uint32_t>, std::uint32_t> per_ch;
    for (const obs::TraceEvent& ev : sink.events()) {
      if (ev.kind != obs::EventKind::kMemGrant) continue;
      const std::uint32_t ch = static_cast<std::uint32_t>(ev.b >> 56);
      ASSERT_LT(ch, cfg.topology.channels);
      ++per_ch[{ev.cycle, ch}];
    }
    for (const auto& [key, count] : per_ch) {
      const std::uint32_t budget =
          cfg.topology.nodes.empty()
              ? cfg.grants_per_cycle
              : (cfg.topology.nodes[key.second].grants_per_cycle != 0
                     ? cfg.topology.nodes[key.second].grants_per_cycle
                     : cfg.grants_per_cycle);
      EXPECT_LE(count, budget) << "trial " << trial << " cycle " << key.first
                               << " channel " << key.second;
    }
  }
}

// Address interleaving: a request is granted by exactly the channel that
// owns its address granule, and the per-channel grant counters account for
// every demand grant.
TEST(MemTopology, InterleaveRoutesByAddress) {
  MemorySystemConfig cfg = baseConfig();
  cfg.topology.channels = 4;
  cfg.topology.interleave_bytes = 64;
  MemorySystem mem(cfg);
  obs::TraceSink sink;
  mem.setTraceSink(&sink);

  sim::Cycle now = 0;
  sim::Rng rng(0x70'41);
  std::vector<Ticket> open;
  driveRandomStream(mem, rng, 64, now, &open);
  for (int guard = 0; !mem.idle() && guard < 1024; ++guard) {
    mem.tick(now++);
    std::erase_if(open, [&](const Ticket& t) { return claim(mem, t); });
  }

  std::uint64_t grants_seen[4] = {0, 0, 0, 0};
  for (const obs::TraceEvent& ev : sink.events()) {
    if (ev.kind != obs::EventKind::kMemGrant) continue;
    const std::uint32_t ch = static_cast<std::uint32_t>(ev.b >> 56);
    EXPECT_EQ(ch, cfg.topology.channelOf(static_cast<Addr>(ev.a)))
        << "addr 0x" << std::hex << ev.a;
    ++grants_seen[ch];
  }
  std::uint64_t total = 0;
  for (std::uint32_t k = 0; k < 4; ++k) {
    EXPECT_EQ(mem.stats().value("mem.ch" + std::to_string(k) + ".grants"),
              grants_seen[k]);
    total += grants_seen[k];
  }
  EXPECT_EQ(mem.stats().value("mem.grants"), total);
  EXPECT_GT(total, 0u);
}

// Bounded wait under round-robin survives the channel split: with per-port
// outstanding capped, no request waits longer than everyone else's full
// cap draining ahead of it (plus latency slack).
TEST(MemTopology, RoundRobinWaitStaysBoundedAcrossChannels) {
  MemorySystemConfig cfg = baseConfig();
  cfg.num_tiles = 4;
  cfg.policy = ArbiterPolicy::RoundRobin;
  cfg.topology.channels = 2;
  cfg.topology.interleave_bytes = 16;
  MemorySystem mem(cfg);

  const std::uint32_t ports = cfg.numRequesters();
  sim::Rng rng(0x70'51);
  struct Outstanding {
    RequestId id;
    sim::Cycle submitted;
    std::uint32_t port;
  };
  std::vector<Outstanding> pending;
  std::vector<std::uint32_t> in_flight(ports, 0);
  std::uint64_t max_wait = 0;
  sim::Cycle now = 0;
  const auto drain = [&] {
    for (std::size_t i = 0; i < pending.size();) {
      if (mem.takeResponse(pending[i].port, pending[i].id)) {
        max_wait = std::max<std::uint64_t>(max_wait, now - pending[i].submitted);
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
      if (in_flight[port] < 4 && rng.nextBool(0.5)) {
        const MemAccess access{static_cast<Addr>(4 * port + 16 * rng.nextBelow(8)),
                               4, false, 0, requesterRole(port),
                               static_cast<std::uint8_t>(requesterTile(port))};
        pending.push_back({mem.submit(access), now, port});
        ++in_flight[port];
      }
    }
    mem.tick(now++);
    drain();
  }
  while (!mem.idle() && now < 4096) {
    mem.tick(now++);
    drain();
  }
  EXPECT_TRUE(pending.empty());
  // A request can wait behind every other port's full cap on its own
  // channel; the second channel only *adds* bandwidth.
  const std::uint64_t bound =
      static_cast<std::uint64_t>(4) * ports + cfg.sram_latency + 8;
  EXPECT_LE(max_wait, bound);
}

// A tile-L1 hit completes locally: correct data, no shared-level grant.
TEST(MemTopology, TileL1HitCompletesWithoutSharedGrant) {
  MemorySystemConfig cfg = hierConfig(2);
  MemorySystem mem(cfg);
  sim::Cycle now = 0;
  // Functional (host-side) store: no simulated traffic, caches stay cold.
  mem.sram().write(0x40, 4, 0xC0FFEE);
  const std::uint64_t grants_before = mem.stats().value("mem.grants");

  const auto read_once = [&](std::uint8_t tile) {
    const RequestId id = mem.submit({0x40, 4, false, 0, Requester::Cpu, tile});
    for (int i = 0; i < 64; ++i) {
      mem.tick(now++);
      if (auto r = mem.takeResponse(requesterIndex(Requester::Cpu, tile), id)) {
        return r->data;
      }
    }
    ADD_FAILURE() << "read never completed";
    return 0u;
  };
  EXPECT_EQ(read_once(0), 0xC0FFEEu);  // miss: fills tile 0's L1
  const std::uint64_t grants_after_miss = mem.stats().value("mem.grants");
  EXPECT_EQ(grants_after_miss, grants_before + 1);
  EXPECT_EQ(read_once(0), 0xC0FFEEu);  // hit: served from tile 0's L1
  EXPECT_EQ(mem.stats().value("mem.grants"), grants_after_miss)
      << "an L1 hit consumed a shared-level grant";
  ASSERT_NE(mem.tileL1(0), nullptr);
  EXPECT_EQ(mem.tileL1(0)->hits(), 1u);
  // Tile 1's L1 is independent: its read misses and takes a grant.
  EXPECT_EQ(read_once(1), 0xC0FFEEu);
  EXPECT_EQ(mem.stats().value("mem.grants"), grants_after_miss + 1);
  EXPECT_EQ(mem.tileL1(1)->hits(), 0u);
}

// Link bandwidth meters the tile edge: with bandwidth 1 a 4-deep burst
// from one tile needs at least one extra cycle per trailing request, and
// the waiting entries count as conflict cycles for their port.
TEST(MemTopology, LinkBandwidthMetersTheTileEdge) {
  const auto burst_completion_span = [](std::uint32_t bw) {
    MemorySystemConfig cfg = baseConfig();
    cfg.grants_per_cycle = 4;
    cfg.sram_latency = 1;
    cfg.topology.link_bandwidth = bw;
    MemorySystem mem(cfg);
    std::vector<RequestId> ids;
    for (int i = 0; i < 4; ++i) {
      ids.push_back(
          mem.submit({static_cast<Addr>(4 * i), 4, false, 0, Requester::Cpu}));
    }
    sim::Cycle now = 0;
    sim::Cycle last_done = 0;
    std::size_t done = 0;
    while (done < ids.size() && now < 64) {
      mem.tick(now++);
      for (const RequestId id : ids) {
        if (mem.takeResponse(requesterIndex(Requester::Cpu, 0), id)) {
          ++done;
          last_done = now;
        }
      }
    }
    EXPECT_EQ(done, ids.size());
    return std::pair<sim::Cycle, std::uint64_t>{
        last_done, mem.stats().value("mem.cpu.conflict_cycles")};
  };
  const auto [span_unbounded, conflicts_unbounded] = burst_completion_span(0);
  const auto [span_bw1, conflicts_bw1] = burst_completion_span(1);
  // bw=1 releases one request per cycle; the 4th reaches the channel 3
  // cycles later than with an unbounded link.
  EXPECT_GE(span_bw1, span_unbounded + 3);
  EXPECT_GT(conflicts_bw1, conflicts_unbounded)
      << "requests stalled at the link must count as conflict cycles";
}

// Hierarchical snapshot round-trip: serialize mid-burst (queues, lanes,
// L1 tag state, prefetcher state all non-trivial), restore into a fresh
// MemorySystem, drive both with the same continuation — byte-identical
// state and stats at every step.
TEST(MemTopology, HierarchicalSnapshotRoundTripsMidBurst) {
  MemorySystemConfig cfg = hierConfig(2);
  cfg.topology.hht_prefetch_enabled = true;
  cfg.topology.link_bandwidth = 1;
  cfg.scrub_enabled = true;
  cfg.scrub_period = 16;
  MemorySystem a(cfg);

  sim::Cycle now = 0;
  sim::Rng rng(0x70'71);
  std::vector<Ticket> open;
  driveRandomStream(a, rng, 40, now, &open);
  // Mid-burst: requests are parked in lanes/queues and in flight.
  EXPECT_FALSE(a.idle());

  const std::vector<std::uint8_t> snap = snapshotOf(a);
  MemorySystem b(cfg);
  {
    sim::StateReader r(snap);
    b.deserialize(r);
  }
  EXPECT_EQ(snap, snapshotOf(b)) << "restore is not serialize-stable";

  // Identical continuation on both machines.
  sim::Cycle now_a = now, now_b = now;
  sim::Rng rng_a(0x70'72), rng_b(0x70'72);
  driveRandomStream(a, rng_a, 32, now_a, nullptr);
  driveRandomStream(b, rng_b, 32, now_b, nullptr);
  for (int guard = 0; guard < 2048 && !(a.idle() && b.idle()); ++guard) {
    a.tick(now_a++);
    b.tick(now_b++);
  }
  EXPECT_EQ(snapshotOf(a), snapshotOf(b));
  EXPECT_EQ(a.stats().all(), b.stats().all());
}

// The integrity layer survives the topology: a latent flip under a line
// already cached in a tile L1 is still corrected on the local-hit read
// (single flip) and still contained (poisoned) when uncorrectable — the
// L1 caches timing, never stale data.
TEST(MemTopology, SecdedAppliesOnTileL1LocalHits) {
  MemorySystemConfig cfg = hierConfig(1);
  MemorySystem mem(cfg);
  sim::Cycle now = 0;
  mem.submit({0x80, 4, true, 0x1234, Requester::Hht, 0});
  mem.tick(now++);

  const auto read_once = [&]() {
    const RequestId id = mem.submit({0x80, 4, false, 0, Requester::Hht, 0});
    for (int i = 0; i < 64; ++i) {
      mem.tick(now++);
      if (auto r = mem.takeResponse(requesterIndex(Requester::Hht, 0), id)) {
        return *r;
      }
    }
    ADD_FAILURE() << "read never completed";
    return MemResponse{};
  };
  ASSERT_EQ(read_once().data, 0x1234u);  // line now resident in the L1
  ASSERT_GT(mem.tileL1(0)->misses(), 0u);

  // Single latent flip under the cached line: corrected in flight.
  mem.sram().injectLatentFlip(0x80, 0x1);
  const MemResponse corrected = read_once();
  EXPECT_EQ(corrected.data, 0x1234u);
  EXPECT_FALSE(corrected.poisoned);
  EXPECT_EQ(mem.stats().value("mem.secded.demand_corrected"), 1u);

  // Second flip in the same word: uncorrectable, delivered poisoned even
  // though the access never left the tile.
  mem.sram().injectLatentFlip(0x80, 0x2);
  const MemResponse poisoned = read_once();
  EXPECT_TRUE(poisoned.poisoned);
  EXPECT_EQ(poisoned.data, 0x1234u ^ 0x3u);
  EXPECT_EQ(mem.stats().value("mem.secded.demand_uncorrectable"), 1u);
}

// The patrol scrubber walks the whole SRAM on a multi-channel topology,
// drawing its spare slot from the channel that owns the patrol word, and
// still corrects latent flips anywhere in the address space.
TEST(MemTopology, ScrubberCorrectsAcrossChannels) {
  MemorySystemConfig cfg = baseConfig();
  cfg.topology.channels = 4;
  cfg.topology.interleave_bytes = 16;
  cfg.scrub_enabled = true;
  cfg.scrub_period = 1;
  MemorySystem mem(cfg);
  // One flip per channel granule, covering all four channels.
  for (std::uint32_t k = 0; k < 4; ++k) {
    mem.sram().injectLatentFlip(16 * k + 4, 0x10);
  }
  ASSERT_EQ(mem.sram().latentCount(), 4u);
  sim::Cycle now = 0;
  const sim::Cycle budget =
      static_cast<sim::Cycle>(cfg.sram_bytes / 4) * 2 + 16;
  while (mem.sram().latentCount() != 0 && now < budget) mem.tick(now++);
  EXPECT_EQ(mem.sram().latentCount(), 0u);
  EXPECT_EQ(mem.stats().value("mem.scrub.corrected"), 4u);
  EXPECT_EQ(mem.stats().value("mem.secded.demand_corrected"), 0u);
}

// Config validation rejects broken topologies with SimError(Config).
TEST(MemTopology, ValidationRejectsBrokenTopologies) {
  using sim::ErrorKind;
  using sim::SimError;
  const auto expect_config_error = [](MemorySystemConfig cfg,
                                      const char* what) {
    try {
      cfg.validate();
      ADD_FAILURE() << "accepted: " << what;
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Config) << what;
    }
  };
  {
    MemorySystemConfig cfg = baseConfig();
    cfg.topology.channels = 0;
    expect_config_error(cfg, "channels = 0");
    cfg.topology.channels = 17;
    expect_config_error(cfg, "channels = 17");
  }
  {
    MemorySystemConfig cfg = baseConfig();
    cfg.topology.channels = 2;
    cfg.topology.interleave_bytes = 48;  // not a power of two
    expect_config_error(cfg, "non-power-of-two interleave");
  }
  {
    MemorySystemConfig cfg = baseConfig();
    cfg.topology.channels = 4;
    cfg.topology.nodes.resize(2);  // wrong node count
    expect_config_error(cfg, "nodes.size() != channels");
  }
  {
    MemorySystemConfig cfg = baseConfig();
    cfg.topology.hht_prefetch_enabled = true;  // needs tile_l1
    expect_config_error(cfg, "prefetcher without tile L1");
  }
  {
    MemorySystemConfig cfg = hierConfig(1);
    cfg.topology.interleave_bytes = 8;  // < line_bytes: line straddles
    expect_config_error(cfg, "interleave < L1 line");
  }
  {
    MemorySystemConfig cfg = hierConfig(1);
    cfg.cpu_cache_enabled = true;  // two same-level caches
    expect_config_error(cfg, "tile L1 + flat CPU cache");
  }
  // The hierarchical configs this file uses are themselves valid.
  EXPECT_NO_THROW(hierConfig(4).validate());
}

// A single explicit default node is the flat machine: same grant schedule,
// same stats, same snapshot bytes. This pins the node-inheritance path to
// the legacy arbiter bit for bit.
TEST(MemTopology, ExplicitSingleNodeIsByteIdenticalToFlat) {
  MemorySystemConfig flat = baseConfig();
  MemorySystemConfig one_node = baseConfig();
  one_node.topology.nodes.resize(1);  // all-zero: inherits every knob

  MemorySystem a(flat), b(one_node);
  sim::Cycle now_a = 0, now_b = 0;
  sim::Rng rng_a(0x70'91), rng_b(0x70'91);
  driveRandomStream(a, rng_a, 128, now_a, nullptr);
  driveRandomStream(b, rng_b, 128, now_b, nullptr);
  for (int guard = 0; guard < 1024 && !(a.idle() && b.idle()); ++guard) {
    a.tick(now_a++);
    b.tick(now_b++);
  }
  EXPECT_EQ(a.stats().all(), b.stats().all());
  EXPECT_EQ(snapshotOf(a), snapshotOf(b));
}

// The stall profiler's exact-horizon partition holds on a hierarchical
// end-to-end run: every component's buckets sum to the shared horizon, and
// the folded grant/conflict tallies reconcile exactly with the run stats.
TEST(MemTopology, ProfilerPartitionIsExactOnHierarchicalRun) {
  sim::Rng rng(0x70'A1);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 64, 64, 0.25);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 64);

  harness::SystemConfig cfg = harness::defaultConfig();
  cfg.memory.topology.channels = 4;
  cfg.memory.topology.interleave_bytes = 256;
  obs::TraceSink sink;
  cfg.trace_sink = &sink;
  const harness::RunResult r =
      harness::run(cfg, {Kernel::kSpmvVectorHht}, {&m, &v});

  const obs::ProfileReport rep = obs::profile(sink);
  ASSERT_GT(rep.horizon, 0u);
  for (std::size_t c = 0; c < obs::kNumComponents; ++c) {
    EXPECT_EQ(rep.componentTotal(static_cast<obs::Component>(c)), rep.horizon)
        << "component " << obs::componentName(static_cast<obs::Component>(c));
  }
  EXPECT_EQ(rep.mem_grants, r.stats.value("mem.grants"));
  EXPECT_EQ(rep.mem_conflict_cpu, r.stats.value("mem.cpu.conflict_cycles"));
  EXPECT_EQ(rep.mem_conflict_hht, r.stats.value("mem.hht.conflict_cycles"));
  // The channel split is live: more than one channel granted work.
  std::uint32_t channels_used = 0;
  for (std::uint32_t k = 0; k < 4; ++k) {
    if (r.stats.value("mem.ch" + std::to_string(k) + ".grants") > 0) {
      ++channels_used;
    }
  }
  EXPECT_GT(channels_used, 1u);
}

}  // namespace
}  // namespace hht::mem
