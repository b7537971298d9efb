// Stream-prefetcher tests: install semantics, spare-slot filling, the
// §2 property that streams benefit while indirect gathers do not, and the
// HHT-side stride prefetcher of the hierarchical topology (DESIGN.md §17):
// pure-timing bit-identity, mispredict containment, the stat block and its
// golden trace, plus poison/scrub interplay with tile-local caching.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "harness/experiment.h"
#include "mem/memory_system.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "workload/synthetic.h"

#ifndef HHT_GOLDEN_DIR
#error "HHT_GOLDEN_DIR must point at the checked-in golden trace directory"
#endif

namespace hht {
namespace {

using harness::Kernel;

/// Ports of tile 0's requesters, the tile a MemAccess names by default.
const std::uint32_t kCpuPort = mem::requesterIndex(mem::Requester::Cpu, 0);
const std::uint32_t kHhtPort = mem::requesterIndex(mem::Requester::Hht, 0);

TEST(CacheInstall, FillsWithoutTouchingDemandStats) {
  mem::CacheConfig cfg;
  cfg.size_bytes = 256;
  cfg.line_bytes = 32;
  cfg.ways = 2;
  mem::Cache cache(cfg);
  EXPECT_TRUE(cache.install(0x40));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.prefetchFills(), 1u);
  // A demand access to the installed line now hits.
  EXPECT_EQ(cache.access(0x44, false), cfg.hit_latency);
  EXPECT_EQ(cache.hits(), 1u);
  // Installing a resident line is a no-op.
  EXPECT_FALSE(cache.install(0x40));
  EXPECT_EQ(cache.prefetchFills(), 1u);
}

TEST(CacheInstall, EvictsDirtyVictimWithWriteback) {
  mem::CacheConfig cfg;
  cfg.size_bytes = 64;  // 2 lines of 32 B, 1 way each... use 2 ways 1 set
  cfg.line_bytes = 32;
  cfg.ways = 2;
  mem::Cache cache(cfg);
  cache.access(0x00, true);   // dirty
  cache.access(0x20, false);
  EXPECT_TRUE(cache.install(0x40));  // evicts dirty LRU line 0x00
  EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(MemorySystem, PrefetchUsesSpareSlotsOnly) {
  mem::MemorySystemConfig cfg;
  cfg.sram_bytes = 4096;
  cfg.cpu_cache_enabled = true;
  cfg.prefetch_enabled = true;
  cfg.prefetch_degree = 2;
  cfg.grants_per_cycle = 2;
  mem::MemorySystem mem(cfg);

  // One demand miss -> two next lines queued and filled from spare slots.
  const mem::RequestId id = mem.submit({0x100, 4, false, 0, mem::Requester::Cpu});
  sim::Cycle now = 0;
  for (int i = 0; i < 50 && !mem.takeResponse(kCpuPort, id); ++i) {
    mem.tick(now++);
  }
  for (int i = 0; i < 4; ++i) mem.tick(now++);  // drain the prefetch queue
  EXPECT_EQ(mem.stats().value("mem.cpu.prefetch_fills"), 2u);
  // The prefetched lines now hit.
  const mem::RequestId id2 = mem.submit({0x120, 4, false, 0, mem::Requester::Cpu});
  while (!mem.takeResponse(kCpuPort, id2)) mem.tick(now++);
  mem.finalizeStats();
  EXPECT_EQ(mem.stats().value("mem.cpu.cache_hits"), 1u);
}

TEST(Prefetcher, HelpsStreamsButNotGathers) {
  // End-to-end §2 check on the HP integration: the prefetcher must improve
  // the baseline SpMV (which streams rows/cols/vals) yet leave its hit rate
  // well short of the HHT run, whose CPU path no longer gathers at all.
  sim::Rng rng(0xBF0F);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 96, 96, 0.5);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 96);

  const auto makeCfg = [&](bool prefetch) {
    harness::SystemConfig cfg = harness::defaultConfig(2);
    cfg.memory.sram_latency = 24;
    cfg.memory.cache.miss_penalty = 24;
    cfg.memory.cpu_cache_enabled = true;
    cfg.memory.prefetch_enabled = prefetch;
    return cfg;
  };
  const auto plain =
      harness::run(makeCfg(false), {Kernel::kSpmvVectorBaseline}, {&m, &v});
  const auto pf =
      harness::run(makeCfg(true), {Kernel::kSpmvVectorBaseline}, {&m, &v});
  EXPECT_LT(pf.cycles, plain.cycles);       // streams prefetched
  EXPECT_EQ(pf.y, plain.y);                 // purely a timing feature
  EXPECT_GT(pf.stats.value("mem.cpu.prefetch_fills"), 0u);

  // The prefetcher alone must not reach the HHT's improvement.
  auto hht_cfg = makeCfg(false);
  hht_cfg.memory.hht_cache_enabled = true;
  const auto hht = harness::run(hht_cfg, {Kernel::kSpmvVectorHht}, {&m, &v});
  EXPECT_LT(hht.cycles, pf.cycles);
}

TEST(Prefetcher, DisabledByDefault) {
  sim::Rng rng(0xD1);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 32, 32, 0.5);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 32);
  harness::SystemConfig cfg = harness::defaultConfig(2);
  cfg.memory.cpu_cache_enabled = true;
  const auto run = harness::run(cfg, {Kernel::kSpmvVectorBaseline}, {&m, &v});
  EXPECT_EQ(run.stats.value("mem.cpu.prefetch_fills"), 0u);
}

// ---- HHT stride prefetcher (hierarchical topology, DESIGN.md §17) ----

/// Single-tile hierarchical config: small per-tile L1, two interleaved
/// shared channels, the HHT stride prefetcher switchable.
harness::SystemConfig hierPfConfig(bool prefetch) {
  harness::SystemConfig cfg = harness::defaultConfig(2);
  mem::TopologyConfig& topo = cfg.memory.topology;
  topo.channels = 2;
  topo.interleave_bytes = 256;
  topo.tile_l1_enabled = true;
  topo.tile_l1.size_bytes = 1024;
  topo.tile_l1.line_bytes = 32;
  topo.tile_l1.ways = 2;
  topo.tile_l1.hit_latency = 1;
  topo.tile_l1.miss_penalty = 4;
  topo.hht_prefetch_enabled = prefetch;
  return cfg;
}

TEST(HhtPrefetcher, PureTimingAcrossFig4Sparsities) {
  // The fig. 4 sweep shape, scaled down: at every sparsity point the
  // prefetch-on run must produce bit-identical outputs to prefetch-off —
  // the predictor only moves fills in time — and the hht.prefetch.* stat
  // block exists exactly when the prefetcher does.
  for (const int s : {10, 50, 90}) {
    sim::Rng rng(0xF160 + static_cast<std::uint64_t>(s));
    const sparse::CsrMatrix m = workload::randomCsr(rng, 96, 96, s / 100.0);
    const sparse::DenseVector v = workload::randomDenseVector(rng, 96);
    const auto off =
        harness::run(hierPfConfig(false), {Kernel::kSpmvVectorHht}, {&m, &v});
    const auto on =
        harness::run(hierPfConfig(true), {Kernel::kSpmvVectorHht}, {&m, &v});
    ASSERT_EQ(on.y.values(), off.y.values()) << "sparsity " << s << "%";
    EXPECT_GT(on.stats.value("hht.prefetch.issued"), 0u) << s;
    EXPECT_TRUE(on.stats.contains("hht.prefetch.useful"));
    EXPECT_TRUE(on.stats.contains("hht.prefetch.late"));
    EXPECT_TRUE(on.stats.contains("hht.prefetch.dropped"));
    EXPECT_FALSE(off.stats.contains("hht.prefetch.issued"));
  }
}

TEST(HhtPrefetcher, MispredictedPrefetchesNeverFault) {
  mem::MemorySystemConfig cfg;
  cfg.sram_bytes = 4096;
  cfg.sram_latency = 2;
  cfg.grants_per_cycle = 1;
  cfg.topology.channels = 2;
  cfg.topology.interleave_bytes = 256;
  cfg.topology.tile_l1_enabled = true;
  cfg.topology.tile_l1.size_bytes = 256;
  cfg.topology.tile_l1.line_bytes = 32;
  cfg.topology.tile_l1.ways = 2;
  cfg.topology.hht_prefetch_enabled = true;
  mem::MemorySystem mem(cfg);

  sim::Cycle now = 0;
  const auto read = [&](sim::Addr addr) {
    const mem::RequestId id =
        mem.submit({addr, 4, false, 0, mem::Requester::Hht});
    std::optional<mem::MemResponse> r;
    for (int i = 0; i < 200 && !(r = mem.takeResponse(kHhtPort, id)); ++i) {
      mem.tick(now++);
    }
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(r->poisoned);
  };
  // A fixed +128 stride rising to the top of SRAM: the predictor goes
  // confident on the third access and predicts 3968, 4096, 4224, 4352 —
  // three of the four past the end. They are dropped (counted, traced),
  // never submitted, never faults.
  for (sim::Addr a = 3584; a <= 3840; a += 128) read(a);
  // And a falling stride toward zero: the first predicted line is 0, the
  // rest go negative and stop the walk without counting anything.
  for (sim::Addr a = 384; a >= 128; a -= 128) read(a);
  for (int i = 0; i < 50; ++i) mem.tick(now++);  // drain the fill queue
  mem.finalizeStats();
  EXPECT_EQ(mem.stats().value("hht.prefetch.issued"), 2u);
  EXPECT_EQ(mem.stats().value("hht.prefetch.dropped"), 3u);
  EXPECT_EQ(mem.stats().value("mem.ecc_uncorrectable"), 0u);
  EXPECT_TRUE(mem.idle());
}

TEST(HhtPrefetcher, GoldenTraceRecordsThePrefetchLifecycle) {
  // One small fixed-seed workload traced through the hierarchical
  // topology; the CSV — including the hht_prefetch issue/fill/useful
  // events — is locked byte-for-byte against a checked-in golden.
  // Regenerate with HHT_REGEN_GOLDEN=1 after an intentional change.
  sim::Rng rng(0x7ACEF1FE);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 16, 16, 0.4);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 16);
  obs::TraceSink sink;
  harness::SystemConfig cfg = hierPfConfig(true);
  cfg.trace_sink = &sink;
  const auto run = harness::run(cfg, {Kernel::kSpmvVectorHht}, {&m, &v});
  EXPECT_GT(run.stats.value("hht.prefetch.issued"), 0u);
  EXPECT_EQ(sink.dropped(), 0u);

  std::ostringstream os;
  obs::writeCsvTrace(os, sink);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("hht_prefetch"), std::string::npos);

  const std::string path =
      std::string(HHT_GOLDEN_DIR) + "/hht_prefetch.csv";
  if (std::getenv("HHT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << csv;
    GTEST_LOG_(INFO) << "regenerated " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — regenerate with HHT_REGEN_GOLDEN=1";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), csv)
      << "prefetch trace diverged from its golden; if the timing change is "
      << "intentional, regenerate with HHT_REGEN_GOLDEN=1 and review";
}

// ---- poison / scrub interplay with tile-local caching ----

mem::MemorySystemConfig tinyL1Config() {
  mem::MemorySystemConfig cfg;
  cfg.sram_bytes = 256;
  cfg.sram_latency = 2;
  cfg.grants_per_cycle = 1;
  cfg.topology.channels = 2;
  cfg.topology.interleave_bytes = 128;
  cfg.topology.tile_l1_enabled = true;
  cfg.topology.tile_l1.size_bytes = 64;  // one set, two 32 B ways
  cfg.topology.tile_l1.line_bytes = 32;
  cfg.topology.tile_l1.ways = 2;
  return cfg;
}

/// Blocking read through `mem`; returns the response.
mem::MemResponse readThrough(mem::MemorySystem& mem, sim::Cycle& now,
                             sim::Addr addr) {
  const mem::RequestId id =
      mem.submit({addr, 4, false, 0, mem::Requester::Cpu});
  for (int i = 0; i < 500; ++i) {
    if (const auto r = mem.takeResponse(kCpuPort, id)) return *r;
    mem.tick(now++);
  }
  ADD_FAILURE() << "read of " << addr << " never completed";
  return {};
}

TEST(HhtPrefetcher, EvictionUnderPoisonStillCorrectsOnRefill) {
  // A latent single-bit flip under a tile-cached line survives eviction:
  // the L1 is timing-only, so the refill goes back through the shared
  // level where SECDED corrects the word in flight, every time.
  mem::MemorySystem mem(tinyL1Config());
  sim::Cycle now = 0;
  mem.sram().write(0x40, 4, 0x5A5A5A5A);  // host-side seed, caches cold
  EXPECT_EQ(readThrough(mem, now, 0x40).data, 0x5A5A5A5Au);  // install

  mem.sram().injectLatentFlip(0x40, 0x1);
  // Local hit: corrected in flight, the cell stays dirty.
  mem::MemResponse r = readThrough(mem, now, 0x40);
  EXPECT_EQ(r.data, 0x5A5A5A5Au);
  EXPECT_FALSE(r.poisoned);
  EXPECT_EQ(mem.stats().value("mem.secded.demand_corrected"), 1u);

  // Evict 0x40 (one set, two ways: 0x60 and 0x80 push it out), then
  // demand it back — the channel-path refill still corrects.
  readThrough(mem, now, 0x60);
  readThrough(mem, now, 0x80);
  r = readThrough(mem, now, 0x40);
  EXPECT_EQ(r.data, 0x5A5A5A5Au);
  EXPECT_FALSE(r.poisoned);
  EXPECT_EQ(mem.stats().value("mem.secded.demand_corrected"), 2u);
  EXPECT_EQ(mem.sram().latentCount(), 1u);  // nothing scrubbed it yet

  // A second flip in the same word is uncorrectable: a local hit must
  // still contain it as poison, not return silently corrupt data.
  mem.sram().injectLatentFlip(0x40, 0x2);
  r = readThrough(mem, now, 0x40);
  EXPECT_TRUE(r.poisoned);
  EXPECT_EQ(mem.stats().value("mem.secded.demand_uncorrectable"), 1u);
}

TEST(HhtPrefetcher, ScrubInterleavesWithCachedLines) {
  // The patrol scrubber repairs a latent flip while the word's line sits
  // resident (and hitting) in a tile L1: local hits in between are
  // corrected in flight, and once the patrol passes the word the latent
  // registry is clean — caching never hides a cell from the scrubber.
  mem::MemorySystemConfig cfg = tinyL1Config();
  cfg.scrub_enabled = true;
  cfg.scrub_period = 1;
  mem::MemorySystem mem(cfg);
  sim::Cycle now = 0;
  mem.sram().write(0x40, 4, 0x1234);
  EXPECT_EQ(readThrough(mem, now, 0x40).data, 0x1234u);  // install

  mem.sram().injectLatentFlip(0x40, 0x10);
  mem::MemResponse r = readThrough(mem, now, 0x40);  // L1 hit
  EXPECT_EQ(r.data, 0x1234u);
  EXPECT_FALSE(r.poisoned);
  ASSERT_EQ(mem.sram().latentCount(), 1u);

  // Let the patrol walk the whole 256 B SRAM at least once.
  for (int i = 0; i < 200; ++i) mem.tick(now++);
  EXPECT_EQ(mem.sram().latentCount(), 0u);
  EXPECT_EQ(mem.stats().value("mem.scrub.corrected"), 1u);

  // The line is still cached; the hit now needs no correction.
  const std::uint64_t corrected_before =
      mem.stats().value("mem.secded.demand_corrected");
  r = readThrough(mem, now, 0x40);
  EXPECT_EQ(r.data, 0x1234u);
  EXPECT_FALSE(r.poisoned);
  EXPECT_EQ(mem.stats().value("mem.secded.demand_corrected"),
            corrected_before);
}

}  // namespace
}  // namespace hht
