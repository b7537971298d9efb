// Multi-tile scale-out tests (DESIGN.md §13): N-tile sharded kernels are
// bit-identical to the 1-tile machine for SpMV and both SpMSpV variants
// under both partitioners; the robustness features (checkpoint/restore,
// differential oracle, per-tile stall profiles, the event-scheduled run
// loop, watchdog and fault attribution) all carry over to N tiles.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/mmr.h"
#include "harness/experiment.h"
#include "obs/profile.h"
#include "sparse/reference.h"
#include "verify/oracle.h"
#include "workload/partition.h"
#include "workload/synthetic.h"

namespace hht::harness {
namespace {

using sim::Cycle;
using sim::ErrorKind;
using sim::SimError;

SystemConfig scaleConfig(std::uint32_t num_tiles,
                         mem::ArbiterPolicy policy =
                             mem::ArbiterPolicy::RoundRobin) {
  SystemConfig cfg = defaultConfig();
  cfg.memory.num_tiles = num_tiles;
  cfg.memory.policy = policy;
  return cfg;
}

/// `kernel` on `tiles` tiles over static row shards.
RunSpec onShards(Kernel kernel, std::uint32_t tiles, Distribution part) {
  return {.kernel = kernel, .tiles = tiles, .distribution = part};
}

/// Occamy-style hierarchical topology (DESIGN.md §17): per-tile L1s, four
/// address-interleaved shared channels, a 1-cycle link and the HHT stride
/// prefetcher. The topology is timing-only, so every run through it must
/// produce the same output bits as the flat shared SRAM.
SystemConfig hierConfig(std::uint32_t num_tiles) {
  SystemConfig cfg = scaleConfig(num_tiles);
  mem::TopologyConfig& topo = cfg.memory.topology;
  topo.channels = 4;
  topo.interleave_bytes = 256;
  topo.link_latency = 1;
  topo.tile_l1_enabled = true;
  topo.tile_l1.size_bytes = 1024;
  topo.tile_l1.line_bytes = 32;
  topo.tile_l1.ways = 2;
  topo.tile_l1.hit_latency = 1;
  topo.tile_l1.miss_penalty = 4;
  topo.hht_prefetch_enabled = true;
  return cfg;
}

void expectSameY(const sparse::DenseVector& a, const sparse::DenseVector& b) {
  ASSERT_EQ(a.size(), b.size());
  const auto& av = a.values();
  const auto& bv = b.values();
  EXPECT_TRUE(av.empty() ||
              std::memcmp(av.data(), bv.data(),
                          av.size() * sizeof(float)) == 0);
}

TEST(MultiTile, ShardedSpmvBitIdenticalToSingleTileForAnyTileCount) {
  sim::Rng rng(0x71E5);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 96, 96, 0.25);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 96);
  const SystemConfig base = defaultConfig();
  const RunResult single = run(base, {Kernel::kSpmvVectorHht}, {&m, &v});

  for (const std::uint32_t tiles : {1u, 2u, 4u}) {
    for (const Distribution part :
         {Distribution::kBlock, Distribution::kNnzBalanced}) {
      const RunResult sharded =
          run(scaleConfig(tiles), onShards(Kernel::kSpmvVectorHht, tiles, part),
              {&m, &v});
      expectSameY(single.y, sharded.y);
    }
  }
  // And the sharding is actually correct, not just self-consistent.
  const sparse::DenseVector ref = sparse::spmvCsr(m, v);
  expectSameY(ref, single.y);
}

TEST(MultiTile, ShardedSpmspvBothVariantsBitIdentical) {
  sim::Rng rng(0x71E6);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 80, 80, 0.3);
  const sparse::SparseVector v = workload::randomSparseVector(rng, 80, 0.4);

  for (const int variant : {1, 2}) {
    const RunResult single =
        run(defaultConfig(), {spmspvHht(variant)}, {.m = &m, .sv = &v});
    for (const std::uint32_t tiles : {2u, 4u}) {
      for (const Distribution part :
           {Distribution::kBlock, Distribution::kNnzBalanced}) {
        const RunResult sharded =
            run(scaleConfig(tiles), onShards(spmspvHht(variant), tiles, part),
                {.m = &m, .sv = &v});
        expectSameY(single.y, sharded.y);
      }
    }
  }
}

TEST(MultiTile, OneTileShardedRunIsCycleIdenticalToSystem) {
  sim::Rng rng(0x71E7);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 64, 64, 0.2);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 64);
  // Same 1-tile config both sides.
  const SystemConfig cfg = defaultConfig();
  const RunResult single = run(cfg, {Kernel::kSpmvVectorHht}, {&m, &v});
  const RunResult sharded =
      run(cfg, onShards(Kernel::kSpmvVectorHht, 1, Distribution::kBlock),
          {&m, &v});
  // The shard program is instruction-identical (only its name differs), so
  // the 1-tile sharded run must reproduce the unsharded one cycle for cycle.
  EXPECT_EQ(single.cycles, sharded.cycles);
  EXPECT_EQ(single.retired, sharded.retired);
  EXPECT_EQ(single.cpu_wait_cycles, sharded.cpu_wait_cycles);
  expectSameY(single.y, sharded.y);
}

TEST(MultiTile, MoreTilesThanRowsLeavesTrailingShardsEmpty) {
  sim::Rng rng(0x71E8);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 6, 32, 0.4);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 32);
  const auto shards = workload::partitionRowsBlock(m, 8);
  ASSERT_EQ(shards.size(), 8u);
  EXPECT_TRUE(shards.back().empty());
  const RunResult sharded =
      run(scaleConfig(8),
          onShards(Kernel::kSpmvVectorHht, 8, Distribution::kBlock), {&m, &v});
  const sparse::DenseVector ref = sparse::spmvCsr(m, v);
  expectSameY(ref, sharded.y);
}

TEST(MultiTile, RejectsUnsupportedConfigsAndProgramCounts) {
  {  // The programmable HHT is a 1-tile study.
    SystemConfig cfg = scaleConfig(2);
    cfg.programmable_hht = true;
    try {
      System sys(cfg);
      ADD_FAILURE() << "System accepted programmable_hht on 2 tiles";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Config);
    }
  }
  {  // Fault injection is supported per tile: one injector per tile, the
     // tile-0 stream seeded identically to the 1-tile machine's.
    SystemConfig cfg = scaleConfig(2);
    cfg.faults.enabled = true;
    cfg.faults.drop_rate = 0.01;
    System sys(cfg);
    EXPECT_NE(sys.faultInjector(0), nullptr);
    EXPECT_NE(sys.faultInjector(1), nullptr);
    EXPECT_NE(sys.faultInjector(0), sys.faultInjector(1));
  }
  {  // One program per tile, exactly.
    System sys(scaleConfig(2));
    std::vector<isa::Program> one{
        isa::ProgramBuilder("only_one").ecall().build()};
    EXPECT_THROW(sys.run(one, 0x1000, 1), SimError);
  }
  {  // A degradation fallback is 1-tile only: the serving layer owns the
     // multi-tile degrade policy.
    System sys(scaleConfig(2));
    const std::vector<isa::Program> programs{
        isa::ProgramBuilder("t0").ecall().build(),
        isa::ProgramBuilder("t1").ecall().build()};
    const isa::Program fallback =
        isa::ProgramBuilder("fallback").ecall().build();
    try {
      sys.run(programs, 0x1000, 1, 500'000'000, &fallback);
      ADD_FAILURE() << "a 2-tile run accepted a fallback program";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Config);
    }
  }
}

/// The 4-tile workload the robustness tests below share.
struct ShardedWorkload {
  sparse::CsrMatrix m;
  sparse::DenseVector v;
  Prepared p;
};

ShardedWorkload loadSharded(System& sys, std::uint64_t seed) {
  sim::Rng rng(seed);
  ShardedWorkload w;
  w.m = workload::randomCsr(rng, 64, 64, 0.3);
  w.v = workload::randomDenseVector(rng, 64);
  w.p = prepare(sys,
                onShards(Kernel::kSpmvVectorHht, sys.numTiles(),
                         Distribution::kNnzBalanced),
                {&w.m, &w.v});
  return w;
}

/// Observer that checkpoints the running System once, at `at`.
class CheckpointAt : public RunObserver {
 public:
  CheckpointAt(std::span<const isa::Program> programs, Cycle at)
      : programs_(programs), at_(at) {}

  void onCycle(System& sys, Cycle now) override {
    if (now == at_ && snapshot_.empty()) {
      snapshot_ = sys.checkpoint(programs_, now + 1);
      resume_at_ = now + 1;
    }
  }

  const std::vector<std::uint8_t>& snapshot() const { return snapshot_; }
  Cycle resumeAt() const { return resume_at_; }

 private:
  std::span<const isa::Program> programs_;
  Cycle at_;
  Cycle resume_at_ = 0;
  std::vector<std::uint8_t> snapshot_;
};

TEST(MultiTile, CheckpointRestoreResumeIsBitIdenticalOn4Tiles) {
  const SystemConfig cfg = scaleConfig(4);

  System uninterrupted(cfg);
  const ShardedWorkload w = loadSharded(uninterrupted, 0x4711);
  const RunResult base =
      uninterrupted.run(w.p.programs(), w.p.y, w.p.y_len);
  ASSERT_GT(base.cycles, 200u);

  System observed(cfg);
  const ShardedWorkload w2 = loadSharded(observed, 0x4711);
  CheckpointAt observer(w2.p.programs(), base.cycles / 2);
  const RunResult watched = observed.run(w2.p.programs(), w2.p.y, w2.p.y_len,
                                         500'000'000, nullptr, &observer);
  EXPECT_EQ(base.cycles, watched.cycles);
  EXPECT_EQ(base.stats.all(), watched.stats.all());
  ASSERT_FALSE(observer.snapshot().empty());

  System resumed_sys(cfg);
  const Cycle start = resumed_sys.restore(observer.snapshot(), w2.p.programs());
  EXPECT_EQ(start, observer.resumeAt());
  const RunResult resumed =
      resumed_sys.resume(w2.p.programs(), w2.p.y, w2.p.y_len, start);
  EXPECT_EQ(base.cycles, resumed.cycles);
  EXPECT_EQ(base.retired, resumed.retired);
  EXPECT_EQ(base.stats.all(), resumed.stats.all());
  expectSameY(base.y, resumed.y);
  expectSameY(sparse::spmvCsr(w.m, w.v), resumed.y);
}

TEST(MultiTile, RestoreRejectsTileCountAndProgramMismatch) {
  const SystemConfig cfg = scaleConfig(4);
  System sys(cfg);
  const ShardedWorkload w = loadSharded(sys, 0x4712);
  const std::vector<std::uint8_t> snap = sys.checkpoint(w.p.programs(), 0);

  {  // Same snapshot into a 2-tile system: fingerprint already differs.
    System target(scaleConfig(2));
    ShardedWorkload w2 = loadSharded(target, 0x4712);
    try {
      target.restore(snap, w2.p.programs());
      ADD_FAILURE() << "restore accepted a 4-tile snapshot on 2 tiles";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Checkpoint);
    }
  }
  {  // Right tile count, one wrong program.
    System target(cfg);
    ShardedWorkload w2 = loadSharded(target, 0x4712);
    w2.p.tiles[2] = isa::ProgramBuilder("imposter").ecall().build();
    try {
      target.restore(snap, w2.p.programs());
      ADD_FAILURE() << "restore accepted a mismatched tile program";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Checkpoint);
    }
  }
}

TEST(MultiTile, RestoreRejectsASnapshotOfAnotherTileCount) {
  // One snapshot path serves every tile count, so a 1-tile snapshot must
  // not restore into a 4-tile machine, nor the reverse.
  System one(scaleConfig(1));
  const ShardedWorkload w1 = loadSharded(one, 0x4714);
  System four(scaleConfig(4));
  const ShardedWorkload w4 = loadSharded(four, 0x4714);
  const std::vector<std::uint8_t> snap1 = one.checkpoint(w1.p.programs(), 0);
  const std::vector<std::uint8_t> snap4 = four.checkpoint(w4.p.programs(), 0);
  const auto expectRejected = [](System& target,
                                 const std::vector<std::uint8_t>& snap,
                                 std::span<const isa::Program> programs) {
    try {
      target.restore(snap, programs);
      ADD_FAILURE() << "restore accepted a snapshot of another tile count";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Checkpoint) << e.what();
    }
  };
  expectRejected(four, snap1, w4.p.programs());
  expectRejected(one, snap4, w1.p.programs());
}

TEST(MultiTile, RestoreRejectsNewerSnapshotVersion) {
  const SystemConfig cfg = scaleConfig(4);
  System sys(cfg);
  const ShardedWorkload w = loadSharded(sys, 0x4713);
  std::vector<std::uint8_t> snap = sys.checkpoint(w.p.programs(), 0);
  const std::uint32_t newer = kSnapshotVersion + 1;
  std::memcpy(snap.data() + 4, &newer, sizeof newer);  // version field
  System target(cfg);
  ShardedWorkload w2 = loadSharded(target, 0x4713);
  try {
    target.restore(snap, w2.p.programs());
    ADD_FAILURE() << "restore accepted a snapshot from the future";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Checkpoint);
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos)
        << e.what();
  }
}

TEST(MultiTile, DifferentialOracleTapsEveryTileAndStaysClean) {
  const SystemConfig cfg = scaleConfig(2);
  System sys(cfg);
  sim::Rng rng(0x4714);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 48, 48, 0.35);
  const sparse::SparseVector v = workload::randomSparseVector(rng, 48, 0.5);
  const kernels::SpmspvLayout layout =
      loadSpmspv(sys.arena(), sys.memory().sram(), m, v);
  const auto shards = workload::partitionRowsNnzBalanced(m, 2);

  std::vector<std::vector<verify::StreamEvent>> expected;
  std::vector<isa::Program> programs;
  for (std::uint32_t t = 0; t < 2; ++t) {
    expected.push_back(verify::expectedMergeV1StreamShard(m, v, shards[t]));
    programs.push_back(
        kernels::spmspvHhtV1Shard(layout, shards[t], sys.mmioBaseOf(t)));
  }

  verify::DifferentialOracle oracle(std::move(expected));
  oracle.attach(sys);
  const RunResult r =
      sys.run(programs, layout.y, layout.num_rows, 500'000'000, nullptr,
              &oracle);
  oracle.detach(sys);
  oracle.checkFinal(r.y, sparse::spmspvMerge(m, v));
  EXPECT_FALSE(oracle.diverged()) << oracle.describe();
  EXPECT_GT(oracle.delivered(0), 0u);
  EXPECT_GT(oracle.delivered(1), 0u);
}

TEST(MultiTile, OracleCatchesACorruptedTileStream) {
  const SystemConfig cfg = scaleConfig(2);
  System sys(cfg);
  const ShardedWorkload w = loadSharded(sys, 0x4715);

  std::vector<std::vector<verify::StreamEvent>> expected;
  for (std::uint32_t t = 0; t < 2; ++t) {
    expected.push_back(
        verify::expectedGatherStreamShard(w.m, w.v, w.p.shards[t]));
  }
  // Sabotage tile 1's functional model: the run must flag tile 1 and only
  // tile 1 (the taps are per-tile, so divergence localizes).
  ASSERT_FALSE(expected[1].empty());
  expected[1][0].bits ^= 0x00400000;
  verify::DifferentialOracle oracle(std::move(expected));
  oracle.attach(sys);
  sys.run(w.p.programs(), w.p.y, w.p.y_len, 500'000'000, nullptr, &oracle);
  oracle.detach(sys);
  EXPECT_FALSE(oracle.diverged(0));
  EXPECT_TRUE(oracle.diverged(1));
  EXPECT_TRUE(oracle.diverged());
}

TEST(MultiTile, PerTileStallProfilesPartitionTheSharedHorizon) {
  SystemConfig cfg = scaleConfig(2);
  System sys(cfg);
  const ShardedWorkload w = loadSharded(sys, 0x4716);
  obs::TraceSink sink0, sink1;
  sys.setTileTraceSink(0, &sink0);
  sys.setTileTraceSink(1, &sink1);
  sys.run(w.p.programs(), w.p.y, w.p.y_len);

  const obs::ProfileReport rep0 = obs::profile(sink0);
  const obs::ProfileReport rep1 = obs::profile(sink1);
  // Every sink received the run's kRunEnd, so both tiles' stall buckets
  // partition the SAME wall-clock horizon.
  ASSERT_GT(rep0.horizon, 0u);
  EXPECT_EQ(rep0.horizon, rep1.horizon);
  EXPECT_EQ(rep0.componentTotal(obs::Component::kCpu), rep0.horizon);
  EXPECT_EQ(rep1.componentTotal(obs::Component::kCpu), rep1.horizon);
}

TEST(MultiTile, FastForwardIsBitIdenticalOn4Tiles) {
  sim::Rng rng(0x4717);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 96, 96, 0.15);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 96);

  SystemConfig on = scaleConfig(4);
  on.host_fastforward = true;
  SystemConfig off = scaleConfig(4);
  off.host_fastforward = false;
  const RunResult fast =
      run(on, onShards(Kernel::kSpmvVectorHht, 4, Distribution::kNnzBalanced),
          {&m, &v});
  const RunResult naive =
      run(off, onShards(Kernel::kSpmvVectorHht, 4, Distribution::kNnzBalanced),
          {&m, &v});
  EXPECT_EQ(fast.cycles, naive.cycles);
  EXPECT_EQ(fast.retired, naive.retired);
  EXPECT_EQ(fast.cpu_wait_cycles, naive.cpu_wait_cycles);
  EXPECT_EQ(fast.hht_wait_cycles, naive.hht_wait_cycles);
  EXPECT_EQ(fast.stats.all(), naive.stats.all());
  expectSameY(fast.y, naive.y);
}

/// One drawn point of the multi-tile configuration space.
struct DiffCase {
  std::uint32_t tiles = 1;
  int topology = 0;  ///< 0 flat, 1 per-tile L1s, 2 L1s + 4 channels
  bool chunk_queue = false;
  sim::Cycle sram_latency = 1;
  std::uint32_t workers = 1;
  bool faults = false;  ///< read bit flips + FIFO corruption
  bool delays = false;  ///< delayed/dropped responses (out-of-order reads)
  /// SpMV: 0 scalar HHT, 1 vector HHT, 2 CPU-only scalar baseline (static
  /// shards only: with no engine streaming, every tile can idle at once
  /// and the loop jumps). SpMSpV: 3 merge v1, 4 merge v2.
  int kernel = 0;

  std::string label() const {
    static constexpr const char* kTopo[] = {"flat", "l1", "l1ch"};
    static constexpr const char* kKernel[] = {"hht", "hht-vec", "baseline",
                                              "spmspv-v1", "spmspv-v2"};
    return "tiles=" + std::to_string(tiles) + " " + kTopo[topology] +
           (chunk_queue ? " queue" : " shards") +
           " lat=" + std::to_string(sram_latency) +
           " workers=" + std::to_string(workers) +
           (faults ? " faults" : "") + (delays ? " delays " : " ") +
           kKernel[kernel];
  }
};

/// Everything one run of a DiffCase leaves behind.
struct DiffOutcome {
  RunResult result;
  bool threw = false;
  SimError error{ErrorKind::Config, "", ""};
  std::vector<std::uint8_t> snapshot;  ///< end-of-run checkpoint() bytes
  std::uint64_t skipped = 0;
};

DiffOutcome runDiffCase(const DiffCase& c, bool fastforward) {
  SystemConfig cfg = c.topology == 2 ? hierConfig(c.tiles) : scaleConfig(c.tiles);
  if (c.topology == 1) {
    cfg.memory.topology.tile_l1_enabled = true;
    cfg.memory.topology.tile_l1.size_bytes = 1024;
    cfg.memory.topology.tile_l1.line_bytes = 32;
  }
  cfg.memory.sram_latency = c.sram_latency;
  cfg.memory.work_queue_enabled = c.chunk_queue;
  cfg.tile_workers = c.workers;
  cfg.host_fastforward = fastforward;
  if (c.faults || c.delays) {
    cfg.faults.enabled = true;
    cfg.faults.seed = 0xD1FF;
  }
  if (c.faults) {
    cfg.faults.sram_read_flip_rate = 2e-3;
    cfg.faults.fifo_corrupt_rate = 2e-3;
  }
  if (c.delays) {
    cfg.faults.drop_rate = 0.05;
    cfg.faults.delay_rate = 0.1;
  }
  System sys(cfg);
  // Slow memory gets a smaller matrix: every load costs sram_latency.
  const sim::Index n = c.sram_latency >= 64 ? 16 : 40;
  sim::Rng rng(0xD1FF'0000 + c.tiles);
  const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, 0.7);
  const sparse::DenseVector v = workload::randomDenseVector(rng, n);
  const sparse::SparseVector sv = workload::randomSparseVector(rng, n, 0.5);
  const kernels::SpmvLayout layout =
      loadSpmv(sys.arena(), sys.memory().sram(), m, v);
  const kernels::SpmspvLayout sp_layout =
      loadSpmspv(sys.arena(), sys.memory().sram(), m, sv);
  const bool spmspv = c.kernel >= 3;
  const Addr y = spmspv ? sp_layout.y : layout.y;
  std::vector<isa::Program> programs;
  if (c.chunk_queue) {
    sys.workQueue()->seed(dealRowChunks(layout.num_rows, c.tiles, 4));
  }
  const auto shards = workload::partitionRowsNnzBalanced(m, c.tiles);
  for (std::uint32_t t = 0; t < c.tiles; ++t) {
    const Addr mmio = sys.mmioBaseOf(t);
    const Addr claim = sys.workQueueBase() + 4 * t;
    const bool vec = c.kernel == 1;
    if (spmspv && c.chunk_queue) {
      programs.push_back(
          c.kernel == 3
              ? kernels::spmspvHhtV1ChunkQueue(sp_layout, mmio, claim)
              : kernels::spmspvHhtV2ChunkQueue(sp_layout, mmio, claim));
    } else if (spmspv) {
      programs.push_back(
          c.kernel == 3
              ? kernels::spmspvHhtV1Shard(sp_layout, shards[t], mmio)
              : kernels::spmspvHhtV2Shard(sp_layout, shards[t], mmio));
    } else if (c.kernel == 2) {
      // Restrict the baseline to the shard by offsetting its operands.
      kernels::SpmvLayout shard = layout;
      shard.rows += 4 * shards[t].row_begin;
      shard.cols += 4 * shards[t].nnz_begin;
      shard.vals += 4 * shards[t].nnz_begin;
      shard.y += 4 * shards[t].row_begin;
      shard.num_rows = shards[t].rows();
      programs.push_back(kernels::spmvScalarBaseline(shard));
    } else if (c.chunk_queue) {
      programs.push_back(
          vec ? kernels::spmvVectorHhtChunkQueue(layout, mmio, claim)
              : kernels::spmvScalarHhtChunkQueue(layout, mmio, claim));
    } else {
      programs.push_back(
          vec ? kernels::spmvVectorHhtShard(layout, shards[t], mmio)
              : kernels::spmvScalarHhtShard(layout, shards[t], mmio));
    }
  }
  DiffOutcome out;
  Cycle end = 0;
  try {
    out.result = sys.run(programs, y, layout.num_rows);
    end = out.result.cycles;
    if (!c.faults) {
      expectSameY(spmspv ? sparse::spmspvMerge(m, sv) : sparse::spmvCsr(m, v),
                  out.result.y);
    }
  } catch (const SimError& e) {
    out.threw = true;
    out.error = e;
  }
  out.snapshot = sys.checkpoint(programs, end);
  out.skipped = sys.hostSkippedCycles();
  return out;
}

TEST(MultiTile, RandomizedRunLoopDifferential) {
  // Seeded draws over tiles x topology x distribution x SRAM latency x
  // tile workers x faults x kernel: the event-scheduled loop must leave the
  // machine byte-identical to the every-cycle loop — RunResult, merged
  // stats, the end-of-run snapshot, or the exact same SimError.
  sim::Rng rng(0xD1FF'2022);
  constexpr std::uint32_t kTiles[] = {1, 2, 4, 16};
  constexpr sim::Cycle kLatency[] = {1, 6, 64, 512, 2048};
  std::vector<DiffCase> cases;
  for (int i = 0; i < 30; ++i) {
    DiffCase c;
    c.tiles = kTiles[rng.nextBelow(4)];
    c.topology = static_cast<int>(rng.nextBelow(3));
    c.chunk_queue = rng.nextBool(0.5);
    c.sram_latency = kLatency[rng.nextBelow(5)];
    c.workers = c.tiles > 1 && rng.nextBool(0.5) ? 2 : 1;
    c.faults = rng.nextBool(0.3);
    c.kernel = static_cast<int>(rng.nextBelow(5));
    if (c.kernel == 2) c.chunk_queue = false;
    cases.push_back(c);
  }
  // Pinned: slow SRAM (64 and 2048 cycles), where live engines and the
  // cores' refused FIFO reads sleep, on 1 and 4 tiles, under static shards
  // and the chunk queue, with and without delayed/dropped responses; two
  // of the four HHT kernels per point, rotating, so each kernel meets
  // every value of every dimension.
  constexpr int kHhtKernels[] = {0, 1, 3, 4};
  int point = 0;
  for (const sim::Cycle latency : {sim::Cycle{64}, sim::Cycle{2048}}) {
    for (const std::uint32_t tiles : {1u, 4u}) {
      for (const bool queue : {false, true}) {
        for (const bool delays : {false, true}) {
          for (int k = 0; k < 2; ++k) {
            DiffCase c;
            c.tiles = tiles;
            c.chunk_queue = queue;
            c.sram_latency = latency;
            c.delays = delays;
            c.kernel = kHhtKernels[(point + k) % 4];
            cases.push_back(c);
          }
          ++point;
        }
      }
    }
  }
  // Pinned: a deep-stall 16-tile machine, where the loop must actually
  // jump (every core waits on 512-cycle loads at once).
  DiffCase deep;
  deep.tiles = 16;
  deep.sram_latency = 512;
  deep.workers = 2;
  deep.kernel = 2;
  cases.push_back(deep);

  bool skipped_on_deep_stall = false;
  for (const DiffCase& c : cases) {
    const std::string label = c.label();
    const DiffOutcome naive = runDiffCase(c, false);
    const DiffOutcome event = runDiffCase(c, true);
    EXPECT_EQ(naive.skipped, 0u) << label;
    ASSERT_EQ(naive.threw, event.threw) << label;
    if (naive.threw) {
      EXPECT_EQ(naive.error.kind(), event.error.kind()) << label;
      EXPECT_EQ(naive.error.message(), event.error.message()) << label;
      EXPECT_EQ(naive.error.diagnostic(), event.error.diagnostic()) << label;
      EXPECT_EQ(naive.error.tile(), event.error.tile()) << label;
    } else {
      const RunResult& a = naive.result;
      const RunResult& b = event.result;
      EXPECT_EQ(a.cycles, b.cycles) << label;
      EXPECT_EQ(a.retired, b.retired) << label;
      EXPECT_EQ(a.cpu_wait_cycles, b.cpu_wait_cycles) << label;
      EXPECT_EQ(a.hht_wait_cycles, b.hht_wait_cycles) << label;
      EXPECT_EQ(a.hht_residual_busy, b.hht_residual_busy) << label;
      EXPECT_EQ(a.stats.all(), b.stats.all()) << label;
      expectSameY(a.y, b.y);
    }
    EXPECT_EQ(naive.snapshot, event.snapshot) << label;
    // On flat memory a CPU-only deep stall idles every component at once.
    if (c.sram_latency == 512 && c.kernel == 2 && c.topology == 0) {
      EXPECT_GT(event.skipped, 0u) << label;
      skipped_on_deep_stall = skipped_on_deep_stall || event.skipped > 0;
    }
  }
  EXPECT_TRUE(skipped_on_deep_stall)
      << "the multi-tile loop never jumped a 512-cycle stall";
}

/// Blocking pop of tile `tile`'s BUF_DATA without ever starting its HHT:
/// the core retries the MMIO read forever with zero forward progress.
isa::Program orphanPop(const System& sys, std::uint32_t tile) {
  isa::ProgramBuilder b("orphan_pop");
  b.li(isa::reg::a0, static_cast<std::int32_t>(sys.mmioBaseOf(tile) +
                                               core::mmr::kBufData));
  b.lw(isa::reg::t0, isa::reg::a0, 0);
  b.ecall();
  return b.build();
}

/// Run `fn` (which must throw SimError) and return the error.
template <typename Fn>
SimError captureError(Fn&& fn) {
  try {
    fn();
  } catch (const SimError& e) {
    return e;
  }
  ADD_FAILURE() << "expected a SimError";
  return SimError(ErrorKind::Config, "test", "missing");
}

TEST(MultiTile, WedgedTileWatchdogNamesTheTileInBothLoopModes) {
  // Tile 2 wedges on an orphan FIFO pop while tiles 0, 1 and 3 run their
  // shards to completion: tile 2's own watchdog fires, attributed to tile
  // 2, at the same cycle with the same dump whichever loop mode ran.
  const auto wedge = [](bool fastforward) {
    SystemConfig cfg = scaleConfig(4);
    cfg.watchdog_cycles = 2000;
    cfg.host_fastforward = fastforward;
    System sys(cfg);
    ShardedWorkload w = loadSharded(sys, 0x4740);
    w.p.tiles[2] = orphanPop(sys, 2);
    return captureError([&] {
      sys.run(w.p.programs(), w.p.y, w.p.y_len, 200'000);
    });
  };
  const SimError naive = wedge(false);
  const SimError event = wedge(true);
  EXPECT_EQ(naive.kind(), ErrorKind::Watchdog);
  EXPECT_EQ(naive.component(), "watchdog");
  EXPECT_EQ(naive.tile(), 2);
  EXPECT_EQ(event.kind(), naive.kind());
  EXPECT_EQ(event.component(), naive.component());
  EXPECT_EQ(event.tile(), naive.tile());
  EXPECT_EQ(event.message(), naive.message());
  EXPECT_EQ(event.diagnostic(), naive.diagnostic());
  EXPECT_NE(naive.diagnostic().find("tile 2 cpu:"), std::string::npos);
}

TEST(MultiTile, DeviceFaultNamesTheSameTileInBothLoopModes) {
  // Every FIFO pop is corrupted on every tile: the first device to detect
  // it stops the run with a DeviceFault naming its tile — the same tile,
  // message and dump under both loop modes.
  const auto fault = [](bool fastforward) {
    SystemConfig cfg = scaleConfig(4);
    cfg.faults.enabled = true;
    cfg.faults.seed = 0xFA17;
    cfg.faults.fifo_corrupt_rate = 1.0;
    cfg.host_fastforward = fastforward;
    System sys(cfg);
    const ShardedWorkload w = loadSharded(sys, 0x4741);
    return captureError(
        [&] { sys.run(w.p.programs(), w.p.y, w.p.y_len); });
  };
  const SimError naive = fault(false);
  const SimError event = fault(true);
  EXPECT_EQ(naive.kind(), ErrorKind::DeviceFault);
  EXPECT_GE(naive.tile(), 0);
  EXPECT_LT(naive.tile(), 4);
  EXPECT_EQ(event.kind(), naive.kind());
  EXPECT_EQ(event.tile(), naive.tile());
  EXPECT_EQ(event.message(), naive.message());
  EXPECT_EQ(event.diagnostic(), naive.diagnostic());
}

TEST(MultiTile, ThreadedTilePhaseIsByteIdenticalToSerial) {
  // tile_workers > 1 runs the per-tile component ticks on worker threads
  // with staged memory submissions drained in canonical tile order — a
  // host-side execution strategy only. Every run surface (RunResult,
  // merged stats map, output vector, the complete serialized snapshot)
  // must be byte-identical to the serial loop for every tile count and
  // every worker count, including workers > tiles.
  for (const std::uint32_t tiles : {2u, 4u, 8u}) {
    SystemConfig serial_cfg = scaleConfig(tiles);
    serial_cfg.tile_workers = 1;
    System serial_sys(serial_cfg);
    const ShardedWorkload ws = loadSharded(serial_sys, 0x4720 + tiles);
    const RunResult serial =
        serial_sys.run(ws.p.programs(), ws.p.y, ws.p.y_len);
    const std::vector<std::uint8_t> serial_snap =
        serial_sys.checkpoint(ws.p.programs(), serial.cycles);

    for (const std::uint32_t workers : {2u, 4u}) {
      SystemConfig thr_cfg = scaleConfig(tiles);
      thr_cfg.tile_workers = workers;
      System thr_sys(thr_cfg);
      const ShardedWorkload wt = loadSharded(thr_sys, 0x4720 + tiles);
      const RunResult thr =
          thr_sys.run(wt.p.programs(), wt.p.y, wt.p.y_len);
      const std::string label = "tiles=" + std::to_string(tiles) +
                                " workers=" + std::to_string(workers);
      EXPECT_EQ(serial.cycles, thr.cycles) << label;
      EXPECT_EQ(serial.retired, thr.retired) << label;
      EXPECT_EQ(serial.cpu_wait_cycles, thr.cpu_wait_cycles) << label;
      EXPECT_EQ(serial.hht_wait_cycles, thr.hht_wait_cycles) << label;
      EXPECT_EQ(serial.stats.all(), thr.stats.all()) << label;
      expectSameY(serial.y, thr.y);
      // The snapshot covers SRAM, queues, pipelines, RNG — byte equality
      // here means the machines are indistinguishable, not just the
      // result surface.
      EXPECT_EQ(serial_snap, thr_sys.checkpoint(wt.p.programs(), thr.cycles))
          << label;
    }
  }
}

TEST(MultiTile, ThreadedTilePhaseEmitsIdenticalTraces) {
  // Per-tile trace sinks see the exact same event streams no matter how
  // many worker threads ticked the tiles: each tile traces only its own
  // components, and the epoch barrier keeps cycle boundaries exact.
  const std::uint32_t tiles = 2;
  const auto run = [&](std::uint32_t workers) {
    SystemConfig cfg = scaleConfig(tiles);
    cfg.tile_workers = workers;
    System sys(cfg);
    const ShardedWorkload w = loadSharded(sys, 0x4730);
    std::vector<obs::TraceSink> sinks(tiles);
    for (std::uint32_t t = 0; t < tiles; ++t) {
      sys.setTileTraceSink(t, &sinks[t]);
    }
    sys.run(w.p.programs(), w.p.y, w.p.y_len);
    std::vector<std::vector<obs::TraceEvent>> events;
    for (auto& sink : sinks) {
      events.push_back(sink.events());
    }
    return events;
  };
  const auto serial = run(1);
  for (const std::uint32_t workers : {2u, 4u}) {
    const auto threaded = run(workers);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t t = 0; t < serial.size(); ++t) {
      ASSERT_EQ(serial[t].size(), threaded[t].size())
          << "tile " << t << " workers " << workers;
      for (std::size_t i = 0; i < serial[t].size(); ++i) {
        const obs::TraceEvent& a = serial[t][i];
        const obs::TraceEvent& b = threaded[t][i];
        ASSERT_TRUE(a.cycle == b.cycle && a.category == b.category &&
                    a.component == b.component && a.kind == b.kind &&
                    a.a == b.a && a.b == b.b)
            << "tile " << t << " event " << i << " workers " << workers;
      }
    }
  }
}

TEST(MultiTile, HierarchicalTopologyIsOutputIdenticalToFlatEveryEngine) {
  // Differential hierarchy-vs-flat check across every sharded engine mode
  // (SpMV scalar + vector, SpMSpV v1 + v2) and both partitioners: the
  // tile L1s, interleaved channels, link latency and prefetcher may change
  // the schedule but never a single output bit.
  sim::Rng rng(0x71F0);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 96, 96, 0.3);
  const sparse::DenseVector dv = workload::randomDenseVector(rng, 96);
  const sparse::SparseVector sv = workload::randomSparseVector(rng, 96, 0.4);

  std::uint64_t l1_hits = 0;
  for (const std::uint32_t tiles : {2u, 4u}) {
    for (const Distribution part :
         {Distribution::kBlock, Distribution::kNnzBalanced}) {
      for (const Kernel kernel :
           {Kernel::kSpmvScalarHht, Kernel::kSpmvVectorHht}) {
        const RunResult flat =
            run(scaleConfig(tiles), onShards(kernel, tiles, part), {&m, &dv});
        const RunResult hier =
            run(hierConfig(tiles), onShards(kernel, tiles, part), {&m, &dv});
        expectSameY(flat.y, hier.y);
        l1_hits += hier.stats.value("mem.l1.hits");
      }
      for (const int variant : {1, 2}) {
        const RunResult flat =
            run(scaleConfig(tiles), onShards(spmspvHht(variant), tiles, part),
                {.m = &m, .sv = &sv});
        const RunResult hier =
            run(hierConfig(tiles), onShards(spmspvHht(variant), tiles, part),
                {.m = &m, .sv = &sv});
        expectSameY(flat.y, hier.y);
        l1_hits += hier.stats.value("mem.l1.hits");
      }
    }
  }
  // The comparison only means something if the hierarchy actually engaged.
  EXPECT_GT(l1_hits, 0u);
}

TEST(MultiTile, HierarchicalRunStaysCleanUnderDifferentialOracle) {
  // The per-tile co-simulation oracle taps the HHT streams, which sit
  // upstream of the memory topology — a hierarchical run must deliver the
  // exact same functional stream to every tap.
  const SystemConfig cfg = hierConfig(2);
  System sys(cfg);
  sim::Rng rng(0x71F1);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 48, 48, 0.35);
  const sparse::SparseVector v = workload::randomSparseVector(rng, 48, 0.5);
  const kernels::SpmspvLayout layout =
      loadSpmspv(sys.arena(), sys.memory().sram(), m, v);
  const auto shards = workload::partitionRowsNnzBalanced(m, 2);

  std::vector<std::vector<verify::StreamEvent>> expected;
  std::vector<isa::Program> programs;
  for (std::uint32_t t = 0; t < 2; ++t) {
    expected.push_back(verify::expectedMergeV1StreamShard(m, v, shards[t]));
    programs.push_back(
        kernels::spmspvHhtV1Shard(layout, shards[t], sys.mmioBaseOf(t)));
  }

  verify::DifferentialOracle oracle(std::move(expected));
  oracle.attach(sys);
  const RunResult r =
      sys.run(programs, layout.y, layout.num_rows, 500'000'000, nullptr,
              &oracle);
  oracle.detach(sys);
  oracle.checkFinal(r.y, sparse::spmspvMerge(m, v));
  EXPECT_FALSE(oracle.diverged()) << oracle.describe();
  EXPECT_GT(oracle.delivered(0), 0u);
  EXPECT_GT(oracle.delivered(1), 0u);
  // The run really went through the hierarchy: local hits happened and the
  // shared level spread across more than one channel.
  EXPECT_GT(r.stats.value("mem.l1.hits"), 0u);
  EXPECT_GT(r.stats.value("mem.ch1.grants") + r.stats.value("mem.ch2.grants") +
                r.stats.value("mem.ch3.grants"),
            0u);
}

TEST(MultiTile, HierarchicalCheckpointRestoreResumeIsBitIdentical) {
  // Snapshot-v6 round trip with the full topology state in flight: channel
  // queues, tile lanes, L1 contents, prefetch queue and stride predictors
  // all restore mid-run and the continuation is bit-identical.
  const SystemConfig cfg = hierConfig(4);

  System uninterrupted(cfg);
  const ShardedWorkload w = loadSharded(uninterrupted, 0x4719);
  const RunResult base =
      uninterrupted.run(w.p.programs(), w.p.y, w.p.y_len);
  ASSERT_GT(base.cycles, 200u);

  System observed(cfg);
  const ShardedWorkload w2 = loadSharded(observed, 0x4719);
  CheckpointAt observer(w2.p.programs(), base.cycles / 2);
  observed.run(w2.p.programs(), w2.p.y, w2.p.y_len, 500'000'000,
               nullptr, &observer);
  ASSERT_FALSE(observer.snapshot().empty());

  System resumed_sys(cfg);
  const Cycle start = resumed_sys.restore(observer.snapshot(), w2.p.programs());
  const RunResult resumed = resumed_sys.resume(w2.p.programs(), w2.p.y,
                                               w2.p.y_len, start);
  EXPECT_EQ(base.cycles, resumed.cycles);
  EXPECT_EQ(base.retired, resumed.retired);
  EXPECT_EQ(base.stats.all(), resumed.stats.all());
  expectSameY(base.y, resumed.y);
  expectSameY(sparse::spmvCsr(w.m, w.v), resumed.y);
}

TEST(MultiTile, StatsKeepTilePrefixedNamespaces) {
  const SystemConfig cfg = scaleConfig(2);
  System sys(cfg);
  const ShardedWorkload w = loadSharded(sys, 0x4718);
  const RunResult r = sys.run(w.p.programs(), w.p.y, w.p.y_len);
  // Tile 0 keeps the historic names; tile 1 is prefixed — both CPU-side
  // (absorbed here) and memory-side (registered by the arbiter).
  EXPECT_GT(r.stats.value("cpu.cycles"), 0u);
  EXPECT_GT(r.stats.value("t1.cpu.cycles"), 0u);
  EXPECT_GT(r.stats.value("mem.cpu.grants"), 0u);
  EXPECT_GT(r.stats.value("mem.t1.cpu.grants"), 0u);
  EXPECT_GT(r.stats.value("mem.t1.hht.grants"), 0u);
}

}  // namespace
}  // namespace hht::harness
