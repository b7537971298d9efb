// Dynamic work-stealing row distribution (DESIGN.md §18): the shared
// chunk-queue MMIO device, the *ChunkQueue kernels that claim row chunks
// from it, bit-identity of the dynamic schedule to the single-tile
// reference, the per-row oracle mode, arbitration stats, snapshot v7
// round-tripping of the queue state, and byte-identity under threaded tile
// workers.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "mem/work_queue.h"
#include "obs/profile.h"
#include "sparse/reference.h"
#include "verify/oracle.h"
#include "workload/synthetic.h"

namespace hht::harness {
namespace {

using mem::ChunkQueueDevice;
using sim::Cycle;
using sim::ErrorKind;
using sim::SimError;

SystemConfig cqConfig(std::uint32_t num_tiles) {
  SystemConfig cfg = defaultConfig();
  cfg.memory.num_tiles = num_tiles;
  cfg.memory.work_queue_enabled = true;
  return cfg;
}

/// `kernel` on `tiles` tiles claiming `chunk_rows`-row chunks.
RunSpec queued(Kernel kernel, std::uint32_t tiles, std::uint32_t chunk_rows) {
  return {.kernel = kernel,
          .tiles = tiles,
          .distribution = Distribution::kChunkQueue,
          .chunk_rows = chunk_rows};
}

void expectSameY(const sparse::DenseVector& a, const sparse::DenseVector& b) {
  ASSERT_EQ(a.size(), b.size());
  const auto& av = a.values();
  const auto& bv = b.values();
  EXPECT_TRUE(av.empty() ||
              std::memcmp(av.data(), bv.data(),
                          av.size() * sizeof(float)) == 0);
}

/// A 4-tile-unfriendly matrix: power-law row degrees concentrate the work
/// in the leading rows.
sparse::CsrMatrix skewedMatrix(std::uint64_t seed, sim::Index n = 96) {
  sim::Rng rng(seed);
  return workload::powerLawCsr(rng, n, n, n / 2, 1.1);
}

// --- device unit tests ---

TEST(ChunkQueue, OwnQueuePopsFrontAndDrainsToSentinel) {
  ChunkQueueDevice dev(2);
  dev.seed({{{0, 4}, {4, 4}}, {{8, 8}}});
  EXPECT_FALSE(dev.empty());
  EXPECT_EQ(dev.pendingRows(), 16u);

  dev.beginCycle(0);
  auto r = dev.mmioRead(0, 4, mem::Requester::Cpu);  // tile 0's register
  ASSERT_TRUE(r.ready);
  EXPECT_EQ(r.data, (0u << 12) | 4u);

  dev.beginCycle(1);
  r = dev.mmioRead(0, 4, mem::Requester::Cpu);
  ASSERT_TRUE(r.ready);
  EXPECT_EQ(r.data, (4u << 12) | 4u);

  dev.beginCycle(2);
  r = dev.mmioRead(4, 4, mem::Requester::Cpu);  // tile 1
  ASSERT_TRUE(r.ready);
  EXPECT_EQ(r.data, (8u << 12) | 8u);

  dev.beginCycle(3);
  r = dev.mmioRead(0, 4, mem::Requester::Cpu);  // everything is drained
  ASSERT_TRUE(r.ready);
  EXPECT_EQ(r.data, 0u);
  EXPECT_TRUE(dev.empty());
  EXPECT_EQ(dev.stats().value("mem.wq.grants"), 3u);
  EXPECT_EQ(dev.stats().value("mem.wq.steals"), 0u);
}

TEST(ChunkQueue, StealTakesBackOfMostLoadedVictim) {
  ChunkQueueDevice dev(3);
  // Tile 0 empty; tile 1 has 4 pending rows, tile 2 has 12 — the thief
  // must take the BACK chunk of tile 2's deque.
  dev.seed({{}, {{0, 4}}, {{4, 4}, {8, 8}}});
  dev.beginCycle(0);
  const auto r = dev.mmioRead(0, 4, mem::Requester::Cpu);
  ASSERT_TRUE(r.ready);
  EXPECT_EQ(r.data, (8u << 12) | 8u);
  EXPECT_EQ(dev.stats().value("mem.wq.steals"), 1u);
  ASSERT_EQ(dev.claimLog().size(), 1u);
  EXPECT_EQ(dev.claimLog()[0].tile, 0u);
  EXPECT_EQ(dev.claimLog()[0].row_begin, 8u);
  EXPECT_TRUE(dev.claimLog()[0].stolen);
  // Tile 2's own next claim still pops its front.
  dev.beginCycle(1);
  const auto own = dev.mmioRead(8, 4, mem::Requester::Cpu);
  ASSERT_TRUE(own.ready);
  EXPECT_EQ(own.data, (4u << 12) | 4u);
  EXPECT_FALSE(dev.claimLog()[1].stolen);
}

TEST(ChunkQueue, ClaimBudgetDefersSecondClaimInACycle) {
  ChunkQueueDevice dev(2);  // claims_per_cycle = 1
  dev.seed({{{0, 1}}, {{1, 1}}});
  dev.beginCycle(0);
  EXPECT_TRUE(dev.mmioRead(0, 4, mem::Requester::Cpu).ready);
  const auto deferred = dev.mmioRead(4, 4, mem::Requester::Cpu);
  EXPECT_FALSE(deferred.ready);  // budget spent: retry next cycle
  EXPECT_EQ(dev.stats().value("mem.wq.conflict_cycles"), 1u);
  dev.beginCycle(1);
  const auto retried = dev.mmioRead(4, 4, mem::Requester::Cpu);
  ASSERT_TRUE(retried.ready);
  EXPECT_EQ(retried.data, (1u << 12) | 1u);
}

TEST(ChunkQueue, SeedValidatesEncodingRanges) {
  ChunkQueueDevice dev(1);
  const auto expectConfigError = [&](std::vector<std::vector<
                                         ChunkQueueDevice::Chunk>>
                                         per_tile,
                                     const char* what) {
    try {
      dev.seed(per_tile);
      ADD_FAILURE() << "seed accepted " << what;
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Config) << what;
    }
  };
  expectConfigError({{{0, 0}}}, "a zero-row chunk");
  expectConfigError({{{0, ChunkQueueDevice::kMaxChunkRows + 1}}},
                    "a chunk exceeding the 12-bit row count");
  expectConfigError({{{ChunkQueueDevice::kMaxRowBegin + 1, 1}}},
                    "a row_begin exceeding the 20-bit field");
  expectConfigError({{}, {}}, "a deque list not matching the tile count");
}

TEST(ChunkQueue, SerializeRoundTripsAndRejectsTileMismatch) {
  ChunkQueueDevice dev(2);
  dev.seed({{{0, 4}, {4, 4}}, {{8, 8}}});
  dev.beginCycle(0);
  ASSERT_TRUE(dev.mmioRead(0, 4, mem::Requester::Cpu).ready);

  sim::StateWriter w;
  dev.serialize(w);

  ChunkQueueDevice restored(2);
  sim::StateReader r(w.data());
  restored.deserialize(r);
  EXPECT_EQ(restored.pendingRows(), dev.pendingRows());
  ASSERT_EQ(restored.claimLog().size(), 1u);
  EXPECT_EQ(restored.claimLog()[0].row_begin, 0u);
  EXPECT_EQ(restored.stats().value("mem.wq.grants"), 1u);
  // The restored queue continues exactly where the original would.
  restored.beginCycle(1);
  const auto next = restored.mmioRead(0, 4, mem::Requester::Cpu);
  ASSERT_TRUE(next.ready);
  EXPECT_EQ(next.data, (4u << 12) | 4u);

  ChunkQueueDevice wrong(3);
  sim::StateReader r2(w.data());
  try {
    wrong.deserialize(r2);
    ADD_FAILURE() << "deserialize accepted a tile-count mismatch";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Checkpoint);
  }
}

// --- end-to-end kernels ---

TEST(ChunkQueue, SpmvBitIdenticalToSingleTileOnSkewedMatrix) {
  const sparse::CsrMatrix m = skewedMatrix(0xD1CE);
  sim::Rng rng(0xD1CF);
  const sparse::DenseVector v = workload::randomDenseVector(rng, m.numCols());
  const RunResult single =
      run(defaultConfig(), {Kernel::kSpmvVectorHht}, {&m, &v});
  expectSameY(sparse::spmvCsr(m, v), single.y);

  for (const bool vectorized : {false, true}) {
    for (const std::uint32_t tiles : {1u, 2u, 4u}) {
      const RunResult dyn =
          run(cqConfig(tiles),
              queued(vectorized ? Kernel::kSpmvVectorHht
                                : Kernel::kSpmvScalarHht,
                     tiles, /*chunk_rows=*/8),
              {&m, &v});
      expectSameY(single.y, dyn.y);
      // Every chunk was claimed exactly once.
      const std::uint64_t chunks = (m.numRows() + 7) / 8;
      EXPECT_EQ(dyn.stats.value("mem.wq.grants"), chunks)
          << tiles << " tiles, vectorized=" << vectorized;
    }
  }
}

TEST(ChunkQueue, SkewMakesTilesStealAndUniformDoesNot) {
  sim::Rng rng(0x5EAL);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 96);
  const sparse::CsrMatrix skew = skewedMatrix(0x5EA0);
  const RunResult on_skew =
      run(cqConfig(4), queued(Kernel::kSpmvVectorHht, 4, 4), {&skew, &v});
  EXPECT_GT(on_skew.stats.value("mem.wq.steals"), 0u)
      << "a power-law matrix must drain some tile's deque early";

  // With one chunk per tile there is nothing left to steal by the time any
  // tile finishes its own work.
  const RunResult even =
      run(cqConfig(4), queued(Kernel::kSpmvVectorHht, 4, 24), {&skew, &v});
  EXPECT_EQ(even.stats.value("mem.wq.steals"), 0u);
}

TEST(ChunkQueue, SpmspvBothVariantsBitIdentical) {
  const sparse::CsrMatrix m = skewedMatrix(0xD1D0, 64);
  sim::Rng rng(0xD1D1);
  const sparse::SparseVector v =
      workload::randomSparseVector(rng, m.numCols(), 0.4);
  const Operands ops{.m = &m, .sv = &v};
  for (const int variant : {1, 2}) {
    const RunResult single = run(defaultConfig(), {spmspvHht(variant)}, ops);
    for (const std::uint32_t tiles : {2u, 4u}) {
      const RunResult dyn =
          run(cqConfig(tiles), queued(spmspvHht(variant), tiles, 8), ops);
      expectSameY(single.y, dyn.y);
    }
  }
  expectSameY(sparse::spmspvMerge(m, v),
              run(cqConfig(4), queued(Kernel::kSpmspvHhtV1, 4, 8), ops).y);
}

TEST(ChunkQueue, PerRowOracleStaysCleanOnDynamicSchedule) {
  const SystemConfig cfg = cqConfig(4);
  System sys(cfg);
  const sparse::CsrMatrix m = skewedMatrix(0xD1D2);
  sim::Rng rng(0xD1D3);
  const sparse::DenseVector v = workload::randomDenseVector(rng, m.numCols());
  const Prepared p =
      prepare(sys, queued(Kernel::kSpmvVectorHht, 4, 8), {&m, &v});
  // Per-row dynamic mode: expectations follow the claim log, per claimed
  // row window.
  verify::DifferentialOracle oracle(
      4, [&](std::uint32_t row_begin, std::uint32_t row_count) {
        return verify::expectedGatherStreamShard(
            m, v, {row_begin, row_begin + row_count, 0});
      });
  oracle.attach(sys);
  const RunResult r =
      sys.run(p.programs(), p.y, p.y_len, 500'000'000, nullptr, &oracle);
  oracle.detach(sys);
  oracle.checkFinal(r.y, sparse::spmvCsr(m, v));
  EXPECT_FALSE(oracle.diverged()) << oracle.describe();
  std::uint64_t delivered = 0;
  for (std::uint32_t t = 0; t < 4; ++t) {
    delivered += oracle.delivered(t);
  }
  EXPECT_EQ(delivered, m.nnz());
}

TEST(ChunkQueue, PerRowOracleLocalizesAnInjectedDivergence) {
  // Same run, but the expectation builder lies about one row's stream —
  // the tile that claims that row (whichever it is) must latch, proving
  // the dynamic expectations really track the claim log.
  const SystemConfig cfg = cqConfig(2);
  System sys(cfg);
  const sparse::CsrMatrix m = skewedMatrix(0xD1D4, 48);
  sim::Rng rng(0xD1D5);
  const sparse::DenseVector v = workload::randomDenseVector(rng, m.numCols());
  const Prepared p =
      prepare(sys, queued(Kernel::kSpmvVectorHht, 2, 8), {&m, &v});
  verify::DifferentialOracle oracle(
      2, [&](std::uint32_t row_begin, std::uint32_t row_count) {
        auto events = verify::expectedGatherStreamShard(
            m, v, {row_begin, row_begin + row_count, 0});
        if (row_begin == 0 && !events.empty()) {
          events[0].bits ^= 0x00400000;  // corrupt row 0's first element
        }
        return events;
      });
  oracle.attach(sys);
  sys.run(p.programs(), p.y, p.y_len, 500'000'000, nullptr, &oracle);
  oracle.detach(sys);
  EXPECT_TRUE(oracle.diverged());
}

TEST(ChunkQueue, CheckpointRestoreResumeRoundTripsQueueState) {
  const SystemConfig cfg = cqConfig(4);
  const sparse::CsrMatrix m = skewedMatrix(0xD1D6);
  sim::Rng rng(0xD1D7);
  const sparse::DenseVector v = workload::randomDenseVector(rng, m.numCols());

  const auto load = [&](System& sys) {
    return prepare(sys, queued(Kernel::kSpmvVectorHht, 4, 8), {&m, &v});
  };

  System uninterrupted(cfg);
  const Prepared w = load(uninterrupted);
  const RunResult base = uninterrupted.run(w.programs(), w.y, w.y_len);
  ASSERT_GT(base.cycles, 200u);

  class CheckpointAt : public RunObserver {
   public:
    CheckpointAt(std::span<const isa::Program> programs, Cycle at)
        : programs_(programs), at_(at) {}
    void onCycle(System& sys, Cycle now) override {
      if (now == at_ && snapshot_.empty()) {
        snapshot_ = sys.checkpoint(programs_, now + 1);
      }
    }
    std::vector<std::uint8_t> snapshot_;

   private:
    std::span<const isa::Program> programs_;
    Cycle at_;
  };

  System observed(cfg);
  const Prepared w2 = load(observed);
  // Checkpoint mid-run, when some chunks are claimed and some pending —
  // the interesting queue state.
  CheckpointAt observer(w2.programs(), base.cycles / 2);
  observed.run(w2.programs(), w2.y, w2.y_len, 500'000'000, nullptr,
               &observer);
  ASSERT_FALSE(observer.snapshot_.empty());

  System resumed_sys(cfg);
  const Prepared w3 = load(resumed_sys);
  const Cycle start = resumed_sys.restore(observer.snapshot_, w3.programs());
  const RunResult resumed =
      resumed_sys.resume(w3.programs(), w3.y, w3.y_len, start);
  EXPECT_EQ(base.cycles, resumed.cycles);
  EXPECT_EQ(base.retired, resumed.retired);
  EXPECT_EQ(base.stats.all(), resumed.stats.all());
  expectSameY(base.y, resumed.y);
  expectSameY(sparse::spmvCsr(m, v), resumed.y);
}

TEST(ChunkQueue, SnapshotFingerprintSeparatesQueueOnFromOff) {
  // work_queue_enabled is architectural (an extra MMIO window exists), so
  // a snapshot from a queue-enabled system must not restore into a
  // queue-less one even before any section parsing.
  const sparse::CsrMatrix m = skewedMatrix(0xD1D8, 32);
  sim::Rng rng(0xD1D9);
  const sparse::DenseVector v = workload::randomDenseVector(rng, m.numCols());

  System with_wq(cqConfig(2));
  const Prepared p =
      prepare(with_wq, queued(Kernel::kSpmvVectorHht, 2, 8), {&m, &v});
  const auto snap = with_wq.checkpoint(p.programs(), 0);

  SystemConfig plain = cqConfig(2);
  plain.memory.work_queue_enabled = false;
  System without_wq(plain);
  loadSpmv(without_wq.arena(), without_wq.memory().sram(), m, v);
  try {
    without_wq.restore(snap, p.programs());
    ADD_FAILURE() << "restore crossed the work_queue_enabled boundary";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Checkpoint);
  }
}

TEST(ChunkQueue, ThreadedTileWorkersAreByteIdenticalToSerial) {
  // The claim schedule is part of the architectural state, so the staged
  // submission protocol must keep it — and with it every counter and the
  // output — byte-identical when tiles tick on worker threads.
  const sparse::CsrMatrix m = skewedMatrix(0xD1DA);
  sim::Rng rng(0xD1DB);
  const sparse::DenseVector v = workload::randomDenseVector(rng, m.numCols());

  SystemConfig serial = cqConfig(4);
  serial.tile_workers = 1;
  SystemConfig threaded = cqConfig(4);
  threaded.tile_workers = 4;

  const RunResult a =
      run(serial, queued(Kernel::kSpmvVectorHht, 4, 8), {&m, &v});
  const RunResult b =
      run(threaded, queued(Kernel::kSpmvVectorHht, 4, 8), {&m, &v});
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.retired, b.retired);
  EXPECT_EQ(a.stats.all(), b.stats.all());
  expectSameY(a.y, b.y);
}

TEST(ChunkQueue, QueueWaitShowsUpInPerTileStallProfiles) {
  // The claim loads are WQ-window MMIO reads, so the profiler must
  // attribute their stalls to the queue_wait bucket — and the buckets must
  // still partition the horizon exactly.
  const SystemConfig cfg = cqConfig(2);
  System sys(cfg);
  const sparse::CsrMatrix m = skewedMatrix(0xD1DC, 48);
  sim::Rng rng(0xD1DD);
  const sparse::DenseVector v = workload::randomDenseVector(rng, m.numCols());
  const Prepared p =
      prepare(sys, queued(Kernel::kSpmvScalarHht, 2, 4), {&m, &v});
  obs::TraceSink sink0, sink1;
  sys.setTileTraceSink(0, &sink0);
  sys.setTileTraceSink(1, &sink1);
  sys.run(p.programs(), p.y, p.y_len);

  const obs::ProfileReport rep0 = obs::profile(sink0);
  const obs::ProfileReport rep1 = obs::profile(sink1);
  ASSERT_GT(rep0.horizon, 0u);
  EXPECT_EQ(rep0.horizon, rep1.horizon);
  EXPECT_EQ(rep0.componentTotal(obs::Component::kCpu), rep0.horizon);
  EXPECT_EQ(rep1.componentTotal(obs::Component::kCpu), rep1.horizon);
  // Each tile made at least one claim, and at least one of them waited on
  // the queue at some point (two tiles, one claim granted per cycle).
  const std::uint64_t wait0 =
      rep0.bucketCycles(obs::Component::kCpu, obs::kBucketQueueWait);
  const std::uint64_t wait1 =
      rep1.bucketCycles(obs::Component::kCpu, obs::kBucketQueueWait);
  EXPECT_GT(wait0 + wait1, 0u);
}

}  // namespace
}  // namespace hht::harness
