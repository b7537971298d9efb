// Deterministic checkpoint/replay tests: System::checkpoint() mid-run via a
// RunObserver, restore() into a fresh System, and resume() producing results
// bit-identical to the uninterrupted run; plus rejection of snapshots that
// do not match this machine or this program.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "harness/experiment.h"
#include "sparse/reference.h"
#include "workload/synthetic.h"

namespace hht::harness {
namespace {

using sparse::CsrMatrix;
using sparse::DenseVector;
using sim::Cycle;
using sim::ErrorKind;
using sim::SimError;

/// Observer that checkpoints the running System once, at cycle `at`.
class CheckpointAt : public RunObserver {
 public:
  CheckpointAt(const isa::Program& program, Cycle at)
      : program_(&program), at_(at) {}

  void onCycle(System& sys, Cycle now) override {
    if (now == at_ && snapshot_.empty()) {
      snapshot_ = sys.checkpoint(*program_, now + 1);
      resume_at_ = now + 1;
    }
  }

  const std::vector<std::uint8_t>& snapshot() const { return snapshot_; }
  Cycle resumeAt() const { return resume_at_; }

 private:
  const isa::Program* program_;
  Cycle at_;
  Cycle resume_at_ = 0;
  std::vector<std::uint8_t> snapshot_;
};

void expectIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.retired, b.retired);
  EXPECT_EQ(a.cpu_wait_cycles, b.cpu_wait_cycles);
  EXPECT_EQ(a.hht_wait_cycles, b.hht_wait_cycles);
  EXPECT_EQ(a.hht_residual_busy, b.hht_residual_busy);
  ASSERT_EQ(a.y.size(), b.y.size());
  for (sim::Index i = 0; i < a.y.size(); ++i) {
    EXPECT_EQ(a.y.at(i), b.y.at(i)) << "y[" << i << "]";
  }
  EXPECT_EQ(a.stats.all(), b.stats.all());
}

/// Scalar HHT SpMV with the scalar baseline as its degradation fallback.
constexpr RunSpec kResilient{.kernel = Kernel::kSpmvScalarHht,
                             .fallback = true};

/// The figure-bench workload every test below runs: HHT-assisted SpMV with
/// the scalar consumer, deterministic operands.
struct Workload {
  CsrMatrix m;
  DenseVector v;
  isa::Program program;
  kernels::SpmvLayout layout;
};

Workload loadWorkload(System& sys, std::uint64_t seed) {
  sim::Rng rng(seed);
  Workload w;
  w.m = workload::randomCsr(rng, 24, 24, 0.4);
  w.v = workload::randomDenseVector(rng, 24);
  w.layout = loadSpmv(sys, w.m, w.v);
  w.program =
      kernels::spmvScalarHht(w.layout, sys.config().memory.mmio_base);
  return w;
}

TEST(Checkpoint, MidRunRestoreIsBitIdenticalToUninterruptedRun) {
  const SystemConfig cfg = defaultConfig();

  System uninterrupted(cfg);
  const Workload w = loadWorkload(uninterrupted, 0xC4EC);
  const RunResult base =
      uninterrupted.run(w.program, w.layout.y, w.layout.num_rows);
  ASSERT_GT(base.cycles, 200u) << "workload too small to checkpoint mid-run";

  // Same run again, snapshotting midway through.
  System observed(cfg);
  const Workload w2 = loadWorkload(observed, 0xC4EC);
  CheckpointAt observer(w2.program, base.cycles / 2);
  const RunResult watched = observed.run(w2.program, w2.layout.y,
                                         w2.layout.num_rows, 500'000'000,
                                         nullptr, &observer);
  expectIdentical(base, watched);  // observing must not perturb the machine
  ASSERT_FALSE(observer.snapshot().empty());

  // Fresh machine, nothing loaded: the snapshot carries all state.
  System resumed_sys(cfg);
  const Cycle start = resumed_sys.restore(observer.snapshot(), w2.program);
  EXPECT_EQ(start, observer.resumeAt());
  const RunResult resumed = resumed_sys.resume(w2.program, w2.layout.y,
                                               w2.layout.num_rows, start);
  expectIdentical(base, resumed);
  // And the result is actually correct, not just self-consistent.
  const DenseVector ref = sparse::spmvCsr(w.m, w.v);
  for (sim::Index i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(resumed.y.at(i), ref.at(i));
  }
}

TEST(Checkpoint, Cycle0SnapshotReplaysTheWholeRun) {
  const SystemConfig cfg = defaultConfig();
  System sys(cfg);
  const Workload w = loadWorkload(sys, 0xC4ED);
  // Arm the architectural state, snapshot before the first cycle.
  sys.cpu().loadProgram(w.program);
  const std::vector<std::uint8_t> snap = sys.checkpoint(w.program, 0);
  const RunResult base = sys.run(w.program, w.layout.y, w.layout.num_rows);

  System fresh(cfg);
  const Cycle start = fresh.restore(snap, w.program);
  EXPECT_EQ(start, 0u);
  const RunResult replayed =
      fresh.resume(w.program, w.layout.y, w.layout.num_rows, start);
  expectIdentical(base, replayed);
}

TEST(Checkpoint, SnapshotBytesAreDeterministic) {
  const SystemConfig cfg = defaultConfig();
  System a(cfg);
  const Workload wa = loadWorkload(a, 0xC4EE);
  a.cpu().loadProgram(wa.program);
  System b(cfg);
  const Workload wb = loadWorkload(b, 0xC4EE);
  b.cpu().loadProgram(wb.program);
  EXPECT_EQ(a.checkpoint(wa.program, 0), b.checkpoint(wb.program, 0));
  // Idempotent: checkpointing is read-only.
  EXPECT_EQ(a.checkpoint(wa.program, 0), a.checkpoint(wa.program, 0));
}

/// Where a snapshot of a default-config (cacheless) System of `sram_bytes`
/// bytes keeps its memory channel queue: after the MEMS tag, the SRAM
/// section (tag, size, contents, an empty latent-flip registry) and the
/// two cache-presence flags. The queue is a u64 count, then 23-byte
/// entries: id, addr, size, is_write, wdata, requester, tile.
std::size_t channelQueueAt(const std::vector<std::uint8_t>& snap,
                           std::size_t sram_bytes) {
  const char tag[] = "MEMS";
  const auto mems = std::search(snap.begin(), snap.end(), tag, tag + 4);
  return static_cast<std::size_t>(mems - snap.begin()) + 4 + 4 + 8 +
         sram_bytes + 8 + 2;
}
constexpr std::size_t kQueuedTileByte = 8 + 22;  ///< count, then offset 22

/// Checkpoints at the first cycle from `from` on whose snapshot has a
/// non-empty channel queue.
class CheckpointWithQueuedAccess : public RunObserver {
 public:
  CheckpointWithQueuedAccess(std::span<const isa::Program> programs,
                             std::size_t sram_bytes, Cycle from)
      : programs_(programs), sram_bytes_(sram_bytes), from_(from) {}

  void onCycle(System& sys, Cycle now) override {
    if (now < from_ || !snapshot.empty()) return;
    std::vector<std::uint8_t> snap = sys.checkpoint(programs_, now + 1);
    std::uint64_t queued = 0;
    std::memcpy(&queued, snap.data() + channelQueueAt(snap, sram_bytes_),
                sizeof queued);
    if (queued != 0) snapshot = std::move(snap);
  }

  std::vector<std::uint8_t> snapshot;

 private:
  std::span<const isa::Program> programs_;
  std::size_t sram_bytes_;
  Cycle from_;
};

TEST(Checkpoint, RestoreRejectsMismatchesAndCorruption) {
  const SystemConfig cfg = defaultConfig();
  System sys(cfg);
  const Workload w = loadWorkload(sys, 0xC4EF);
  sys.cpu().loadProgram(w.program);
  const std::vector<std::uint8_t> snap = sys.checkpoint(w.program, 0);

  const auto expectCheckpointError = [&](System& target,
                                         const std::vector<std::uint8_t>& s,
                                         const isa::Program& p) {
    try {
      target.restore(s, p);
      ADD_FAILURE() << "restore accepted a bad snapshot";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Checkpoint) << e.what();
    }
  };

  {  // Different machine configuration: fingerprint mismatch.
    SystemConfig other = cfg;
    other.memory.sram_latency += 1;
    System target(other);
    expectCheckpointError(target, snap, w.program);
  }
  {  // Different program identity (name + code hash).
    System target(cfg);
    const isa::Program other =
        isa::ProgramBuilder("not_the_program").ecall().build();
    expectCheckpointError(target, snap, other);
  }
  {  // Truncated payload.
    System target(cfg);
    std::vector<std::uint8_t> cut(snap.begin(), snap.end() - 8);
    expectCheckpointError(target, cut, w.program);
  }
  {  // Trailing bytes.
    System target(cfg);
    std::vector<std::uint8_t> padded = snap;
    padded.push_back(0xFF);
    expectCheckpointError(target, padded, w.program);
  }
  {  // Corrupt magic.
    System target(cfg);
    std::vector<std::uint8_t> bad = snap;
    bad[0] ^= 0x5A;
    expectCheckpointError(target, bad, w.program);
  }
  {  // A queued access from a tile this machine does not have, mid-run in
     // a 64x64 vector-gather SpMV: restore would index its per-port
     // tables with it.
    sim::Rng rng(0xC4F1);
    const CsrMatrix m = workload::randomCsr(rng, 64, 64, 0.7);
    const DenseVector v = workload::randomDenseVector(rng, 64);
    System source(cfg);
    const Prepared p = prepare(source, {Kernel::kSpmvVectorHht}, {&m, &v});
    CheckpointWithQueuedAccess observer(p.programs(), cfg.memory.sram_bytes,
                                        100);
    source.run(p.programs(), p.y, p.y_len, 500'000'000, nullptr, &observer);
    ASSERT_FALSE(observer.snapshot.empty()) << "the channel queue never filled";
    std::vector<std::uint8_t> bad = observer.snapshot;
    bad[channelQueueAt(bad, cfg.memory.sram_bytes) + kQueuedTileByte] = 0x7F;
    System target(cfg);
    expectCheckpointError(target, bad, p.program);
    System good(cfg);  // and the unmodified snapshot restores
    good.restore(observer.snapshot, p.program);
  }
}

// Hostile input: single-byte mutations anywhere past the SRAM contents of
// a mid-run snapshot (latent-flip registry, queues, responses, arbiter,
// chunk queue, fault injectors, HHT pipelines, cores, stats) must either
// restore or throw SimError(Checkpoint), never crash, hang or allocate
// without bound. Restore only: resumed runs are not fuzzed here.
TEST(Checkpoint, SeededByteMutationsRestoreOrThrowCheckpointErrors) {
  SystemConfig cfg = defaultConfig();
  cfg.memory.sram_bytes = 64 << 10;
  cfg.faults.enabled = true;  // timing-only faults: injector sections
  cfg.faults.seed = 0xC4F2;
  cfg.faults.drop_rate = 5e-3;
  cfg.faults.delay_rate = 2e-2;
  const RunSpec spec{.kernel = Kernel::kSpmvVectorHht,
                     .tiles = 2,
                     .distribution = Distribution::kChunkQueue,
                     .chunk_rows = 4};
  const SystemConfig machine = configFor(cfg, spec);
  sim::Rng rng(0xC4F3);
  const CsrMatrix m = workload::randomCsr(rng, 48, 48, 0.6);
  const DenseVector v = workload::randomDenseVector(rng, 48);
  System source(machine);
  const Prepared p = prepare(source, spec, {&m, &v});
  CheckpointWithQueuedAccess observer(p.programs(), cfg.memory.sram_bytes,
                                      150);
  source.run(p.programs(), p.y, p.y_len, 500'000'000, nullptr, &observer);
  const std::vector<std::uint8_t>& snap = observer.snapshot;
  ASSERT_FALSE(snap.empty()) << "the channel queue never filled";

  // The SRAM contents end where the latent-flip registry's count begins.
  const std::size_t first = channelQueueAt(snap, cfg.memory.sram_bytes) - 10;
  ASSERT_LT(first, snap.size());
  std::uint32_t restored = 0;
  for (int i = 0; i < 256; ++i) {
    std::vector<std::uint8_t> bad = snap;
    const std::size_t at = first + rng.nextBelow(snap.size() - first);
    bad[at] ^= static_cast<std::uint8_t>(1 + rng.nextBelow(255));
    System target(machine);
    try {
      target.restore(bad, p.programs());
      ++restored;
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Checkpoint)
          << "byte " << at << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "byte " << at << ": " << e.what();
    }
  }
  // Most single-byte flips land in data (SRAM-free counters, payloads),
  // some in structure; both outcomes must occur.
  EXPECT_GT(restored, 0u);
  EXPECT_LT(restored, 256u);
}

// Forward compatibility: a snapshot written by a NEWER simulator build must
// be rejected with a structured error naming the version skew, never parsed
// with this build's layout. Regression for the version check accepting any
// version >= the magic's (it only rejected *older* snapshots, so a v4
// snapshot's bytes were misinterpreted as v3 sections).
TEST(Checkpoint, RestoreRejectsSnapshotFromNewerVersion) {
  const SystemConfig cfg = defaultConfig();
  System sys(cfg);
  const Workload w = loadWorkload(sys, 0xC4F0);
  sys.cpu().loadProgram(w.program);
  std::vector<std::uint8_t> snap = sys.checkpoint(w.program, 0);

  // The version field sits right after the 4-byte magic.
  const std::uint32_t newer = kSnapshotVersion + 1;
  std::memcpy(snap.data() + 4, &newer, sizeof newer);

  System target(cfg);
  try {
    target.restore(snap, w.program);
    ADD_FAILURE() << "restore accepted a snapshot from a newer build";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Checkpoint) << e.what();
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos)
        << "diagnostic should name the skew direction: " << e.what();
  }
}

/// Observer that checkpoints once, `after` cycles into the degraded
/// fallback loop (v4 snapshots record the mid-degraded continuation).
class CheckpointInDegraded : public RunObserver {
 public:
  CheckpointInDegraded(const isa::Program& fallback, Cycle after)
      : fallback_(&fallback), after_(after) {}

  void onCycle(System& sys, Cycle now) override {
    if (!sys.degradedActive() || !snapshot_.empty()) return;
    if (++degraded_cycles_ == after_) {
      snapshot_ = sys.checkpoint(*fallback_, now + 1);
      resume_at_ = now + 1;
    }
  }

  const std::vector<std::uint8_t>& snapshot() const { return snapshot_; }
  Cycle resumeAt() const { return resume_at_; }

 private:
  const isa::Program* fallback_;
  Cycle after_;
  Cycle degraded_cycles_ = 0;
  Cycle resume_at_ = 0;
  std::vector<std::uint8_t> snapshot_;
};

// Checkpoint-under-fault: a snapshot taken while the machine is mid-way
// through the graceful-degradation rerun restores into the degraded loop
// (injection detached, fallback program as the identity) and completes
// with the same degraded RunResult — same y, same latched fault cause —
// as the uninterrupted faulty run.
TEST(Checkpoint, MidDegradedFallbackSnapshotResumesBitIdentically) {
  SystemConfig cfg = defaultConfig();
  cfg.faults.enabled = true;
  cfg.faults.seed = 43;
  cfg.faults.fifo_corrupt_rate = 1.0;  // deterministically forces fallback

  sim::Rng rng(22);
  const CsrMatrix m = workload::randomCsr(rng, 24, 24, 0.4);
  const DenseVector v = workload::randomDenseVector(rng, 24);

  const RunResult base = run(cfg, kResilient, {&m, &v});
  ASSERT_TRUE(base.degraded);

  // Same run, snapshotting 100 cycles into the fallback rerun.
  System watched_sys(cfg);
  const Prepared p = prepare(watched_sys, kResilient, {&m, &v});
  const isa::Program& f2 = *p.fallback;
  CheckpointInDegraded observer(f2, 100);
  const RunResult watched = watched_sys.run(p.program, p.y, p.y_len,
                                            500'000'000, &f2, &observer);
  ASSERT_TRUE(watched.degraded);
  ASSERT_FALSE(observer.snapshot().empty())
      << "fallback finished before the checkpoint trigger";
  expectIdentical(base, watched);
  EXPECT_EQ(base.fault_cause, watched.fault_cause);

  // Fresh machine: restore must land inside the degraded loop and resume
  // with the fallback program as the recorded identity.
  System fresh(cfg);
  const Cycle start = fresh.restore(observer.snapshot(), f2);
  EXPECT_EQ(start, observer.resumeAt());
  EXPECT_TRUE(fresh.degradedActive());
  const RunResult resumed = fresh.resume(f2, p.y, p.y_len, start);
  EXPECT_TRUE(resumed.degraded);
  EXPECT_EQ(resumed.fault_cause, base.fault_cause);
  EXPECT_EQ(resumed.fault_detail, base.fault_detail);
  expectIdentical(base, resumed);
  // And the recovered result is correct, not merely self-consistent.
  const DenseVector ref = sparse::spmvCsr(m, v);
  ASSERT_EQ(resumed.y.size(), ref.size());
  for (sim::Index i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(resumed.y.at(i), ref.at(i)) << "y[" << i << "]";
  }
}

// hostSkippedCycles() describes the most recent run() or resume() only: a
// degraded resume on a System that already ran (and skipped) must report
// its own jumps, exactly what the same resume reports on a fresh System.
TEST(Checkpoint, DegradedResumeReportsOnlyItsOwnSkippedCycles) {
  SystemConfig cfg = defaultConfig();
  cfg.faults.enabled = true;
  cfg.faults.seed = 43;
  cfg.faults.fifo_corrupt_rate = 1.0;  // deterministically forces fallback
  cfg.memory.sram_latency = 32;        // the scalar fallback stalls: skips

  sim::Rng rng(23);
  const CsrMatrix m = workload::randomCsr(rng, 24, 24, 0.4);
  const DenseVector v = workload::randomDenseVector(rng, 24);

  // A snapshot 100 cycles into the degraded rerun.
  System watched_sys(cfg);
  const Prepared p = prepare(watched_sys, kResilient, {&m, &v});
  const isa::Program& fallback = *p.fallback;
  CheckpointInDegraded observer(fallback, 100);
  watched_sys.run(p.program, p.y, p.y_len, 500'000'000, &fallback, &observer);
  ASSERT_FALSE(observer.snapshot().empty());

  // The reference: the same resume on a fresh System.
  System fresh(cfg);
  const Cycle start = fresh.restore(observer.snapshot(), fallback);
  const RunResult want = fresh.resume(fallback, p.y, p.y_len, start);

  // A System whose previous, uninterrupted faulty run skipped more.
  System reused(cfg);
  prepare(reused, kResilient, {&m, &v});
  const RunResult first =
      reused.run(p.program, p.y, p.y_len, 500'000'000, &fallback);
  ASSERT_TRUE(first.degraded);
  const std::uint64_t first_skipped = reused.hostSkippedCycles();
  ASSERT_GT(first_skipped, fresh.hostSkippedCycles())
      << "the earlier run must skip more, or a stale count goes unseen";
  ASSERT_EQ(reused.restore(observer.snapshot(), fallback), start);
  const RunResult got = reused.resume(fallback, p.y, p.y_len, start);
  expectIdentical(want, got);
  EXPECT_EQ(reused.hostSkippedCycles(), fresh.hostSkippedCycles());
}

// A mid-degraded snapshot names the *fallback* as the program identity:
// restoring it against the original HHT kernel must be rejected.
TEST(Checkpoint, MidDegradedSnapshotRejectsTheOriginalProgram) {
  SystemConfig cfg = defaultConfig();
  cfg.faults.enabled = true;
  cfg.faults.seed = 43;
  cfg.faults.fifo_corrupt_rate = 1.0;

  sim::Rng rng(22);
  const CsrMatrix m = workload::randomCsr(rng, 24, 24, 0.4);
  const DenseVector v = workload::randomDenseVector(rng, 24);

  System sys(cfg);
  const Prepared p = prepare(sys, kResilient, {&m, &v});
  CheckpointInDegraded observer(*p.fallback, 100);
  const RunResult r = sys.run(p.program, p.y, p.y_len, 500'000'000,
                              &*p.fallback, &observer);
  ASSERT_TRUE(r.degraded);
  ASSERT_FALSE(observer.snapshot().empty());

  System fresh(cfg);
  try {
    fresh.restore(observer.snapshot(), p.program);
    ADD_FAILURE() << "restore accepted the pre-degradation program";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Checkpoint) << e.what();
  }
}

/// The fifo-parity machine of the degraded tests above: every FIFO pop is
/// corrupted, so the HHT kernel deterministically falls back.
SystemConfig fifoParityConfig() {
  SystemConfig cfg = defaultConfig();
  cfg.faults.enabled = true;
  cfg.faults.seed = 43;
  cfg.faults.fifo_corrupt_rate = 1.0;
  return cfg;
}

/// A snapshot taken 100 cycles into the degraded fallback rerun.
std::vector<std::uint8_t> midDegradedSnapshot(const SystemConfig& cfg,
                                              const CsrMatrix& m,
                                              const DenseVector& v) {
  System sys(cfg);
  const Prepared p = prepare(sys, kResilient, {&m, &v});
  CheckpointInDegraded observer(*p.fallback, 100);
  sys.run(p.program, p.y, p.y_len, 500'000'000, &*p.fallback, &observer);
  return observer.snapshot();
}

// A rejected restore must not leave the machine half-degraded: the
// continuation fields are committed only after the whole payload parsed.
TEST(Checkpoint, RejectedDegradedSnapshotLeavesNoDegradedState) {
  const SystemConfig cfg = fifoParityConfig();
  sim::Rng rng(22);
  const CsrMatrix m = workload::randomCsr(rng, 24, 24, 0.4);
  const DenseVector v = workload::randomDenseVector(rng, 24);
  const std::vector<std::uint8_t> snap = midDegradedSnapshot(cfg, m, v);
  ASSERT_FALSE(snap.empty());

  System target(cfg);
  const Prepared p = prepare(target, kResilient, {&m, &v});
  const std::vector<std::uint8_t> cut(snap.begin(), snap.end() - 8);
  try {
    target.restore(cut, *p.fallback);
    ADD_FAILURE() << "restore accepted a truncated snapshot";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Checkpoint) << e.what();
  }
  EXPECT_FALSE(target.degradedActive());
}

/// Counts the cycles observed with degradedActive() set, and checkpoints
/// the running program once at cycle `at`.
class DegradedProbe : public RunObserver {
 public:
  DegradedProbe(const isa::Program& program, Cycle at)
      : program_(&program), at_(at) {}

  void onCycle(System& sys, Cycle now) override {
    if (sys.degradedActive()) ++degraded_cycles_;
    if (now == at_) snapshot_ = sys.checkpoint(*program_, now + 1);
  }

  Cycle degradedCycles() const { return degraded_cycles_; }
  const std::vector<std::uint8_t>& snapshot() const { return snapshot_; }

 private:
  const isa::Program* program_;
  Cycle at_;
  Cycle degraded_cycles_ = 0;
  std::vector<std::uint8_t> snapshot_;
};

// run() starts a fresh primary run even on a System restored mid-degraded:
// observers never see degradedActive(), and a checkpoint taken during that
// run restores as a primary-run checkpoint, not as a stale fallback.
TEST(Checkpoint, RunAfterDegradedRestoreIsAPrimaryRun) {
  const SystemConfig cfg = fifoParityConfig();
  sim::Rng rng(22);
  const CsrMatrix m = workload::randomCsr(rng, 24, 24, 0.4);
  const DenseVector v = workload::randomDenseVector(rng, 24);
  const std::vector<std::uint8_t> snap = midDegradedSnapshot(cfg, m, v);
  ASSERT_FALSE(snap.empty());

  System sys(cfg);
  const kernels::SpmvLayout layout = loadSpmv(sys, m, v);
  // CPU-only, so the FIFO faults cannot touch it.
  const isa::Program fresh = kernels::spmvScalarBaseline(layout);
  sys.restore(snap, fresh);
  ASSERT_TRUE(sys.degradedActive());

  DegradedProbe probe(fresh, 1000);
  const RunResult primary = sys.run(fresh, layout.y, layout.num_rows,
                                    500'000'000, nullptr, &probe);
  EXPECT_EQ(probe.degradedCycles(), 0u);
  EXPECT_FALSE(sys.degradedActive());
  EXPECT_FALSE(primary.degraded);
  EXPECT_EQ(primary.fault_cause, sim::FaultCause::None);
  ASSERT_FALSE(probe.snapshot().empty()) << "run ended before cycle 1000";

  System again(cfg);
  const Cycle start = again.restore(probe.snapshot(), fresh);
  EXPECT_FALSE(again.degradedActive());
  const RunResult resumed =
      again.resume(fresh, layout.y, layout.num_rows, start);
  EXPECT_FALSE(resumed.degraded);
  EXPECT_EQ(resumed.fault_cause, sim::FaultCause::None);
  EXPECT_TRUE(resumed.fault_detail.empty());
  expectIdentical(primary, resumed);
}

}  // namespace
}  // namespace hht::harness
