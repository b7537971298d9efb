// Deterministic checkpoint/replay tests: System::checkpoint() mid-run via a
// RunObserver, restore() into a fresh System, and resume() producing results
// bit-identical to the uninterrupted run; plus rejection of snapshots that
// do not match this machine or this program.
#include <gtest/gtest.h>

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

/// The figure-bench workload every test below runs: HHT-assisted SpMV with
/// the scalar consumer, deterministic operands.
struct Workload {
  CsrMatrix m;
  DenseVector v;
  isa::Program program;
  kernels::SpmvLayout layout;
};

Workload prepare(System& sys, std::uint64_t seed) {
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
  const Workload w = prepare(uninterrupted, 0xC4EC);
  const RunResult base =
      uninterrupted.run(w.program, w.layout.y, w.layout.num_rows);
  ASSERT_GT(base.cycles, 200u) << "workload too small to checkpoint mid-run";

  // Same run again, snapshotting midway through.
  System observed(cfg);
  const Workload w2 = prepare(observed, 0xC4EC);
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
  const Workload w = prepare(sys, 0xC4ED);
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
  const Workload wa = prepare(a, 0xC4EE);
  a.cpu().loadProgram(wa.program);
  System b(cfg);
  const Workload wb = prepare(b, 0xC4EE);
  b.cpu().loadProgram(wb.program);
  EXPECT_EQ(a.checkpoint(wa.program, 0), b.checkpoint(wb.program, 0));
  // Idempotent: checkpointing is read-only.
  EXPECT_EQ(a.checkpoint(wa.program, 0), a.checkpoint(wa.program, 0));
}

TEST(Checkpoint, RestoreRejectsMismatchesAndCorruption) {
  const SystemConfig cfg = defaultConfig();
  System sys(cfg);
  const Workload w = prepare(sys, 0xC4EF);
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
}

// Forward compatibility: a snapshot written by a NEWER simulator build must
// be rejected with a structured error naming the version skew, never parsed
// with this build's layout. Regression for the version check accepting any
// version >= the magic's (it only rejected *older* snapshots, so a v4
// snapshot's bytes were misinterpreted as v3 sections).
TEST(Checkpoint, RestoreRejectsSnapshotFromNewerVersion) {
  const SystemConfig cfg = defaultConfig();
  System sys(cfg);
  const Workload w = prepare(sys, 0xC4F0);
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

  System base_sys(cfg);
  const kernels::SpmvLayout layout = loadSpmv(base_sys, m, v);
  const isa::Program program =
      kernels::spmvScalarHht(layout, cfg.memory.mmio_base);
  const isa::Program fallback = kernels::spmvScalarBaseline(layout);
  const RunResult base = base_sys.run(program, layout.y, layout.num_rows,
                                      500'000'000, &fallback);
  ASSERT_TRUE(base.degraded);

  // Same run, snapshotting 100 cycles into the fallback rerun.
  System watched_sys(cfg);
  const kernels::SpmvLayout l2 = loadSpmv(watched_sys, m, v);
  const isa::Program p2 = kernels::spmvScalarHht(l2, cfg.memory.mmio_base);
  const isa::Program f2 = kernels::spmvScalarBaseline(l2);
  CheckpointInDegraded observer(f2, 100);
  const RunResult watched = watched_sys.run(p2, l2.y, l2.num_rows,
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
  const RunResult resumed = fresh.resume(f2, l2.y, l2.num_rows, start);
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
  const kernels::SpmvLayout layout = loadSpmv(watched_sys, m, v);
  const isa::Program program =
      kernels::spmvScalarHht(layout, cfg.memory.mmio_base);
  const isa::Program fallback = kernels::spmvScalarBaseline(layout);
  CheckpointInDegraded observer(fallback, 100);
  watched_sys.run(program, layout.y, layout.num_rows, 500'000'000, &fallback,
                  &observer);
  ASSERT_FALSE(observer.snapshot().empty());

  // The reference: the same resume on a fresh System.
  System fresh(cfg);
  const Cycle start = fresh.restore(observer.snapshot(), fallback);
  const RunResult want = fresh.resume(fallback, layout.y, layout.num_rows,
                                      start);

  // A System whose previous, uninterrupted faulty run skipped more.
  System reused(cfg);
  loadSpmv(reused, m, v);
  const RunResult first = reused.run(program, layout.y, layout.num_rows,
                                     500'000'000, &fallback);
  ASSERT_TRUE(first.degraded);
  const std::uint64_t first_skipped = reused.hostSkippedCycles();
  ASSERT_GT(first_skipped, fresh.hostSkippedCycles())
      << "the earlier run must skip more, or a stale count goes unseen";
  ASSERT_EQ(reused.restore(observer.snapshot(), fallback), start);
  const RunResult got = reused.resume(fallback, layout.y, layout.num_rows,
                                      start);
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
  const kernels::SpmvLayout layout = loadSpmv(sys, m, v);
  const isa::Program program =
      kernels::spmvScalarHht(layout, cfg.memory.mmio_base);
  const isa::Program fallback = kernels::spmvScalarBaseline(layout);
  CheckpointInDegraded observer(fallback, 100);
  const RunResult r = sys.run(program, layout.y, layout.num_rows, 500'000'000,
                              &fallback, &observer);
  ASSERT_TRUE(r.degraded);
  ASSERT_FALSE(observer.snapshot().empty());

  System fresh(cfg);
  try {
    fresh.restore(observer.snapshot(), program);
    ADD_FAILURE() << "restore accepted the pre-degradation program";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Checkpoint) << e.what();
  }
}

}  // namespace
}  // namespace hht::harness
