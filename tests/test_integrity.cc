// Data-integrity subsystem tests (DESIGN.md §15): the end-to-end stream
// checksum channel, poison containment at the delivery boundary, the
// background patrol scrubber (including its profiler partition and its
// non-perturbation guarantee), and snapshot v5 round-trips of the new
// integrity state.
#include <gtest/gtest.h>

#include <cstring>

#include "core/buffers.h"
#include "harness/experiment.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sparse/reference.h"
#include "workload/synthetic.h"

namespace hht {
namespace {

using harness::RunResult;
using harness::System;
using harness::SystemConfig;
using sim::Cycle;
using sim::ErrorKind;
using sim::SimError;

struct Workload {
  sparse::CsrMatrix m;
  sparse::DenseVector v;
  isa::Program program;
  kernels::SpmvLayout layout;
};

/// HHT-assisted SpMV with the scalar consumer — every element the BE
/// fetches flows through the buffer stream the integrity channel covers.
Workload prepare(System& sys, std::uint64_t seed, sim::Index n = 24) {
  sim::Rng rng(seed);
  Workload w;
  w.m = workload::randomCsr(rng, n, n, 0.4);
  w.v = workload::randomDenseVector(rng, n);
  w.layout = harness::loadSpmv(sys, w.m, w.v);
  w.program =
      kernels::spmvScalarHht(w.layout, sys.config().memory.mmio_base);
  return w;
}

// --- end-to-end stream checksum ---------------------------------------

// The same parity-evading flip, twice: with the e2e channel off it escapes
// (the run "succeeds" with a wrong y — true SDC), with it on the FE's
// running CRC disagrees with the BE's tag and the run dies structurally.
// The pair proves both that the check catches the flip and that there was
// a real flip to catch.
TEST(Integrity, E2eStreamCheckCatchesParityEvadingFlip) {
  SystemConfig cfg = harness::defaultConfig();
  cfg.faults.enabled = true;  // all rate knobs stay 0: one deterministic flip
  cfg.faults.sdc_fifo_ordinal = 3;
  cfg.faults.sdc_fifo_bit = 7;

  System unprotected(cfg);
  const Workload w = prepare(unprotected, 0x5DC1);
  const RunResult escaped =
      unprotected.run(w.program, w.layout.y, w.layout.num_rows);
  const sparse::DenseVector ref = sparse::spmvCsr(w.m, w.v);
  bool wrong = false;
  for (sim::Index i = 0; i < ref.size(); ++i) {
    wrong = wrong || escaped.y.at(i) != ref.at(i);
  }
  EXPECT_TRUE(wrong) << "flip site was never consumed — pick another ordinal";

  cfg.hht.e2e_check = true;
  System protected_sys(cfg);
  const Workload w2 = prepare(protected_sys, 0x5DC1);
  try {
    protected_sys.run(w2.program, w2.layout.y, w2.layout.num_rows);
    ADD_FAILURE() << "e2e check missed a parity-evading flip";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::DeviceFault) << e.what();
    EXPECT_NE(std::string(e.what()).find("stream-check"), std::string::npos)
        << e.what();
  }
}

// With no injection the CRC channel must be invisible: same y, same cycle
// count, no fault — the tags always agree.
TEST(Integrity, E2eCheckIsTransparentOnCleanRuns) {
  SystemConfig cfg = harness::defaultConfig();
  System plain(cfg);
  const Workload w = prepare(plain, 0x5DC2);
  const RunResult base = plain.run(w.program, w.layout.y, w.layout.num_rows);

  cfg.hht.e2e_check = true;
  System checked(cfg);
  const Workload w2 = prepare(checked, 0x5DC2);
  const RunResult guarded =
      checked.run(w2.program, w2.layout.y, w2.layout.num_rows);
  EXPECT_EQ(base.cycles, guarded.cycles);
  ASSERT_EQ(base.y.size(), guarded.y.size());
  for (sim::Index i = 0; i < base.y.size(); ++i) {
    EXPECT_EQ(base.y.at(i), guarded.y.at(i)) << "y[" << i << "]";
  }
}

// --- poison containment -----------------------------------------------

// An uncorrectable (double-bit) latent flip under an operand the BE value
// fetch reads: with containment on, the poisoned payload rides the FIFOs
// in order and the machine faults exactly at the BUF_DATA delivery port —
// a precise, attributable stop instead of an engine freeze.
TEST(Integrity, PoisonContainmentFaultsAtDeliveryBoundary) {
  SystemConfig cfg = harness::defaultConfig();
  cfg.hht.poison_containment = true;

  System sys(cfg);
  const Workload w = prepare(sys, 0x5DC3);
  // Two flips in one word of v — beyond SECDED correction.
  sys.memory().sram().injectLatentFlip(w.layout.v + 4 * 3,
                                       (1u << 5) | (1u << 16));
  try {
    sys.run(w.program, w.layout.y, w.layout.num_rows);
    ADD_FAILURE() << "uncorrectable flip was silently consumed";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::DeviceFault) << e.what();
    EXPECT_NE(std::string(e.what()).find("mem-uncorrectable"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("delivery"), std::string::npos)
        << "containment should fault at the delivery port: " << e.what();
  }
}

// --- patrol scrubber ---------------------------------------------------

// Singles planted ahead of the scrub pointer are repaired during the run
// (spare arbiter slots only), the repairs land in the scrub counters, and
// the machine's timing and output are bit-identical to a scrub-off run —
// patrol traffic must never displace demand traffic.
TEST(Integrity, ScrubberCorrectsLatentSinglesWithoutPerturbingTheRun) {
  const std::uint32_t kFlips[] = {8, 100, 200, 400};  // word indices

  SystemConfig cfg = harness::defaultConfig();
  System plain(cfg);
  const Workload w = prepare(plain, 0x5DC4, 32);
  const RunResult base = plain.run(w.program, w.layout.y, w.layout.num_rows);

  cfg.memory.scrub_enabled = true;
  cfg.memory.scrub_period = 1;
  System scrubbed(cfg);
  const Workload w2 = prepare(scrubbed, 0x5DC4, 32);
  for (const std::uint32_t word : kFlips) {
    scrubbed.memory().sram().injectLatentFlip(4 * word, 1u << (word % 32));
  }
  ASSERT_GT(base.cycles, 4 * 400u) << "run too short to patrol all flips";
  const RunResult r = scrubbed.run(w2.program, w2.layout.y, w2.layout.num_rows);

  EXPECT_EQ(r.stats.value("mem.scrub.corrected"), 4u);
  EXPECT_GT(r.stats.value("mem.scrub.reads"), 400u);
  EXPECT_EQ(scrubbed.memory().sram().latentCount(), 0u);
  // Non-perturbation: identical horizon, identical output.
  EXPECT_EQ(base.cycles, r.cycles);
  ASSERT_EQ(base.y.size(), r.y.size());
  for (sim::Index i = 0; i < base.y.size(); ++i) {
    EXPECT_EQ(base.y.at(i), r.y.at(i)) << "y[" << i << "]";
  }
}

// Scrub traffic is its own requester class in the profiler: patrol grants
// reconcile with mem.scrub.* and stay out of mem_grants, so the exact
// demand-grant reconciliation survives with scrubbing enabled.
TEST(Integrity, ScrubTrafficIsPartitionedInTheProfiler) {
  SystemConfig cfg = harness::defaultConfig();
  cfg.memory.scrub_enabled = true;
  cfg.memory.scrub_period = 2;
  obs::TraceSink sink;
  cfg.trace_sink = &sink;

  System sys(cfg);
  const Workload w = prepare(sys, 0x5DC5);
  sys.memory().sram().injectLatentFlip(4 * 16, 1u << 9);
  const RunResult r = sys.run(w.program, w.layout.y, w.layout.num_rows);
  ASSERT_EQ(sink.dropped(), 0u) << "workload overflowed the trace sink";

  const obs::ProfileReport rep = obs::profile(sink);
  EXPECT_EQ(rep.horizon, r.cycles);
  EXPECT_EQ(rep.scrub_grants, r.stats.value("mem.scrub.reads"));
  EXPECT_EQ(rep.scrub_corrected, r.stats.value("mem.scrub.corrected"));
  EXPECT_GT(rep.scrub_grants, 0u);
  EXPECT_EQ(rep.scrub_corrected, 1u);
  // The demand reconciliation the profiler suite gates must still hold.
  EXPECT_EQ(rep.mem_grants, r.stats.value("mem.grants"));
}

// --- snapshot v5 -------------------------------------------------------

/// Observer that checkpoints the running System once, at cycle `at`.
class CheckpointAt : public harness::RunObserver {
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

// Mid-scrub snapshot: the patrol pointer, the pending latent registry and
// the scrub schedule are all live state. restore() into a fresh machine
// must (a) re-serialize to the exact same bytes — serialize∘deserialize is
// the identity on v5 state — and (b) resume to the uninterrupted run's
// result, including the remaining scrub repairs.
TEST(Integrity, SnapshotV5RoundTripsMidScrub) {
  SystemConfig cfg = harness::defaultConfig();
  cfg.memory.scrub_enabled = true;
  cfg.memory.scrub_period = 1;
  cfg.hht.e2e_check = true;  // CRC registers ride the snapshot too

  System uninterrupted(cfg);
  const Workload w = prepare(uninterrupted, 0x5DC6, 32);
  for (const std::uint32_t word : {10u, 300u, 900u}) {
    uninterrupted.memory().sram().injectLatentFlip(4 * word, 1u << 3);
  }
  const RunResult base =
      uninterrupted.run(w.program, w.layout.y, w.layout.num_rows);
  EXPECT_EQ(base.stats.value("mem.scrub.corrected"), 3u);

  System observed(cfg);
  const Workload w2 = prepare(observed, 0x5DC6, 32);
  for (const std::uint32_t word : {10u, 300u, 900u}) {
    observed.memory().sram().injectLatentFlip(4 * word, 1u << 3);
  }
  CheckpointAt observer(w2.program, base.cycles / 2);
  observed.run(w2.program, w2.layout.y, w2.layout.num_rows, 500'000'000,
               nullptr, &observer);
  ASSERT_FALSE(observer.snapshot().empty());

  System resumed_sys(cfg);
  const Cycle start = resumed_sys.restore(observer.snapshot(), w2.program);
  EXPECT_EQ(start, observer.resumeAt());
  EXPECT_EQ(resumed_sys.checkpoint(w2.program, start), observer.snapshot())
      << "v5 state did not survive a serialize/deserialize round trip";
  const RunResult resumed = resumed_sys.resume(w2.program, w2.layout.y,
                                               w2.layout.num_rows, start);
  EXPECT_EQ(base.cycles, resumed.cycles);
  EXPECT_EQ(base.stats.all(), resumed.stats.all());
  ASSERT_EQ(base.y.size(), resumed.y.size());
  for (sim::Index i = 0; i < base.y.size(); ++i) {
    EXPECT_EQ(base.y.at(i), resumed.y.at(i)) << "y[" << i << "]";
  }
}

// Poisoned and check-tagged slots in the buffer stream are v5 state; a
// pool holding them mid-flight must round-trip bit-identically and pop
// back the exact same slots (unit-level, so the poisoned window is under
// direct control rather than raced against delivery timing).
TEST(Integrity, PoisonedAndTaggedSlotsSurviveSerialization) {
  core::HhtConfig cfg;
  cfg.num_buffers = 2;
  cfg.buffer_len = 4;
  cfg.e2e_check = true;

  core::BufferPool pool(cfg);
  core::Slot s;
  s.bits = 0xDEAD0001;
  pool.push(s);
  s.bits = 0;  // a containment-injected poison slot
  s.poisoned = true;
  pool.push(s);
  s = {};
  s.bits = 0xDEAD0003;
  s.publish_after = true;  // row-aligned publish → CRC tag on this slot
  pool.push(s);
  s = {};
  s.bits = 0xDEAD0004;  // left in staging, unpublished
  pool.push(s);

  sim::StateIo w;
  pool.io(w);
  const std::vector<std::uint8_t> bytes = w.data();

  core::BufferPool restored(cfg);
  sim::StateIo r(bytes);
  restored.io(r);
  sim::StateIo w2;
  restored.io(w2);
  EXPECT_EQ(bytes, w2.data());

  EXPECT_EQ(restored.beCrc(), pool.beCrc());
  ASSERT_TRUE(restored.hasFront());
  while (pool.hasFront()) {
    ASSERT_TRUE(restored.hasFront());
    const core::Slot a = pool.pop();
    const core::Slot b = restored.pop();
    EXPECT_EQ(a.bits, b.bits);
    EXPECT_EQ(a.poisoned, b.poisoned);
    EXPECT_EQ(a.has_check, b.has_check);
    EXPECT_EQ(a.check, b.check);
    EXPECT_EQ(a.parity_ok, b.parity_ok);
  }
  EXPECT_FALSE(restored.hasFront());
}

// Version-skew rejection in both directions. The "newer" branch is exactly
// the code a pre-v5 binary runs when handed a v5 snapshot: older readers
// reject the new format structurally instead of misparsing the appended
// integrity sections.
TEST(Integrity, RestoreRejectsVersionSkewBothWays) {
  const SystemConfig cfg = harness::defaultConfig();
  System sys(cfg);
  const Workload w = prepare(sys, 0x5DC7);
  sys.cpu().loadProgram(w.program);
  const std::vector<std::uint8_t> snap = sys.checkpoint(w.program, 0);

  const auto forge = [&](std::uint32_t version) {
    std::vector<std::uint8_t> bad = snap;
    std::memcpy(bad.data() + 4, &version, sizeof version);  // after "HHTS"
    return bad;
  };
  const auto expect_reject = [&](const std::vector<std::uint8_t>& bad,
                                 const char* needle) {
    System target(cfg);
    try {
      target.restore(bad, w.program);
      ADD_FAILURE() << "restore accepted a version-skewed snapshot";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Checkpoint) << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_reject(forge(harness::kSnapshotVersion + 1), "newer");
  expect_reject(forge(harness::kSnapshotVersion - 1), "!= supported");
}

}  // namespace
}  // namespace hht
