// Run-loop equivalence verification (DESIGN.md §11): the run loop's
// event-scheduled mode must be invisible in every simulated result. Same
// cycle counts, same merged stats map, same output bits, same snapshot
// bytes as its every-cycle (naive) mode — for every engine, on fast and
// slow SRAM, with and without fault injection, with the patrol scrubber,
// under an oracle stream tap, across a checkpoint/restore (also one taken
// inside a jumped FIFO wait), at a watchdog firing, and for every
// SweepRunner jobs value.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.h"
#include "core/mmr.h"
#include "harness/sweep.h"
#include "kernels/kernels.h"
#include "obs/trace.h"
#include "sparse/bitvector.h"
#include "sparse/hier_bitmap.h"
#include "verify/cosim.h"
#include "workload/synthetic.h"

namespace hht::harness {
namespace {

using sim::Cycle;
using sparse::CsrMatrix;
using sparse::DenseVector;
using sparse::SparseVector;

void expectIdentical(const RunResult& a, const RunResult& b,
                     const char* label) {
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.retired, b.retired) << label;
  EXPECT_EQ(a.cpu_wait_cycles, b.cpu_wait_cycles) << label;
  EXPECT_EQ(a.hht_wait_cycles, b.hht_wait_cycles) << label;
  EXPECT_EQ(a.hht_residual_busy, b.hht_residual_busy) << label;
  EXPECT_EQ(a.degraded, b.degraded) << label;
  ASSERT_EQ(a.y.size(), b.y.size()) << label;
  for (sim::Index i = 0; i < a.y.size(); ++i) {
    EXPECT_EQ(a.y.at(i), b.y.at(i)) << label << " y[" << i << "]";
  }
  EXPECT_EQ(a.stats.all(), b.stats.all()) << label;
}

/// Run `driver` with the run loop in every-cycle (naive) and in
/// event-scheduled mode (everything else identical) and require
/// bit-identical outcomes.
template <typename Driver>
void abFastForward(const char* label, const SystemConfig& cfg,
                   Driver&& driver) {
  SystemConfig naive = cfg;
  naive.host_fastforward = false;
  SystemConfig event = cfg;
  event.host_fastforward = true;
  expectIdentical(driver(event), driver(naive),
                  (std::string(label) + "/event").c_str());
}

/// An n x n matrix of the given sparsity in CSR and both bitmap formats,
/// and a dense and a sparse (50%) operand vector, from `seed`.
std::tuple<CsrMatrix, DenseVector, SparseVector, sparse::HierBitmapMatrix,
           sparse::BitVectorMatrix>
operands(std::uint64_t seed, sim::Index n = 32, double sparsity = 0.3) {
  sim::Rng rng(seed);
  CsrMatrix m = workload::randomCsr(rng, n, n, sparsity);
  DenseVector v = workload::randomDenseVector(rng, n);
  SparseVector sv = workload::randomSparseVector(rng, n, 0.5);
  const sparse::DenseMatrix dense = m.toDense();
  return {std::move(m), std::move(v), std::move(sv),
          sparse::HierBitmapMatrix::fromDense(dense),
          sparse::BitVectorMatrix::fromDense(dense)};
}

TEST(FastForward, EveryEngineIsBitIdenticalWithAndWithoutSkipping) {
  const auto [m, v, sv, hm, bm] = operands(0xFF'01);
  const Operands ops{&m, &v, &sv, nullptr, &hm, &bm};
  // All five back-end engines (gather, merge v1/v2, hier-bitmap, flat),
  // plus the software baseline and the programmable front-end.
  const struct {
    const char* label;
    RunSpec spec;
  } runs[] = {
      {"gather-scalar", {Kernel::kSpmvScalarHht}},
      {"gather-vector", {Kernel::kSpmvVectorHht}},
      {"merge-v1", {Kernel::kSpmspvHhtV1}},
      {"merge-v2", {Kernel::kSpmspvHhtV2}},
      {"hier-bitmap", {Kernel::kHierBitmapHht}},
      {"flat-bitmap", {Kernel::kFlatBitmapHht}},
      {"baseline-scalar", {Kernel::kSpmvScalarBaseline}},
      {"programmable",
       {.kernel = Kernel::kSpmvScalarHht, .programmable = true}},
  };
  for (const auto& r : runs) {
    abFastForward(r.label, defaultConfig(), [&](const SystemConfig& c) {
      return run(c, r.spec, ops);
    });
  }
}

TEST(FastForward, SpmmEngineIsBitIdenticalWithAndWithoutSkipping) {
  const SystemConfig cfg = defaultConfig();
  sim::Rng rng(0xFF'02);
  const CsrMatrix m = workload::randomCsr(rng, 16, 16, 0.4);
  const sparse::DenseMatrix b = workload::randomDense(rng, 16, 4, 0.0);
  abFastForward("spmm", cfg, [&](const SystemConfig& c) {
    return run(c, {Kernel::kSpmmVectorHht}, {.m = &m, .b = &b});
  });
}

TEST(FastForward, FaultInjectedRunsAreBitIdenticalWithAndWithoutSkipping) {
  // The fault injector needs no skip hook: its RNG only advances when
  // a component does work, and skipped stretches are exactly the ones in
  // which no component does any. A fault-injected (possibly degraded) run
  // must therefore also be invariant under skipping.
  SystemConfig cfg = defaultConfig();
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xF00D;
  cfg.faults.sram_read_flip_rate = 1e-3;
  cfg.faults.fifo_corrupt_rate = 1e-3;
  const auto [m, v, sv, hm, bm] = operands(0xFF'03);
  const Operands ops{&m, &v, &sv};
  abFastForward("spmv-resilient", cfg, [&](const SystemConfig& c) {
    return run(c, {.kernel = Kernel::kSpmvScalarHht, .fallback = true}, ops);
  });
  abFastForward("spmspv-resilient", cfg, [&](const SystemConfig& c) {
    return run(c, {.kernel = Kernel::kSpmspvHhtV2Scalar, .fallback = true},
               ops);
  });
}

TEST(FastForward, ScrubbedRunsAreBitIdenticalAcrossRunLoops) {
  // The patrol scrubber posts periodic background work (one ECC word per
  // scrub_period); the event loop must wake for every patrol read even in
  // otherwise-quiescent stretches.
  SystemConfig cfg = defaultConfig();
  cfg.memory.scrub_enabled = true;
  cfg.memory.scrub_period = 16;
  const auto [m, v, sv, hm, bm] = operands(0xFF'07);
  const Operands ops{&m, &v};
  abFastForward("spmv-scrub", cfg, [&](const SystemConfig& c) {
    return run(c, {Kernel::kSpmvVectorHht}, ops);
  });
  // With fault injection the scrubber also repairs planted singles; the
  // repair schedule must be loop-invariant too.
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xBEEF;
  cfg.faults.sram_read_flip_rate = 1e-3;
  abFastForward("spmv-scrub-faults", cfg, [&](const SystemConfig& c) {
    return run(c, {.kernel = Kernel::kSpmvScalarHht, .fallback = true}, ops);
  });
}

TEST(FastForward, OracleTappedRunsAreIdenticalAcrossRunLoops) {
  // A stream tap forces per-cycle device ticking in the event loop (taps
  // are per-cycle observations); the oracle's verdict, the delivered
  // element count and the finish cycle must still be identical in both
  // run-loop modes, for every engine kind.
  const auto [m, v, sv, hm, bm] = operands(0xFF'08);
  for (const verify::EngineKind kind :
       {verify::EngineKind::Gather, verify::EngineKind::MergeV1,
        verify::EngineKind::StreamV2, verify::EngineKind::Hier,
        verify::EngineKind::Flat}) {
    verify::CosimCase c;
    c.kind = kind;
    c.m = m;
    c.v = v;
    c.sv = sv;
    c.cfg = defaultConfig();
    c.cfg.host_fastforward = false;
    const verify::CosimReport ref = verify::runCosim(c);
    ASSERT_TRUE(ref.ok) << verify::engineKindName(kind) << ": "
                        << ref.describe();
    c.cfg.host_fastforward = true;
    const verify::CosimReport evented = verify::runCosim(c);
    EXPECT_TRUE(evented.ok) << verify::engineKindName(kind) << ": "
                            << evented.describe();
    EXPECT_EQ(evented.cycles, ref.cycles) << verify::engineKindName(kind);
    EXPECT_EQ(evented.elements, ref.elements) << verify::engineKindName(kind);
  }
}

// ---- tests below need System access (hostSkippedCycles / checkpoint) ----

struct Workload {
  CsrMatrix m;
  DenseVector v;
  Prepared p;
};

/// Scalar-baseline SpMV on a high-latency SRAM: every load stalls the CPU
/// for sram_latency cycles with the HHT idle — long quiescent stretches the
/// fast-forward layer must actually skip.
SystemConfig stallHeavyConfig() {
  SystemConfig cfg = defaultConfig();
  cfg.memory.sram_latency = 32;
  return cfg;
}

Workload prepareBaseline(System& sys, std::uint64_t seed) {
  sim::Rng rng(seed);
  Workload w;
  w.m = workload::randomCsr(rng, 24, 24, 0.4);
  w.v = workload::randomDenseVector(rng, 24);
  w.p = prepare(sys, {Kernel::kSpmvScalarBaseline}, {&w.m, &w.v});
  return w;
}

TEST(FastForward, SkipsEngageOnStallHeavyWorkload) {
  SystemConfig on = stallHeavyConfig();
  on.host_fastforward = true;
  SystemConfig off = on;
  off.host_fastforward = false;

  System fast(on);
  const Workload wf = prepareBaseline(fast, 0xFF'04);
  const RunResult a = fast.run(wf.p.program, wf.p.y, wf.p.y_len);

  System naive(off);
  const Workload wn = prepareBaseline(naive, 0xFF'04);
  const RunResult b = naive.run(wn.p.program, wn.p.y, wn.p.y_len);

  expectIdentical(a, b, "stall-heavy");
  EXPECT_GT(fast.hostSkippedCycles(), 0u)
      << "fast-forward never engaged on a workload built to stall";
  EXPECT_EQ(naive.hostSkippedCycles(), 0u);

  // The complete serialized machine state — SRAM, queues, pipeline, RNG —
  // is byte-identical after the two runs, not just the RunResult surface.
  EXPECT_EQ(fast.checkpoint(wf.p.program, a.cycles),
            naive.checkpoint(wn.p.program, b.cycles));
}

TEST(FastForward, TraceSinkDisablesSkippingWithoutChangingTheMachine) {
  // Attaching a trace sink forces per-cycle mode (events are per-cycle
  // observations), but must be invisible to the simulation itself: same
  // RunResult, same stats, same serialized machine state as the skipping
  // no-sink run. This is the no-sink A/B for the observability layer —
  // tracing is a pure read, never a perturbation.
  SystemConfig plain = stallHeavyConfig();
  plain.host_fastforward = true;

  System fast(plain);
  const Workload wf = prepareBaseline(fast, 0xFF'06);
  const RunResult a = fast.run(wf.p.program, wf.p.y, wf.p.y_len);
  ASSERT_GT(fast.hostSkippedCycles(), 0u)
      << "no-sink run must fast-forward on a stall-heavy workload";

  obs::TraceSink sink;
  SystemConfig traced = plain;
  traced.trace_sink = &sink;
  System watched(traced);
  const Workload wt = prepareBaseline(watched, 0xFF'06);
  const RunResult b =
      watched.run(wt.p.program, wt.p.y, wt.p.y_len);
  EXPECT_EQ(watched.hostSkippedCycles(), 0u)
      << "an attached trace sink must disable fast-forward";
  EXPECT_GT(sink.size() + sink.dropped(), 0u)
      << "the traced run emitted nothing";

  expectIdentical(a, b, "trace-ab");
  EXPECT_EQ(fast.checkpoint(wf.p.program, a.cycles),
            watched.checkpoint(wt.p.program, b.cycles))
      << "trace sink leaked into the serialized machine state";
}

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

TEST(FastForward, ResumeSkipsAcrossTheRestoredRegionAndMatchesNaive) {
  // A snapshot is taken mid-run by an observer (which forces per-cycle
  // mode), restored into a fresh System with fast-forward ON, and resumed:
  // the resumed half skips, and the combined result must still equal the
  // uninterrupted run.
  SystemConfig cfg = stallHeavyConfig();
  cfg.host_fastforward = true;

  System base_sys(cfg);
  const Workload w = prepareBaseline(base_sys, 0xFF'05);
  const RunResult base =
      base_sys.run(w.p.program, w.p.y, w.p.y_len);
  ASSERT_GT(base_sys.hostSkippedCycles(), 0u);
  ASSERT_GT(base.cycles, 200u) << "workload too small to checkpoint mid-run";

  System observed(cfg);
  const Workload w2 = prepareBaseline(observed, 0xFF'05);
  CheckpointAt observer(w2.p.program, base.cycles / 2);
  const RunResult watched =
      observed.run(w2.p.program, w2.p.y, w2.p.y_len, 500'000'000,
                   nullptr, &observer);
  // The observer forces per-cycle mode; the outcome must not change.
  expectIdentical(base, watched, "observed");
  EXPECT_EQ(observed.hostSkippedCycles(), 0u)
      << "an attached observer must disable fast-forward";
  ASSERT_FALSE(observer.snapshot().empty());

  System resumed_sys(cfg);
  const Cycle start = resumed_sys.restore(observer.snapshot(), w2.p.program);
  EXPECT_EQ(start, observer.resumeAt());
  const RunResult resumed = resumed_sys.resume(w2.p.program, w2.p.y,
                                               w2.p.y_len, start);
  expectIdentical(base, resumed, "resumed");
  EXPECT_GT(resumed_sys.hostSkippedCycles(), 0u)
      << "the resumed half should fast-forward its stalls";
}

TEST(FastForward, RestoreIsRunLoopAgnostic) {
  // A mid-run snapshot restored under either run-loop mode must finish
  // with the same result as the uninterrupted per-cycle run: the modes may
  // only differ in host time, never in what the machine does after any
  // architectural state.
  SystemConfig naive_cfg = stallHeavyConfig();
  naive_cfg.host_fastforward = false;

  System base_sys(naive_cfg);
  const Workload w = prepareBaseline(base_sys, 0xFF'09);
  const RunResult base =
      base_sys.run(w.p.program, w.p.y, w.p.y_len);
  ASSERT_GT(base.cycles, 200u) << "workload too small to checkpoint mid-run";

  System observed(naive_cfg);
  const Workload w2 = prepareBaseline(observed, 0xFF'09);
  CheckpointAt observer(w2.p.program, base.cycles / 2);
  observed.run(w2.p.program, w2.p.y, w2.p.y_len, 500'000'000,
               nullptr, &observer);
  ASSERT_FALSE(observer.snapshot().empty());

  for (const bool ff : {false, true}) {
    const char* name = ff ? "restore-event" : "restore-naive";
    SystemConfig rc = stallHeavyConfig();
    rc.host_fastforward = ff;
    System resumed_sys(rc);
    const Cycle start = resumed_sys.restore(observer.snapshot(), w2.p.program);
    EXPECT_EQ(start, observer.resumeAt()) << name;
    const RunResult resumed = resumed_sys.resume(w2.p.program, w2.p.y,
                                                 w2.p.y_len, start);
    expectIdentical(base, resumed, name);
  }
}

// ---- slow SRAM: sleeping engines and sleeping FIFO reads ----

/// The ASIC back-end modes, each driven by its HHT kernel on tile 0.
constexpr struct {
  const char* name;
  Kernel kernel;
} kAsics[] = {{"gather-scalar", Kernel::kSpmvScalarHht},
              {"gather-vector", Kernel::kSpmvVectorHht},
              {"merge-v1", Kernel::kSpmspvHhtV1},
              {"merge-v2", Kernel::kSpmspvHhtV2},
              {"hier-bitmap", Kernel::kHierBitmapHht},
              {"flat-bitmap", Kernel::kFlatBitmapHht}};

struct AsicRun {
  RunResult result;
  std::vector<std::uint8_t> snapshot;  ///< end-of-run checkpoint() bytes
  std::uint64_t skipped = 0;
};

AsicRun runAsic(const SystemConfig& cfg, Kernel k, const Operands& ops) {
  System sys(cfg);
  const Prepared p = prepare(sys, {k}, ops);
  AsicRun out;
  out.result = sys.run(p.program, p.y, p.y_len);
  out.snapshot = sys.checkpoint(p.program, out.result.cycles);
  out.skipped = sys.hostSkippedCycles();
  return out;
}

TEST(FastForward, EveryEngineOnSlowSramIsBitIdenticalAcrossRunLoops) {
  // On a slow SRAM a live engine sleeps until its next response lands and
  // the CPU's refused BUF_DATA/VALID reads sleep until the device's next
  // event. Every engine, with and without delayed/dropped responses (which
  // complete reads out of order), must leave the machine byte-identical to
  // the every-cycle loop: y, every stat (hht.active_cycles and
  // hht.cpu_wait_cycles are credited for the slept cycles) and the
  // end-of-run snapshot.
  for (const Cycle latency : {Cycle{64}, Cycle{2048}}) {
    const auto [m, v, sv, hm, bm] =
        operands(0xFF'20 + latency, latency > 64 ? 10 : 16, 0.5);
    const Operands ops{&m, &v, &sv, nullptr, &hm, &bm};
    for (const bool faults : {false, true}) {
      SystemConfig cfg = defaultConfig();
      cfg.memory.sram_latency = latency;
      if (faults) {
        cfg.faults.enabled = true;
        cfg.faults.seed = 0xD0D0;
        cfg.faults.drop_rate = 0.05;
        cfg.faults.delay_rate = 0.1;
      }
      for (const auto& a : kAsics) {
        const std::string label = std::string(a.name) + " lat=" +
                                  std::to_string(latency) +
                                  (faults ? " delay/drop" : "");
        cfg.host_fastforward = false;
        const AsicRun naive = runAsic(cfg, a.kernel, ops);
        cfg.host_fastforward = true;
        const AsicRun event = runAsic(cfg, a.kernel, ops);
        expectIdentical(event.result, naive.result, label.c_str());
        EXPECT_EQ(event.snapshot, naive.snapshot) << label;
        EXPECT_EQ(naive.skipped, 0u) << label;
        EXPECT_GT(event.skipped, 0u) << label;
      }
    }
  }
}

TEST(FastForward, DeepStallSkipsMostCyclesOnEveryEngine) {
  // A 2048-cycle SRAM leaves every engine and the CPU waiting on memory
  // almost all the time: the loop must jump at least 90% of the run.
  const auto [m, v, sv, hm, bm] = operands(0xFF'21, 10, 0.5);
  const Operands ops{&m, &v, &sv, nullptr, &hm, &bm};
  SystemConfig cfg = defaultConfig();
  cfg.memory.sram_latency = 2048;
  for (const auto& a : kAsics) {
    const AsicRun run = runAsic(cfg, a.kernel, ops);
    EXPECT_GE(run.skipped * 10, run.result.cycles * 9)
        << a.name << ": jumped " << run.skipped << " of "
        << run.result.cycles << " cycles";
  }
}

TEST(FastForward, CheckpointInsideASkippedFifoWaitResumesByteIdentical) {
  // Stop a run (max_cycles) while the CPU's BUF_DATA read sits refused and
  // the loop is jumping the wait: the stop settles the skipped retries, so
  // the snapshot equals the every-cycle loop's at the same cycle, and
  // restoring it and resuming finishes exactly like the uninterrupted run.
  const auto [m, v, sv, hm, bm] = operands(0xFF'22, 10, 0.5);
  const Operands ops{&m, &v};
  SystemConfig cfg = defaultConfig();
  cfg.memory.sram_latency = 2048;
  constexpr Cycle kStop = 5000;  // inside the first FIFO wait

  const auto stopAt = [&](bool fastforward, std::uint64_t& skipped) {
    SystemConfig c = cfg;
    c.host_fastforward = fastforward;
    System sys(c);
    const Prepared p = prepare(sys, {Kernel::kSpmvVectorHht}, ops);
    EXPECT_THROW(sys.run(p.program, p.y, p.y_len, kStop), sim::SimError);
    EXPECT_TRUE(sys.memory().mmioPending()) << "not inside a FIFO wait";
    EXPECT_GT(sys.hht().cpuWaitCycles(), 0u);
    skipped = sys.hostSkippedCycles();
    return sys.checkpoint(p.program, kStop);
  };
  std::uint64_t naive_skipped = 0;
  std::uint64_t event_skipped = 0;
  const std::vector<std::uint8_t> naive_snap = stopAt(false, naive_skipped);
  const std::vector<std::uint8_t> event_snap = stopAt(true, event_skipped);
  EXPECT_EQ(naive_skipped, 0u);
  EXPECT_GT(event_skipped, kStop / 2) << "the wait was not jumped";
  EXPECT_EQ(event_snap, naive_snap);

  cfg.host_fastforward = true;
  const AsicRun whole = runAsic(cfg, Kernel::kSpmvVectorHht, ops);
  System resumed(cfg);
  const Prepared p = prepare(resumed, {Kernel::kSpmvVectorHht}, ops);
  const Cycle start = resumed.restore(event_snap, p.program);
  EXPECT_EQ(start, kStop);
  const RunResult r = resumed.resume(p.program, p.y, p.y_len, start);
  expectIdentical(r, whole.result, "resumed");
  EXPECT_EQ(resumed.checkpoint(p.program, r.cycles), whole.snapshot);
  EXPECT_GT(resumed.hostSkippedCycles(), 0u);
}

/// Program the gather engine over `l`, start it and pop BUF_DATA once.
isa::Program startAndPop(const kernels::SpmvLayout& l, Addr mmio) {
  using namespace isa::reg;
  namespace mmr = core::mmr;
  isa::ProgramBuilder b("start_and_pop");
  b.li(s11, static_cast<std::int32_t>(mmio));
  const auto write = [&](Addr offset, std::uint32_t value) {
    b.li(t1, static_cast<std::int32_t>(value));
    b.sw(t1, s11, static_cast<std::int32_t>(offset));
  };
  write(mmr::kMNumRows, l.num_rows);
  write(mmr::kMRowsBase, l.rows);
  write(mmr::kMColsBase, l.cols);
  write(mmr::kVBase, l.v);
  write(mmr::kElementSize, 4);
  write(mmr::kMode, static_cast<std::uint32_t>(core::Mode::SpmvGather));
  write(mmr::kStart, 1);
  b.lw(t0, s11, static_cast<std::int32_t>(mmr::kBufData));
  b.ecall();
  return b.build();
}

TEST(FastForward, WedgedLiveHhtFiresTheWatchdogAtTheNaiveCycle) {
  // A live engine waiting on a 100k-cycle response and the CPU's refused
  // BUF_DATA read both sleep, with nothing retiring or granted: the loop
  // jumps, but only to the watchdog's firing sample, where it must throw
  // what the every-cycle loop throws, with the same counters settled.
  const auto [m, v, sv, hm, bm] = operands(0xFF'23, 8, 0.5);
  const auto wedge = [&](bool fastforward, std::uint64_t& skipped,
                         std::uint64_t& cpu_wait, std::uint64_t& active) {
    SystemConfig cfg = defaultConfig();
    cfg.watchdog_cycles = 2000;
    cfg.memory.sram_latency = 100'000;
    cfg.host_fastforward = fastforward;
    System sys(cfg);
    const kernels::SpmvLayout l = loadSpmv(sys, m, v);
    const isa::Program p = startAndPop(l, cfg.memory.mmio_base);
    sim::SimError error(sim::ErrorKind::Config, "test", "no error");
    try {
      sys.run(p, l.y, l.num_rows);
      ADD_FAILURE() << "the watchdog did not fire";
    } catch (const sim::SimError& e) {
      error = e;
    }
    skipped = sys.hostSkippedCycles();
    cpu_wait = sys.hht().cpuWaitCycles();
    active = sys.hht().stats().value("hht.active_cycles");
    return error;
  };
  std::uint64_t skipped[2], cpu_wait[2], active[2];
  const sim::SimError n = wedge(false, skipped[0], cpu_wait[0], active[0]);
  const sim::SimError e = wedge(true, skipped[1], cpu_wait[1], active[1]);
  EXPECT_EQ(skipped[0], 0u);
  EXPECT_GT(skipped[1], 1000u) << "the wedge was not jumped";
  EXPECT_EQ(n.kind(), sim::ErrorKind::Watchdog);
  EXPECT_EQ(n.component(), "watchdog");
  EXPECT_EQ(e.component(), n.component());
  EXPECT_EQ(e.message(), n.message());
  EXPECT_EQ(e.diagnostic(), n.diagnostic());
  EXPECT_GT(cpu_wait[0], 0u);
  EXPECT_EQ(cpu_wait[1], cpu_wait[0]);
  EXPECT_GT(active[0], 0u);
  EXPECT_EQ(active[1], active[0]);
}

TEST(FastForward, SweepRunnerResultsAreJobsInvariant) {
  // The parallel sweep driver must return byte-identical results for every
  // jobs value: each task derives everything from its index alone.
  const auto task = [](std::size_t i) {
    const auto [m, v, sv, hm, bm] = operands(0xFF'10 + i);
    return run(defaultConfig(),
               {i % 2 == 0 ? Kernel::kSpmvVectorHht : Kernel::kSpmvScalarHht},
               {&m, &v});
  };
  const std::vector<RunResult> serial = SweepRunner(1).run(6, task);
  const std::vector<RunResult> pooled = SweepRunner(3).run(6, task);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expectIdentical(serial[i], pooled[i], "sweep");
  }
}

}  // namespace
}  // namespace hht::harness
