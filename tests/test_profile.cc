// Stall-attribution profiler properties (DESIGN.md §12): for randomized
// machine configurations the per-component bucket cycles must sum exactly
// to the simulated horizon, and every event tally must reconcile with the
// fig6/fig7 wait-cycle counters the components maintain independently —
// the emit sites sit at the counter bumps, so any drift is a threading bug.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sim/rng.h"
#include "sim/state_io.h"
#include "sim/stats.h"
#include "workload/synthetic.h"

namespace hht {
namespace {

using harness::RunResult;
using harness::SystemConfig;
using harness::Kernel;

struct ProfiledRun {
  RunResult result;
  obs::ProfileReport report;
};

template <typename Body>
ProfiledRun profiled(SystemConfig cfg, Body&& body) {
  obs::TraceSink sink;
  cfg.trace_sink = &sink;
  ProfiledRun out;
  out.result = body(cfg);
  out.report = obs::profile(sink);
  EXPECT_EQ(sink.dropped(), 0u) << "workload overflowed the trace sink";
  return out;
}

/// Invariant 1: every component's buckets sum to the horizon — attributed
/// cycles plus implicit drained fill cover the whole run, no cycle counted
/// twice or lost.
void expectBucketsCoverHorizon(const ProfiledRun& run, const char* label) {
  EXPECT_EQ(run.report.horizon, run.result.cycles) << label;
  for (std::size_t c = 0; c < obs::kNumComponents; ++c) {
    EXPECT_EQ(run.report.componentTotal(static_cast<obs::Component>(c)),
              run.report.horizon)
        << label << " component " << obs::componentName(
               static_cast<obs::Component>(c));
  }
}

/// Invariant 2: event tallies == the stats counters maintained at the same
/// sites (kFifoNotReady at hht.cpu_wait_cycles, kFifoFull at
/// hht.stall_buffers_full, kMemGrant at mem.grants, kMemConflict at the
/// per-requester conflict_cycles, kRetire at cpu.retired).
void expectCountersReconcile(const ProfiledRun& run, const char* label) {
  const sim::StatSet& s = run.result.stats;
  EXPECT_EQ(run.report.fifo_not_ready, s.value("hht.cpu_wait_cycles")) << label;
  EXPECT_EQ(run.report.fifo_not_ready, run.result.cpu_wait_cycles) << label;
  EXPECT_EQ(run.report.mem_grants, s.value("mem.grants")) << label;
  EXPECT_EQ(run.report.mem_conflict_cpu, s.value("mem.cpu.conflict_cycles"))
      << label;
  EXPECT_EQ(run.report.mem_conflict_hht, s.value("mem.hht.conflict_cycles"))
      << label;
  EXPECT_EQ(run.report.retires[static_cast<int>(obs::Component::kCpu)],
            s.value("cpu.retired"))
      << label;
  EXPECT_EQ(run.report.fifo_pops, s.value("hht.fifo_pops")) << label;
}

/// Invariant 3: the span histograms fold back to the bucket totals — each
/// (component, bucket) histogram's sum equals the cycles attributed to
/// that bucket (the explicitly-closed spans; drained fill has no spans).
void expectHistogramsFold(const ProfiledRun& run, const char* label) {
  for (std::size_t c = 0; c < obs::kNumComponents; ++c) {
    for (int b = 0; b < obs::kNumBuckets; ++b) {
      const std::string name =
          std::string(obs::componentName(static_cast<obs::Component>(c))) +
          "." + std::string(obs::bucketName(static_cast<std::uint8_t>(b))) +
          "_span_cycles";
      const sim::Histogram* h = run.report.spans.findHistogram(name);
      const std::uint64_t attributed =
          run.report.bucketCycles(static_cast<obs::Component>(c),
                                  static_cast<std::uint8_t>(b));
      if (h == nullptr) continue;  // bucket never explicitly entered
      EXPECT_LE(h->sum(), attributed) << label << " " << name;
      if (b != obs::kBucketDrained) {
        // Non-drained buckets are only ever entered via spans.
        EXPECT_EQ(h->sum(), attributed) << label << " " << name;
      }
    }
  }
}

void expectAllInvariants(const ProfiledRun& run, const char* label) {
  expectBucketsCoverHorizon(run, label);
  expectCountersReconcile(run, label);
  expectHistogramsFold(run, label);
}

TEST(Profile, BucketsSumToTotalCyclesAcrossRandomizedConfigs) {
  // Randomized machine + workload sweep: sizes, sparsity, buffer counts,
  // SRAM latency, comparator recurrence and arbitration pressure all move
  // the phase boundaries; the invariants must hold at every point.
  sim::Rng meta(0xBEEF'0001);
  for (int trial = 0; trial < 8; ++trial) {
    SystemConfig cfg = harness::defaultConfig(
        /*num_buffers=*/1 + static_cast<std::uint32_t>(meta.next64() % 3));
    cfg.memory.sram_latency = 1 + meta.next64() % 24;
    cfg.memory.grants_per_cycle = 1 + static_cast<std::uint32_t>(meta.next64() % 2);
    cfg.hht.cmp_recurrence = 1 + static_cast<std::uint32_t>(meta.next64() % 3);
    const sim::Index n = 8 + static_cast<sim::Index>(meta.next64() % 17);
    const double sparsity = 0.2 + 0.1 * static_cast<double>(meta.next64() % 6);
    sim::Rng rng(meta.next64());
    const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, sparsity);
    const sparse::DenseVector v = workload::randomDenseVector(rng, n);
    const sparse::SparseVector sv =
        workload::randomSparseVector(rng, n, sparsity);
    const std::string label = "trial " + std::to_string(trial);

    const harness::Operands ops{.m = &m, .v = &v, .sv = &sv};
    const std::pair<Kernel, const char*> kernels[] = {
        {Kernel::kSpmvVectorHht, " gather"},
        {Kernel::kSpmspvHhtV1, " merge-v1"},
        {Kernel::kSpmspvHhtV2, " stream-v2"}};
    for (const auto& k : kernels) {
      expectAllInvariants(profiled(cfg,
                                   [&](const SystemConfig& c) {
                                     return harness::run(c, {k.first}, ops);
                                   }),
                          (label + k.second).c_str());
    }
  }
}

TEST(Profile, BaselineRunHasNoFifoWaitAndFullCpuCoverage) {
  // A CPU-only run never touches the FE: no FIFO events at all, and the
  // CPU's compute + mem_wait buckets alone cover the horizon.
  sim::Rng rng(0xBEEF'0002);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 12, 12, 0.4);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 12);
  const ProfiledRun run =
      profiled(harness::defaultConfig(), [&](const SystemConfig& c) {
        return harness::run(c, {Kernel::kSpmvScalarBaseline}, {&m, &v});
      });
  expectAllInvariants(run, "baseline");
  EXPECT_EQ(run.report.fifo_not_ready, 0u);
  EXPECT_EQ(run.report.fifo_pops, 0u);
  const auto cpu = static_cast<int>(obs::Component::kCpu);
  EXPECT_EQ(run.report.bucket_cycles[cpu][obs::kBucketFifoWait], 0u);
  EXPECT_EQ(run.report.bucket_cycles[cpu][obs::kBucketCompute] +
                run.report.bucket_cycles[cpu][obs::kBucketMemWait],
            run.report.horizon);
}

TEST(Profile, MicroHhtFirmwareCountersReconcile) {
  // The programmable front-end adds the kFw* kinds; their tallies must
  // match the firmware-port counters exactly (emit sites at the bumps).
  sim::Rng rng(0xBEEF'0003);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 10, 10, 0.4);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 10);
  const ProfiledRun run =
      profiled(harness::defaultConfig(), [&](const SystemConfig& c) {
        return harness::run(
            c, {.kernel = Kernel::kSpmvScalarHht, .programmable = true},
            {&m, &v});
      });
  expectBucketsCoverHorizon(run, "micro");
  const sim::StatSet& s = run.result.stats;
  EXPECT_EQ(run.report.fw_space_waits, s.value("hht.fw_space_wait_cycles"));
  EXPECT_EQ(run.report.fw_pushes, s.value("hht.fw_pushes"));
  EXPECT_EQ(run.report.fw_row_ends, s.value("hht.fw_row_ends"));
  EXPECT_EQ(run.report.fifo_pops, s.value("hht.fifo_pops"));
  EXPECT_EQ(run.report.fifo_not_ready, s.value("hht.cpu_wait_cycles"));
  // Firmware retires show up on the micro-core's own track (its StatSet is
  // device-internal, so just require the track to be populated).
  EXPECT_GT(run.report.retires[static_cast<int>(obs::Component::kMicroCore)],
            0u);
}

TEST(Profile, WaitBucketTracksTheFig6WaitFraction)  {
  // Starve the consumer (1 buffer, slow SRAM): the profiler's fifo_wait
  // bucket counts every CPU cycle spent in an MMIO-load phase — each
  // not-ready poll the fig6/fig7 cpu_wait_cycles counter records happens
  // inside one of those cycles, so the bucket dominates the counter (the
  // difference is the fixed MMIO access latency on ready polls). The
  // exact event-level identity (fifo_not_ready == cpu_wait_cycles) is
  // asserted by expectCountersReconcile.
  SystemConfig cfg = harness::defaultConfig(/*num_buffers=*/1);
  cfg.memory.sram_latency = 8;
  sim::Rng rng(0xBEEF'0004);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 16, 16, 0.5);
  const sparse::SparseVector sv = workload::randomSparseVector(rng, 16, 0.5);
  const ProfiledRun run = profiled(cfg, [&](const SystemConfig& c) {
    return harness::run(c, {Kernel::kSpmspvHhtV1}, {.m = &m, .sv = &sv});
  });
  expectAllInvariants(run, "merge-v1-starved");
  const auto cpu = static_cast<int>(obs::Component::kCpu);
  EXPECT_GE(run.report.bucket_cycles[cpu][obs::kBucketFifoWait],
            run.result.cpu_wait_cycles)
      << "every not-ready poll is a fifo_wait-classified CPU cycle";
  EXPECT_GT(run.result.cpu_wait_cycles, 0u)
      << "starved config produced no waits; test lost its teeth";
}

TEST(Profile, HistogramBucketsAndSerialization) {
  sim::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  h.add(1);
  h.add(1);
  h.add(7);
  h.add(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1009u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);

  sim::Histogram other;
  other.add(3);
  h.absorb(other);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1012u);

  sim::StateIo w;
  h.io(w);
  sim::StateIo r(w.data());
  sim::Histogram back;
  back.io(r);
  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.sum(), h.sum());
  EXPECT_EQ(back.min(), h.min());
  EXPECT_EQ(back.max(), h.max());

  // StatSet round-trip with a histogram attached.
  sim::StatSet set;
  set.counter("x") = 42;
  set.histogram("spans").add(9);
  sim::StateIo sw;
  set.io(sw);
  sim::StateIo sr(sw.data());
  sim::StatSet set2;
  set2.io(sr);
  EXPECT_EQ(set2.value("x"), 42u);
  const sim::Histogram* hist = set2.findHistogram("spans");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->sum(), 9u);
}

TEST(Profile, EmptySinkProfilesToEmptyReport) {
  obs::TraceSink sink;
  const obs::ProfileReport rep = obs::profile(sink);
  EXPECT_EQ(rep.horizon, 0u);
  for (std::size_t c = 0; c < obs::kNumComponents; ++c) {
    EXPECT_EQ(rep.componentTotal(static_cast<obs::Component>(c)), 0u);
  }
}

}  // namespace
}  // namespace hht
