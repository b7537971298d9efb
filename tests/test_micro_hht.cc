// Programmable-HHT (§7) tests: the micro-core firmware must reproduce the
// ASIC engines' streams exactly (same consumer kernels, same results), at
// lower performance — the flexibility trade-off the paper anticipates.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "sparse/reference.h"
#include "workload/synthetic.h"

namespace hht {
namespace {

using harness::RunResult;
using harness::SystemConfig;
using sparse::CsrMatrix;
using sparse::DenseVector;
using sparse::SparseVector;
using harness::Kernel;

/// `kernel` with its metadata walk running as firmware on the micro-core.
harness::RunSpec programmable(Kernel kernel) {
  return {.kernel = kernel, .programmable = true};
}

void expectVectorsEqual(const DenseVector& expected, const DenseVector& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (sim::Index i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected.at(i), actual.at(i)) << "y[" << i << "]";
  }
}

struct Case {
  sim::Index rows;
  sim::Index cols;
  double m_sparsity;
  double v_sparsity;
};

class ProgSpmvTest : public ::testing::TestWithParam<Case> {};

TEST_P(ProgSpmvTest, FirmwareGatherMatchesReference) {
  const Case& c = GetParam();
  sim::Rng rng(0x700 + c.rows * 3 + c.cols +
               static_cast<std::uint64_t>(c.m_sparsity * 100));
  const CsrMatrix m = workload::randomCsr(rng, c.rows, c.cols, c.m_sparsity);
  const DenseVector v = workload::randomDenseVector(rng, c.cols);
  const DenseVector expected = sparse::spmvCsr(m, v);

  const SystemConfig cfg = harness::defaultConfig(2);
  const RunResult vec =
      harness::run(cfg, programmable(Kernel::kSpmvVectorHht), {&m, &v});
  expectVectorsEqual(expected, vec.y);
  EXPECT_FALSE(vec.hht_residual_busy);

  const RunResult scalar =
      harness::run(cfg, programmable(Kernel::kSpmvScalarHht), {&m, &v});
  expectVectorsEqual(expected, scalar.y);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProgSpmvTest,
    ::testing::Values(Case{1, 1, 0.0, 0.0}, Case{8, 8, 0.5, 0.0},
                      Case{16, 16, 0.1, 0.0}, Case{16, 16, 0.9, 0.0},
                      Case{16, 16, 1.0, 0.0}, Case{24, 13, 0.6, 0.0},
                      Case{13, 24, 0.6, 0.0}));

class ProgSpmspvTest : public ::testing::TestWithParam<Case> {};

TEST_P(ProgSpmspvTest, FirmwareVariantsMatchReference) {
  const Case& c = GetParam();
  sim::Rng rng(0x701 + c.rows * 7 +
               static_cast<std::uint64_t>(c.v_sparsity * 100));
  const CsrMatrix m = workload::randomCsr(rng, c.rows, c.cols, c.m_sparsity);
  const SparseVector v =
      workload::randomSparseVector(rng, c.cols, c.v_sparsity);
  const DenseVector expected = sparse::spmspvMerge(m, v);

  const SystemConfig cfg = harness::defaultConfig(2);
  const auto run = [&](Kernel k) {
    return harness::run(cfg, programmable(k), {.m = &m, .sv = &v});
  };
  const RunResult v1 = run(Kernel::kSpmspvHhtV1);
  expectVectorsEqual(expected, v1.y);
  EXPECT_FALSE(v1.hht_residual_busy);

  const RunResult v2 = run(Kernel::kSpmspvHhtV2);
  expectVectorsEqual(expected, v2.y);

  const RunResult v2s = run(Kernel::kSpmspvHhtV2Scalar);
  expectVectorsEqual(expected, v2s.y);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProgSpmspvTest,
    ::testing::Values(Case{8, 8, 0.5, 0.5}, Case{16, 16, 0.1, 0.1},
                      Case{16, 16, 0.9, 0.9}, Case{16, 16, 0.1, 0.9},
                      Case{16, 16, 0.9, 0.1}, Case{16, 16, 1.0, 0.5},
                      Case{16, 16, 0.5, 1.0}, Case{20, 12, 0.6, 0.4}));

TEST(ProgrammableHht, SlowerThanAsicButFasterMetadataThanBaselineScalar) {
  sim::Rng rng(0x702);
  const CsrMatrix m = workload::randomCsr(rng, 48, 48, 0.5);
  const DenseVector v = workload::randomDenseVector(rng, 48);
  const SystemConfig cfg = harness::defaultConfig(2);
  const auto asic = harness::run(cfg, {Kernel::kSpmvVectorHht}, {&m, &v});
  const auto prog =
      harness::run(cfg, programmable(Kernel::kSpmvVectorHht), {&m, &v});
  // Firmware metadata processing cannot beat the dedicated pipelines.
  EXPECT_GT(prog.cycles, asic.cycles);
  // But the CPU-side consumer is identical, so the dynamic instruction
  // count on the primary core matches the ASIC run exactly.
  EXPECT_EQ(prog.retired, asic.retired);
}

TEST(ProgrammableHht, FirmwareFlowControlThrottles) {
  // Firmware normally trails the consumer; slow the CPU's FMA way down so
  // the firmware runs ahead, fills the single buffer, and must block on
  // kFwSpace — exercising the control unit's throttle path.
  sim::Rng rng(0x703);
  const CsrMatrix m = workload::randomCsr(rng, 24, 24, 0.3);
  const DenseVector v = workload::randomDenseVector(rng, 24);
  SystemConfig cfg = harness::defaultConfig(1);
  cfg.timing.fp_madd = 40;
  const auto run =
      harness::run(cfg, programmable(Kernel::kSpmvScalarHht), {&m, &v});
  EXPECT_GT(run.hht_wait_cycles, 0u);  // kFwSpace stalls counted
  EXPECT_EQ(run.y, sparse::spmvCsr(m, v));
}

TEST(ProgrammableHht, StartWithoutFirmwareIsAnError) {
  harness::SystemConfig cfg = harness::defaultConfig(2);
  cfg.programmable_hht = true;
  harness::System sys(cfg);
  sim::Rng rng(0x704);
  const CsrMatrix m = workload::randomCsr(rng, 4, 4, 0.5);
  const DenseVector v = workload::randomDenseVector(rng, 4);
  const harness::Prepared p =
      harness::prepare(sys, {Kernel::kSpmvVectorHht}, {&m, &v});
  // The CPU kernel pulses START; with no firmware installed that throws.
  EXPECT_THROW(sys.run(p.program, p.y, p.y_len), std::logic_error);
}

TEST(ProgrammableHht, MicroCoreTrafficIsTaggedAsHht) {
  sim::Rng rng(0x705);
  const CsrMatrix m = workload::randomCsr(rng, 16, 16, 0.5);
  const DenseVector v = workload::randomDenseVector(rng, 16);
  const auto run =
      harness::run(harness::defaultConfig(2),
                   programmable(Kernel::kSpmvVectorHht), {&m, &v});
  EXPECT_GT(run.stats.value("mem.hht.reads"), m.nnz());  // cols + v fetches
}

}  // namespace
}  // namespace hht
