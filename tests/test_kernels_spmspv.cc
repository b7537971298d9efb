// End-to-end SpMSpV kernel tests: baseline merge, HHT variant-1 (aligned
// pairs) and variant-2 (value-or-zero stream) must reproduce the reference
// intersection result bit-for-bit (small-integer operands).
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
  std::uint32_t num_buffers;
};

class SpmspvKernelTest : public ::testing::TestWithParam<Case> {};

TEST_P(SpmspvKernelTest, AllKernelVariantsMatchReference) {
  const Case& c = GetParam();
  sim::Rng rng(0xFACE ^ (c.rows * 977 + c.cols * 31) ^
               static_cast<std::uint64_t>(c.m_sparsity * 100) ^
               static_cast<std::uint64_t>(c.v_sparsity * 1000));
  const CsrMatrix m = workload::randomCsr(rng, c.rows, c.cols, c.m_sparsity);
  const SparseVector v =
      workload::randomSparseVector(rng, c.cols, c.v_sparsity);
  const DenseVector expected = sparse::spmspvMerge(m, v);

  const SystemConfig cfg = harness::defaultConfig(c.num_buffers);

  const auto run = [&](Kernel k) {
    return harness::run(cfg, {k}, {.m = &m, .sv = &v});
  };
  const RunResult base = run(Kernel::kSpmspvScalarBaseline);
  expectVectorsEqual(expected, base.y);

  const RunResult v1 = run(Kernel::kSpmspvHhtV1);
  expectVectorsEqual(expected, v1.y);
  EXPECT_FALSE(v1.hht_residual_busy);

  const RunResult v2 = run(Kernel::kSpmspvHhtV2);
  expectVectorsEqual(expected, v2.y);
  EXPECT_FALSE(v2.hht_residual_busy);

  const RunResult v2s = run(Kernel::kSpmspvHhtV2Scalar);
  expectVectorsEqual(expected, v2s.y);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpmspvKernelTest,
    ::testing::Values(Case{4, 4, 0.5, 0.5, 2}, Case{16, 16, 0.1, 0.1, 2},
                      Case{16, 16, 0.9, 0.9, 2}, Case{16, 16, 0.1, 0.9, 2},
                      Case{16, 16, 0.9, 0.1, 2}, Case{32, 24, 0.5, 0.3, 2},
                      Case{24, 32, 0.3, 0.5, 1}, Case{16, 16, 1.0, 0.5, 2},
                      Case{16, 16, 0.5, 1.0, 2}, Case{48, 48, 0.8, 0.6, 4},
                      Case{1, 64, 0.5, 0.5, 2}, Case{64, 1, 0.5, 0.5, 2}));

}  // namespace
}  // namespace hht
