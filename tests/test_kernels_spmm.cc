// SpMM kernel tests: the column-batched baseline and HHT kernels (CPU
// re-points V_Base and restarts the gather per B column) must reproduce
// the reference Y = M * B exactly.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "sparse/reference.h"
#include "workload/synthetic.h"

namespace hht {
namespace {

using harness::RunResult;
using sparse::CsrMatrix;
using sparse::DenseMatrix;
using harness::Kernel;

struct Case {
  sim::Index rows;
  sim::Index cols;
  sim::Index k;
  double sparsity;
};

class SpmmKernelTest : public ::testing::TestWithParam<Case> {};

void expectMatches(const DenseMatrix& expected, const RunResult& run) {
  // RunResult::y holds Y column-major flattened.
  ASSERT_EQ(run.y.size(), expected.numRows() * expected.numCols());
  for (sim::Index j = 0; j < expected.numCols(); ++j) {
    for (sim::Index i = 0; i < expected.numRows(); ++i) {
      ASSERT_EQ(run.y.at(j * expected.numRows() + i), expected.at(i, j))
          << "Y(" << i << "," << j << ")";
    }
  }
}

TEST_P(SpmmKernelTest, BaselineAndHhtMatchReference) {
  const Case& c = GetParam();
  sim::Rng rng(0x3B33 + c.rows * 7 + c.k);
  const CsrMatrix m = workload::randomCsr(rng, c.rows, c.cols, c.sparsity);
  DenseMatrix b(c.cols, c.k);
  for (sim::Index i = 0; i < c.cols; ++i) {
    for (sim::Index j = 0; j < c.k; ++j) {
      b.at(i, j) = workload::drawValue(rng, workload::ValueDist::kSmallIntegers);
    }
  }
  const DenseMatrix expected = sparse::spmmCsr(m, b);

  const harness::SystemConfig cfg = harness::defaultConfig(2);
  const RunResult base =
      harness::run(cfg, {Kernel::kSpmmVectorBaseline}, {.m = &m, .b = &b});
  expectMatches(expected, base);

  const RunResult hht =
      harness::run(cfg, {Kernel::kSpmmVectorHht}, {.m = &m, .b = &b});
  expectMatches(expected, hht);
  EXPECT_FALSE(hht.hht_residual_busy);

  // The per-column speedup carries over to the batch.
  if (m.nnz() > 64) {
    EXPECT_GT(harness::speedup(base, hht), 1.3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpmmKernelTest,
    ::testing::Values(Case{4, 4, 1, 0.5}, Case{16, 16, 2, 0.5},
                      Case{16, 16, 4, 0.1}, Case{16, 16, 3, 0.9},
                      Case{24, 16, 4, 0.6}, Case{16, 24, 4, 0.6},
                      Case{32, 32, 8, 0.7}, Case{8, 8, 2, 1.0}));

TEST(Spmm, DimensionMismatchThrows) {
  sim::Rng rng(1);
  const CsrMatrix m = workload::randomCsr(rng, 4, 6, 0.5);
  const DenseMatrix wrong(4, 2);
  EXPECT_THROW(sparse::spmmCsr(m, wrong), std::invalid_argument);
  harness::System sys(harness::defaultConfig());
  EXPECT_THROW(harness::loadSpmm(sys, m, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace hht
