// End-to-end test of the SMASH-style hierarchical-bitmap mode (§6): the
// HHT walks both bitmap levels in simulated memory, gathers V, and the CPU
// consumes via the VALID protocol; the result must equal reference SpMV.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "sparse/bitvector.h"
#include "sparse/hier_bitmap.h"
#include "sparse/reference.h"
#include "workload/synthetic.h"

namespace hht {
namespace {

using harness::RunResult;
using harness::SystemConfig;
using sparse::CsrMatrix;
using sparse::DenseVector;
using sparse::HierBitmapMatrix;
using harness::Kernel;

struct Case {
  sim::Index rows;
  sim::Index cols;
  double sparsity;
};

class HierKernelTest : public ::testing::TestWithParam<Case> {};

TEST_P(HierKernelTest, HhtBitmapWalkMatchesReference) {
  const Case& c = GetParam();
  sim::Rng rng(0xB17 ^ (c.rows * 57 + c.cols) ^
               static_cast<std::uint64_t>(c.sparsity * 100));
  const sparse::DenseMatrix dense =
      workload::randomDense(rng, c.rows, c.cols, c.sparsity);
  const HierBitmapMatrix hb = HierBitmapMatrix::fromDense(dense);
  ASSERT_TRUE(hb.validate());
  const DenseVector v = workload::randomDenseVector(rng, c.cols);
  const DenseVector expected =
      sparse::spmvCsr(CsrMatrix::fromDense(dense), v);

  const RunResult run = harness::run(harness::defaultConfig(),
                                     {Kernel::kHierBitmapHht},
                                     {.v = &v, .hier = &hb});
  ASSERT_EQ(expected.size(), run.y.size());
  for (sim::Index i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected.at(i), run.y.at(i)) << "y[" << i << "]";
  }
  EXPECT_FALSE(run.hht_residual_busy);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HierKernelTest,
    ::testing::Values(Case{1, 1, 0.0}, Case{8, 8, 0.5}, Case{16, 16, 0.1},
                      Case{16, 16, 0.9}, Case{16, 16, 1.0}, Case{13, 29, 0.7},
                      Case{64, 64, 0.95}, Case{3, 200, 0.6}, Case{200, 3, 0.6},
                      Case{32, 32, 0.99}));

class FlatKernelTest : public ::testing::TestWithParam<Case> {};

TEST_P(FlatKernelTest, HhtFlatBitmapWalkMatchesReference) {
  const Case& c = GetParam();
  sim::Rng rng(0xF1A7 ^ (c.rows * 91 + c.cols) ^
               static_cast<std::uint64_t>(c.sparsity * 100));
  const sparse::DenseMatrix dense =
      workload::randomDense(rng, c.rows, c.cols, c.sparsity);
  const sparse::BitVectorMatrix bv = sparse::BitVectorMatrix::fromDense(dense);
  ASSERT_TRUE(bv.validate());
  const DenseVector v = workload::randomDenseVector(rng, c.cols);
  const DenseVector expected =
      sparse::spmvCsr(CsrMatrix::fromDense(dense), v);

  const harness::RunResult run =
      harness::run(harness::defaultConfig(), {Kernel::kFlatBitmapHht},
                   {.v = &v, .flat = &bv});
  ASSERT_EQ(expected.size(), run.y.size());
  for (sim::Index i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected.at(i), run.y.at(i)) << "y[" << i << "]";
  }
  EXPECT_FALSE(run.hht_residual_busy);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FlatKernelTest,
    ::testing::Values(Case{1, 1, 0.0}, Case{8, 8, 0.5}, Case{16, 16, 0.1},
                      Case{16, 16, 0.9}, Case{16, 16, 1.0}, Case{13, 29, 0.7},
                      Case{64, 64, 0.95}, Case{3, 200, 0.6}, Case{200, 3, 0.6}));

TEST(FlatVsHier, HierSkipsEmptyRegionsAtExtremeSparsity) {
  // The level-1 bitmap lets the hier engine skip empty 64-position leaves;
  // the flat walk must fetch every occupancy word. On a near-empty matrix
  // the hier walk therefore issues fewer BE memory reads.
  sim::Rng rng(0xF1A8);
  const sparse::DenseMatrix dense = workload::randomDense(rng, 64, 64, 0.99);
  const sparse::HierBitmapMatrix hb = sparse::HierBitmapMatrix::fromDense(dense);
  const sparse::BitVectorMatrix bv = sparse::BitVectorMatrix::fromDense(dense);
  const DenseVector v = workload::randomDenseVector(rng, 64);
  const auto cfg = harness::defaultConfig();
  const auto hier =
      harness::run(cfg, {Kernel::kHierBitmapHht}, {.v = &v, .hier = &hb});
  const auto flat =
      harness::run(cfg, {Kernel::kFlatBitmapHht}, {.v = &v, .flat = &bv});
  EXPECT_EQ(hier.y, flat.y);
  EXPECT_LT(hier.stats.value("hht.mem_reads"), flat.stats.value("hht.mem_reads"));
}

}  // namespace
}  // namespace hht
