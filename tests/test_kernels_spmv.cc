// End-to-end SpMV kernel tests: the simulated programs (baseline scalar,
// baseline vector, HHT scalar, HHT vector) must reproduce the sparse
// library's reference result. Generators use small-integer values, so all
// accumulation orders are exact and comparison is bitwise.
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
  double sparsity;
  int vlmax;
};

class SpmvKernelTest : public ::testing::TestWithParam<Case> {};

TEST_P(SpmvKernelTest, AllKernelVariantsMatchReference) {
  const Case& c = GetParam();
  sim::Rng rng(0xC0FFEE ^ (c.rows * 131 + c.cols) ^
               static_cast<std::uint64_t>(c.sparsity * 100));
  const CsrMatrix m = workload::randomCsr(rng, c.rows, c.cols, c.sparsity);
  const DenseVector v = workload::randomDenseVector(rng, c.cols);
  const DenseVector expected = sparse::spmvCsr(m, v);

  const SystemConfig cfg = harness::defaultConfig(2, c.vlmax);
  const auto run = [&](Kernel k) { return harness::run(cfg, {k}, {&m, &v}); };

  const RunResult base_scalar = run(Kernel::kSpmvScalarBaseline);
  expectVectorsEqual(expected, base_scalar.y);

  const RunResult base_vec = run(Kernel::kSpmvVectorBaseline);
  expectVectorsEqual(expected, base_vec.y);

  const RunResult hht_scalar = run(Kernel::kSpmvScalarHht);
  expectVectorsEqual(expected, hht_scalar.y);
  EXPECT_FALSE(hht_scalar.hht_residual_busy);

  const RunResult hht_vec = run(Kernel::kSpmvVectorHht);
  expectVectorsEqual(expected, hht_vec.y);
  EXPECT_FALSE(hht_vec.hht_residual_busy);

  // Offloading the metadata accesses must shrink the dynamic instruction
  // count once the work outweighs the ~20-instruction MMR setup prologue.
  if (m.nnz() > 16) {
    EXPECT_LT(hht_scalar.retired, base_scalar.retired);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpmvKernelTest,
    ::testing::Values(Case{1, 1, 0.0, 8}, Case{4, 4, 0.5, 8},
                      Case{16, 16, 0.1, 8}, Case{16, 16, 0.9, 8},
                      Case{33, 17, 0.5, 8}, Case{64, 64, 0.7, 8},
                      Case{64, 64, 0.99, 8}, Case{32, 32, 0.5, 4},
                      Case{32, 32, 0.5, 1}, Case{7, 64, 0.6, 8},
                      Case{64, 7, 0.6, 8}, Case{16, 16, 1.0, 8}));

}  // namespace
}  // namespace hht
