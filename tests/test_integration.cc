// Integration tests: miniature versions of the paper's experiments whose
// qualitative outcomes must hold (speedups, wait fractions, crossovers,
// energy break-even), plus determinism and realistic-float tolerance runs.
#include <gtest/gtest.h>

#include <cmath>

#include "energy/events.h"
#include "energy/model.h"
#include "harness/experiment.h"
#include "sparse/reference.h"
#include "workload/synthetic.h"

namespace hht {
namespace {

using harness::RunResult;
using harness::SystemConfig;
using harness::Kernel;

TEST(Integration, SpmvSpeedupHoldsAcrossSparsities) {
  for (double sparsity : {0.3, 0.7}) {
    sim::Rng rng(0x401 + static_cast<std::uint64_t>(sparsity * 10));
    const sparse::CsrMatrix m = workload::randomCsr(rng, 64, 64, sparsity);
    const sparse::DenseVector v = workload::randomDenseVector(rng, 64);
    const SystemConfig cfg = harness::defaultConfig(2);
    const harness::Operands ops{&m, &v};
    const auto base = harness::run(cfg, {Kernel::kSpmvVectorBaseline}, ops);
    const auto hht = harness::run(cfg, {Kernel::kSpmvVectorHht}, ops);
    EXPECT_GT(harness::speedup(base, hht), 1.3) << "sparsity " << sparsity;
    // Fig. 6: with the ASIC HHT the CPU rarely waits.
    EXPECT_LT(hht.cpuWaitFraction(), 0.05);
  }
}

TEST(Integration, SpmspvVariantsBeatBaselineAndCrossOver) {
  const SystemConfig cfg = harness::defaultConfig(2);
  // Low sparsity: variant-2 (vectorizable stream) must beat variant-1
  // (merge-bound) — Fig. 5's left side.
  {
    sim::Rng rng(0x402);
    const sparse::CsrMatrix m = workload::randomCsr(rng, 96, 96, 0.2);
    const sparse::SparseVector v = workload::randomSparseVector(rng, 96, 0.2);
    const harness::Operands ops{.m = &m, .sv = &v};
    const auto base = harness::run(cfg, {Kernel::kSpmspvScalarBaseline}, ops);
    const auto v1 = harness::run(cfg, {Kernel::kSpmspvHhtV1}, ops);
    const auto v2 = harness::run(cfg, {Kernel::kSpmspvHhtV2}, ops);
    EXPECT_GT(harness::speedup(base, v1), 1.0);
    EXPECT_GT(harness::speedup(base, v2), harness::speedup(base, v1));
  }
  // Very high sparsity: variant-1 supplies only the few matches and wins —
  // Fig. 5's right side.
  {
    sim::Rng rng(0x403);
    const sparse::CsrMatrix m = workload::randomCsr(rng, 96, 96, 0.95);
    const sparse::SparseVector v = workload::randomSparseVector(rng, 96, 0.95);
    const harness::Operands ops{.m = &m, .sv = &v};
    const auto base = harness::run(cfg, {Kernel::kSpmspvScalarBaseline}, ops);
    const auto v1 = harness::run(cfg, {Kernel::kSpmspvHhtV1}, ops);
    const auto v2 = harness::run(cfg, {Kernel::kSpmspvHhtV2}, ops);
    EXPECT_GT(harness::speedup(base, v1), 1.0);
    EXPECT_GE(harness::speedup(base, v1), harness::speedup(base, v2));
  }
}

TEST(Integration, Variant1IdlesMoreThanVariant2) {
  // Fig. 7's headline: the CPU waits for HHT far more under variant-1.
  sim::Rng rng(0x404);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 96, 96, 0.8);
  const sparse::SparseVector v = workload::randomSparseVector(rng, 96, 0.8);
  const SystemConfig cfg = harness::defaultConfig(2);
  const harness::Operands ops{.m = &m, .sv = &v};
  const auto v1 = harness::run(cfg, {Kernel::kSpmspvHhtV1}, ops);
  const auto v2 = harness::run(cfg, {Kernel::kSpmspvHhtV2}, ops);
  EXPECT_GT(v1.cpuWaitFraction(), v2.cpuWaitFraction());
}

TEST(Integration, OffloadReducesDynamicInstructions) {
  sim::Rng rng(0x405);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 64, 64, 0.5);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 64);
  const SystemConfig cfg = harness::defaultConfig(2);
  const auto base = harness::run(cfg, {Kernel::kSpmvScalarBaseline}, {&m, &v});
  const auto hht = harness::run(cfg, {Kernel::kSpmvScalarHht}, {&m, &v});
  // Scalar kernels: the HHT version drops the col-load + address-gen +
  // gather-load per non-zero (3 instructions) and adds none.
  EXPECT_LE(hht.retired + 3 * m.nnz(), base.retired + 64);
}

TEST(Integration, EnergySavingPositiveOnLargeEnoughKernels) {
  sim::Rng rng(0x406);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 128, 128, 0.5);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 128);
  const SystemConfig cfg = harness::defaultConfig(2);
  const auto base = harness::run(cfg, {Kernel::kSpmvVectorBaseline}, {&m, &v});
  const auto hht = harness::run(cfg, {Kernel::kSpmvVectorHht}, {&m, &v});
  const auto cmp = energy::compareEnergy(base.cycles, hht.cycles,
                                         energy::FeatureSize::Nm16, 50.0);
  EXPECT_GT(cmp.savings_fraction, 0.10);  // paper: 19% average
}

TEST(Integration, EventEnergyAgreesWithLumpedModel) {
  // The per-event table is calibrated against the anchored P x t corner;
  // check a typical Table-1 SpMV run lands within 35% for both the
  // baseline (core power) and the HHT run (core+HHT power) at 50 MHz.
  sim::Rng rng(0x40C);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 96, 96, 0.5);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 96);
  harness::SystemConfig cfg = harness::defaultConfig(2);
  const auto base = harness::run(cfg, {Kernel::kSpmvVectorBaseline}, {&m, &v});
  const auto hht = harness::run(cfg, {Kernel::kSpmvVectorHht}, {&m, &v});

  const double base_lumped = energy::energyUj(base.cycles, 50.0, 223.0);
  const double base_event = energy::eventEnergy(base.stats).totalUj();
  EXPECT_NEAR(base_event, base_lumped, 0.35 * base_lumped);

  const double hht_lumped = energy::energyUj(hht.cycles, 50.0, 314.0);
  const double hht_event = energy::eventEnergy(hht.stats).totalUj();
  EXPECT_NEAR(hht_event, hht_lumped, 0.35 * hht_lumped);

  // The decomposition must attribute real energy to the HHT's pipeline.
  EXPECT_GT(energy::eventEnergy(hht.stats).hhtTotalUj(), 0.0);
  EXPECT_DOUBLE_EQ(energy::eventEnergy(base.stats).hhtTotalUj(), 0.0);
}

TEST(Integration, RunsAreDeterministic) {
  sim::Rng rng(0x407);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 48, 48, 0.6);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 48);
  const SystemConfig cfg = harness::defaultConfig(2);
  const auto a = harness::run(cfg, {Kernel::kSpmvVectorHht}, {&m, &v});
  const auto b = harness::run(cfg, {Kernel::kSpmvVectorHht}, {&m, &v});
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.retired, b.retired);
  EXPECT_EQ(a.cpu_wait_cycles, b.cpu_wait_cycles);
  EXPECT_EQ(a.y, b.y);
}

TEST(Integration, RealisticFloatsMatchReferenceWithinTolerance) {
  // kUniformReal values accumulate rounding differently per kernel order;
  // the simulated results must still match the reference to float accuracy.
  sim::Rng rng(0x408);
  const sparse::CsrMatrix m = sparse::CsrMatrix::fromDense(
      workload::randomDense(rng, 48, 48, 0.5, workload::ValueDist::kUniformReal));
  const sparse::DenseVector v =
      workload::randomDenseVector(rng, 48, workload::ValueDist::kUniformReal);
  const sparse::DenseVector expected = sparse::spmvCsr(m, v);
  const auto hht = harness::run(harness::defaultConfig(2),
                                {Kernel::kSpmvVectorHht}, {&m, &v});
  for (sim::Index i = 0; i < expected.size(); ++i) {
    const float scale = std::max(1.0f, std::fabs(expected.at(i)));
    EXPECT_NEAR(hht.y.at(i), expected.at(i), 1e-4f * scale) << "row " << i;
  }
}

TEST(Integration, ScalarKernelsWorkOnWidth1Hardware) {
  // Fig. 8's VL=1 column: everything must run on a scalar-only vector file.
  sim::Rng rng(0x409);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 32, 32, 0.5);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 32);
  const SystemConfig cfg = harness::defaultConfig(2, /*vlmax=*/1);
  const auto base = harness::run(cfg, {Kernel::kSpmvScalarBaseline}, {&m, &v});
  const auto hht = harness::run(cfg, {Kernel::kSpmvScalarHht}, {&m, &v});
  EXPECT_EQ(base.y, sparse::spmvCsr(m, v));
  EXPECT_EQ(hht.y, sparse::spmvCsr(m, v));
  EXPECT_GT(harness::speedup(base, hht), 1.2);
}

TEST(Integration, HhtResidualNeverBusyAfterCorrectKernels) {
  sim::Rng rng(0x40A);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 40, 40, 0.7);
  const sparse::DenseVector dv = workload::randomDenseVector(rng, 40);
  const sparse::SparseVector sv = workload::randomSparseVector(rng, 40, 0.7);
  const SystemConfig cfg = harness::defaultConfig(2);
  const harness::Operands ops{.m = &m, .v = &dv, .sv = &sv};
  for (const Kernel k : {Kernel::kSpmvVectorHht, Kernel::kSpmvScalarHht,
                         Kernel::kSpmspvHhtV1, Kernel::kSpmspvHhtV2}) {
    EXPECT_FALSE(harness::run(cfg, {k}, ops).hht_residual_busy);
  }
}

TEST(Integration, SuiteSparseLikeMatricesKeepTheSpeedup) {
  // §4: the Texas A&M matrices (>90% sparse) behave like the synthetic
  // sweeps. Exercise the structured stand-ins end to end.
  sim::Rng rng(0x40B);
  const SystemConfig cfg = harness::defaultConfig(2);
  const sparse::CsrMatrix banded = workload::bandedCsr(rng, 96, 2, 0.7);
  const sparse::CsrMatrix power = workload::powerLawCsr(rng, 96, 96, 12, 0.6);
  for (const sparse::CsrMatrix* m : {&banded, &power}) {
    const sparse::DenseVector v = workload::randomDenseVector(rng, m->numCols());
    const auto base =
        harness::run(cfg, {Kernel::kSpmvVectorBaseline}, {&*m, &v});
    const auto hht = harness::run(cfg, {Kernel::kSpmvVectorHht}, {&*m, &v});
    EXPECT_EQ(hht.y, sparse::spmvCsr(*m, v));
    EXPECT_GT(harness::speedup(base, hht), 1.2);
  }
}

}  // namespace
}  // namespace hht
