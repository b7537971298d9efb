// Harness tests: System run loop, workload loaders, and report formatting.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiment.h"
#include "harness/report.h"
#include "workload/synthetic.h"

namespace hht::harness {
namespace {

using namespace isa::reg;

TEST(System, RunsTrivialProgramToCompletion) {
  System sys(defaultConfig());
  isa::ProgramBuilder b("trivial");
  const sim::Addr y = sys.arena().allocate(8);
  b.li(a0, static_cast<std::int32_t>(y));
  b.li(t0, 5);
  b.fcvtSW(ft0, t0);
  b.fsw(ft0, a0, 0);
  b.fsw(ft0, a0, 4);
  b.ecall();
  const isa::Program p = b.build();
  const RunResult r = sys.run(p, y, 2);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_EQ(r.retired, p.size());
  ASSERT_EQ(r.y.size(), 2u);
  EXPECT_EQ(r.y.at(0), 5.0f);
  EXPECT_EQ(r.y.at(1), 5.0f);
  EXPECT_FALSE(r.hht_residual_busy);
}

TEST(System, InfiniteLoopHitsMaxCycles) {
  System sys(defaultConfig());
  isa::ProgramBuilder b("spin");
  isa::Label loop = b.newLabel();
  b.bind(loop);
  b.j(loop);
  const isa::Program p = b.build();
  EXPECT_THROW(sys.run(p, 0x1000, 0, /*max_cycles=*/5000), std::runtime_error);
}

TEST(System, StatsAreMergedFromAllComponents) {
  System sys(defaultConfig());
  isa::ProgramBuilder b("stats");
  b.li(a0, 0x2000).lw(t0, a0, 0).ecall();
  const isa::Program p = b.build();
  const RunResult r = sys.run(p, 0x2000, 1);
  EXPECT_GT(r.stats.value("cpu.cycles"), 0u);
  EXPECT_GT(r.stats.value("cpu.retired"), 0u);
  EXPECT_GT(r.stats.value("mem.cpu.reads"), 0u);
}

TEST(Loaders, SpmvLayoutPlacesArraysFaithfully) {
  System sys(defaultConfig());
  sim::Rng rng(5);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 10, 10, 0.5);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 10);
  const kernels::SpmvLayout layout = loadSpmv(sys, m, v);

  const auto& sram = sys.memory().sram();
  EXPECT_EQ(layout.num_rows, 10u);
  EXPECT_EQ(sram.peekArray<sim::Index>(layout.rows, 11), m.rowPtr());
  EXPECT_EQ(sram.peekArray<sim::Index>(layout.cols, m.nnz()), m.cols());
  EXPECT_EQ(sram.peekArray<float>(layout.vals, m.nnz()), m.vals());
  EXPECT_EQ(sram.peekArray<float>(layout.v, 10), v.values());
  // y starts zeroed.
  for (float f : sram.peekArray<float>(layout.y, 10)) EXPECT_EQ(f, 0.0f);
}

TEST(Loaders, SpmspvLayoutPlacesVectorArrays) {
  System sys(defaultConfig());
  sim::Rng rng(6);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 6, 6, 0.5);
  const sparse::SparseVector v = workload::randomSparseVector(rng, 6, 0.5);
  const kernels::SpmspvLayout layout = loadSpmspv(sys, m, v);
  EXPECT_EQ(layout.v_nnz, v.nnz());
  EXPECT_EQ(sys.memory().sram().peekArray<sim::Index>(layout.vidx, v.nnz()),
            v.indices());
}

TEST(Loaders, DimensionMismatchesThrow) {
  System sys(defaultConfig());
  sim::Rng rng(7);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 4, 6, 0.5);
  const sparse::DenseVector wrong = workload::randomDenseVector(rng, 4);
  EXPECT_THROW(loadSpmv(sys, m, wrong), std::invalid_argument);
  const sparse::SparseVector wrong_sv = workload::randomSparseVector(rng, 4, 0.5);
  EXPECT_THROW(loadSpmspv(sys, m, wrong_sv), std::invalid_argument);

  // RunSpecs no kernel exists for, and a missing operand.
  EXPECT_THROW(spmspvHht(3), std::invalid_argument);
  EXPECT_THROW(spmspvHht(0, false), std::invalid_argument);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 6);
  const auto rejected = [&](const RunSpec& spec) {
    EXPECT_THROW(run(defaultConfig(), spec, {&m, &v}), std::invalid_argument);
  };
  rejected({.kernel = Kernel::kSpmspvHhtV2Scalar, .tiles = 2,
            .distribution = Distribution::kNnzBalanced});
  rejected({.kernel = Kernel::kSpmvScalarHht, .programmable = true,
            .tiles = 2, .distribution = Distribution::kBlock});
  rejected({.kernel = Kernel::kSpmvScalarHht, .fallback = true, .tiles = 2,
            .distribution = Distribution::kChunkQueue});
  for (const Kernel k : {Kernel::kSpmmVectorHht, Kernel::kHierBitmapHht,
                         Kernel::kFlatBitmapHht, Kernel::kSpmvVectorBaseline}) {
    rejected({.kernel = k, .tiles = 4, .distribution = Distribution::kBlock});
  }
  rejected({.kernel = Kernel::kSpmvVectorHht, .tiles = 2});  // no distribution
  rejected({.kernel = Kernel::kSpmspvHhtV1});                // sv missing
}

TEST(Config, DefaultTracksTable1) {
  const SystemConfig cfg = defaultConfig();
  EXPECT_EQ(cfg.vlmax, 8);
  EXPECT_EQ(cfg.hht.num_buffers, 2u);
  EXPECT_EQ(cfg.hht.buffer_len, 8u);   // BLEN = vector width (32 B buffers)
  EXPECT_EQ(cfg.timing.vec_fp, 4u);    // vector arithmetic latency
  // Width-1 configuration shrinks BLEN with the vector width.
  EXPECT_EQ(defaultConfig(2, 4).hht.buffer_len, 4u);
}

TEST(Report, TableAlignsColumns) {
  Table t({"name", "value"});
  t.addRow({"alpha", "1"});
  t.addRow({"b", "22222"});
  std::ostringstream out;
  t.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| name  | value |"), std::string::npos);
  EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
}

TEST(Report, CsvEmitsCommaSeparatedRows) {
  Table t({"a", "b"});
  t.addRow({"1", "2"});
  std::ostringstream out;
  t.printCsv(out);
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(Report, Formatters) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(pct(0.1234, 1), "12.3%");
  EXPECT_EQ(bar(2.0, 4.0, 8), "####");
  EXPECT_EQ(bar(0.0, 4.0, 8), "");
  EXPECT_EQ(bar(9.0, 4.0, 8), "########");  // clamped
  EXPECT_EQ(bar(1.0, 0.0, 8), "");          // degenerate max
}

TEST(Report, SpeedupHelper) {
  RunResult base, fast;
  base.cycles = 300;
  fast.cycles = 100;
  EXPECT_DOUBLE_EQ(speedup(base, fast), 3.0);
  fast.cycles = 0;
  EXPECT_DOUBLE_EQ(speedup(base, fast), 0.0);
}

}  // namespace
}  // namespace hht::harness
