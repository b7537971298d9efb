// Quickstart: build a sparse matrix, run SpMV on the simulated RV32 core
// with and without the HHT, and verify both against the reference kernel.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "harness/experiment.h"
#include "harness/report.h"
#include "sparse/reference.h"
#include "workload/synthetic.h"

int main() {
  using namespace hht;

  // 1. A 64x64 matrix at 70% sparsity and a dense operand vector.
  //    Small-integer values make every kernel's result bit-exact.
  sim::Rng rng(2022);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 64, 64, 0.7);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 64);
  std::cout << "matrix: 64x64, nnz=" << m.nnz() << " (sparsity "
            << harness::pct(m.sparsity()) << ")\n";

  // 2. Ground truth from the host-side reference kernel.
  const sparse::DenseVector expected = sparse::spmvCsr(m, v);

  // 3. Simulate the CPU-only baseline (vector kernel, VL=8, indexed
  //    gathers) and the HHT-assisted kernel on the Table-1 system.
  const harness::SystemConfig cfg = harness::defaultConfig(/*num_buffers=*/2);
  const harness::Operands ops{.m = &m, .v = &v};
  const harness::RunResult base = harness::run(
      cfg, {.kernel = harness::Kernel::kSpmvVectorBaseline}, ops);
  const harness::RunResult hht =
      harness::run(cfg, {.kernel = harness::Kernel::kSpmvVectorHht}, ops);

  std::cout << "baseline: " << base.cycles << " cycles, " << base.retired
            << " instructions\n";
  std::cout << "with HHT: " << hht.cycles << " cycles, " << hht.retired
            << " instructions (CPU waited "
            << harness::pct(hht.cpuWaitFraction()) << " of the time)\n";
  std::cout << "speedup:  " << harness::fmt(harness::speedup(base, hht))
            << "x\n";

  // 4. Both simulated runs computed the real product in simulated SRAM.
  for (sim::Index i = 0; i < expected.size(); ++i) {
    if (base.y.at(i) != expected.at(i) || hht.y.at(i) != expected.at(i)) {
      std::cerr << "MISMATCH at row " << i << "\n";
      return 1;
    }
  }
  std::cout << "results verified against the reference kernel: OK\n";
  return 0;
}
