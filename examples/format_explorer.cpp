// Format explorer: take one matrix through every sparse representation in
// the library and compare storage footprints, then run the three
// HHT-offloadable representations (CSR, SMASH-style hierarchical bitmap,
// flat bit-vector) end-to-end on the simulator.
//
//   ./build/examples/format_explorer [sparsity%]   (default 90)
#include <cstdlib>
#include <iostream>

#include "harness/experiment.h"
#include "harness/report.h"
#include "sparse/bitvector.h"
#include "sparse/hier_bitmap.h"
#include "sparse/reference.h"
#include "workload/synthetic.h"

int main(int argc, char** argv) {
  using namespace hht;
  const int s = argc > 1 ? std::atoi(argv[1]) : 90;
  const double sparsity = s / 100.0;
  const sim::Index n = 128;

  sim::Rng rng(7707);
  const sparse::DenseMatrix dense = workload::randomDense(rng, n, n, sparsity);
  const sparse::CsrMatrix csr = sparse::CsrMatrix::fromDense(dense);
  std::cout << "matrix: " << n << "x" << n << ", nnz=" << csr.nnz()
            << " (sparsity " << harness::pct(csr.sparsity()) << ")\n\n";

  // --- storage comparison across every representation ---
  const std::size_t dense_bytes = static_cast<std::size_t>(n) * n * 4;
  harness::Table storage({"format", "bytes", "vs dense", "notes"});
  const auto row = [&](const char* name, std::size_t bytes,
                       const std::string& notes) {
    storage.addRow({name, std::to_string(bytes),
                    harness::pct(static_cast<double>(bytes) / dense_bytes),
                    notes});
  };
  const sparse::BitVectorMatrix bv = sparse::BitVectorMatrix::fromDense(dense);
  const sparse::HierBitmapMatrix hb =
      sparse::HierBitmapMatrix::fromDense(dense);
  row("dense", dense_bytes, "baseline");
  row("CSR", csr.storageBytes(), "rowPtr + cols + vals");
  row("COO", csr.nnz() * 12, "12 B per triplet");
  row("bit-vector", bv.storageBytes(), "1 bit/position + packed vals");
  row("hier bitmap (SMASH)", hb.storageBytes(), "level-1 skips empty leaves");
  storage.print(std::cout);

  // --- HHT offload across the walkable representations ---
  std::cout << "\nHHT offload comparison (same matrix, dense operand):\n";
  const sparse::DenseVector v = workload::randomDenseVector(rng, n);
  const harness::SystemConfig cfg = harness::defaultConfig(2);
  const auto base = harness::runSpmvBaseline(cfg, csr, v, true);
  const auto hht_csr = harness::runSpmvHht(cfg, csr, v, true);
  const auto hht_hb = harness::runHierHht(cfg, hb, v);
  const auto hht_bv = harness::runFlatHht(cfg, bv, v);

  harness::Table runs({"engine", "cycles", "speedup vs CPU baseline"});
  runs.addRow({"CPU only (vector gather)", std::to_string(base.cycles), "1.00"});
  runs.addRow({"HHT: CSR gather", std::to_string(hht_csr.cycles),
               harness::fmt(harness::speedup(base, hht_csr))});
  runs.addRow({"HHT: SMASH bitmap walk", std::to_string(hht_hb.cycles),
               harness::fmt(harness::speedup(base, hht_hb))});
  runs.addRow({"HHT: flat bit-vector walk", std::to_string(hht_bv.cycles),
               harness::fmt(harness::speedup(base, hht_bv))});
  runs.print(std::cout);

  // Cross-check all engines computed the same product.
  const sparse::DenseVector expected = sparse::spmvCsr(csr, v);
  for (const auto* r : {&hht_csr, &hht_hb, &hht_bv}) {
    if (r->y != expected) {
      std::cerr << "RESULT MISMATCH\n";
      return 1;
    }
  }
  std::cout << "\nall engine results verified against the reference kernel\n";
  return 0;
}
