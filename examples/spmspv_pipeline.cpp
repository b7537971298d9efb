// SpMSpV pipeline example: iterated sparse matrix x sparse vector products,
// the computational core of label propagation / multi-source BFS-style
// graph algorithms (§1). Each iteration's output is re-sparsified and fed
// back in; the example picks HHT variant-1 or variant-2 per iteration
// using the crossover rule from Fig. 5 (variant-1 wins at high sparsity,
// variant-2 below ~80%).
//
//   ./build/examples/spmspv_pipeline
#include <iostream>

#include "harness/experiment.h"
#include "harness/report.h"
#include "sparse/reference.h"
#include "workload/synthetic.h"

int main() {
  using namespace hht;

  // A power-law "graph" adjacency stand-in, 96% sparse.
  sim::Rng rng(424242);
  const sparse::CsrMatrix adj =
      workload::powerLawCsr(rng, 128, 128, /*max_degree=*/24, /*alpha=*/0.35);
  std::cout << "graph matrix: 128x128, nnz=" << adj.nnz() << " (sparsity "
            << harness::pct(adj.sparsity()) << ")\n\n";

  // Start from a frontier of 4 seed vertices.
  sparse::DenseVector frontier(128);
  for (sim::Index seed : {3u, 40u, 77u, 120u}) frontier.at(seed) = 1.0f;

  const harness::SystemConfig cfg = harness::defaultConfig(2);
  harness::Table table({"iter", "frontier_nnz", "variant", "base_cycles",
                        "hht_cycles", "speedup"});

  for (int iter = 0; iter < 4; ++iter) {
    const sparse::SparseVector sv = sparse::SparseVector::fromDense(frontier);
    if (sv.nnz() == 0) break;

    // Fig. 5 crossover heuristic: variant-1 when the operands are very
    // sparse (little to intersect), variant-2 otherwise.
    const int variant = sv.sparsity() > 0.8 && adj.sparsity() > 0.8 ? 1 : 2;

    const harness::Operands ops{.m = &adj, .sv = &sv};
    const auto base = harness::run(
        cfg, {.kernel = harness::Kernel::kSpmspvScalarBaseline}, ops);
    const auto hht =
        harness::run(cfg, {.kernel = harness::spmspvHht(variant)}, ops);

    // Cross-check the simulated result against the host reference.
    const sparse::DenseVector expected = sparse::spmspvMerge(adj, sv);
    for (sim::Index i = 0; i < expected.size(); ++i) {
      if (hht.y.at(i) != expected.at(i)) {
        std::cerr << "MISMATCH at iteration " << iter << ", row " << i << "\n";
        return 1;
      }
    }

    table.addRow({std::to_string(iter), std::to_string(sv.nnz()),
                  std::string("v") + std::to_string(variant),
                  std::to_string(base.cycles), std::to_string(hht.cycles),
                  harness::fmt(harness::speedup(base, hht))});

    // Next frontier: vertices reached this round (binarised).
    frontier = hht.y;
    for (float& x : frontier.values()) x = (x != 0.0f) ? 1.0f : 0.0f;
  }

  table.print(std::cout);
  std::cout << "\nall iterations verified against the reference kernel\n";
  return 0;
}
