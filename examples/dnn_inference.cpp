// DNN classifier example (§5.4): run the fully-connected classification
// layer of a pruned network as SpMV on the simulated MCU, with and without
// the HHT, and report the predicted class and the latency/energy budget —
// the paper's target scenario of real-time inference on low-power edge
// devices.
//
//   ./build/examples/dnn_inference [network]   (default: MobileNet)
#include <algorithm>
#include <iostream>
#include <string>

#include "energy/model.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "workload/dnn.h"

int main(int argc, char** argv) {
  using namespace hht;
  const std::string wanted = argc > 1 ? argv[1] : "MobileNet";

  const workload::DnnFcLayer* layer = nullptr;
  for (const auto& l : workload::dnnFcCatalog()) {
    if (wanted == l.network) layer = &l;
  }
  if (layer == nullptr) {
    std::cerr << "unknown network '" << wanted << "'; available:";
    for (const auto& l : workload::dnnFcCatalog()) std::cerr << ' ' << l.network;
    std::cerr << '\n';
    return 1;
  }

  // Weights: seeded stand-in at the published shape/sparsity (DESIGN.md #3).
  // 64 output rows keep the example fast; each row is one class logit.
  const sparse::CsrMatrix weights =
      workload::dnnLayerMatrix(*layer, /*seed=*/7, /*row_limit=*/64);
  sim::Rng rng(99);
  const sparse::DenseVector activations =
      workload::randomDenseVector(rng, layer->in_features);

  std::cout << layer->network << " classifier slice: " << weights.numRows()
            << "x" << weights.numCols() << ", weight sparsity "
            << harness::pct(layer->sparsity, 0) << "\n";

  const harness::SystemConfig cfg = harness::defaultConfig(2);
  const harness::Operands ops{.m = &weights, .v = &activations};
  const auto base = harness::run(
      cfg, {.kernel = harness::Kernel::kSpmvVectorBaseline}, ops);
  const auto hht =
      harness::run(cfg, {.kernel = harness::Kernel::kSpmvVectorHht}, ops);

  // argmax over the logits computed *inside the simulator*.
  const auto& logits = hht.y.values();
  const auto best = std::max_element(logits.begin(), logits.end());
  std::cout << "predicted class: " << (best - logits.begin()) << " (logit "
            << *best << ")\n";

  const double us_base = static_cast<double>(base.cycles) / 1100.0;  // @1.1GHz
  const double us_hht = static_cast<double>(hht.cycles) / 1100.0;
  std::cout << "baseline: " << base.cycles << " cycles ("
            << harness::fmt(us_base, 1) << " us)\n";
  std::cout << "with HHT: " << hht.cycles << " cycles ("
            << harness::fmt(us_hht, 1) << " us), speedup "
            << harness::fmt(harness::speedup(base, hht)) << "x\n";

  const auto energy = energy::compareEnergy(base.cycles, hht.cycles,
                                            energy::FeatureSize::Nm16, 50.0);
  std::cout << "energy (16nm @50MHz model): baseline "
            << harness::fmt(energy.baseline_uj, 3) << " uJ, HHT "
            << harness::fmt(energy.hht_uj, 3) << " uJ -> "
            << harness::pct(energy.savings_fraction) << " saved\n";
  return 0;
}
