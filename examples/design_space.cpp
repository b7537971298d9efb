// Design-space exploration example: sweep the HHT's design-time parameters
// (buffer count, BE memory-port width, merge recurrence) on one workload
// and weigh the performance against the area/power model — the kind of
// study an architect would run before committing the §5.5 synthesis
// configuration.
//
//   ./build/examples/design_space
#include <iostream>

#include "energy/model.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "workload/synthetic.h"

int main() {
  using namespace hht;

  sim::Rng rng(1337);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 128, 128, 0.6);
  const sparse::SparseVector sv = workload::randomSparseVector(rng, 128, 0.6);

  const harness::Operands ops{.m = &m, .sv = &sv};
  const auto base = harness::run(
      harness::defaultConfig(2),
      {.kernel = harness::Kernel::kSpmspvScalarBaseline}, ops);
  std::cout << "workload: 128x128 SpMSpV variant-1, 60% sparsity, baseline "
            << base.cycles << " cycles\n\n";

  harness::Table table({"buffers", "be_ports", "merge_recurrence", "cycles",
                        "speedup", "cpu_wait"});
  for (std::uint32_t buffers : {1u, 2u, 4u}) {
    for (std::uint32_t ports : {1u, 2u}) {
      for (std::uint32_t rec : {1u, 2u}) {
        harness::SystemConfig cfg = harness::defaultConfig(buffers);
        cfg.hht.be_issue_per_cycle = ports;
        cfg.hht.cmp_recurrence = rec;
        const auto run =
            harness::run(cfg, {.kernel = harness::Kernel::kSpmspvHhtV1}, ops);
        table.addRow({std::to_string(buffers), std::to_string(ports),
                      std::to_string(rec), std::to_string(run.cycles),
                      harness::fmt(harness::speedup(base, run)),
                      harness::pct(run.cpuWaitFraction())});
      }
    }
  }
  table.print(std::cout);

  const auto est = energy::synthesisEstimate(energy::FeatureSize::Nm16, 50.0);
  std::cout << "\nreference silicon budget (16nm @50MHz): HHT adds "
            << harness::fmt(est.hhtPowerUw(), 1) << " uW over the "
            << harness::fmt(est.core_uW, 1) << " uW core and occupies "
            << harness::pct(est.hhtAreaFraction())
            << " of the core's area (paper: 38.9%).\n"
            << "Wider BE ports / faster merge would grow the comparator and\n"
            << "address-generator entries of the area breakdown in\n"
            << "bench/paper --only=tab_energy_area.\n";
  return 0;
}
