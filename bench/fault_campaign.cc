// Fault-injection campaign: sweep injection rates over SpMV / SpMSpV runs
// with the scalar-baseline degradation fallback installed, and classify
// every run's outcome. The invariant under test: each injected fault ends
// in exactly one of {corrected transparently, degraded-but-correct-y,
// structured SimError} — never a silently wrong result (silent_wrong must
// print 0) and never an unbounded spin (the watchdog bounds every run).
//
// Output is JSON (machine-diffable: two runs with the same seed must be
// byte-identical); --csv emits the same counts as a flat table.
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "sparse/reference.h"
#include "workload/synthetic.h"

namespace {

using namespace hht;

struct Bucket {
  std::uint64_t runs = 0;
  std::uint64_t injected = 0;       ///< faults created (completed runs only)
  std::uint64_t ecc_corrected = 0;  ///< flips repaired by bounded retry
  std::uint64_t completed_ok = 0;   ///< finished on the HHT, y correct
  std::uint64_t degraded = 0;       ///< fell back to the scalar baseline
  std::uint64_t machine_check = 0;  ///< CPU consumed a poisoned load
  std::uint64_t device_fault = 0;   ///< HHT fault with no fallback (unexpected)
  std::uint64_t watchdog = 0;       ///< no-progress / max_cycles abort
  std::uint64_t other_error = 0;    ///< any other structured error
  std::uint64_t silent_wrong = 0;   ///< finished "ok" with a wrong y — must be 0
};

bool sameVector(const sparse::DenseVector& got, const sparse::DenseVector& want) {
  if (got.size() != want.size()) return false;
  for (sim::Index i = 0; i < want.size(); ++i) {
    if (got.at(i) != want.at(i)) return false;
  }
  return true;
}

/// Classify one resilient run into its bucket.
template <typename RunFn>
void campaignRun(Bucket& b, const sparse::DenseVector& reference, RunFn&& run) {
  ++b.runs;
  try {
    const harness::RunResult r = run();
    b.injected += r.stats.value("faults.total_injected");
    b.ecc_corrected += r.stats.value("mem.ecc_corrected");
    const bool correct = sameVector(r.y, reference);
    if (!correct) {
      ++b.silent_wrong;  // the outcome the whole fault layer exists to prevent
    } else if (r.degraded) {
      ++b.degraded;
    } else {
      ++b.completed_ok;
    }
  } catch (const sim::SimError& e) {
    switch (e.kind()) {
      case sim::ErrorKind::MachineCheck: ++b.machine_check; break;
      case sim::ErrorKind::DeviceFault: ++b.device_fault; break;
      case sim::ErrorKind::Watchdog: ++b.watchdog; break;
      default: ++b.other_error; break;
    }
  }
}

harness::SystemConfig faultyConfig(double rate, std::uint64_t seed) {
  harness::SystemConfig cfg = harness::defaultConfig();
  cfg.faults.enabled = true;
  cfg.faults.seed = seed;
  // The SRAM read port takes the brunt (it is the busiest structure);
  // response-path and FIFO upsets are rarer, config-latch upsets rarest.
  cfg.faults.sram_read_flip_rate = rate;
  cfg.faults.drop_rate = rate;
  cfg.faults.delay_rate = rate;
  cfg.faults.fifo_corrupt_rate = rate / 8.0;
  cfg.faults.mmr_glitch_rate = rate / 64.0;
  return cfg;
}

std::string jsonBucket(double rate, const Bucket& b) {
  std::string s = "    {\"rate\": " + harness::fmt(rate, 6);
  const auto field = [&s](const char* name, std::uint64_t v) {
    s += std::string(", \"") + name + "\": " + std::to_string(v);
  };
  field("runs", b.runs);
  field("injected", b.injected);
  field("ecc_corrected", b.ecc_corrected);
  field("completed_ok", b.completed_ok);
  field("degraded", b.degraded);
  field("machine_check", b.machine_check);
  field("device_fault", b.device_fault);
  field("watchdog", b.watchdog);
  field("other_error", b.other_error);
  field("silent_wrong", b.silent_wrong);
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Options opt = benchutil::parse(argc, argv);
  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "fault_campaign");
  const sim::Index n = opt.size ? opt.size : 96;
  const double kRates[] = {1e-4, 1e-3, 1e-2};
  constexpr int kRunsPerKernel = 10;

  std::vector<std::pair<double, Bucket>> sweep;
  std::uint64_t total_injected = 0, total_silent_wrong = 0;

  for (const double rate : kRates) {
    Bucket b;
    for (int i = 0; i < kRunsPerKernel; ++i) {
      // Workload seeds are shared across rates so outcome differences are
      // attributable to the rate alone; injector seeds vary per run.
      sim::Rng wl(opt.seed + static_cast<std::uint64_t>(i));
      const sparse::CsrMatrix m = workload::randomCsr(wl, n, n, 0.7);
      const sparse::DenseVector v = workload::randomDenseVector(wl, n);
      const sparse::SparseVector sv = workload::randomSparseVector(wl, n, 0.5);

      const std::uint64_t inj_seed =
          opt.seed * 1000003u + static_cast<std::uint64_t>(rate * 1e6) * 101u +
          static_cast<std::uint64_t>(i);
      const harness::SystemConfig cfg = faultyConfig(rate, inj_seed);

      const harness::Operands ops{.m = &m, .v = &v, .sv = &sv};
      campaignRun(b, sparse::spmvCsr(m, v), [&] {
        return harness::run(
            cfg, {.kernel = harness::Kernel::kSpmvScalarHht, .fallback = true},
            ops);
      });
      campaignRun(b, sparse::spmspvMerge(m, sv), [&] {
        return harness::run(cfg,
                            {.kernel = harness::Kernel::kSpmspvHhtV2Scalar,
                             .fallback = true},
                            ops);
      });
    }
    total_injected += b.injected;
    total_silent_wrong += b.silent_wrong;
    sweep.emplace_back(rate, b);
  }

  if (opt.csv) {
    harness::Table t({"rate", "runs", "injected", "ecc_corrected",
                      "completed_ok", "degraded", "machine_check",
                      "device_fault", "watchdog", "other_error",
                      "silent_wrong"});
    for (const auto& [rate, b] : sweep) {
      t.addRow({harness::fmt(rate, 6), std::to_string(b.runs),
                std::to_string(b.injected), std::to_string(b.ecc_corrected),
                std::to_string(b.completed_ok), std::to_string(b.degraded),
                std::to_string(b.machine_check), std::to_string(b.device_fault),
                std::to_string(b.watchdog), std::to_string(b.other_error),
                std::to_string(b.silent_wrong)});
    }
    t.printCsv(std::cout);
    return total_silent_wrong == 0 ? 0 : 1;
  }

  std::cout << "{\n  \"campaign\": \"fault_injection\",\n"
            << "  \"matrix\": " << n << ",\n"
            << "  \"seed\": " << opt.seed << ",\n"
            << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    std::cout << jsonBucket(sweep[i].first, sweep[i].second)
              << (i + 1 < sweep.size() ? ",\n" : "\n");
  }
  std::cout << "  ],\n"
            << "  \"total_injected\": " << total_injected << ",\n"
            << "  \"silent_wrong\": " << total_silent_wrong << "\n}\n";
  // A campaign that ever produces a silently wrong result is a failure.
  return total_silent_wrong == 0 ? 0 : 1;
}
