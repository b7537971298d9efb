// Uniform -> zipf skew sweep: static nnz-balanced sharding vs the dynamic
// chunk-queue distribution on a 4-tile harness::System (DESIGN.md §18).
// Each sweep point generates a power-law matrix (alpha is the skew knob;
// the table reports the realised row-nnz Gini), then runs SpMV three ways:
//   ref     — 1 tile, the bit-exactness reference;
//   static  — 4 tiles, partitionRowsNnzBalanced row shards;
//   dynamic — 4 tiles claiming row chunks from the shared work queue.
// Static splits balance *nonzeros*, but under skew the tail shard drowns
// in per-row overhead (many 1-nnz rows); the queue rebalances by letting
// drained tiles steal, at the cost of one claim round-trip per chunk —
// which is why static stays preferable near uniform.
//
// Checks (exit 1 on violation):
//   - every point's static AND dynamic y is bit-identical to the 1-tile y
//     (the claim schedule must not change the FLOP order of any row);
//   - at every high-skew point (alpha >= 0.9) the dynamic run beats the
//     static split by at least 1.3x in cycles.
//
// Output: a table (or --csv) plus BENCH_skew.json in the current
// directory (CI's skew-smoke job runs two zipf points via --alphas and
// uploads it; bench/skew_baseline.json holds a full-sweep reference).
//
// Extra flag on top of the shared set:
//   --alphas=A,B,...   restrict the sweep to these exponents (default
//                      0,0.3,0.6,0.9,1.2)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "workload/partition.h"
#include "workload/synthetic.h"

namespace {

/// Comma-separated non-negative decimals ("0,0.9,1.2"); empty or trailing
/// junk fails.
bool parseAlphaList(const std::string& value, std::vector<double>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const std::size_t comma = value.find(',', pos);
    const std::string item =
        value.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (item.empty()) return false;
    char* end = nullptr;
    const double a = std::strtod(item.c_str(), &end);
    if (end != item.c_str() + item.size() || a < 0.0) return false;
    out.push_back(a);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hht;

  benchutil::Options opt;
  std::string error;
  std::vector<std::string> extra;
  switch (benchutil::tryParse(argc, argv, opt, error, &extra)) {
    case benchutil::ParseStatus::kOk:
      break;
    case benchutil::ParseStatus::kHelp:
      std::fprintf(stderr,
                   "usage: %s [--csv] [--size=N] [--seed=S] [--jobs=N]"
                   " [--no-fastforward] [--timeout-ms=N] [--alphas=A,B,...]\n",
                   argv[0]);
      return 0;
    case benchutil::ParseStatus::kError:
    default:
      std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
      return 2;
  }
  std::vector<double> alphas = {0.0, 0.3, 0.6, 0.9, 1.2};
  for (const std::string& arg : extra) {
    if (arg.rfind("--alphas=", 0) == 0) {
      if (!parseAlphaList(arg.substr(9), alphas)) {
        std::fprintf(stderr, "%s: bad value '%s' for --alphas\n", argv[0],
                     arg.c_str() + 9);
        return 2;
      }
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                   arg.c_str());
      return 2;
    }
  }

  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "fig_skew");
  const sim::Index n = opt.size ? opt.size : 256;
  constexpr std::uint32_t kTiles = 4;
  constexpr std::uint32_t kChunkRows = 8;
  constexpr double kGateAlpha = 0.9;  ///< gate applies from this skew up
  constexpr double kGateSpeedup = 1.3;

  harness::printBanner(
      std::cout, "Skew sweep",
      "static nnz-balanced shards vs dynamic chunk-queue stealing on "
      "4 tiles, uniform -> zipf row degrees");

  struct Point {
    double alpha = 0.0;
    double gini = 0.0;
    std::uint64_t imbalance_pct = 0;  ///< static split, 100*max/mean nnz
    std::uint64_t ref_cycles = 0;
    std::uint64_t static_cycles = 0;
    std::uint64_t dynamic_cycles = 0;
    double dyn_over_static = 0.0;
    std::uint64_t grants = 0;
    std::uint64_t steals = 0;
    std::uint64_t conflicts = 0;
    bool identical = true;  ///< static and dynamic y == 1-tile y
  };

  auto config = [&] {
    harness::SystemConfig cfg = harness::defaultConfig(2);
    cfg.host_fastforward = opt.fastforward;
    return cfg;
  };

  // Sweep points are independent simulations.
  harness::SweepRunner sweep(opt.jobs);
  const auto points = sweep.run(alphas.size(), [&](std::size_t i) {
    Point pt;
    pt.alpha = alphas[i];
    // Same seed at every point: only alpha varies the matrix shape.
    sim::Rng rng(opt.seed);
    const sparse::CsrMatrix m =
        workload::powerLawCsr(rng, n, n, n / 2, pt.alpha);
    const sparse::DenseVector v = workload::randomDenseVector(rng, n);
    pt.gini = workload::rowNnzGini(m);

    const harness::Operands ops{.m = &m, .v = &v};
    harness::RunSpec spec{.kernel = harness::Kernel::kSpmvVectorHht};
    const harness::RunResult ref = harness::run(config(), spec, ops);
    spec.tiles = kTiles;
    spec.distribution = harness::Distribution::kNnzBalanced;
    const harness::RunResult st = harness::run(config(), spec, ops);
    spec.distribution = harness::Distribution::kChunkQueue;
    spec.chunk_rows = kChunkRows;
    const harness::RunResult dyn = harness::run(config(), spec, ops);

    pt.ref_cycles = ref.cycles;
    pt.static_cycles = st.cycles;
    pt.dynamic_cycles = dyn.cycles;
    pt.dyn_over_static =
        dyn.cycles == 0 ? 0.0
                        : static_cast<double>(st.cycles) /
                              static_cast<double>(dyn.cycles);
    pt.imbalance_pct = st.stats.value("workload.shard_imbalance_pct");
    pt.grants = dyn.stats.value("mem.wq.grants");
    pt.steals = dyn.stats.value("mem.wq.steals");
    pt.conflicts = dyn.stats.value("mem.wq.conflict_cycles");

    const auto& ref_y = ref.y.values();
    const auto same = [&](const harness::RunResult& r) {
      const auto& y = r.y.values();
      return y.size() == ref_y.size() &&
             (y.empty() || std::memcmp(y.data(), ref_y.data(),
                                       y.size() * sizeof(float)) == 0);
    };
    pt.identical = same(st) && same(dyn);
    return pt;
  });

  harness::Table table({"alpha", "gini", "static_imb%", "ref_cycles",
                        "static_cycles", "dyn_cycles", "dyn/static",
                        "steals", "conflicts", "bit_identical"});
  bool all_identical = true;
  bool skew_gate = true;
  double gated_min = 0.0;
  for (const Point& pt : points) {
    table.addRow({harness::fmt(pt.alpha), harness::fmt(pt.gini),
                  std::to_string(pt.imbalance_pct),
                  std::to_string(pt.ref_cycles),
                  std::to_string(pt.static_cycles),
                  std::to_string(pt.dynamic_cycles),
                  harness::fmt(pt.dyn_over_static),
                  std::to_string(pt.steals), std::to_string(pt.conflicts),
                  pt.identical ? "yes" : "NO"});
    all_identical = all_identical && pt.identical;
    if (pt.alpha >= kGateAlpha) {
      if (gated_min == 0.0 || pt.dyn_over_static < gated_min) {
        gated_min = pt.dyn_over_static;
      }
      skew_gate = skew_gate && pt.dyn_over_static >= kGateSpeedup;
    }
  }

  benchutil::printTable(opt, table);
  std::cout << "bit-identity vs 1 tile (static and dynamic): "
            << (all_identical ? "PASS" : "FAIL")
            << "; dynamic >= " << harness::fmt(kGateSpeedup)
            << "x static at alpha >= " << harness::fmt(kGateAlpha) << ": "
            << (skew_gate ? "PASS" : "FAIL");
  if (gated_min > 0.0) {
    std::cout << " (min " << harness::fmt(gated_min) << "x)";
  }
  std::cout << "\n";

  std::FILE* f = std::fopen("BENCH_skew.json", "w");
  if (f == nullptr) {
    std::cerr << "cannot write BENCH_skew.json\n";
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"workload\": \"spmv_skew\",\n"
               "  \"size\": %u,\n"
               "  \"seed\": %llu,\n"
               "  \"tiles\": %u,\n"
               "  \"chunk_rows\": %u,\n"
               "  \"static_partition\": \"nnz_balanced\",\n"
               "  \"points\": [\n",
               static_cast<unsigned>(n),
               static_cast<unsigned long long>(opt.seed), kTiles, kChunkRows);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& pt = points[i];
    std::fprintf(
        f,
        "    {\"alpha\": %.2f, \"gini\": %.4f, \"static_imbalance_pct\": "
        "%llu, \"ref_cycles\": %llu, \"static_cycles\": %llu, "
        "\"dynamic_cycles\": %llu, \"dyn_over_static\": %.4f, "
        "\"wq_grants\": %llu, \"wq_steals\": %llu, \"wq_conflicts\": %llu, "
        "\"bit_identical\": %s}%s\n",
        pt.alpha, pt.gini,
        static_cast<unsigned long long>(pt.imbalance_pct),
        static_cast<unsigned long long>(pt.ref_cycles),
        static_cast<unsigned long long>(pt.static_cycles),
        static_cast<unsigned long long>(pt.dynamic_cycles),
        pt.dyn_over_static, static_cast<unsigned long long>(pt.grants),
        static_cast<unsigned long long>(pt.steals),
        static_cast<unsigned long long>(pt.conflicts),
        pt.identical ? "true" : "false",
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"bit_identical\": %s,\n"
               "  \"gate_alpha\": %.2f,\n"
               "  \"gate_speedup\": %.2f,\n"
               "  \"skew_gate\": %s\n"
               "}\n",
               all_identical ? "true" : "false", kGateAlpha, kGateSpeedup,
               skew_gate ? "true" : "false");
  std::fclose(f);
  std::cout << "wrote BENCH_skew.json\n";

  return all_identical && skew_gate ? 0 : 1;
}
