// The paper's evaluation in one driver: Figs. 4-9, the §5.5 area, power
// and energy table and the design ablations (DESIGN.md §6), then a check
// of the paper's claims against the measured values.
//
// Each figure is one function that prints its section; --only=LIST picks
// a subset (default all, in kSections order) and --size overrides each
// selected figure's own default size. Figures that plot the same
// simulations read one shared sweep, so each distinct simulation runs once
// per invocation: Figs. 4, 6 and 8 (its VL=8 column) share the SpMV sweep,
// Figs. 5 and 7 the SpMSpV sweep. After the figures, every claim in
// kClaims whose figure ran prints PASS or FAIL, and the process exits 1 if
// one fails. Claims pin the default --size and --seed; a run at other
// inputs checks none.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "energy/model.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "obs/export.h"
#include "obs/profile.h"
#include "sparse/bitvector.h"
#include "sparse/hier_bitmap.h"
#include "workload/dnn.h"
#include "workload/synthetic.h"

namespace {

using namespace hht;
using harness::Kernel;
using Cells = std::vector<std::string>;

/// The SpMV kernels by consumer: [0] scalar, [1] vector.
constexpr Kernel kSpmvBase[] = {Kernel::kSpmvScalarBaseline,
                                Kernel::kSpmvVectorBaseline};
constexpr Kernel kSpmvHht[] = {Kernel::kSpmvScalarHht, Kernel::kSpmvVectorHht};

/// Sparsity of point i of the 10%..90% sweeps, in percent.
int sweepSparsity(std::size_t i) { return 10 + static_cast<int>(i) * 10; }

/// L1D hit rate of `who` ("cpu" or "hht") in a run.
double hitRate(const harness::RunResult& r, const std::string& who) {
  const auto hits =
      static_cast<double>(r.stats.value("mem." + who + ".cache_hits"));
  const auto misses =
      static_cast<double>(r.stats.value("mem." + who + ".cache_misses"));
  return hits + misses == 0.0 ? 0.0 : hits / (hits + misses);
}

/// One point of the SpMV sweep that Figs. 4, 6 and 8 share: Fig. 6 plots
/// the waits of Fig. 4's HHT runs, and Fig. 8's VL=8 column is Fig. 4's
/// 2-buffer speedup (defaultConfig's VL is 8).
struct SpmvPoint {
  int s = 0;
  harness::RunResult base, hht1, hht2;  ///< VL=8; HHT with 1 and 2 buffers
  double narrow[2] = {};                ///< Fig. 8: VL=1 and VL=4 speedups
};

/// One point of the SpMSpV sweep that Figs. 5 and 7 share.
struct SpmspvPoint {
  int s = 0;
  harness::RunResult base;
  harness::RunResult hht[4];     ///< v1 1buf, v1 2buf, v2 1buf, v2 2buf
  harness::RunResult v2_scalar;  ///< v2, 2 buffers, scalar consumer
};

/// State of one invocation: options, the host thread pool, the shared
/// sweeps and the values the claims check.
class Paper {
 public:
  explicit Paper(const benchutil::Options& options)
      : opt(options), sweep(options.jobs) {}

  const benchutil::Options& opt;
  harness::SweepRunner sweep;
  const char* figure = "";               ///< the section being printed
  std::map<std::string, double> values;  ///< "figure/metric" -> measured

  sim::Index size(sim::Index fallback) const {
    return opt.size ? opt.size : fallback;
  }

  harness::SystemConfig config(std::uint32_t buffers, int vlmax = 8) const {
    harness::SystemConfig cfg = harness::defaultConfig(buffers, vlmax);
    cfg.host_fastforward = opt.fastforward;
    return cfg;
  }

  void print(Cells headers, const std::vector<Cells>& rows) const {
    harness::Table table(std::move(headers));
    for (const Cells& row : rows) table.addRow(row);
    benchutil::printTable(opt, table);
  }

  /// Record a value of the current figure for kClaims.
  void measure(const char* metric, double value) {
    values[std::string(figure) + "/" + metric] = value;
  }

  /// --trace=FILE: run one representative point (`what`) of the figure
  /// again with a sink installed in `cfg` (`run(cfg)` simulates it), write
  /// FILE (".json" = Perfetto/Chrome trace-event JSON, else the flat CSV
  /// golden format) and print the stall-attribution table.
  template <typename Run>
  void trace(const std::string& what, harness::SystemConfig cfg,
             Run&& run) const {
    if (!opt.traceRequested()) return;
    obs::TraceSink sink(obs::TraceSink::kDefaultCapacity, opt.trace_categories);
    std::cout << "tracing " << what << '\n';
    cfg.trace_sink = &sink;
    run(cfg);
    const std::string& f = opt.trace_file;
    std::ofstream out(f, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open trace file '%s'\n", f.c_str());
      std::exit(2);
    }
    const bool json = f.ends_with(".json");
    json ? obs::writePerfettoTrace(out, sink) : obs::writeCsvTrace(out, sink);
    std::cout << "trace: " << sink.size() << " events (" << sink.dropped()
              << " dropped) -> " << f << " [" << (json ? "perfetto" : "csv")
              << "]\n"
              << obs::profile(sink).table();
  }

  std::pair<sparse::CsrMatrix, sparse::DenseVector> spmvOperands(
      int s) const {
    const sim::Index n = size(512);
    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(s));
    sparse::CsrMatrix m = workload::randomCsr(rng, n, n, s / 100.0);
    return {std::move(m), workload::randomDenseVector(rng, n)};
  }

  std::pair<sparse::CsrMatrix, sparse::SparseVector> spmspvOperands(
      int s) const {
    const sim::Index n = size(512);
    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(s) * 7);
    sparse::CsrMatrix m = workload::randomCsr(rng, n, n, s / 100.0);
    return {std::move(m), workload::randomSparseVector(rng, n, s / 100.0)};
  }

  /// The SpMV sweep, run on first use with only the runs that the
  /// selected figures print.
  const std::vector<SpmvPoint>& spmv() {
    if (spmv_) return *spmv_;
    const bool base = opt.selected("fig4") || opt.selected("fig8");
    const bool hht1 = opt.selected("fig4") || opt.selected("fig6");
    const bool narrow = opt.selected("fig8");
    // Each sparsity point is an independent simulation (its own
    // seed-derived operands and fresh Systems), so the sweep parallelizes
    // across points; results come back in order regardless of --jobs.
    spmv_ = sweep.run(9, [&](std::size_t i) {
      SpmvPoint pt;
      pt.s = sweepSparsity(i);
      const auto [m, v] = spmvOperands(pt.s);
      const harness::Operands ops{&m, &v};
      if (base) pt.base = harness::run(config(2), {kSpmvBase[1]}, ops);
      if (hht1) pt.hht1 = harness::run(config(1), {kSpmvHht[1]}, ops);
      pt.hht2 = harness::run(config(2), {kSpmvHht[1]}, ops);
      if (narrow) {
        // Fig. 8: baseline and HHT kernels both use the same width.
        for (int w : {1, 4}) {
          const harness::SystemConfig cfg = config(2, w);
          pt.narrow[w / 4] =
              harness::speedup(harness::run(cfg, {kSpmvBase[w > 1]}, ops),
                               harness::run(cfg, {kSpmvHht[w > 1]}, ops));
        }
      }
      return pt;
    });
    return *spmv_;
  }

  /// The SpMSpV sweep, run on first use.
  const std::vector<SpmspvPoint>& spmspv() {
    if (spmspv_) return *spmspv_;
    const bool fig5 = opt.selected("fig5");
    spmspv_ = sweep.run(9, [&](std::size_t i) {
      SpmspvPoint pt;
      pt.s = sweepSparsity(i);
      const auto [m, v] = spmspvOperands(pt.s);
      const harness::Operands ops{.m = &m, .sv = &v};
      for (int k = 0; k < 4; ++k) {
        pt.hht[k] = harness::run(config(1 + k % 2),
                                 {harness::spmspvHht(1 + k / 2)}, ops);
      }
      if (fig5) {
        pt.base = harness::run(config(2), {Kernel::kSpmspvScalarBaseline}, ops);
        // v2 with a scalar consumer: how much of v2's win is vectorization.
        pt.v2_scalar =
            harness::run(config(2), {Kernel::kSpmspvHhtV2Scalar}, ops);
      }
      return pt;
    });
    return *spmspv_;
  }

 private:
  std::optional<std::vector<SpmvPoint>> spmv_;
  std::optional<std::vector<SpmspvPoint>> spmspv_;
};

// Figure 4: HHT speedup over the CPU-only baseline for SpMV (sparse matrix
// x dense vector) on a 512x512 synthetic matrix, sparsity 10%..90%,
// RV32 vector kernels with VL=8; ASIC HHT with 1 and 2 buffers.
//
// Paper reference: 1-buffer average speedup 1.70 (1.67..1.72);
// 2-buffer average 1.73 (1.71..1.75); gains shrink slightly as sparsity
// rises because less work is offloaded per row.
void fig4(Paper& p) {
  harness::printBanner(std::cout, "Fig. 4",
                       "SpMV speedup vs sparsity (512x512, VL=8, HHT 1/2 buffers)");
  const auto& rows = p.spmv();
  const auto sp2 = [](const SpmvPoint& r) {
    return harness::speedup(r.base, r.hht2);
  };
  harness::Table table({"sparsity", "base_cycles", "hht1_cycles", "hht2_cycles",
                        "speedup_1buf", "speedup_2buf", "bar(2buf)"});
  double sum1 = 0.0, sum2 = 0.0;
  for (const SpmvPoint& row : rows) {
    const double sp1 = harness::speedup(row.base, row.hht1);
    sum1 += sp1;
    sum2 += sp2(row);
    table.addRow({std::to_string(row.s) + "%", std::to_string(row.base.cycles),
                  std::to_string(row.hht1.cycles),
                  std::to_string(row.hht2.cycles), harness::fmt(sp1),
                  harness::fmt(sp2(row)), harness::bar(sp2(row), 4.0)});
  }
  benchutil::printTable(p.opt, table);
  const double count = static_cast<double>(rows.size());
  std::cout << "average speedup: 1-buffer " << harness::fmt(sum1 / count)
            << " (paper: 1.70), 2-buffer " << harness::fmt(sum2 / count)
            << " (paper: 1.73)\n";
  p.measure("avg speedup 2 buffers", sum2 / count);
  p.measure("avg gain of the 2nd buffer", (sum2 - sum1) / count);

  // --trace: re-run the worst 2-buffer sparsity point (lowest speedup, the
  // matrix where stall attribution is most interesting) with a sink.
  const int worst = std::ranges::min_element(rows, {}, sp2)->s;
  p.trace("2-buffer HHT run at sparsity " + std::to_string(worst) + "%",
          p.config(2), [&](const harness::SystemConfig& cfg) {
            const auto [m, v] = p.spmvOperands(worst);
            harness::run(cfg, {Kernel::kSpmvVectorHht}, {&m, &v});
          });
}

// Figure 5: HHT speedup over the CPU-only baseline for SpMSpV (sparse
// matrix x sparse vector), 512x512 synthetic matrix, matrix and vector at
// the same sparsity level, 10%..90%.
//
// Four configurations per sparsity, as in the paper:
//   variant-1 (aligned pairs)        x {1, 2} buffers — avg 2.47, rising
//                                      from ~1.48 (10%) to >4.0 (90%)
//   variant-2 (value-or-zero stream) x {1, 2} buffers — avg 3.05
//                                      (2.5..3.52), best at low sparsity
// Crossover: variant-1 overtakes variant-2 above ~80% sparsity.
void fig5(Paper& p) {
  harness::printBanner(std::cout, "Fig. 5",
                       "SpMSpV speedup vs sparsity: variant-1/2 x 1/2 buffers");
  const auto& rows = p.spmspv();
  harness::Table table({"sparsity", "base_cycles", "v1_1buf", "v1_2buf",
                        "v2_1buf", "v2_2buf", "v2_2buf_scalar"});
  double sums[5] = {};
  for (const SpmspvPoint& row : rows) {
    Cells cells = {std::to_string(row.s) + "%", std::to_string(row.base.cycles)};
    for (int i = 0; i < 5; ++i) {
      const double sp =
          harness::speedup(row.base, i < 4 ? row.hht[i] : row.v2_scalar);
      sums[i] += sp;
      cells.push_back(harness::fmt(sp));
    }
    table.addRow(std::move(cells));
  }
  benchutil::printTable(p.opt, table);
  const double count = static_cast<double>(rows.size());
  std::cout << "averages: v1_2buf " << harness::fmt(sums[1] / count)
            << " (paper v1 avg: 2.47), v2_2buf " << harness::fmt(sums[3] / count)
            << " (paper v2 avg: 3.05)\n";
  p.measure("v1 avg speedup 2 buffers", sums[1] / count);
  p.measure("v2 avg speedup 2 buffers", sums[3] / count);
  p.measure("v2 minus v1 avg speedup 2 buffers", (sums[3] - sums[1]) / count);
  // The paper's crossover (v1 overtakes v2 above ~80%) and v1's monotone
  // rise, at the two sparsest points of the sweep (80% and 90%).
  const auto sp = [](const SpmspvPoint& r, int k) {
    return harness::speedup(r.base, r.hht[k]);
  };
  const SpmspvPoint& s80 = rows[rows.size() - 2];
  const SpmspvPoint& s90 = rows.back();
  p.measure("v1 minus v2 speedup 2 buffers at 90%", sp(s90, 1) - sp(s90, 3));
  p.measure("v1 2-buffer speedup 90% minus 80%", sp(s90, 1) - sp(s80, 1));

  // --trace: variant-1 at the lowest sparsity — the configuration where
  // "HHT is performing more work than the CPU" (§5.1) and the CPU-wait
  // attribution matters most.
  const int s = rows.front().s;
  p.trace("variant-1 2-buffer run at sparsity " + std::to_string(s) + "%",
          p.config(2), [&](const harness::SystemConfig& cfg) {
            const auto [m, v] = p.spmspvOperands(s);
            harness::run(cfg, {Kernel::kSpmspvHhtV1}, {.m = &m, .sv = &v});
          });
}

// Figure 6: fraction of execution time the CPU idles waiting for the HHT
// during SpMV, per sparsity level, with 1 and 2 buffers.
//
// Paper reference: "With an ASIC HHT, the application CPU rarely waits" —
// the bars are near zero at every sparsity; this is what lets Fig. 4's
// speedup stay near its ceiling.
void fig6(Paper& p) {
  harness::printBanner(std::cout, "Fig. 6",
                       "CPU wait-cycle fraction for SpMV (512x512, VL=8)");
  const auto& rows = p.spmv();
  // hht_stall = fraction of cycles the *BE* idles on full buffers — the
  // complementary "HHT waiting for CPU" counter of §4.
  const auto stallFrac = [](const harness::RunResult& r) {
    return r.cycles ? static_cast<double>(r.hht_wait_cycles) / r.cycles : 0.0;
  };
  harness::Table table({"sparsity", "wait_1buf", "wait_2buf", "hht_stall_1buf",
                        "hht_stall_2buf"});
  double max_wait = 0.0;
  for (const SpmvPoint& row : rows) {
    table.addRow({std::to_string(row.s) + "%",
                  harness::pct(row.hht1.cpuWaitFraction()),
                  harness::pct(row.hht2.cpuWaitFraction()),
                  harness::pct(stallFrac(row.hht1)),
                  harness::pct(stallFrac(row.hht2))});
    max_wait = std::max({max_wait, row.hht1.cpuWaitFraction(),
                         row.hht2.cpuWaitFraction()});
  }
  benchutil::printTable(p.opt, table);
  std::cout << "paper: CPU wait ~0% at all sparsities (ASIC HHT keeps up)\n";
  p.measure("max CPU wait 1 and 2 buffers", max_wait);

  // --trace: the highest-wait 1-buffer point; the profiler's fifo_wait
  // bucket decomposes exactly the wait fraction this figure plots.
  const int worst = std::ranges::max_element(rows, {}, [](const SpmvPoint& r) {
                      return r.hht1.cpuWaitFraction();
                    })->s;
  p.trace("1-buffer HHT run at sparsity " + std::to_string(worst) + "%",
          p.config(1), [&](const harness::SystemConfig& cfg) {
            const auto [m, v] = p.spmvOperands(worst);
            harness::run(cfg, {Kernel::kSpmvVectorHht}, {&m, &v});
          });
}

// Figure 7: fraction of execution time the CPU idles waiting for the HHT
// during SpMSpV, for variant-1 and variant-2 with 1 and 2 buffers.
//
// Paper reference: variant-1 (HHT does the full merge and supplies aligned
// pairs) leaves the CPU idling for a significant fraction of the run;
// two buffers help only marginally. Variant-2 (value-or-zero stream)
// reduces CPU idle time significantly.
void fig7(Paper& p) {
  harness::printBanner(
      std::cout, "Fig. 7",
      "CPU wait-cycle fraction for SpMSpV: variant-1/2 x 1/2 buffers");
  const auto& rows = p.spmspv();
  const auto v1Wait = [](const SpmspvPoint& r) {
    return r.hht[0].cpuWaitFraction();
  };
  harness::Table table(
      {"sparsity", "v1_1buf", "v1_2buf", "v2_1buf", "v2_2buf"});
  double min_rise = 1.0, min_cut = 1.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    Cells cells = {std::to_string(rows[i].s) + "%"};
    for (const harness::RunResult& r : rows[i].hht) {
      cells.push_back(harness::pct(r.cpuWaitFraction()));
    }
    table.addRow(std::move(cells));
    min_cut = std::min(min_cut,
                       v1Wait(rows[i]) - rows[i].hht[1].cpuWaitFraction());
    if (i > 0) {
      min_rise = std::min(min_rise, v1Wait(rows[i]) - v1Wait(rows[i - 1]));
    }
  }
  benchutil::printTable(p.opt, table);
  std::cout << "paper: variant-1 idles significantly (HHT does the merge);\n"
               "       variant-2 idles far less; 2 buffers help marginally\n";
  p.measure("min rise of v1 1-buffer wait per step", min_rise);
  p.measure("min cut of v1 wait by the 2nd buffer", min_cut);

  // --trace: the highest-wait variant-1 point — the bar this figure is
  // about; the profiler attributes those wait cycles per component.
  const int worst = std::ranges::max_element(rows, {}, v1Wait)->s;
  p.trace("variant-1 1-buffer run at sparsity " + std::to_string(worst) + "%",
          p.config(1), [&](const harness::SystemConfig& cfg) {
            const auto [m, v] = p.spmspvOperands(worst);
            harness::run(cfg, {Kernel::kSpmspvHhtV1}, {.m = &m, .sv = &v});
          });
}

// Figure 8: sensitivity of the HHT's SpMV speedup to the vector width used
// by the RISCV vector instructions: VL in {1 (scalar), 4, 8} on a 512x512
// matrix. Baseline and HHT kernels both use the same width.
//
// Paper reference: speedup stays high at every width —
//   scalar 1.77..1.81, VL=4 1.51..1.62, VL=8 1.71..1.75 —
// showing the double-buffered ASIC HHT meets the CPU's demand rate.
void fig8(Paper& p) {
  harness::printBanner(std::cout, "Fig. 8",
                       "SpMV speedup vs vector width VL in {1,4,8} (512x512)");
  const auto& rows = p.spmv();
  harness::Table table({"sparsity", "VL=1(scalar)", "VL=4", "VL=8"});
  double sums[3] = {};
  for (const SpmvPoint& row : rows) {
    const double sp[3] = {row.narrow[0], row.narrow[1],
                          harness::speedup(row.base, row.hht2)};
    for (int i = 0; i < 3; ++i) sums[i] += sp[i];
    table.addRow({std::to_string(row.s) + "%", harness::fmt(sp[0]),
                  harness::fmt(sp[1]), harness::fmt(sp[2])});
  }
  benchutil::printTable(p.opt, table);
  const double count = static_cast<double>(rows.size());
  std::cout << "averages: scalar " << harness::fmt(sums[0] / count)
            << " (paper 1.77-1.81), VL4 " << harness::fmt(sums[1] / count)
            << " (paper 1.51-1.62), VL8 " << harness::fmt(sums[2] / count)
            << " (paper 1.71-1.75)\n";
  p.measure("avg speedup scalar", sums[0] / count);
  p.measure("avg speedup VL=4", sums[1] / count);
  p.measure("avg speedup VL=8", sums[2] / count);

  // --trace: scalar (VL=1) consumer at the lowest sparsity — the slowest
  // consumer against the densest stream, maximizing FIFO back-pressure.
  const int s = rows.front().s;
  p.trace("VL=1 HHT run at sparsity " + std::to_string(s) + "%", p.config(2, 1),
          [&](const harness::SystemConfig& cfg) {
            const auto [m, v] = p.spmvOperands(s);
            harness::run(cfg, {Kernel::kSpmvScalarHht}, {&m, &v});
          });
}

// Figure 9: HHT speedup on the fully-connected (classifier) layers of
// seven DNNs, SpMV with VL=8, baseline uses vector indexed loads.
//
// Paper reference: 1.53x (DenseNet) .. 1.92x (VGG19); results track the
// synthetic sweeps at the corresponding sparsity/size.
//
// Substitution: seeded random weight matrices at each network's classifier
// shape and sparsity (DESIGN.md #3). Rows are independent in SpMV, so a
// 128-row slice of each layer preserves the cycle ratio while keeping the
// bench fast; pass --size=1000 to simulate the full layers.
void fig9(Paper& p) {
  harness::printBanner(std::cout, "Fig. 9",
                       "SpMV speedup on DNN fully-connected layers (VL=8)");
  const auto catalog = workload::dnnFcCatalog();
  const auto operands = [&](const workload::DnnFcLayer& layer) {
    sim::Rng rng(p.opt.seed ^ 0xD99);
    return std::pair(workload::dnnLayerMatrix(layer, p.opt.seed, p.size(128)),
                     workload::randomDenseVector(rng, layer.in_features));
  };
  struct Row {
    std::string shape;
    harness::RunResult base, hht;
  };
  const auto rows = p.sweep.run(catalog.size(), [&](std::size_t i) {
    const auto [m, v] = operands(catalog[i]);
    const harness::Operands ops{&m, &v};
    return Row{std::to_string(m.numRows()) + "x" + std::to_string(m.numCols()),
               harness::run(p.config(2), {Kernel::kSpmvVectorBaseline}, ops),
               harness::run(p.config(2), {Kernel::kSpmvVectorHht}, ops)};
  });

  harness::Table table({"network", "shape", "sparsity", "base_cycles",
                        "hht_cycles", "speedup", "bar"});
  std::vector<double> sp;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    sp.push_back(harness::speedup(rows[i].base, rows[i].hht));
    table.addRow({catalog[i].network, rows[i].shape,
                  harness::pct(catalog[i].sparsity, 0),
                  std::to_string(rows[i].base.cycles),
                  std::to_string(rows[i].hht.cycles), harness::fmt(sp[i]),
                  harness::bar(sp[i], 2.5)});
  }
  benchutil::printTable(p.opt, table);
  std::cout << "paper: 1.53 (DenseNet) .. 1.92 (VGG19)\n";
  const auto [lo, hi] = std::minmax_element(sp.begin(), sp.end());
  p.measure("min layer speedup", *lo);
  p.measure("max layer speedup", *hi);

  // --trace: the lowest-speedup network layer.
  const workload::DnnFcLayer& worst = catalog[lo - sp.begin()];
  p.trace(std::string("HHT run on ") + worst.network + " classifier",
          p.config(2),
          [&](const harness::SystemConfig& cfg) {
            const auto [m, v] = operands(worst);
            harness::run(cfg, {Kernel::kSpmvVectorHht}, {&m, &v});
          });
}

// Section 5.5: area, power and energy estimates.
//
// Paper reference (16 nm ARM library, 50 MHz):
//   - RISCV(Ibex) core alone: 223 uW; RISCV + HHT: 314 uW
//   - ASIC HHT area = 38.9% of the Ibex core
//   - On 16x16 SpMV tiles across sparsities 10%..90%, the compute/memory
//     overlap shortens runs enough that HHT *saves 19% energy on average*
//     despite the higher power.
//
// We reproduce the computation: simulate baseline and HHT SpMV on 16x16
// matrices per sparsity, convert cycles to energy with the synthesis-
// anchored power model, and report the average saving. Power/area tables
// are printed for all three feature sizes and clocks (DESIGN.md
// substitution #2: constants anchored on the published outputs).
void tabEnergyArea(Paper& p) {
  harness::printBanner(std::cout, "Table (5.5)",
                       "Area, power and energy estimates (synthesis model)");
  const auto anchor = energy::synthesisEstimate(energy::FeatureSize::Nm16, 50.0);

  // --- area breakdown ---
  std::vector<Cells> area;
  double total = 0.0;
  for (const energy::AreaComponent& c : energy::hhtAreaBreakdown()) {
    area.push_back({c.name, harness::fmt(c.um2_16nm, 0)});
    total += c.um2_16nm;
  }
  area.push_back({"TOTAL", harness::fmt(total, 0)});
  p.print({"HHT component", "area @16nm (um^2)"}, area);
  std::cout << "HHT area fraction of Ibex core: "
            << harness::pct(anchor.hhtAreaFraction()) << " (paper: 38.9%)\n\n";
  p.measure("HHT area fraction of Ibex", anchor.hhtAreaFraction());

  // --- power corners ---
  std::vector<Cells> power;
  for (auto f : {energy::FeatureSize::Nm28, energy::FeatureSize::Nm16,
                 energy::FeatureSize::Nm7}) {
    for (double mhz : {10.0, 50.0, 100.0}) {
      const auto est = energy::synthesisEstimate(f, mhz);
      power.push_back({energy::featureSizeName(f), harness::fmt(mhz, 0) + "MHz",
                       harness::fmt(est.core_uW, 1),
                       harness::fmt(est.core_hht_uW, 1)});
    }
  }
  p.print({"feature", "clock", "core uW", "core+HHT uW"}, power);
  std::cout << "anchor (paper): 16nm @50MHz -> core 223uW, core+HHT 314uW\n\n";
  p.measure("core uW at 16nm 50MHz", anchor.core_uW);
  p.measure("core+HHT uW at 16nm 50MHz", anchor.core_hht_uW);

  // --- energy savings for SpMV across sparsities (50 MHz, 16 nm) ---
  //
  // The paper's synthesized datapath handles a 16x16 tile at a time
  // ("bigger matrices can be broken into 16x16 sized matrices"); the
  // energy comparison is over the whole kernel, where the per-tile MMR
  // setup is amortized. We therefore simulate a 256x256 matrix (a 16x16
  // grid of such tiles, long enough to reach steady-state speedup) and
  // also print a single bare 16x16 tile for reference — the unamortized
  // tile is setup-dominated and saves nothing, which is why amortization
  // matters.
  const auto rows = p.sweep.run(9, [&](std::size_t i) {
    const int s = sweepSparsity(i);
    sim::Rng rng(p.opt.seed + static_cast<std::uint64_t>(s) * 13);
    const sim::Index n = p.size(256);
    const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, s / 100.0);
    const sparse::DenseVector v = workload::randomDenseVector(rng, n);
    // A 16x16 tile; below --size=16 the matrix and vector are zero-padded.
    const sparse::CsrMatrix tile = m.extractTile(0, 0, 16, 16);
    std::vector<float> tile_vals(16, 0.0f);
    std::copy_n(v.values().begin(), std::min<sim::Index>(16, n),
                tile_vals.begin());
    const sparse::DenseVector tile_v(std::move(tile_vals));

    harness::SystemConfig cfg = p.config(2);
    cfg.timing.clock_hz = 50e6;  // §5.5 synthesis clock
    const harness::Operands ops{&m, &v};
    const auto base = harness::run(cfg, {Kernel::kSpmvVectorBaseline}, ops);
    const auto hht = harness::run(cfg, {Kernel::kSpmvVectorHht}, ops);
    const auto cmp = energy::compareEnergy(base.cycles, hht.cycles,
                                           energy::FeatureSize::Nm16, 50.0);
    const harness::Operands tile_ops{&tile, &tile_v};
    const auto tile_base =
        harness::run(cfg, {Kernel::kSpmvVectorBaseline}, tile_ops);
    const auto tile_hht = harness::run(cfg, {Kernel::kSpmvVectorHht}, tile_ops);
    const auto tile_cmp = energy::compareEnergy(
        tile_base.cycles, tile_hht.cycles, energy::FeatureSize::Nm16, 50.0);
    return std::pair(
        Cells{std::to_string(s) + "%", std::to_string(base.cycles),
              std::to_string(hht.cycles), harness::fmt(cmp.baseline_uj, 4),
              harness::fmt(cmp.hht_uj, 4), harness::pct(cmp.savings_fraction),
              harness::pct(tile_cmp.savings_fraction)},
        cmp.savings_fraction);
  });

  std::vector<Cells> energy;
  double sum_saving = 0.0;
  for (const auto& [cells, saving] : rows) {
    energy.push_back(cells);
    sum_saving += saving;
  }
  p.print({"sparsity", "base_cycles", "hht_cycles", "base_uJ", "hht_uJ",
           "saving", "single_tile_saving"},
          energy);
  const double saving = sum_saving / static_cast<double>(rows.size());
  std::cout << "average energy saving: " << harness::pct(saving)
            << " (paper: 19% average for SpMV)\n";
  p.measure("avg energy saving", saving);
}

// Ablation: CPU-side buffer count N (the paper fixes N=2; §3.1 notes N is
// a design-time parameter and N>=2 enables prefetch-ahead). We sweep
// N in {1,2,4,8} for SpMV and SpMSpV variant-1 at 50% sparsity.
//
// Expected: SpMV is CPU-bound (the BE keeps up even with one buffer), so
// the curve is flat — consistent with the paper's finding that double
// buffering adds little. Variant-1 is HHT-bound, so extra buffers smooth
// the pair bursts and help until the merge rate saturates.
void ablBuffers(Paper& p) {
  const sim::Index n = p.size(256);
  harness::printBanner(std::cout, "Ablation",
                       "CPU-side buffer count N sweep (256x256, 50% sparsity)");

  sim::Rng rng(p.opt.seed);
  const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, 0.5);
  const sparse::DenseVector dv = workload::randomDenseVector(rng, n);
  const sparse::SparseVector sv = workload::randomSparseVector(rng, n, 0.5);

  const harness::Operands ops{.m = &m, .v = &dv, .sv = &sv};
  const auto spmv_base =
      harness::run(p.config(2), {Kernel::kSpmvVectorBaseline}, ops);
  const auto spmspv_base =
      harness::run(p.config(2), {Kernel::kSpmspvScalarBaseline}, ops);

  const std::uint32_t nbs[4] = {1u, 2u, 4u, 8u};
  p.print({"buffers", "spmv_speedup", "spmv_cpu_wait", "v1_speedup",
           "v1_cpu_wait"},
          p.sweep.run(4, [&](std::size_t i) {
            const harness::SystemConfig cfg = p.config(nbs[i]);
            const auto spmv = harness::run(cfg, {Kernel::kSpmvVectorHht}, ops);
            const auto v1 = harness::run(cfg, {Kernel::kSpmspvHhtV1}, ops);
            return Cells{std::to_string(nbs[i]),
                         harness::fmt(harness::speedup(spmv_base, spmv)),
                         harness::pct(spmv.cpuWaitFraction()),
                         harness::fmt(harness::speedup(spmspv_base, v1)),
                         harness::pct(v1.cpuWaitFraction())};
          }));
}

// Ablation: memory-system parameters the paper holds fixed.
//   (a) SRAM grant bandwidth shared by CPU and HHT (1/2/4 grants per
//       cycle) under CPU-priority vs round-robin arbitration — how much
//       does the HHT's extra traffic interfere with the core?
//   (b) The §3.2 "high-performance processor integration": an L1D cache in
//       front of the memory for the CPU path, the HHT path, or both.
void ablMemory(Paper& p) {
  const sim::Index n = p.size(256);
  harness::printBanner(std::cout, "Ablation",
                       "Memory bandwidth, arbitration and L1D integration");

  sim::Rng rng(p.opt.seed);
  const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, 0.5);
  const sparse::DenseVector v = workload::randomDenseVector(rng, n);
  const harness::Operands ops{&m, &v};

  // (a) 1, 2 and 4 grants, each under CPU-priority then round-robin.
  p.print({"grants/cycle", "policy", "base_cycles", "hht_cycles", "speedup",
           "hht_conflict_cycles"},
          p.sweep.run(6, [&](std::size_t i) {
            const bool rr = i % 2 == 1;
            harness::SystemConfig cfg = p.config(2);
            cfg.memory.grants_per_cycle = 1u << (i / 2);
            cfg.memory.policy = rr ? mem::ArbiterPolicy::RoundRobin
                                   : mem::ArbiterPolicy::CpuPriority;
            const auto base =
                harness::run(cfg, {Kernel::kSpmvVectorBaseline}, ops);
            const auto hht = harness::run(cfg, {Kernel::kSpmvVectorHht}, ops);
            return Cells{
                std::to_string(cfg.memory.grants_per_cycle),
                rr ? "round-robin" : "cpu-priority",
                std::to_string(base.cycles), std::to_string(hht.cycles),
                harness::fmt(harness::speedup(base, hht)),
                std::to_string(hht.stats.value("mem.hht.conflict_cycles"))};
          }));
  std::cout << '\n';

  // (b) An L1D on neither path, the CPU path, the HHT path, both.
  const char* names[4] = {"none (MCU)", "cpu only", "hht only", "cpu+hht"};
  p.print({"L1D config", "base_cycles", "hht_cycles", "speedup",
           "cpu_hit_rate", "hht_hit_rate"},
          p.sweep.run(4, [&](std::size_t i) {
            harness::SystemConfig cfg = p.config(2);
            cfg.memory.cpu_cache_enabled = i % 2 == 1;
            cfg.memory.hht_cache_enabled = i >= 2;
            // High-performance integration (§3.2): the backing RAM sits
            // behind an interconnect (~24 cycles), so an L1D in front of it
            // pays off; in the MCU integration (row "none") the same far
            // RAM is felt directly.
            cfg.memory.sram_latency = 24;
            cfg.memory.cache.miss_penalty = 24;
            const auto base =
                harness::run(cfg, {Kernel::kSpmvVectorBaseline}, ops);
            const auto hht = harness::run(cfg, {Kernel::kSpmvVectorHht}, ops);
            return Cells{names[i], std::to_string(base.cycles),
                         std::to_string(hht.cycles),
                         harness::fmt(harness::speedup(base, hht)),
                         harness::pct(hitRate(hht, "cpu")),
                         harness::pct(hitRate(hht, "hht"))};
          }));
}

// Ablation (§6): programming the HHT to traverse a SMASH-style
// hierarchical-bitmap representation instead of CSR.
//
// The paper implemented this but omitted results for space, noting only
// that "SMASH format requires complicated indexing ... This implies that
// HHT is performing more work than the CPU, causing CPU to idle."
// We quantify exactly that: CSR-gather HHT vs hier-bitmap HHT vs the
// CPU-only CSR baseline, across high sparsities where bitmap formats are
// attractive for storage, plus the storage footprint comparison.
void ablSmash(Paper& p) {
  const sim::Index n = p.size(256);
  harness::printBanner(std::cout, "Ablation (§6)",
                       "HHT on SMASH-style hierarchical bitmaps vs CSR");

  const int sparsities[4] = {70, 90, 95, 99};
  p.print({"sparsity", "base(CSR)", "hht(CSR)", "hht(smash)", "hht(flatbv)",
           "csr_speedup", "smash_speedup", "flatbv_speedup", "csr_bytes",
           "smash_bytes", "flatbv_bytes"},
          p.sweep.run(4, [&](std::size_t idx) {
            const int s = sparsities[idx];
            sim::Rng rng(p.opt.seed + static_cast<std::uint64_t>(s));
            const sparse::DenseMatrix dense =
                workload::randomDense(rng, n, n, s / 100.0);
            const auto csr = sparse::CsrMatrix::fromDense(dense);
            const auto hb = sparse::HierBitmapMatrix::fromDense(dense);
            const auto bv = sparse::BitVectorMatrix::fromDense(dense);
            const sparse::DenseVector v = workload::randomDenseVector(rng, n);

            const harness::SystemConfig cfg = p.config(2);
            const harness::Operands ops{
                .m = &csr, .v = &v, .hier = &hb, .flat = &bv};
            const auto base =
                harness::run(cfg, {Kernel::kSpmvVectorBaseline}, ops);
            const auto hht_csr =
                harness::run(cfg, {Kernel::kSpmvVectorHht}, ops);
            const auto hht_hb =
                harness::run(cfg, {Kernel::kHierBitmapHht}, ops);
            const auto hht_bv =
                harness::run(cfg, {Kernel::kFlatBitmapHht}, ops);
            return Cells{std::to_string(s) + "%", std::to_string(base.cycles),
                         std::to_string(hht_csr.cycles),
                         std::to_string(hht_hb.cycles),
                         std::to_string(hht_bv.cycles),
                         harness::fmt(harness::speedup(base, hht_csr)),
                         harness::fmt(harness::speedup(base, hht_hb)),
                         harness::fmt(harness::speedup(base, hht_bv)),
                         std::to_string(csr.storageBytes()),
                         std::to_string(hb.storageBytes()),
                         std::to_string(bv.storageBytes())};
          }));
  std::cout
      << "paper (§6): the bitmap format makes the HHT-assisted run much\n"
         "slower than CSR mode — reproduced above. In our FE design the\n"
         "cost surfaces as the CPU's per-element VALID handshake (needed\n"
         "because the CPU cannot know per-row counts without walking the\n"
         "bitmaps itself) rather than as CPU idle time; the storage columns\n"
         "show the footprint advantage that motivates SMASH regardless.\n";
}

// Ablation (§7): ASIC HHT vs the programmable HHT the paper proposes in
// its conclusions ("a programmable HHT, using a simple RISCV like core...
// can be designed with very few integer instructions ... consuming less
// energy than a full-fledged primary CPU core").
//
// The programmable device runs the same protocols as firmware on a scalar
// micro-core; flexibility (new sparse formats = new firmware, no new
// silicon) is traded against the metadata-processing rate. This bench
// quantifies that trade for SpMV and both SpMSpV variants.
void ablProgrammable(Paper& p) {
  const sim::Index n = p.size(128);
  harness::printBanner(std::cout, "Ablation (§7)",
                       "dedicated ASIC HHT vs programmable (firmware) HHT");

  const harness::SystemConfig cfg = p.config(2);
  const int sparsities[3] = {30, 60, 90};
  const auto operands = [&](int s) {
    sim::Rng rng(p.opt.seed + static_cast<std::uint64_t>(s));
    sparse::CsrMatrix m = workload::randomCsr(rng, n, n, s / 100.0);
    sparse::DenseVector dv = workload::randomDenseVector(rng, n);
    return std::tuple(std::move(m), std::move(dv),
                      workload::randomSparseVector(rng, n, s / 100.0));
  };
  // One task per table row: SpMV, SpMSpV v1 and v2 at each sparsity.
  const char* kernels[3] = {"SpMV", "SpMSpV v1", "SpMSpV v2"};
  p.print({"kernel", "sparsity", "baseline", "asic_hht", "prog_hht",
           "asic_speedup", "prog_speedup", "prog_cpu_wait"},
          p.sweep.run(9, [&](std::size_t i) {
            const int s = sparsities[i / 3];
            const int variant = static_cast<int>(i % 3);  // 0: SpMV
            const auto [m, dv, sv] = operands(s);
            const harness::Operands ops{.m = &m, .v = &dv, .sv = &sv};
            const Kernel base_kernel = variant == 0
                                           ? Kernel::kSpmvVectorBaseline
                                           : Kernel::kSpmspvScalarBaseline;
            const Kernel hht = variant == 0 ? Kernel::kSpmvVectorHht
                                            : harness::spmspvHht(variant);
            const auto base = harness::run(cfg, {base_kernel}, ops);
            const auto asic = harness::run(cfg, {hht}, ops);
            const auto prog =
                harness::run(cfg, {.kernel = hht, .programmable = true}, ops);
            return Cells{kernels[variant], std::to_string(s) + "%",
                         std::to_string(base.cycles),
                         std::to_string(asic.cycles),
                         std::to_string(prog.cycles),
                         harness::fmt(harness::speedup(base, asic)),
                         harness::fmt(harness::speedup(base, prog)),
                         harness::pct(prog.cpuWaitFraction())};
          }));
  std::cout
      << "finding: at clock/latency parity with the primary core, the\n"
         "firmware metadata walk is strictly slower than the consumer it\n"
         "feeds (prog_speedup < 1, CPU idle 70-93%) — the dedicated\n"
         "pipelines buy the entire Fig. 4/5 win. A viable programmable HHT\n"
         "(§7) therefore needs the specialisation the paper hints at:\n"
         "multi-word fetch, a compare-select step, or a faster clock, not\n"
         "just a smaller general-purpose core.\n";

  // --trace: the programmable-HHT SpMV run at the middle sparsity — the
  // micro_core track shows where the firmware walk burns its cycles.
  const int s = sparsities[1];
  p.trace("programmable-HHT SpMV run at sparsity " + std::to_string(s) + "%",
          cfg, [&](const harness::SystemConfig& tcfg) {
            const auto [m, dv, sv] = operands(s);
            harness::run(tcfg, {Kernel::kSpmvVectorHht, true}, {&m, &dv});
          });
}

// Ablation (§2): HHT vs a traditional stream prefetcher.
//
// The paper motivates the HHT by arguing that indexed vector loads give
// the memory system no look-ahead and that "given the random nature of the
// indices accessed, traditional prefetchers perform poorly". We test that
// claim in the high-performance integration (L1D in front of a ~24-cycle
// RAM): a next-line stream prefetcher recovers the *sequential* misses
// (rows/cols/vals arrays) but cannot anticipate the v[cols[k]] gathers —
// while the HHT removes those accesses from the core altogether.
void ablPrefetch(Paper& p) {
  const sim::Index n = p.size(256);
  harness::printBanner(std::cout, "Ablation (§2)",
                       "stream prefetcher vs HHT (HP integration, far RAM)");

  sim::Rng rng(p.opt.seed);
  const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, 0.5);
  const sparse::DenseVector v = workload::randomDenseVector(rng, n);

  const char* names[4] = {"baseline (L1D)", "baseline + stream prefetcher",
                          "HHT (L1D on both paths)", "HHT + stream prefetcher"};
  const auto runs = p.sweep.run(4, [&](std::size_t i) {
    harness::SystemConfig cfg = p.config(2);
    cfg.memory.sram_latency = 24;
    cfg.memory.cache.miss_penalty = 24;
    cfg.memory.cpu_cache_enabled = true;
    cfg.memory.hht_cache_enabled = i >= 2;
    cfg.memory.prefetch_enabled = i % 2 == 1;
    cfg.memory.prefetch_degree = 2;
    return harness::run(cfg,
                        {i < 2 ? Kernel::kSpmvVectorBaseline
                               : Kernel::kSpmvVectorHht},
                        {&m, &v});
  });

  std::vector<Cells> rows;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    rows.push_back(
        {names[i], std::to_string(runs[i].cycles),
         harness::fmt(harness::speedup(runs[0], runs[i])),
         harness::pct(hitRate(runs[i], "cpu")),
         std::to_string(runs[i].stats.value("mem.cpu.prefetch_fills"))});
  }
  p.print({"configuration", "cycles", "vs_plain_baseline", "cpu_hit_rate",
           "prefetch_fills"},
          rows);
  std::cout << "expected: the prefetcher lifts the baseline's streaming hit\n"
               "rate but leaves the indirect-gather misses; the HHT removes\n"
               "the indirection from the core and wins by more (§2's claim).\n";
  p.measure("HHT minus prefetcher speedup",
            harness::speedup(runs[0], runs[2]) -
                harness::speedup(runs[0], runs[1]));
}

// Ablation: SpMM batch-size sweep.
//
// DNN inference often batches activations (Y = W * B with k columns).
// The HHT is restarted once per column (§5.5's tiling pattern applied to
// the operand instead of the matrix); this bench checks that the per-START
// reconfiguration cost amortises and the SpMV speedup carries over to
// batched workloads.
void ablBatch(Paper& p) {
  const sim::Index n = p.size(128);
  harness::printBanner(std::cout, "Ablation",
                       "SpMM batch-size sweep (128x128 @ 60% sparsity)");

  sim::Rng rng(p.opt.seed);
  const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, 0.6);

  // Operand generation consumes one shared RNG stream, so it stays serial
  // (and cheap); only the simulations fan out across --jobs.
  const std::vector<sim::Index> ks = {1u, 2u, 4u, 8u, 16u};
  std::vector<sparse::DenseMatrix> bs;
  for (sim::Index k : ks) {
    sparse::DenseMatrix b(n, k);
    for (sim::Index i = 0; i < n; ++i) {
      for (sim::Index j = 0; j < k; ++j) {
        b.at(i, j) = workload::drawValue(rng, workload::ValueDist::kSmallIntegers);
      }
    }
    bs.push_back(std::move(b));
  }

  const harness::SystemConfig cfg = p.config(2);
  p.print({"batch k", "base_cycles", "hht_cycles", "speedup",
           "hht_cycles_per_col"},
          p.sweep.run(ks.size(), [&](std::size_t i) {
            const harness::Operands ops{.m = &m, .b = &bs[i]};
            const auto base =
                harness::run(cfg, {Kernel::kSpmmVectorBaseline}, ops).cycles;
            const auto hht =
                harness::run(cfg, {Kernel::kSpmmVectorHht}, ops).cycles;
            const double sp = hht == 0 ? 0.0 : static_cast<double>(base) / hht;
            return Cells{std::to_string(ks[i]), std::to_string(base),
                         std::to_string(hht), harness::fmt(sp),
                         std::to_string(hht / ks[i])};
          }));
  std::cout << "expected: flat speedup and flat per-column cost across k —\n"
               "the per-column START/V_Base reprogram is a handful of stores.\n";
}

struct Section {
  benchutil::Figure figure;
  void (*run)(Paper&);
};

constexpr Section kSections[] = {
    {{"fig4", true}, fig4},
    {{"fig5", true}, fig5},
    {{"fig6", true}, fig6},
    {{"fig7", true}, fig7},
    {{"fig8", true}, fig8},
    {{"fig9", true}, fig9},
    {{"tab_energy_area", false}, tabEnergyArea},
    {{"abl_buffers", false}, ablBuffers},
    {{"abl_memory", false}, ablMemory},
    {{"abl_smash", false}, ablSmash},
    {{"abl_programmable", true}, ablProgrammable},
    {{"abl_prefetch", false}, ablPrefetch},
    {{"abl_batch", false}, ablBatch},
};

/// How a claim judges its measured value.
enum class Check {
  kWithin,    ///< lo <= measured <= hi
  kAbove,     ///< measured > lo
  kDiverges,  ///< a known gap to the paper, pinned on the measured band
              ///< [lo, hi]: closing or widening the gap fails the check
};

struct Claim {
  const char* figure;
  const char* metric;  ///< as recorded by the figure's Paper::measure call
  const char* paper;   ///< what the paper reports
  Check check;
  double lo, hi;
};

// The paper's claims at the default --size and --seed. Where the simulator
// reproduces a claim, the bound is the paper's; where it diverges, the
// bound pins today's measured value (EXPERIMENTS.md explains each gap).
// Fractions, not percent.
constexpr Claim kClaims[] = {
    {"fig4", "avg speedup 2 buffers", "1.73", Check::kWithin, 1.68, 1.78},
    {"fig4", "avg gain of the 2nd buffer", "0.03 (1.70 to 1.73)",
     Check::kDiverges, -0.005, 0.005},
    {"fig5", "v2 minus v1 avg speedup 2 buffers", "0.58 (3.05 vs 2.47)",
     Check::kAbove, 0.0, 0.0},
    {"fig5", "v1 avg speedup 2 buffers", "2.47", Check::kDiverges, 4.19, 4.29},
    {"fig5", "v2 avg speedup 2 buffers", "3.05", Check::kDiverges, 7.52, 7.62},
    {"fig5", "v1 minus v2 speedup 2 buffers at 90%",
     "> 0 (v1 overtakes v2 above ~80%)", Check::kDiverges, -0.013, -0.003},
    {"fig5", "v1 2-buffer speedup 90% minus 80%",
     "> 0 (v1 rises monotonically)", Check::kDiverges, -0.33, -0.31},
    {"fig6", "max CPU wait 1 and 2 buffers", "~0 (CPU rarely waits)",
     Check::kWithin, 0.0, 0.01},
    {"fig7", "min rise of v1 1-buffer wait per step", "v1 idles significantly",
     Check::kAbove, 0.0, 0.0},
    {"fig7", "min cut of v1 wait by the 2nd buffer",
     "2 buffers help marginally", Check::kAbove, 0.0, 0.0},
    {"fig8", "avg speedup VL=8", "1.71-1.75", Check::kWithin, 1.71, 1.75},
    {"fig8", "avg speedup scalar", "1.77-1.81", Check::kDiverges, 1.52, 1.56},
    {"fig8", "avg speedup VL=4", "1.51-1.62", Check::kDiverges, 1.68, 1.72},
    {"fig9", "min layer speedup", "1.53-1.92", Check::kWithin, 1.53, 1.92},
    {"fig9", "max layer speedup", "1.53-1.92", Check::kWithin, 1.53, 1.92},
    {"tab_energy_area", "HHT area fraction of Ibex", "38.9%", Check::kWithin,
     0.3885, 0.3895},
    {"tab_energy_area", "core uW at 16nm 50MHz", "223", Check::kWithin, 222.5,
     223.5},
    {"tab_energy_area", "core+HHT uW at 16nm 50MHz", "314", Check::kWithin,
     313.5, 314.5},
    {"tab_energy_area", "avg energy saving", "19%", Check::kDiverges, 0.167,
     0.177},
    {"abl_prefetch", "HHT minus prefetcher speedup",
     "prefetchers perform poorly", Check::kAbove, 0.0, 0.0},
};

/// Print one PASS/FAIL row per claim of the selected figures; true if
/// none failed.
bool checkClaims(const Paper& p) {
  std::cout << "==============================================================\n"
               "Paper claims: measured values vs the paper\n"
               "==============================================================\n";
  if (p.opt.size != 0 || p.opt.seed != benchutil::Options{}.seed) {
    std::cout << "claims: none checked (they pin the default --size and "
                 "--seed)\n";
    return true;
  }
  std::vector<Cells> rows;
  int failed = 0;
  for (const Claim& c : kClaims) {
    if (!p.opt.selected(c.figure)) continue;
    const auto it = p.values.find(std::string(c.figure) + "/" + c.metric);
    const bool found = it != p.values.end();
    const double v = found ? it->second : 0.0;
    const bool ok = found && (c.check == Check::kAbove
                                  ? v > c.lo
                                  : c.lo <= v && v <= c.hi);
    failed += ok ? 0 : 1;
    const std::string band =
        c.check == Check::kAbove
            ? "> " + harness::fmt(c.lo, 4)
            : harness::fmt(c.lo, 4) + ".." + harness::fmt(c.hi, 4);
    rows.push_back({ok ? "PASS" : "FAIL", c.figure, c.metric,
                    found ? harness::fmt(v, 4) : "missing",
                    c.check == Check::kDiverges ? "diverges " + band : band,
                    c.paper});
  }
  if (rows.empty()) {
    std::cout << "claims: none for the selected figures\n";
    return true;
  }
  p.print({"result", "figure", "metric", "measured", "check", "paper"}, rows);
  std::cout << "claims: " << failed << " of " << rows.size() << " failed\n";
  return failed == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<benchutil::Figure> figures;
  for (const Section& s : kSections) figures.push_back(s.figure);
  const benchutil::Options opt =
      benchutil::parse(argc, argv, /*with_mode=*/false, figures);
  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "paper");

  Paper p(opt);
  for (const Section& s : kSections) {
    if (!opt.selected(s.figure.name)) continue;
    p.figure = s.figure.name;
    s.run(p);
  }
  return checkClaims(p) ? 0 : 1;
}
