// Simulator-throughput benchmark: how fast does the *host* simulate?
//
// The run loop's two modes over the same workload set:
//   naive: every-cycle reference schedule (host_fastforward off)
//   event: event-scheduled calendar schedule (host_fastforward on)
// Both passes must produce bit-identical simulation results (final cycles,
// wait counters, every stat, the output vector); the binary exits non-zero
// on any mismatch, so the throughput numbers can never come from a
// simulator that cheated. By default both modes run and two gates hold:
// event >= naive on aggregate Mcycles/s (chain_ok), and event >= 10x naive
// on the deep-stall HHT item (deep_hht_ok), whose stalls sit in a live
// engine and the CPU's refused FIFO reads (--mode=X restricts to one pass
// for profiling; --repeat=N takes the minimum wall time of N samples per
// pass).
//
// The workload set spans three host-cost regimes, so the aggregate rewards
// a loop that is fast where skipping is impossible AND where it is easy:
//   busy:        Fig. 4 SpMV set on a 1-cycle SRAM — some component has
//                work almost every cycle; skip-hostile.
//   short-stall: scalar baseline on a 6-cycle SRAM — every load opens a
//                4-6 cycle hole that only per-component event scheduling
//                recovers.
//   deep-stall:  scalar baseline and HHT SpMV on a 2048-cycle SRAM — long
//                stalls the event schedule must jump.
//
// Output: a human table (or --csv) plus BENCH_sim_throughput.json in the
// current directory, including a per-matrix wall-time breakdown for every
// mode. CI gates on `in_binary_speedup` (event vs naive in the same
// binary — machine-independent enough to compare across runners) against
// bench/sim_throughput_baseline.json.
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "workload/synthetic.h"

namespace {

using namespace hht;

enum ModeIdx { kNaive = 0, kEvent = 1, kNumModes = 2 };
constexpr const char* kModeNames[kNumModes] = {"naive", "event"};

/// One matrix x kernel point. `kind` selects the runner; `cfg` carries the
/// regime's memory latency (mode knobs are overwritten per pass).
struct Work {
  const char* regime;
  const char* kind;
  int s = 0;  ///< fill percentage
  harness::SystemConfig cfg;
  sparse::CsrMatrix m;
  sparse::DenseVector v;
};

harness::RunResult runWork(const Work& w, ModeIdx mode) {
  harness::SystemConfig cfg = w.cfg;
  cfg.host_fastforward = mode == kEvent;
  if (std::strcmp(w.kind, "baseline_scalar") == 0) {
    return harness::runSpmvBaseline(cfg, w.m, w.v, /*vectorized=*/false);
  }
  if (std::strcmp(w.kind, "baseline_vec") == 0) {
    return harness::runSpmvBaseline(cfg, w.m, w.v, /*vectorized=*/true);
  }
  return harness::runSpmvHht(cfg, w.m, w.v, /*vectorized=*/true);
}

bool sameResult(const harness::RunResult& a, const harness::RunResult& b,
                const Work& w, const char* mode) {
  const auto fail = [&](const char* field) {
    std::cerr << "MISMATCH [" << mode << " vs naive: " << w.regime << "/"
              << w.kind << " @" << w.s << "%] field " << field << "\n";
    return false;
  };
  if (a.cycles != b.cycles) return fail("cycles");
  if (a.retired != b.retired) return fail("retired");
  if (a.cpu_wait_cycles != b.cpu_wait_cycles) return fail("cpu_wait_cycles");
  if (a.hht_wait_cycles != b.hht_wait_cycles) return fail("hht_wait_cycles");
  if (a.hht_residual_busy != b.hht_residual_busy) {
    return fail("hht_residual_busy");
  }
  if (a.stats.all() != b.stats.all()) return fail("stats");
  const auto& ya = a.y.values();
  const auto& yb = b.y.values();
  if (ya.size() != yb.size() ||
      (ya.size() != 0 &&
       std::memcmp(ya.data(), yb.data(), ya.size() * sizeof(float)) != 0)) {
    return fail("y");
  }
  return true;
}

struct Pass {
  bool ran = false;
  std::vector<harness::RunResult> results;
  std::vector<double> item_s;  ///< min-of-N wall per work item
  double wall_s = 0.0;         ///< min-of-N wall for the whole pass
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hht;
  using Clock = std::chrono::steady_clock;
  const benchutil::Options opt =
      benchutil::parse(argc, argv, /*with_mode=*/true);
  if (!opt.fastforward) {
    benchutil::usage(argv[0],
                     "--no-fastforward is not meaningful here; use "
                     "--mode=naive for the per-cycle reference pass",
                     /*with_mode=*/true);
  }
  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "sim_throughput");
  const sim::Index n = opt.size ? opt.size : 512;
  const sim::Index n_stall = n / 2;

  harness::printBanner(
      std::cout, "Throughput",
      "host simulation rate: busy / short-stall / deep-stall SpMV regimes");

  std::vector<Work> works;
  const auto add = [&](const char* regime, const char* kind, int s,
                       sim::Index dim, sim::Cycle sram_latency,
                       std::uint32_t buffers) {
    Work w;
    w.regime = regime;
    w.kind = kind;
    w.s = s;
    w.cfg = harness::defaultConfig(buffers);
    w.cfg.memory.sram_latency = sram_latency;
    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(s) +
                 1000 * sram_latency);
    w.m = workload::randomCsr(rng, dim, dim, s / 100.0);
    w.v = workload::randomDenseVector(rng, dim);
    works.push_back(std::move(w));
  };
  // busy: the Fig. 4 set — 9 sparsities x {vector baseline, 1/2-buffer
  // HHT} on the default 1-cycle SRAM.
  for (int s = 10; s <= 90; s += 10) {
    add("busy", "baseline_vec", s, n, 1, 2);
    add("busy", "hht_1buf", s, n, 1, 1);
    add("busy", "hht_2buf", s, n, 1, 2);
  }
  // short-stall: every scalar load opens a 4-6 cycle hole.
  for (int s = 10; s <= 90; s += 10) {
    add("short_stall", "baseline_scalar", s, n, 6, 2);
  }
  // deep-stall: 2048-cycle loads; the event schedule must jump the holes
  // or drown.
  add("deep_stall", "baseline_scalar", 30, n_stall, 2048, 2);
  add("deep_stall", "baseline_scalar", 70, n_stall, 2048, 2);
  add("deep_stall", "hht_2buf", 50, n_stall, 2048, 2);

  const unsigned jobs =
      opt.jobs == 0 ? harness::SweepRunner::defaultJobs() : opt.jobs;
  const auto runPass = [&](ModeIdx mode) {
    Pass pass;
    pass.ran = true;
    pass.item_s.assign(works.size(), 0.0);
    for (unsigned r = 0; r < opt.repeat; ++r) {
      std::vector<double> item_s(works.size(), 0.0);
      harness::SweepRunner sweep(jobs);
      const auto t0 = Clock::now();
      auto results = sweep.run(works.size(), [&](std::size_t i) {
        const auto w0 = Clock::now();
        harness::RunResult res = runWork(works[i], mode);
        item_s[i] = std::chrono::duration<double>(Clock::now() - w0).count();
        return res;
      });
      const double wall =
          std::chrono::duration<double>(Clock::now() - t0).count();
      if (r == 0 || wall < pass.wall_s) {
        pass.wall_s = wall;
        pass.item_s = std::move(item_s);
      }
      if (r == 0) pass.results = std::move(results);
    }
    return pass;
  };

  std::array<Pass, kNumModes> passes;
  const auto wantMode = [&](ModeIdx m) {
    return opt.mode == benchutil::RunMode::kAll ||
           (opt.mode == benchutil::RunMode::kNaive) == (m == kNaive);
  };
  for (int m = 0; m < kNumModes; ++m) {
    if (wantMode(static_cast<ModeIdx>(m))) {
      passes[m] = runPass(static_cast<ModeIdx>(m));
    }
  }

  // Bit-identity: the event pass must match the reference pass on every
  // run surface (only checkable when both ran).
  const bool identity_checked = passes[kNaive].ran && passes[kEvent].ran;
  bool identical = true;
  for (std::size_t i = 0; identity_checked && i < works.size(); ++i) {
    identical &= sameResult(passes[kEvent].results[i],
                            passes[kNaive].results[i], works[i], "event");
  }
  if (!identical) {
    std::cerr << "sim_throughput: accelerated pass diverged from the naive "
                 "loop\n";
    return 1;
  }

  std::uint64_t total_cycles = 0;
  const Pass& any = passes[kNaive].ran ? passes[kNaive] : passes[kEvent];
  std::vector<std::uint64_t> item_cycles(works.size(), 0);
  for (std::size_t i = 0; i < works.size(); ++i) {
    item_cycles[i] = any.results[i].cycles;
    total_cycles += item_cycles[i];
  }

  const auto mcps = [&](const Pass& p) {
    return p.wall_s > 0.0 ? total_cycles / p.wall_s / 1e6 : 0.0;
  };

  harness::Table table({"pass", "wall_s", "Mcycles/s", "vs_prev"});
  double prev_mcps = 0.0;
  bool chain_ok = true;
  for (int m = 0; m < kNumModes; ++m) {
    if (!passes[m].ran) continue;
    const double cur = mcps(passes[m]);
    const double ratio = prev_mcps > 0.0 ? cur / prev_mcps : 1.0;
    if (prev_mcps > 0.0 && ratio < 1.0) chain_ok = false;
    std::string name = kModeNames[m];
    if (m == kNaive) name += " (per-cycle reference)";
    if (m == kEvent) name += " (event calendar)";
    table.addRow({name, harness::fmt(passes[m].wall_s, 3),
                  harness::fmt(cur, 2),
                  prev_mcps > 0.0 ? harness::fmt(ratio) : std::string("-")});
    prev_mcps = cur;
  }
  benchutil::printTable(opt, table);
  std::cout << "simulated " << total_cycles << " cycles per pass ("
            << works.size() << " matrices, " << jobs << " jobs, min of "
            << opt.repeat << " sample" << (opt.repeat == 1 ? "" : "s") << ")"
            << (opt.mode == benchutil::RunMode::kAll
                    ? "; results bit-identical across passes\n"
                    : "\n");

  // Per-regime summary: where each loop earns (or pays for) its keep.
  if (opt.mode == benchutil::RunMode::kAll) {
    harness::Table regimes({"regime", "cycles", "naive_s", "event_s"});
    const char* kRegimes[3] = {"busy", "short_stall", "deep_stall"};
    for (const char* reg : kRegimes) {
      std::uint64_t c = 0;
      double w[kNumModes] = {};
      for (std::size_t i = 0; i < works.size(); ++i) {
        if (std::strcmp(works[i].regime, reg) != 0) continue;
        c += item_cycles[i];
        for (int m = 0; m < kNumModes; ++m) w[m] += passes[m].item_s[i];
      }
      regimes.addRow({reg, std::to_string(c), harness::fmt(w[kNaive], 3),
                      harness::fmt(w[kEvent], 3)});
    }
    benchutil::printTable(opt, regimes);
  }

  // Per-item gate: the event loop must sleep through the deep-stall HHT
  // run's memory waits (live engine, refused FIFO reads), not tick them.
  constexpr double kDeepHhtFloor = 10.0;
  double deep_hht_speedup = 0.0;
  for (std::size_t i = 0; identity_checked && i < works.size(); ++i) {
    if (std::strcmp(works[i].regime, "deep_stall") == 0 &&
        std::strcmp(works[i].kind, "hht_2buf") == 0 &&
        passes[kEvent].item_s[i] > 0.0) {
      deep_hht_speedup = passes[kNaive].item_s[i] / passes[kEvent].item_s[i];
    }
  }
  const bool deep_hht_ok =
      !identity_checked || deep_hht_speedup >= kDeepHhtFloor;
  if (identity_checked) {
    std::cout << "deep-stall hht_2buf: event " << harness::fmt(deep_hht_speedup)
              << "x naive (floor " << harness::fmt(kDeepHhtFloor) << "x)\n";
  }

  std::FILE* f = std::fopen("BENCH_sim_throughput.json", "w");
  if (f == nullptr) {
    std::cerr << "cannot write BENCH_sim_throughput.json\n";
    return 1;
  }
  const char* mode_str =
      opt.mode == benchutil::RunMode::kAll
          ? "all"
          : kModeNames[opt.mode == benchutil::RunMode::kNaive ? kNaive
                                                              : kEvent];
  std::fprintf(f,
               "{\n"
               "  \"workload\": \"spmv_busy_shortstall_deepstall\",\n"
               "  \"size\": %u,\n"
               "  \"seed\": %llu,\n"
               "  \"jobs\": %u,\n"
               "  \"mode\": \"%s\",\n"
               "  \"repeat\": %u,\n"
               "  \"simulated_cycles\": %llu,\n",
               static_cast<unsigned>(n),
               static_cast<unsigned long long>(opt.seed), jobs, mode_str,
               opt.repeat, static_cast<unsigned long long>(total_cycles));
  for (int m = 0; m < kNumModes; ++m) {
    if (!passes[m].ran) continue;
    std::fprintf(f, "  \"%s\": {\"wall_s\": %.6f, \"mcycles_per_s\": %.3f},\n",
                 kModeNames[m], passes[m].wall_s, mcps(passes[m]));
  }
  const double headline = mcps(passes[kEvent].ran ? passes[kEvent] : any);
  const double in_binary_speedup =
      identity_checked ? mcps(passes[kEvent]) / mcps(passes[kNaive]) : 0.0;
  std::fprintf(f, "  \"matrices\": [\n");
  for (std::size_t i = 0; i < works.size(); ++i) {
    std::fprintf(f,
                 "    {\"regime\": \"%s\", \"kind\": \"%s\", \"fill_pct\": "
                 "%d, \"cycles\": %llu",
                 works[i].regime, works[i].kind, works[i].s,
                 static_cast<unsigned long long>(item_cycles[i]));
    for (int m = 0; m < kNumModes; ++m) {
      if (!passes[m].ran) continue;
      std::fprintf(f, ", \"%s_s\": %.6f", kModeNames[m],
                   passes[m].item_s[i]);
    }
    std::fprintf(f, "}%s\n", i + 1 < works.size() ? "," : "");
  }
  // bit_identical reports whether the cross-pass comparison actually ran
  // (it exits above on mismatch): false here only means a --mode run had
  // nothing to compare against.
  std::fprintf(f,
               "  ],\n"
               "  \"headline_mcycles_per_s\": %.3f,\n"
               "  \"in_binary_speedup\": %.3f,\n"
               "  \"deep_hht_speedup\": %.3f,\n"
               "  \"chain_ok\": %s,\n"
               "  \"deep_hht_ok\": %s,\n"
               "  \"bit_identical\": %s\n"
               "}\n",
               headline, in_binary_speedup, deep_hht_speedup,
               chain_ok ? "true" : "false", deep_hht_ok ? "true" : "false",
               identity_checked ? "true" : "false");
  std::fclose(f);
  std::cout << "wrote BENCH_sim_throughput.json\n";

  if (opt.mode == benchutil::RunMode::kAll && !chain_ok) {
    std::cerr << "sim_throughput: the event mode must be >= 1.0x the naive "
                 "mode on aggregate Mcycles/s\n";
    return 1;
  }
  if (!deep_hht_ok) {
    std::cerr << "sim_throughput: the event mode must be >= "
              << harness::fmt(kDeepHhtFloor)
              << "x the naive mode on the deep-stall hht_2buf item\n";
    return 1;
  }
  return 0;
}
