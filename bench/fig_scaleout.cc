// Multi-tile scale-out: sharded SpMV across the N {CPU+HHT} tiles of a
// harness::System (DESIGN.md §13) under three memory topologies
// (DESIGN.md §17):
//   flat  — one shared SRAM behind the round-robin arbiter (the seed
//           configuration; 1..16 tiles);
//   l1    — flat shared level plus a per-tile L1 and the HHT stride
//           prefetcher (8 and 16 tiles);
//   l1ch  — per-tile L1s plus a shared level split into 4 independent
//           address-interleaved channels (8 and 16 tiles).
// The row-disjoint shards make every (topology, tile-count) point produce
// the byte-identical output vector; this bench measures what sharing the
// memory system costs and what the hierarchy buys back.
//
// Checks (exit 1 on violation):
//   - every point's y is bit-identical to the 1-tile flat y;
//   - flat cycles are monotonically non-increasing from 1 to 4 tiles
//     (round-robin fairness must not let added tiles slow the run down);
//   - the hierarchy pays for itself: on every matrix, 16-tile l1ch beats
//     the 8-tile flat baseline by at least 1.5x.
//
// Output: a table (or --csv) plus BENCH_scaleout.json in the current
// directory (CI uploads it from the scale-out smoke job).
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

int main(int argc, char** argv) {
  using namespace hht;
  const benchutil::Options opt = benchutil::parse(argc, argv);
  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "fig_scaleout");
  const sim::Index n = opt.size ? opt.size : 256;

  harness::printBanner(
      std::cout, "Scale-out",
      "sharded SpMV on N x {CPU+HHT} tiles: flat vs per-tile-L1 vs "
      "L1+4-channel topologies");

  const int sparsities[] = {10, 50, 90};

  // The ablation grid: flat at every tile count, the hierarchical
  // topologies where the flat arbiter saturates.
  struct GridPoint {
    const char* topo;
    std::uint32_t tiles;
  };
  const GridPoint grid[] = {
      {"flat", 1}, {"flat", 2}, {"flat", 4}, {"flat", 8}, {"flat", 16},
      {"l1", 8},   {"l1", 16},  {"l1ch", 8}, {"l1ch", 16},
  };
  constexpr std::size_t kGridPoints = std::size(grid);

  auto config = [&](const char* topo) {
    harness::SystemConfig cfg = harness::defaultConfig(2);
    cfg.memory.policy = mem::ArbiterPolicy::RoundRobin;
    cfg.host_fastforward = opt.fastforward;
    if (std::strcmp(topo, "flat") != 0) {
      mem::TopologyConfig& t = cfg.memory.topology;
      t.tile_l1_enabled = true;
      t.tile_l1.size_bytes = 4096;
      t.tile_l1.line_bytes = 32;
      t.tile_l1.ways = 4;
      t.tile_l1.hit_latency = 1;
      t.tile_l1.miss_penalty = 2;
      t.hht_prefetch_enabled = true;
      if (std::strcmp(topo, "l1ch") == 0) {
        t.channels = 4;
        t.interleave_bytes = 256;
      }
    }
    return cfg;
  };

  struct Point {
    const char* topo = "flat";
    std::uint32_t tiles = 0;
    std::uint64_t cycles = 0;
    double speedup = 1.0;            ///< 1-tile flat cycles / this run
    bool identical = true;           ///< y bit-identical to the 1-tile run
    std::vector<double> tile_share;  ///< fraction of shared grants per tile
  };
  struct Row {
    int s = 0;
    std::array<Point, kGridPoints> points;
  };

  // Rows (matrices) are independent simulations; grid points within a row
  // share the 1-tile reference output and run serially.
  harness::SweepRunner sweep(opt.jobs);
  const auto rows = sweep.run(std::size(sparsities), [&](std::size_t i) {
    Row row;
    row.s = sparsities[i];
    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(row.s));
    const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, row.s / 100.0);
    const sparse::DenseVector v = workload::randomDenseVector(rng, n);

    std::vector<float> ref_y;
    for (std::size_t p = 0; p < kGridPoints; ++p) {
      const GridPoint g = grid[p];
      const harness::RunResult r = harness::runSpmvHhtSharded(
          config(g.topo), g.tiles, harness::Partition::NnzBalanced, m, v,
          true);
      Point& pt = row.points[p];
      pt.topo = g.topo;
      pt.tiles = g.tiles;
      pt.cycles = r.cycles;
      if (p == 0) {
        ref_y = r.y.values();
      }
      pt.speedup = r.cycles == 0
                       ? 0.0
                       : static_cast<double>(row.points[0].cycles) /
                             static_cast<double>(r.cycles);
      const auto& y = r.y.values();
      pt.identical =
          y.size() == ref_y.size() &&
          (y.empty() || std::memcmp(y.data(), ref_y.data(),
                                    y.size() * sizeof(float)) == 0);
      const double total =
          static_cast<double>(r.stats.value("mem.grants"));
      for (std::uint32_t t = 0; t < g.tiles; ++t) {
        const std::string prefix =
            t == 0 ? "mem." : "mem.t" + std::to_string(t) + ".";
        const double tile_grants =
            static_cast<double>(r.stats.value(prefix + "cpu.grants") +
                                r.stats.value(prefix + "hht.grants"));
        pt.tile_share.push_back(total == 0.0 ? 0.0 : tile_grants / total);
      }
    }
    return row;
  });

  harness::Table table({"sparsity", "topology", "tiles", "cycles", "speedup",
                        "bit_identical", "grant_shares"});
  bool all_identical = true;
  bool monotonic = true;
  bool hier_gate = true;
  double hier16_speedup_min = 0.0;
  for (const Row& row : rows) {
    std::uint64_t flat8 = 0, l1ch16 = 0;
    for (std::size_t p = 0; p < kGridPoints; ++p) {
      const Point& pt = row.points[p];
      std::string shares;
      for (std::size_t t = 0; t < pt.tile_share.size(); ++t) {
        shares += (t == 0 ? "" : "/") + harness::fmt(pt.tile_share[t]);
      }
      table.addRow({std::to_string(row.s) + "%", pt.topo,
                    std::to_string(pt.tiles), std::to_string(pt.cycles),
                    harness::fmt(pt.speedup), pt.identical ? "yes" : "NO",
                    shares});
      all_identical = all_identical && pt.identical;
      // The flat claim covers 1 -> 2 -> 4; 8 and 16 flat tiles saturate
      // the shared SRAM and are reported but not gated.
      if (std::strcmp(pt.topo, "flat") == 0 && p > 0 && pt.tiles <= 4) {
        monotonic =
            monotonic && pt.cycles <= row.points[p - 1].cycles;
      }
      if (std::strcmp(pt.topo, "flat") == 0 && pt.tiles == 8) {
        flat8 = pt.cycles;
      }
      if (std::strcmp(pt.topo, "l1ch") == 0 && pt.tiles == 16) {
        l1ch16 = pt.cycles;
      }
    }
    const double hier16_speedup =
        l1ch16 == 0 ? 0.0
                    : static_cast<double>(flat8) / static_cast<double>(l1ch16);
    if (hier16_speedup_min == 0.0 || hier16_speedup < hier16_speedup_min) {
      hier16_speedup_min = hier16_speedup;
    }
    hier_gate = hier_gate && hier16_speedup >= 1.5;
  }

  benchutil::printTable(opt, table);
  std::cout << "bit-identity vs 1 tile: " << (all_identical ? "PASS" : "FAIL")
            << "; flat cycles monotonically non-increasing 1->4 tiles: "
            << (monotonic ? "PASS" : "FAIL")
            << "; 16-tile L1+channels >= 1.5x over 8-tile flat: "
            << (hier_gate ? "PASS" : "FAIL") << " (min "
            << harness::fmt(hier16_speedup_min) << "x)\n";

  std::FILE* f = std::fopen("BENCH_scaleout.json", "w");
  if (f == nullptr) {
    std::cerr << "cannot write BENCH_scaleout.json\n";
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"workload\": \"spmv_scaleout\",\n"
               "  \"size\": %u,\n"
               "  \"seed\": %llu,\n"
               "  \"policy\": \"round_robin\",\n"
               "  \"partition\": \"nnz_balanced\",\n"
               "  \"topologies\": [\"flat\", \"l1\", \"l1ch\"],\n"
               "  \"matrices\": [\n",
               static_cast<unsigned>(n),
               static_cast<unsigned long long>(opt.seed));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(f, "    {\"sparsity\": %d, \"results\": [\n", row.s);
    for (std::size_t p = 0; p < kGridPoints; ++p) {
      const Point& pt = row.points[p];
      std::string shares;
      for (std::size_t t = 0; t < pt.tile_share.size(); ++t) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s%.4f", t == 0 ? "" : ", ",
                      pt.tile_share[t]);
        shares += buf;
      }
      std::fprintf(f,
                   "      {\"topology\": \"%s\", \"tiles\": %u, "
                   "\"cycles\": %llu, \"speedup\": %.4f, "
                   "\"bit_identical\": %s, \"grant_shares\": [%s]}%s\n",
                   pt.topo, pt.tiles,
                   static_cast<unsigned long long>(pt.cycles), pt.speedup,
                   pt.identical ? "true" : "false", shares.c_str(),
                   p + 1 < kGridPoints ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"bit_identical\": %s,\n"
               "  \"monotonic_1_to_4\": %s,\n"
               "  \"hier16_speedup_min\": %.4f,\n"
               "  \"hier16_gate\": %s\n"
               "}\n",
               all_identical ? "true" : "false", monotonic ? "true" : "false",
               hier16_speedup_min, hier_gate ? "true" : "false");
  std::fclose(f);
  std::cout << "wrote BENCH_scaleout.json\n";

  return all_identical && monotonic && hier_gate ? 0 : 1;
}
