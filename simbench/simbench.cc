// simbench: the repository benchmark. Times the simulator end to end on four
// workloads, checks every output against the sparse:: reference, and in a
// separate traced mode splits host time across the simulator's layers.
//
//   simbench [--workload all|fig_busy|stall_skip|tiles16_skew|serve_small]
//            [--seed N] [--seconds S] [--trace 0|1]
//
// Each workload builds its inputs from --seed (set-up, repeated and timed),
// then runs its fixed set of simulations ("a pass") again and again until
// --seconds have elapsed; every simulation (or serving batch) keeps its
// fastest time over the passes, and a pass's time is their sum. The last
// line of stdout is one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Human-readable tables and one "detail {...}" line per workload
// precede it. Traced runs write their spans under .bench_out/.
// Exit status: 0 when every output matched, 1 on any mismatch or simulator
// error, 2 on a usage error. See simbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "harness/experiment.h"
#include "harness/multi_tile.h"
#include "harness/system.h"
#include "kernels/kernels.h"
#include "serve/request.h"
#include "serve/server.h"
#include "sim/error.h"
#include "sparse/reference.h"
#include "trace.h"
#include "workload/partition.h"
#include "workload/synthetic.h"

namespace {

using namespace hht;
using simbench::nowNs;
using simbench::Tracer;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kSetupRepeats = 5;
constexpr double kPaperHhtSpeedup = 1.73;  // Fig. 4 SpMV average

// --- options ---------------------------------------------------------------

const char* const kWorkloads[] = {"fig_busy", "stall_skip", "tiles16_skew",
                                  "serve_small"};

struct Options {
  std::string workload = "all";
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
};

/// Where traced runs write their spans, relative to the working directory.
constexpr const char* kSpansDir = ".bench_out";

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench [--workload all|fig_busy|"
               "stall_skip|tiles16_skew|serve_small] [--seed N] [--seconds S]"
               " [--trace 0|1]\n",
               why);
  std::exit(2);
}

Options parseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (arg == "--workload") {
        opt.workload = value;
        used = value.size();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value, &used);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value, &used);
        if (opt.seconds < 0.0) usage("--seconds must be >= 0");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
        used = 1;
      } else {
        usage(("unknown option " + arg).c_str());
      }
      if (used != value.size()) throw std::invalid_argument(value);
    } catch (const std::logic_error&) {
      usage(("bad value '" + value + "' for " + arg).c_str());
    }
  }
  if (opt.workload != "all" &&
      std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* w) { return opt.workload == w; }) ==
          std::end(kWorkloads)) {
    usage(("unknown workload " + opt.workload).c_str());
  }
  return opt;
}

// --- small helpers -----------------------------------------------------------

/// Independent generator stream `stream` of benchmark seed `seed`.
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream;
}

std::uint64_t fnvMix(std::uint64_t h, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (v >> shift) & 0xFFu;
    h *= 0x100000001B3ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

double minimum(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double seconds(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool sameY(const sparse::DenseVector& got, const std::vector<float>& want) {
  const std::vector<float>& y = got.values();
  return y.size() == want.size() &&
         (y.empty() ||
          std::memcmp(y.data(), want.data(), y.size() * sizeof(float)) == 0);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- simulated counters ----------------------------------------------------

/// Per-tile counters: tile 0 is unprefixed, tile t>0 is "t<t>.<name>".
const char* const kTileCounters[] = {
    "cpu.retired", "cpu.load_stall_cycles", "hht.cpu_wait_cycles",
    "hht.stall_buffers_full", "hht.elements_delivered"};
/// Machine-wide counters.
const char* const kSharedCounters[] = {
    "mem.grants",         "mem.l1.hits",        "mem.l1.misses",
    "hht.prefetch.useful", "hht.prefetch.issued", "mem.wq.steals",
    "mem.wq.conflict_cycles"};

/// Strip a "t<digits>." tile prefix; returns the name unchanged otherwise.
std::string_view untiled(std::string_view name) {
  if (name.size() < 3 || name[0] != 't') return name;
  std::size_t i = 1;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') ++i;
  if (i == 1 || i >= name.size() || name[i] != '.') return name;
  return name.substr(i + 1);
}

using Counters = std::map<std::string, std::uint64_t>;

void addCounters(Counters& acc, const sim::StatSet& stats) {
  for (const auto& [name, value] : stats.all()) {
    const std::string_view base = untiled(name);
    for (const char* c : kTileCounters) {
      if (base == c) acc[c] += value;
    }
    for (const char* c : kSharedCounters) {
      if (name == c) acc[c] += value;
    }
    // Arbiter conflicts summed over requesters: mem.[t<N>.]{cpu,hht}.*
    if (name.rfind("mem.", 0) == 0) {
      const std::string_view who = untiled(std::string_view(name).substr(4));
      if (who == "cpu.conflict_cycles" || who == "hht.conflict_cycles") {
        acc["mem.conflict_cycles"] += value;
      }
    }
  }
}

// --- metric reporting --------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

struct Report {
  std::string workload;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;   // traced runs only
  std::vector<Metric> layer_notes; // traced, printed but not in the JSON line
  std::vector<Metric> sim;         // deterministic simulated results
  Counters counters;               // deterministic per-pass counters
  std::uint64_t inputs_hash = 0;
  std::uint64_t passes = 0;
  std::vector<double> pass_wall_s;  ///< untraced passes, in run order
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void printTable(const char* title, const std::vector<Metric>& ms) {
  if (ms.empty()) return;
  std::printf("  %s\n", title);
  for (const Metric& m : ms) {
    char val[32];
    std::snprintf(val, sizeof val, "%.6g", m.value);
    std::printf("    %-26s %14s %-10s %s\n", m.name.c_str(), val,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string jsonMetrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
         num(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

void printReport(const Report& r, const Options& opt) {
  std::printf("== %s (seed %llu, %llu passes%s)\n", r.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(r.passes),
              opt.trace ? ", traced" : "");
  printTable("end to end (each simulation or batch at its fastest pass)",
             r.end_to_end);
  printTable("simulated (deterministic)", r.sim);
  printTable("per layer (traced passes)", r.per_layer);
  printTable("per layer, this workload only", r.layer_notes);
  for (const std::string& n : r.notes) std::printf("  note: %s\n", n.c_str());
  // Machine-readable detail for the benchmark's own tests.
  std::string counters = "{";
  for (const auto& [name, v] : r.counters) {
    counters += (counters.size() > 1 ? ", \"" : "\"") + name +
                "\": " + std::to_string(v);
  }
  counters += "}";
  std::string walls = "[";
  for (const double w : r.pass_wall_s) {
    walls += (walls.size() > 1 ? ", " : "") + num(w);
  }
  walls += "]";
  char hash[24];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(r.inputs_hash));
  std::printf(
      "detail {\"workload\": \"%s\", \"trace\": %d, \"inputs_hash\": \"%s\", "
      "\"passes\": %llu, \"pass_wall_s\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"sim\": %s, \"counters\": %s, \"end_to_end\": %s, "
      "\"per_layer\": %s}\n",
      r.workload.c_str(), opt.trace ? 1 : 0, hash,
      static_cast<unsigned long long>(r.passes), walls.c_str(),
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), jsonMetrics(r.sim).c_str(),
      counters.c_str(), jsonMetrics(r.end_to_end).c_str(),
      jsonMetrics(r.per_layer).c_str());
  std::fflush(stdout);
}

// --- tracing phases ----------------------------------------------------------

/// One tracer per phase, so per-layer figures come from the phase that
/// does the work: set-up (generators, references), the traced passes, and
/// the serving replay.
struct Tracers {
  explicit Tracers(bool on) : setup(on), pass(false), replay(on) {}
  Tracer setup;
  Tracer pass;    ///< enabled only for the traced passes
  Tracer replay;  ///< serve_small's per-attempt replay
};

bool writeSpans(const Tracers& t, const Options& opt,
                const std::string& workload) {
  std::error_code ec;
  std::filesystem::create_directories(kSpansDir, ec);
  const std::string path = std::string(kSpansDir) + "/spans_" + workload +
                           "_seed" + std::to_string(opt.seed) + ".jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = t.setup.write(f, "setup") && t.pass.write(f, "pass") &&
                  t.replay.write(f, "replay");
  return std::fclose(f) == 0 && ok;
}

/// Per-layer host-time figures shared by every workload; `per` scales the
/// per-pass quantities (1 / number of traced passes).
struct LayerTimes {
  double construct_us = 0, constructs = 0, run_s = 0, load_us = 0,
         build_us = 0, ref_us = 0, materialize_us = 0, gen_s = 0;
};

LayerTimes layerTimes(const Tracer& work, double per, const Tracer& setup,
                      int setups) {
  const auto w = work.totals();
  const auto s = setup.totals();
  const auto mean_us = [](const std::map<std::string, simbench::SpanTotals>& t,
                          const char* name) {
    const auto it = t.find(name);
    return it == t.end() || it->second.count == 0
               ? 0.0
               : it->second.total_s / static_cast<double>(it->second.count) *
                     1e6;
  };
  const auto total = [](const std::map<std::string, simbench::SpanTotals>& t,
                        const char* name, bool count) {
    const auto it = t.find(name);
    if (it == t.end()) return 0.0;
    return count ? static_cast<double>(it->second.count) : it->second.total_s;
  };
  LayerTimes lt;
  lt.construct_us = mean_us(w, "harness.construct");
  lt.constructs = total(w, "harness.construct", true) * per;
  lt.run_s = total(w, "harness.run", false) * per;
  lt.load_us = mean_us(w, "harness.load");
  lt.build_us = mean_us(w, "kernels.build");
  lt.materialize_us = mean_us(w, "serve.materialize");
  // The reference runs in set-up for the simulation workloads and inside
  // each replayed attempt for serving.
  lt.ref_us = w.count("sparse.ref") ? mean_us(w, "sparse.ref")
                                    : mean_us(s, "sparse.ref");
  lt.gen_s = total(s, "workload.gen", false) / setups;
  return lt;
}

/// Host time of `top` outside every layer span, as a share of `top`.
double unattributedShare(const Tracer& t, const char* top) {
  const auto totals = t.totals();
  const auto it = totals.find(top);
  return it == totals.end() ? 0.0
                            : ratio(it->second.self_s, it->second.total_s);
}

/// Simulated work behind the traced harness.run spans of one pass.
struct RunTotals {
  double cycles = 0;       ///< sum of RunResult::cycles
  double tile_cycles = 0;  ///< cycles x tiles
  double retired = 0;
  double skipped = 0;      ///< hostSkippedCycles()
};

/// The per-layer metrics every workload reports (0 where a layer is not
/// exercised). `traced_over_untraced` is the fastest traced over the
/// fastest untraced pass wall.
std::vector<Metric> layerMetrics(const LayerTimes& lt, const Counters& c,
                                 const RunTotals& rt, double tile_pool_ratio,
                                 double batch_fill,
                                 double traced_over_untraced) {
  const auto count = [&](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  return {
      {"workload.gen_s", lt.gen_s, "s", "per set-up"},
      {"harness.construct_us", lt.construct_us, "us", "mean"},
      {"harness.constructs", lt.constructs, "count", "per pass"},
      {"harness.run_s", lt.run_s, "s", "per pass"},
      {"harness.ns_per_cycle", ratio(lt.run_s * 1e9, rt.tile_cycles),
       "ns/cycle", "per simulated cycle x tile"},
      {"harness.ns_per_instr", ratio(lt.run_s * 1e9, rt.retired), "ns/instr",
       ""},
      {"harness.skip_frac", ratio(rt.skipped, rt.cycles), "fraction",
       "cycles skipped by the run loop"},
      {"harness.tile_pool_ratio", tile_pool_ratio, "x",
       "run wall, 2 tile workers over 1"},
      {"harness.load_us", lt.load_us, "us", "mean"},
      {"kernels.build_us", lt.build_us, "us", "mean"},
      {"sparse.ref_us", lt.ref_us, "us", "mean"},
      {"serve.batches", count("serve.batches"), "count", "per pass"},
      {"serve.attempts", count("serve.attempts"), "count", "per pass"},
      {"serve.batch_fill", batch_fill, "fraction", "attempts/batch/tiles"},
      {"serve.retries", count("serve.retries"), "count", "per pass"},
      {"serve.shed", count("serve.shed"), "count", "per pass"},
      {"cpu.retired", count("cpu.retired"), "count", "per pass"},
      {"cpu.load_stall_cycles", count("cpu.load_stall_cycles"), "cycles", ""},
      {"hht.cpu_wait_cycles", count("hht.cpu_wait_cycles"), "cycles", ""},
      {"hht.stall_buffers_full", count("hht.stall_buffers_full"), "cycles",
       ""},
      {"hht.elements_delivered", count("hht.elements_delivered"), "count", ""},
      {"mem.grants", count("mem.grants"), "count", ""},
      {"mem.conflict_cycles", count("mem.conflict_cycles"), "cycles",
       "summed over requesters"},
      {"mem.l1.hit_ratio",
       ratio(count("mem.l1.hits"),
             count("mem.l1.hits") + count("mem.l1.misses")),
       "fraction", ""},
      {"hht.prefetch.useful_ratio",
       ratio(count("hht.prefetch.useful"), count("hht.prefetch.issued")),
       "fraction", ""},
      {"mem.wq.steals", count("mem.wq.steals"), "count", ""},
      {"mem.wq.conflict_cycles", count("mem.wq.conflict_cycles"), "cycles",
       ""},
      {"bench.trace_overhead_pct", (traced_over_untraced - 1.0) * 100.0, "%",
       "traced vs untraced pass wall"},
  };
}

// --- simulation workloads (fig_busy, stall_skip, tiles16_skew) ---------------

enum class Kernel {
  kSpmvScalarBase,
  kSpmvVecBase,
  kSpmvVecHht,
  kSpmspvScalarBase,
  kSpmspvHhtV1,
  kSpmspvHhtV2,
};

bool isSpmspv(Kernel k) {
  return k == Kernel::kSpmspvScalarBase || k == Kernel::kSpmspvHhtV1 ||
         k == Kernel::kSpmspvHhtV2;
}

struct Input {
  sparse::CsrMatrix m;
  sparse::DenseVector v;
  sparse::SparseVector sv;      ///< SpMSpV operand (SpMSpV inputs only)
  std::vector<float> expected;  ///< sparse:: reference y
};

/// One simulation. cfg.memory.num_tiles > 1 selects a MultiTileSystem,
/// whose rows go to the tiles through the chunk queue when
/// cfg.memory.work_queue_enabled, else as static nnz-balanced shards.
struct Item {
  std::string role;  ///< kernel and machine, e.g. "spmv_hht_2buf"
  std::size_t input = 0;
  Kernel kernel = Kernel::kSpmvVecHht;
  harness::SystemConfig cfg;
};

struct SimSet {
  std::vector<Input> inputs;
  std::vector<Item> items;
};

harness::SystemConfig singleTile(std::uint32_t buffers,
                                 sim::Cycle sram_latency) {
  harness::SystemConfig cfg = harness::defaultConfig(buffers);
  cfg.memory.sram_latency = sram_latency;
  return cfg;
}

/// fig_scaleout's "l1ch" topology: per-tile L1s plus 4 interleaved
/// channels and the HHT stride prefetcher, at 16 tiles.
harness::SystemConfig l1ch16(bool chunk_queue) {
  harness::SystemConfig cfg = harness::defaultConfig(2);
  cfg.memory.policy = mem::ArbiterPolicy::RoundRobin;
  cfg.memory.num_tiles = 16;
  cfg.memory.work_queue_enabled = chunk_queue;
  mem::TopologyConfig& t = cfg.memory.topology;
  t.tile_l1_enabled = true;
  t.tile_l1.size_bytes = 4096;
  t.tile_l1.line_bytes = 32;
  t.tile_l1.ways = 4;
  t.tile_l1.hit_latency = 1;
  t.tile_l1.miss_penalty = 2;
  t.hht_prefetch_enabled = true;
  t.channels = 4;
  t.interleave_bytes = 256;
  return cfg;
}

/// Generate one input with the workload:: generators and its reference.
std::size_t addInput(SimSet& set, Tracer& tr, std::uint64_t seed,
                     const std::function<void(sim::Rng&, Input&)>& gen,
                     bool spmspv) {
  Input in;
  tr.span("workload.gen", [&] {
    sim::Rng rng(seed);
    gen(rng, in);
  });
  in.expected = tr.span("sparse.ref", [&] {
    return (spmspv ? sparse::spmspvMerge(in.m, in.sv)
                   : sparse::spmvCsr(in.m, in.v))
        .values();
  });
  set.inputs.push_back(std::move(in));
  return set.inputs.size() - 1;
}

std::size_t addUniform(SimSet& set, Tracer& tr, std::uint64_t seed,
                       sim::Index n, double sparsity) {
  return addInput(
      set, tr, seed,
      [&](sim::Rng& rng, Input& in) {
        in.m = workload::randomCsr(rng, n, n, sparsity);
        in.v = workload::randomDenseVector(rng, n);
      },
      false);
}

void addItem(SimSet& set, std::size_t input, std::string role, Kernel k,
             const harness::SystemConfig& cfg) {
  set.items.push_back(Item{std::move(role), input, k, cfg});
}

/// Fig. 4/5 kernels on the default 1-cycle SRAM: busy every cycle.
SimSet makeFigBusy(std::uint64_t seed, Tracer& tr) {
  SimSet set;
  const sim::Index n = 512;
  for (int s = 10; s <= 90; s += 10) {
    const std::size_t in =
        addUniform(set, tr, streamSeed(seed, s), n, s / 100.0);
    addItem(set, in, "spmv_vec_base", Kernel::kSpmvVecBase, singleTile(2, 1));
    addItem(set, in, "spmv_hht_1buf", Kernel::kSpmvVecHht, singleTile(1, 1));
    addItem(set, in, "spmv_hht_2buf", Kernel::kSpmvVecHht, singleTile(2, 1));
  }
  for (int s : {50, 70, 90}) {
    const double sp = s / 100.0;
    const std::size_t in = addInput(
        set, tr, streamSeed(seed, 100 + s),
        [&](sim::Rng& rng, Input& x) {
          x.m = workload::randomCsr(rng, n, n, sp);
          x.sv = workload::randomSparseVector(rng, n, sp);
        },
        true);
    addItem(set, in, "spmspv_base", Kernel::kSpmspvScalarBase,
            singleTile(2, 1));
    addItem(set, in, "spmspv_hht_v1", Kernel::kSpmspvHhtV1, singleTile(2, 1));
    addItem(set, in, "spmspv_hht_v2", Kernel::kSpmspvHhtV2, singleTile(2, 1));
  }
  return set;
}

/// Long-latency SRAM: the event loop's skip paths do the work.
SimSet makeStallSkip(std::uint64_t seed, Tracer& tr) {
  SimSet set;
  for (int s = 10; s <= 90; s += 10) {
    const std::size_t in =
        addUniform(set, tr, streamSeed(seed, 200 + s), 512, s / 100.0);
    addItem(set, in, "short_scalar_base", Kernel::kSpmvScalarBase,
            singleTile(2, 6));
  }
  for (int s : {30, 70}) {
    const std::size_t in =
        addUniform(set, tr, streamSeed(seed, 300 + s), 256, s / 100.0);
    addItem(set, in, "deep_scalar_base", Kernel::kSpmvScalarBase,
            singleTile(2, 2048));
  }
  const std::size_t in = addUniform(set, tr, streamSeed(seed, 350), 128, 0.5);
  addItem(set, in, "deep_hht_2buf", Kernel::kSpmvVecHht, singleTile(2, 2048));
  return set;
}

/// 16 tiles on the l1ch topology, uniform and zipf-skewed rows, each under
/// static nnz-balanced shards and under the chunk queue.
SimSet makeTiles16Skew(std::uint64_t seed, Tracer& tr) {
  SimSet set;
  const sim::Index n = 1024;
  const std::size_t uniform =
      addUniform(set, tr, streamSeed(seed, 400), n, 0.9);
  const std::size_t skewed = addInput(
      set, tr, streamSeed(seed, 401),
      [&](sim::Rng& rng, Input& in) {
        in.m = workload::powerLawCsr(rng, n, n, n, 0.9);
        in.v = workload::randomDenseVector(rng, n);
      },
      false);
  for (const std::size_t in : {uniform, skewed}) {
    const std::string shape = in == uniform ? "uniform" : "zipf";
    addItem(set, in, shape + "_static", Kernel::kSpmvVecHht, l1ch16(false));
    addItem(set, in, shape + "_queue", Kernel::kSpmvVecHht, l1ch16(true));
  }
  return set;
}

struct ItemRun {
  harness::RunResult result;
  std::uint64_t skipped = 0;  ///< hostSkippedCycles()
  std::string error;          ///< non-empty when the simulation threw
  double seconds = 0.0;
};

isa::Program buildSingle(const Item& it, const kernels::SpmvLayout& layout) {
  const sim::Addr mmio = it.cfg.memory.mmio_base;
  switch (it.kernel) {
    case Kernel::kSpmvScalarBase: return kernels::spmvScalarBaseline(layout);
    case Kernel::kSpmvVecBase: return kernels::spmvVectorBaseline(layout);
    default: return kernels::spmvVectorHht(layout, mmio);
  }
}

isa::Program buildSingle(const Item& it, const kernels::SpmspvLayout& layout) {
  const sim::Addr mmio = it.cfg.memory.mmio_base;
  switch (it.kernel) {
    case Kernel::kSpmspvScalarBase:
      return kernels::spmspvScalarBaseline(layout);
    case Kernel::kSpmspvHhtV1: return kernels::spmspvHhtV1(layout, mmio);
    default: return kernels::spmspvHhtV2(layout, mmio);
  }
}

/// One simulation through the public harness/kernels calls, each wrapped
/// in its layer's span.
template <typename Layout, typename Load>
harness::RunResult runSingleTile(const Item& it, Tracer& tr,
                                 std::uint64_t& skipped, Load&& load) {
  std::optional<harness::System> sys;
  tr.span("harness.construct", [&] { sys.emplace(it.cfg); });
  const Layout layout = tr.span("harness.load", [&] { return load(*sys); });
  const isa::Program prog =
      tr.span("kernels.build", [&] { return buildSingle(it, layout); });
  harness::RunResult r = tr.span(
      "harness.run", [&] { return sys->run(prog, layout.y, layout.num_rows); });
  skipped = sys->hostSkippedCycles();
  return r;
}

harness::RunResult runMultiTile(const Item& it, const Input& in, Tracer& tr,
                                std::uint64_t& skipped) {
  const std::uint32_t tiles = it.cfg.memory.num_tiles;
  const bool queue = it.cfg.memory.work_queue_enabled;
  std::optional<harness::MultiTileSystem> sys;
  tr.span("harness.construct", [&] { sys.emplace(it.cfg); });
  const kernels::SpmvLayout layout = tr.span("harness.load", [&] {
    kernels::SpmvLayout l =
        harness::loadSpmv(sys->arena(), sys->memory().sram(), in.m, in.v);
    if (queue) {
      sys->workQueue()->seed(harness::dealRowChunks(l.num_rows, tiles, 16));
    }
    return l;
  });
  std::vector<kernels::RowShard> shards;
  if (!queue) {
    shards = tr.span("workload.partition", [&] {
      return workload::partitionRowsNnzBalanced(in.m, tiles);
    });
  }
  const std::vector<isa::Program> programs = tr.span("kernels.build", [&] {
    std::vector<isa::Program> ps;
    for (std::uint32_t t = 0; t < tiles; ++t) {
      const sim::Addr mmio = sys->mmioBaseOf(t);
      ps.push_back(
          queue ? kernels::spmvVectorHhtChunkQueue(
                      layout, mmio, sys->workQueueBase() + 4 * t)
                : kernels::spmvVectorHhtShard(layout, shards[t], mmio));
    }
    return ps;
  });
  harness::RunResult r = tr.span("harness.run", [&] {
    return sys->run(programs, layout.y, layout.num_rows);
  });
  skipped = sys->hostSkippedCycles();
  return r;
}

ItemRun runItem(const Item& it, const Input& in, Tracer& tr) {
  ItemRun out;
  const std::int64_t t0 = nowNs();
  try {
    if (it.cfg.memory.num_tiles > 1) {
      out.result = runMultiTile(it, in, tr, out.skipped);
    } else if (isSpmspv(it.kernel)) {
      out.result = runSingleTile<kernels::SpmspvLayout>(
          it, tr, out.skipped,
          [&](harness::System& s) {
            return harness::loadSpmspv(s, in.m, in.sv);
          });
    } else {
      out.result = runSingleTile<kernels::SpmvLayout>(
          it, tr, out.skipped,
          [&](harness::System& s) { return harness::loadSpmv(s, in.m, in.v); });
    }
  } catch (const std::exception& e) {  // sim::SimError and anything else
    out.error = e.what();
  }
  out.seconds = seconds(t0, nowNs());
  return out;
}

bool sameRun(const harness::RunResult& a, const harness::RunResult& b) {
  return a.cycles == b.cycles && a.retired == b.retired &&
         a.cpu_wait_cycles == b.cpu_wait_cycles &&
         a.hht_wait_cycles == b.hht_wait_cycles &&
         a.y.values() == b.y.values() && a.stats.all() == b.stats.all();
}

/// Geomean of vector-baseline over HHT 2-buf cycles across fig_busy's SpMV
/// inputs (the Fig. 4 headline).
double hhtSpeedup(const SimSet& set, const std::vector<ItemRun>& runs) {
  std::map<std::size_t, std::pair<double, double>> pairs;
  for (std::size_t i = 0; i < set.items.size(); ++i) {
    const std::string& role = set.items[i].role;
    const auto cycles = static_cast<double>(runs[i].result.cycles);
    if (role == "spmv_vec_base") pairs[set.items[i].input].first = cycles;
    if (role == "spmv_hht_2buf") pairs[set.items[i].input].second = cycles;
  }
  double log_sum = 0.0;
  for (const auto& [in, p] : pairs) {
    log_sum += std::log(ratio(p.first, p.second));
  }
  return pairs.empty()
             ? 0.0
             : std::exp(log_sum / static_cast<double>(pairs.size()));
}

/// Median of `repeats` runs of `setup`, in seconds.
template <typename F>
double timeSetups(F&& setup) {
  std::vector<double> s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = nowNs();
    setup();
    s.push_back(seconds(t0, nowNs()));
  }
  return median(s);
}

/// Call pass(traced) until --seconds have elapsed: at least once, and with
/// --trace 1 alternating untraced and traced passes, at least one of each.
template <typename Pass>
void runPasses(const Options& opt, Pass&& pass) {
  const std::int64_t start = nowNs();
  std::uint64_t n = 0;
  do {
    pass(opt.trace && n % 2 == 1);
    ++n;
  } while (seconds(start, nowNs()) < opt.seconds || (opt.trace && n < 2));
}

/// tiles16_skew's threaded-tile probe: MultiTileSystem::run wall with two
/// tile workers over one worker, on the same item.
double tilePoolRatio(const Item& item, const Input& in, Report& rep) {
  Tracer quiet(false);
  std::vector<double> ratios;
  for (int rep_i = 0; rep_i < 3; ++rep_i) {
    double wall[2] = {};
    for (int w = 0; w < 2; ++w) {
      Item it = item;
      it.cfg.tile_workers = w + 1;
      const ItemRun run = runItem(it, in, quiet);
      ++rep.attempted;
      if (!run.error.empty() || !sameY(run.result.y, in.expected)) ++rep.failed;
      wall[w] = run.seconds;
    }
    ratios.push_back(ratio(wall[1], wall[0]));
  }
  return median(ratios);
}

Report runSimWorkload(const std::string& name, const Options& opt,
                      SimSet (*make)(std::uint64_t, Tracer&)) {
  Report rep;
  rep.workload = name;
  Tracers tr(opt.trace);
  SimSet set;
  const double setup_s = timeSetups([&] {
    set = tr.setup.span("bench.setup",
                        [&] { return make(opt.seed, tr.setup); });
  });
  rep.inputs_hash = kFnvBasis;
  for (const Input& in : set.inputs) {
    rep.inputs_hash = fnvMix(rep.inputs_hash, serve::hashVector(in.v));
    rep.inputs_hash = fnvMix(rep.inputs_hash, in.m.nnz());
    rep.inputs_hash = fnvMix(rep.inputs_hash, in.sv.nnz());
    rep.inputs_hash = fnvMix(
        rep.inputs_hash, serve::hashVector(sparse::DenseVector(in.expected)));
  }

  std::vector<ItemRun> first;  // the reference pass every pass must repeat
  std::vector<double> pass_wall, traced_wall;
  std::vector<std::vector<double>> item_s(set.items.size());
  const auto pass = [&](bool traced) {
    std::vector<ItemRun> runs;
    runs.reserve(set.items.size());
    Tracer& t = tr.pass;
    t.setEnabled(traced);
    const std::int64_t t0 = nowNs();
    t.span("bench.pass", [&] {
      for (const Item& it : set.items) {
        runs.push_back(runItem(it, set.inputs[it.input], t));
      }
    });
    (traced ? traced_wall : pass_wall).push_back(seconds(t0, nowNs()));
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const Item& it = set.items[i];
      ++rep.attempted;
      if (!traced) item_s[i].push_back(runs[i].seconds);
      bool ok = runs[i].error.empty() &&
                sameY(runs[i].result.y, set.inputs[it.input].expected);
      if (!runs[i].error.empty()) {
        rep.notes.push_back(it.role + " on input " + std::to_string(it.input) +
                            " threw: " + runs[i].error);
      }
      if (ok && !first.empty()) ok = sameRun(runs[i].result, first[i].result);
      if (!ok) ++rep.failed;
    }
    if (first.empty()) first = std::move(runs);
  };
  runPasses(opt, pass);
  rep.passes = pass_wall.size() + traced_wall.size();
  rep.pass_wall_s = pass_wall;

  RunTotals rt;
  for (std::size_t i = 0; i < first.size(); ++i) {
    const harness::RunResult& r = first[i].result;
    rt.cycles += static_cast<double>(r.cycles);
    rt.tile_cycles += static_cast<double>(r.cycles) *
                      set.items[i].cfg.memory.num_tiles;
    rt.retired += static_cast<double>(r.retired);
    rt.skipped += static_cast<double>(first[i].skipped);
    addCounters(rep.counters, r.stats);
  }
  const double sim_cycles = rt.cycles;
  // A pass's host time is the sum of each simulation's fastest untraced
  // run: finer-grained than the fastest whole pass, so a slow phase of the
  // host must cover every run of a simulation to show.
  std::vector<double> item_min;
  for (const std::vector<double>& s : item_s) item_min.push_back(minimum(s));
  double wall = 0.0;
  for (const double s : item_min) wall += s;
  const double n_items = static_cast<double>(set.items.size());
  rep.end_to_end = {
      {"setup_s", setup_s, "s", "median of 5 set-ups: generators + references"},
      {"wall_s", wall, "s",
       num(n_items) + " simulations, each its fastest run"},
      {"sim_mcps", rt.tile_cycles / wall / 1e6, "Mcycles/s",
       "simulated cycles x tiles per host second"},
      {"req_per_s", n_items / wall, "1/s", "simulations per host second"},
      {"batch_ms_p50", percentile(item_min, 0.50) * 1e3, "ms",
       "per simulation, n=" + num(n_items)},
      {"batch_ms_p99", percentile(item_min, 0.99) * 1e3, "ms",
       "per simulation, n=" + num(n_items)},
      {"sim_cycles", sim_cycles, "cycles",
       "sum of RunResult::cycles, one pass"},
      {"peak_rss_mb", peakRssMb(), "MB", "process peak resident set"},
  };
  rep.sim = {{"sim_cycles", sim_cycles, "cycles", ""}};
  if (name == "fig_busy") {
    const double sp = hhtSpeedup(set, first);
    char note[64];
    std::snprintf(note, sizeof note, "paper Fig. 4: %.2f, error %+.1f%%",
                  kPaperHhtSpeedup, (sp / kPaperHhtSpeedup - 1.0) * 100.0);
    rep.sim.push_back({"hht_speedup", sp, "x", note});
  }

  if (opt.trace) {
    const double per = 1.0 / static_cast<double>(traced_wall.size());
    const LayerTimes lt = layerTimes(tr.pass, per, tr.setup, kSetupRepeats);
    double pool = 0.0;
    if (name == "tiles16_skew") {
      pool = tilePoolRatio(set.items[0], set.inputs[0], rep);
    }
    rep.per_layer =
        layerMetrics(lt, rep.counters, rt, pool, 0.0,
                     ratio(minimum(traced_wall), minimum(pass_wall)));
    rep.notes.push_back("unattributed share of traced pass time: " +
                        num(unattributedShare(tr.pass, "bench.pass")));
    if (!writeSpans(tr, opt, name)) {
      rep.notes.push_back("could not write spans");
    }
  }
  return rep;
}

// --- serve_small -------------------------------------------------------------

constexpr std::uint32_t kServeRequests = 4000;
constexpr std::uint32_t kServeSize = 16;
constexpr std::uint32_t kServeTiles = 4;
/// Mean arrival gap: ~80% of the 4-tile pool's simulated capacity.
constexpr sim::Cycle kServeGap = 400;
constexpr sim::Cycle kServeDeadline = 20'000;

serve::ServerConfig serveConfig() {
  serve::ServerConfig cfg;
  cfg.system = harness::defaultConfig();
  cfg.num_tiles = kServeTiles;
  cfg.jobs = 1;  // serial attempts: host time measures the simulator
  return cfg;
}

struct ServeSet {
  std::vector<serve::Request> stream;
  std::unordered_map<std::uint64_t, std::uint64_t> expected;  ///< id -> hash
};

/// The sparse:: reference for a request, in the order Server::runAttempt
/// checks against.
sparse::DenseVector serveReference(const serve::Request& r,
                                   const serve::Operands& ops) {
  return r.kind == serve::Kind::kSpmv ? sparse::spmvCsr(ops.m, ops.v)
                                      : sparse::spmspvMerge(ops.m, ops.sv);
}

ServeSet makeServe(std::uint64_t seed, Tracer& tr) {
  ServeSet set;
  set.stream = tr.span("workload.gen", [&] {
    serve::StreamConfig sc;
    sc.count = kServeRequests;
    sc.size = kServeSize;
    sc.mean_gap = kServeGap;
    sc.deadline_slack = kServeDeadline;
    return serve::randomRequestStream(streamSeed(seed, 500), sc);
  });
  for (const serve::Request& r : set.stream) {
    const serve::Operands ops = tr.span(
        "serve.materialize", [&] { return serve::materialize(r); },
        static_cast<std::int64_t>(r.id));
    const sparse::DenseVector ref = tr.span(
        "sparse.ref", [&] { return serveReference(r, ops); },
        static_cast<std::int64_t>(r.id));
    set.expected[r.id] = serve::hashVector(ref);
  }
  return set;
}

/// Replays one served request through the public calls Server::runAttempt
/// makes, in layer spans. True when y matches both the reference and the
/// completion's y_hash, which proves the replay timed the same work.
bool replayAttempt(const serve::ServerConfig& cfg, const serve::Request& r,
                   const serve::Completion& c, Tracer& tr, RunTotals& rt,
                   Counters& counters) {
  const auto id = static_cast<std::int64_t>(r.id);
  const bool degraded = c.outcome == serve::Outcome::kDegraded;
  const serve::Operands ops = tr.span(
      "serve.materialize", [&] { return serve::materialize(r); }, id);
  harness::SystemConfig scfg = cfg.system;
  if (degraded) scfg.faults.enabled = false;
  std::optional<harness::System> sys;
  tr.span("harness.construct", [&] { sys.emplace(scfg); }, id);
  const sim::Addr mmio = scfg.memory.mmio_base;
  const auto simulate = [&](const auto& layout, const isa::Program& prog) {
    return tr.span(
        "harness.run",
        [&] {
          return sys->run(prog, layout.y, layout.num_rows,
                          cfg.attempt_max_cycles);
        },
        id);
  };
  harness::RunResult rr;
  if (r.kind == serve::Kind::kSpmv) {
    const kernels::SpmvLayout layout = tr.span(
        "harness.load", [&] { return harness::loadSpmv(*sys, ops.m, ops.v); },
        id);
    const isa::Program prog = tr.span(
        "kernels.build",
        [&] {
          return degraded ? kernels::spmvScalarBaseline(layout)
                          : kernels::spmvScalarHht(layout, mmio);
        },
        id);
    rr = simulate(layout, prog);
  } else {
    const kernels::SpmspvLayout layout = tr.span(
        "harness.load",
        [&] { return harness::loadSpmspv(*sys, ops.m, ops.sv); }, id);
    const isa::Program prog = tr.span(
        "kernels.build",
        [&] {
          return degraded ? kernels::spmspvScalarBaseline(layout)
                          : kernels::spmspvHhtV2Scalar(layout, mmio);
        },
        id);
    rr = simulate(layout, prog);
  }
  const sparse::DenseVector ref =
      tr.span("sparse.ref", [&] { return serveReference(r, ops); }, id);
  rt.cycles += static_cast<double>(rr.cycles);
  rt.tile_cycles += static_cast<double>(rr.cycles);
  rt.retired += static_cast<double>(rr.retired);
  rt.skipped += static_cast<double>(sys->hostSkippedCycles());
  addCounters(counters, rr.stats);
  return sameY(rr.y, ref.values()) && serve::hashVector(rr.y) == c.y_hash;
}

/// Everything about a serving pass that must repeat exactly.
std::uint64_t completionsHash(const serve::Server& server) {
  std::uint64_t h = fnvMix(kFnvBasis, server.now());
  for (const serve::Completion& c : server.completions()) {
    for (const std::uint64_t v :
         {c.id, static_cast<std::uint64_t>(c.outcome),
          static_cast<std::uint64_t>(c.attempts),
          static_cast<std::uint64_t>(c.tile), c.finish_cycle, c.y_hash}) {
      h = fnvMix(h, v);
    }
  }
  return h;
}

Report runServe(const Options& opt) {
  Report rep;
  rep.workload = "serve_small";
  Tracers tr(opt.trace);
  const serve::ServerConfig cfg = serveConfig();
  ServeSet set;
  const double setup_s = timeSetups([&] {
    set = tr.setup.span("bench.setup",
                        [&] { return makeServe(opt.seed, tr.setup); });
  });
  rep.inputs_hash = kFnvBasis;
  for (const serve::Request& r : set.stream) {
    for (const std::uint64_t v :
         {r.id, r.seed, static_cast<std::uint64_t>(r.kind), r.arrival_cycle,
          set.expected[r.id]}) {
      rep.inputs_hash = fnvMix(rep.inputs_hash, v);
    }
  }

  std::optional<serve::Server> first;  // the reference pass
  std::uint64_t first_hash = 0;
  std::vector<double> pass_wall, traced_wall;
  // Every pass dispatches the same batches (the schedule is deterministic),
  // so the submit phase and each batch keep their fastest untraced time.
  double submit_min = 0.0;
  std::vector<double> batch_min;
  const auto pass = [&](bool traced) {
    Tracer& t = tr.pass;
    t.setEnabled(traced);
    std::optional<serve::Server> server;
    std::vector<double> batch_s;
    const std::int64_t t0 = nowNs();
    std::int64_t submitted = t0;
    t.span("bench.pass", [&] {
      t.span("serve.construct", [&] { server.emplace(cfg); });
      for (const serve::Request& r : set.stream) {
        t.span("serve.submit", [&] { server->submit(r); },
               static_cast<std::int64_t>(r.id));
      }
      submitted = nowNs();
      while (!server->idle()) {
        const std::int64_t b0 = nowNs();
        t.span("serve.drain", [&] { server->drain(1); });
        batch_s.push_back(seconds(b0, nowNs()));
      }
    });
    if (!traced) {
      const double submit_s = seconds(t0, submitted);
      submit_min =
          pass_wall.empty() ? submit_s : std::min(submit_min, submit_s);
      if (batch_min.empty()) batch_min = batch_s;
      for (std::size_t k = 0; k < std::min(batch_s.size(), batch_min.size());
           ++k) {
        batch_min[k] = std::min(batch_min[k], batch_s[k]);
      }
    }
    (traced ? traced_wall : pass_wall).push_back(seconds(t0, nowNs()));

    rep.attempted += set.stream.size();
    std::uint64_t failed = 0;
    if (server->completions().size() != set.stream.size()) {
      rep.notes.push_back("completions do not match submissions");
      ++failed;
    }
    for (const serve::Completion& c : server->completions()) {
      if (serve::served(c.outcome) ? c.y_hash != set.expected[c.id]
                                   : c.outcome == serve::Outcome::kFailed) {
        ++failed;
      }
    }
    const std::uint64_t h = completionsHash(*server);
    if (!first) {
      first = std::move(server);
      first_hash = h;
    } else if (h != first_hash) {
      rep.notes.push_back("a pass diverged from the first pass");
      ++failed;
    }
    rep.failed += failed;
  };
  runPasses(opt, pass);
  rep.passes = pass_wall.size() + traced_wall.size();
  rep.pass_wall_s = pass_wall;

  const serve::ServerStats st = first->stats();
  std::uint64_t attempts = st.probes;
  for (const serve::Completion& c : first->completions()) {
    attempts += c.attempts;
  }
  rep.counters["serve.batches"] = st.batches;
  rep.counters["serve.attempts"] = attempts;
  rep.counters["serve.retries"] = st.retries;
  rep.counters["serve.shed"] = st.rejected;

  double wall = submit_min;
  for (const double b : batch_min) wall += b;
  const auto sim_cycles = static_cast<double>(st.final_cycle);
  rep.end_to_end = {
      {"setup_s", setup_s, "s",
       "median of 5 set-ups: request stream + expected hashes"},
      {"wall_s", wall, "s",
       "one pass: submit " + std::to_string(kServeRequests) +
           ", drain; fastest submit + each batch's fastest"},
      {"sim_mcps", sim_cycles * kServeTiles / wall / 1e6, "Mcycles/s",
       "server clock x tiles per host second"},
      {"req_per_s", static_cast<double>(st.served) / wall, "1/s",
       "served requests per host second"},
      {"batch_ms_p50", percentile(batch_min, 0.50) * 1e3, "ms",
       "per drain(1), n=" + std::to_string(batch_min.size())},
      {"batch_ms_p99", percentile(batch_min, 0.99) * 1e3, "ms",
       "per drain(1), n=" + std::to_string(batch_min.size())},
      {"sim_cycles", sim_cycles, "cycles", "final server clock"},
      {"peak_rss_mb", peakRssMb(), "MB", "process peak resident set"},
  };
  rep.sim = {
      {"sim_cycles", sim_cycles, "cycles", ""},
      {"p99_cycles", static_cast<double>(st.p99), "cycles",
       "arrival to finish, n=" + std::to_string(st.served)},
      {"goodput", st.goodput, "fraction", ""},
  };

  if (opt.trace) {
    RunTotals rt;
    std::unordered_map<std::uint64_t, const serve::Request*> by_id;
    for (const serve::Request& r : set.stream) by_id[r.id] = &r;
    tr.replay.span("bench.replay", [&] {
      for (const serve::Completion& c : first->completions()) {
        if (!serve::served(c.outcome)) continue;
        ++rep.attempted;
        bool ok = false;
        try {
          ok = tr.replay.span(
              "serve.attempt",
              [&] {
                return replayAttempt(cfg, *by_id.at(c.id), c, tr.replay, rt,
                                     rep.counters);
              },
              static_cast<std::int64_t>(c.id));
        } catch (const std::exception& e) {
          rep.notes.push_back("replay of request " + std::to_string(c.id) +
                              " threw: " + e.what());
        }
        if (!ok) ++rep.failed;
      }
    });
    const LayerTimes lt = layerTimes(tr.replay, 1.0, tr.setup, kSetupRepeats);
    rep.per_layer = layerMetrics(
        lt, rep.counters, rt, 0.0,
        ratio(static_cast<double>(attempts),
              static_cast<double>(st.batches) * kServeTiles),
        ratio(minimum(traced_wall), minimum(pass_wall)));
    const simbench::SpanTotals submit = tr.pass.totals()["serve.submit"];
    rep.layer_notes = {
        {"serve.materialize_us", lt.materialize_us, "us", "mean, replay"},
        {"serve.submit_us",
         ratio(submit.total_s * 1e6, static_cast<double>(submit.count)), "us",
         "mean, traced passes"},
    };
    const auto replay = tr.replay.totals();
    const double attempt_s = replay.count("serve.attempt")
                                 ? replay.at("serve.attempt").total_s
                                 : 0.0;
    for (const char* layer : {"harness.construct", "harness.run"}) {
      const double s = replay.count(layer) ? replay.at(layer).total_s : 0.0;
      rep.notes.push_back(std::string(layer) + " share of replayed attempt " +
                          "time: " + num(ratio(s, attempt_s)));
    }
    rep.notes.push_back("unattributed share of replayed attempt time: " +
                        num(unattributedShare(tr.replay, "serve.attempt")));
    if (!writeSpans(tr, opt, rep.workload)) {
      rep.notes.push_back("could not write spans");
    }
  }
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseOptions(argc, argv);
  std::vector<Report> reports;
  for (const char* w : kWorkloads) {
    if (opt.workload != "all" && opt.workload != w) continue;
    const std::string name = w;
    if (name == "fig_busy") {
      reports.push_back(runSimWorkload(name, opt, makeFigBusy));
    } else if (name == "stall_skip") {
      reports.push_back(runSimWorkload(name, opt, makeStallSkip));
    } else if (name == "tiles16_skew") {
      reports.push_back(runSimWorkload(name, opt, makeTiles16Skew));
    } else {
      reports.push_back(runServe(opt));
    }
    Report& r = reports.back();
    r.sim.push_back({"fail_frac", ratio(r.failed, r.attempted), "fraction",
                     "failed over attempted"});
    printReport(r, opt);
  }

  // The result line: one workload's metrics by name, or every workload's
  // prefixed with "<workload>." when several ran.
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
  for (const Report& r : reports) {
    attempted += r.attempted;
    failed += r.failed;
    for (Metric m : opt.trace ? r.per_layer : r.end_to_end) {
      if (reports.size() > 1) m.name = r.workload + "." + m.name;
      metrics.push_back(std::move(m));
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              jsonMetrics(metrics).c_str());
  return failed == 0 ? 0 : 1;
}
