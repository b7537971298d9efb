// Determinism regression: every figure-bench kernel RunSpec, run twice from
// the same seed and configuration, must produce bit-identical RunResults —
// same cycle counts, same merged stats map, same output bits. Replay
// bundles and the fuzz campaign both stand on this property.
#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <ios>
#include <iterator>
#include <string>
#include <tuple>

#include "harness/experiment.h"
#include "serve/server.h"
#include "sim/checksum.h"
#include "sparse/bitvector.h"
#include "sparse/hier_bitmap.h"
#include "verify/fuzz.h"
#include "verify/replay.h"
#include "workload/synthetic.h"

namespace hht::harness {
namespace {

using sparse::CsrMatrix;
using sparse::DenseVector;
using sparse::SparseVector;

void expectIdentical(const RunResult& a, const RunResult& b,
                     const char* label) {
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.retired, b.retired) << label;
  EXPECT_EQ(a.cpu_wait_cycles, b.cpu_wait_cycles) << label;
  EXPECT_EQ(a.hht_wait_cycles, b.hht_wait_cycles) << label;
  EXPECT_EQ(a.hht_residual_busy, b.hht_residual_busy) << label;
  EXPECT_EQ(a.degraded, b.degraded) << label;
  ASSERT_EQ(a.y.size(), b.y.size()) << label;
  for (sim::Index i = 0; i < a.y.size(); ++i) {
    EXPECT_EQ(a.y.at(i), b.y.at(i)) << label << " y[" << i << "]";
  }
  EXPECT_EQ(a.stats.all(), b.stats.all()) << label;
}

/// Run `driver` twice (it builds a fresh System each time) and require a
/// bit-identical outcome.
template <typename Driver>
void twice(const char* label, Driver&& driver) {
  const RunResult a = driver();
  const RunResult b = driver();
  expectIdentical(a, b, label);
}

/// A 32x32 matrix and a dense and a sparse operand vector from `seed`.
std::tuple<CsrMatrix, DenseVector, SparseVector> operands(std::uint64_t seed) {
  sim::Rng rng(seed);
  return {workload::randomCsr(rng, 32, 32, 0.3),
          workload::randomDenseVector(rng, 32),
          workload::randomSparseVector(rng, 32, 0.5)};
}

TEST(Determinism, KernelDrivers) {
  const auto [m, v, sv] = operands(0xDE'7E'01);
  const sparse::HierBitmapMatrix hm =
      sparse::HierBitmapMatrix::fromDense(m.toDense());
  const sparse::BitVectorMatrix bm =
      sparse::BitVectorMatrix::fromDense(m.toDense());
  sim::Rng rng(0xDE'7E'05);
  const sparse::DenseMatrix b = workload::randomDense(rng, 32, 4, 0.0);
  const Operands ops{&m, &v, &sv, &b, &hm, &bm};
  // The fault layer draws from its own seeded RNG, so even fault-injected
  // runs are reproducible (the fault campaign already asserts the outcome;
  // here the full stats map and output bits must match too).
  SystemConfig faulty = defaultConfig();
  faulty.faults.enabled = true;
  faulty.faults.seed = 0xF00D;
  faulty.faults.sram_read_flip_rate = 1e-3;
  faulty.faults.fifo_corrupt_rate = 1e-3;
  const struct {
    const char* label;
    RunSpec spec;
  } rows[] = {
      {"spmv-baseline-scalar", {Kernel::kSpmvScalarBaseline}},
      {"spmv-baseline-vector", {Kernel::kSpmvVectorBaseline}},
      {"spmv-hht-scalar", {Kernel::kSpmvScalarHht}},
      {"spmv-hht-vector", {Kernel::kSpmvVectorHht}},
      {"spmspv-baseline", {Kernel::kSpmspvScalarBaseline}},
      {"spmspv-hht-v1", {Kernel::kSpmspvHhtV1}},
      {"spmspv-hht-v2", {Kernel::kSpmspvHhtV2}},
      {"hier-hht", {Kernel::kHierBitmapHht}},
      {"flat-hht", {Kernel::kFlatBitmapHht}},
      {"prog-spmv", {.kernel = Kernel::kSpmvScalarHht, .programmable = true}},
      {"prog-spmspv-v2",
       {.kernel = Kernel::kSpmspvHhtV2Scalar, .programmable = true}},
      {"spmm-hht", {Kernel::kSpmmVectorHht}},
      {"spmv-hht-resilient",
       {.kernel = Kernel::kSpmvScalarHht, .fallback = true}},
  };
  for (const auto& row : rows) {
    const SystemConfig cfg = row.spec.fallback ? faulty : defaultConfig();
    twice(row.label, [&] { return run(cfg, row.spec, ops); });
  }
}

// ---------------------------------------------------------------------------
// Pinned run digests: one FNV-1a hash over every scalar RunResult field,
// the merged stats map and the bits of y, for one run of each machine
// shape. The constants pin the simulated outcome itself — a change to the
// harness that moves a single cycle, counter or output bit anywhere in
// these runs fails here. Update them only for an intended timing change.
// ---------------------------------------------------------------------------

class Fnv {
 public:
  void bytes(const void* data, std::size_t size) {
    h_ = sim::fnv1a({static_cast<const std::uint8_t*>(data), size}, h_);
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = sim::kFnvOffsetBasis;
};

std::uint64_t digest(const RunResult& r) {
  Fnv h;
  h.u64(r.cycles);
  h.u64(r.retired);
  h.u64(r.cpu_wait_cycles);
  h.u64(r.hht_wait_cycles);
  h.u64(r.hht_residual_busy);
  h.u64(r.degraded);
  h.u64(static_cast<std::uint64_t>(r.fault_cause));
  h.str(r.fault_detail);
  h.u64(r.y.size());
  for (const float x : r.y.values()) h.u64(std::bit_cast<std::uint32_t>(x));
  for (const auto& [name, value] : r.stats.all()) {
    h.str(name);
    h.u64(value);
  }
  return h.value();
}

void expectDigest(const char* label, const RunResult& r,
                  std::uint64_t want) {
  const std::uint64_t got = digest(r);
  EXPECT_EQ(got, want) << label << ": digest 0x" << std::hex << got;
}

/// Timing-only faults a run without a fallback survives: dropped and
/// delayed SRAM responses, never a device fault.
SystemConfig withBenignFaults(SystemConfig cfg) {
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xD16E57;
  cfg.faults.drop_rate = 5e-3;
  cfg.faults.delay_rate = 2e-2;
  return cfg;
}

/// The "l1ch" topology of `paper --only=scaleout`: per-tile L1s, four
/// interleaved channels and the HHT stride prefetcher.
SystemConfig l1chConfig() {
  SystemConfig cfg = defaultConfig();
  cfg.memory.policy = mem::ArbiterPolicy::RoundRobin;
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

TEST(Determinism, PinnedRunDigests) {
  const SystemConfig cfg = defaultConfig();
  const auto [m, v, sv] = operands(0xD16E'01);
  const sparse::HierBitmapMatrix hm =
      sparse::HierBitmapMatrix::fromDense(m.toDense());
  const sparse::BitVectorMatrix bm =
      sparse::BitVectorMatrix::fromDense(m.toDense());
  const Operands ops{.m = &m, .v = &v, .sv = &sv, .hier = &hm, .flat = &bm};
  sim::Rng rng(0xD16E'02);
  const CsrMatrix big = workload::randomCsr(rng, 96, 96, 0.7);
  const DenseVector big_v = workload::randomDenseVector(rng, 96);
  const Operands big_ops{&big, &big_v};
  const RunSpec shards{.kernel = Kernel::kSpmvVectorHht,
                       .tiles = 4,
                       .distribution = Distribution::kNnzBalanced};
  RunSpec queue = shards;
  queue.distribution = Distribution::kChunkQueue;
  queue.chunk_rows = 8;

  // The five ASIC engines on the paper's one-tile machine.
  expectDigest("gather", run(cfg, {Kernel::kSpmvVectorHht}, ops),
               0xbdc4fe4d30553e90);
  expectDigest("merge-v1", run(cfg, {Kernel::kSpmspvHhtV1}, ops),
               0x13433bfdaf891a3a);
  expectDigest("stream-v2", run(cfg, {Kernel::kSpmspvHhtV2}, ops),
               0x47451cffbc772da7);
  expectDigest("hier", run(cfg, {Kernel::kHierBitmapHht}, ops),
               0xb766893369bcd473);
  expectDigest("flat", run(cfg, {Kernel::kFlatBitmapHht}, ops),
               0xab51d07052590173);
  // The programmable HHT (firmware on the micro-core).
  expectDigest(
      "programmable",
      run(cfg, {.kernel = Kernel::kSpmvScalarHht, .programmable = true}, ops),
      0x9f7285f34502ced0);
  {  // Every FIFO pop corrupted: the run degrades onto the scalar fallback.
    SystemConfig faulty = cfg;
    faulty.faults.enabled = true;
    faulty.faults.seed = 0xD16E'03;
    faulty.faults.fifo_corrupt_rate = 1.0;
    const RunResult r =
        run(faulty, {.kernel = Kernel::kSpmvScalarHht, .fallback = true}, ops);
    EXPECT_TRUE(r.degraded);
    expectDigest("degraded", r, 0x034be25e0ba3e8d8);
  }
  // Four tiles with faults on: static nnz-balanced shards and the chunk
  // queue.
  const SystemConfig faulty4 = withBenignFaults(cfg);
  const RunResult shards4 = run(faulty4, shards, big_ops);
  const RunResult queue4 = run(faulty4, queue, big_ops);
  for (const RunResult* r : {&shards4, &queue4}) {
    EXPECT_GT(r->stats.value("mem.drop_recoveries"), 0u);
    EXPECT_GT(r->stats.value("mem.delayed_responses"), 0u);
  }
  expectDigest("4-tile-shards-faults", shards4, 0x6e7e10b43a947fa6);
  expectDigest("4-tile-queue-faults", queue4, 0x41f2ae6038df92a3);
  // Sixteen tiles on the hierarchical l1ch topology.
  RunSpec shards16 = shards;
  shards16.tiles = 16;
  expectDigest("16-tile-l1ch", run(l1chConfig(), shards16, big_ops),
               0xa1031ee1d65470bb);
  {  // Two tile workers (host-only: must match the serial schedule).
    SystemConfig threaded = cfg;
    threaded.tile_workers = 2;
    queue.kernel = Kernel::kSpmvScalarHht;
    expectDigest("4-tile-workers2", run(threaded, queue, big_ops),
                 0x4085a07b54034b1e);
  }
}

// ---------------------------------------------------------------------------
// Pinned snapshot digests: the FNV-1a hash of the bytes of a mid-run
// System::checkpoint() for each machine shape above (the programmable HHT
// refuses checkpoints), of a mid-campaign serve::Server::checkpoint() and of
// a saved HHTR replay bundle. The constants pin the snapshot v8, SRVS v1 and
// HHTR v2 layouts byte for byte: a serializer change that moves, adds or
// drops a single byte fails here.
// ---------------------------------------------------------------------------

std::uint64_t digest(const std::vector<std::uint8_t>& bytes) {
  return sim::fnv1a(bytes);
}

/// Checkpoints the running System once, at cycle `at` of the primary run
/// (or of the degraded fallback run, when `degraded`).
class SnapshotAt : public RunObserver {
 public:
  SnapshotAt(std::span<const isa::Program> programs, Cycle at,
             bool degraded = false)
      : programs_(programs), at_(at), degraded_(degraded) {}

  void onCycle(System& sys, Cycle now) override {
    if (now == at_ && sys.degradedActive() == degraded_ && bytes.empty()) {
      bytes = sys.checkpoint(programs_, now + 1);
    }
  }

  std::vector<std::uint8_t> bytes;

 private:
  std::span<const isa::Program> programs_;
  Cycle at_;
  bool degraded_;
};

/// Run `spec` on a fresh System and return the digest of its snapshot at
/// cycle `at` (of the fallback run, when `degraded`).
std::uint64_t snapshotDigest(const SystemConfig& cfg, const RunSpec& spec,
                             const Operands& ops, Cycle at,
                             bool degraded = false) {
  System sys(configFor(cfg, spec));
  const Prepared p = prepare(sys, spec, ops);
  const isa::Program* fallback = p.fallback ? &*p.fallback : nullptr;
  SnapshotAt observer(degraded ? std::span(fallback, 1) : p.programs(), at,
                      degraded);
  const RunResult r = sys.run(p.programs(), p.y, p.y_len, 500'000'000,
                              fallback, &observer);
  EXPECT_EQ(r.degraded, degraded);
  EXPECT_FALSE(observer.bytes.empty()) << "the run ended before cycle " << at;
  return digest(observer.bytes);
}

void expectSnapshotDigest(const char* label, std::uint64_t got,
                          std::uint64_t want) {
  EXPECT_EQ(got, want) << label << ": snapshot digest 0x" << std::hex << got;
}

TEST(Determinism, PinnedSnapshotDigests) {
  const SystemConfig cfg = defaultConfig();
  const auto [m, v, sv] = operands(0xD16E'01);
  const sparse::HierBitmapMatrix hm =
      sparse::HierBitmapMatrix::fromDense(m.toDense());
  const sparse::BitVectorMatrix bm =
      sparse::BitVectorMatrix::fromDense(m.toDense());
  const Operands ops{.m = &m, .v = &v, .sv = &sv, .hier = &hm, .flat = &bm};
  sim::Rng rng(0xD16E'02);
  const CsrMatrix big = workload::randomCsr(rng, 96, 96, 0.7);
  const DenseVector big_v = workload::randomDenseVector(rng, 96);
  const Operands big_ops{&big, &big_v};
  RunSpec queue{.kernel = Kernel::kSpmvVectorHht,
                .tiles = 4,
                .distribution = Distribution::kChunkQueue,
                .chunk_rows = 8};
  RunSpec shards16 = queue;
  shards16.tiles = 16;
  shards16.distribution = Distribution::kNnzBalanced;

  // The five ASIC engines on the paper's one-tile machine.
  expectSnapshotDigest(
      "gather", snapshotDigest(cfg, {Kernel::kSpmvVectorHht}, ops, 150), 0x4ef5ff4be0816890);
  expectSnapshotDigest(
      "merge-v1", snapshotDigest(cfg, {Kernel::kSpmspvHhtV1}, ops, 150), 0xe074119d22ce3f4e);
  expectSnapshotDigest(
      "stream-v2", snapshotDigest(cfg, {Kernel::kSpmspvHhtV2}, ops, 150), 0x77f6df6dbe204b4e);
  expectSnapshotDigest(
      "hier", snapshotDigest(cfg, {Kernel::kHierBitmapHht}, ops, 150), 0xd16324268a3048db);
  expectSnapshotDigest(
      "flat", snapshotDigest(cfg, {Kernel::kFlatBitmapHht}, ops, 150), 0x5f42deeca7fcd21c);
  {  // 100 cycles into the scalar fallback of a run whose every FIFO pop
     // is corrupted.
    SystemConfig faulty = cfg;
    faulty.faults.enabled = true;
    faulty.faults.seed = 0xD16E'03;
    faulty.faults.fifo_corrupt_rate = 1.0;
    expectSnapshotDigest(
        "degraded",
        snapshotDigest(faulty,
                       {.kernel = Kernel::kSpmvScalarHht, .fallback = true},
                       ops, 100, /*degraded=*/true),
        0xa45e51524a3a9907);
  }
  expectSnapshotDigest(
      "4-tile-queue-faults",
      snapshotDigest(withBenignFaults(cfg), queue, big_ops, 300),
      0xd490b475a52e77f4);
  expectSnapshotDigest("16-tile-l1ch",
                       snapshotDigest(l1chConfig(), shards16, big_ops, 300),
                       0xad69d3d80cb81fb4);

  {  // A serving campaign with FIFO faults, two batches in: queued,
     // retried and completed requests and a non-empty health window.
    serve::ServerConfig scfg;
    scfg.system = cfg;
    scfg.system.faults.enabled = true;
    scfg.system.faults.seed = 0xD16E'04;
    scfg.system.faults.fifo_corrupt_rate = 2e-2;
    scfg.num_tiles = 2;
    scfg.jobs = 1;
    scfg.backoff_base = 64;
    scfg.health.window = 4;
    scfg.health.min_samples = 2;
    scfg.health.probe_period = 2;
    serve::StreamConfig sc;
    sc.count = 12;
    sc.size = 16;
    sc.mean_gap = 1'000;
    serve::Server server(scfg);
    for (const serve::Request& r : serve::randomRequestStream(0xD16E'05, sc)) {
      server.submit(r);
    }
    server.drain(2);
    EXPECT_GT(server.stats().hht_faults, 0u);
    expectSnapshotDigest("server", digest(server.checkpoint()),
                         0x43bf26efc9d15997);
  }
  {  // A fuzz replay bundle, cycle-0 snapshot included.
    sim::Rng case_rng(0xD16E'06);
    verify::ReplayBundle bundle;
    bundle.c = verify::randomCase(case_rng, verify::EngineKind::StreamV2);
    bundle.seed = 0xD16E'07;
    bundle.run_index = 3;
    bundle.failing_element = 5;
    bundle.failing_cycle = 1'234;
    bundle.detail = "pinned bundle";
    verify::CosimOptions capture;
    capture.capture_snapshot = true;
    bundle.cycle0_snapshot = verify::runCosim(bundle.c, capture).cycle0_snapshot;
    ASSERT_FALSE(bundle.cycle0_snapshot.empty());
    const std::string path = ::testing::TempDir() + "/hht_pinned.hhtr";
    verify::saveBundle(path, bundle);
    std::ifstream in(path, std::ios::binary);
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    expectSnapshotDigest("bundle", digest(bytes), 0x388b690f92f14378);
  }
}

}  // namespace
}  // namespace hht::harness
