#include "harness/system.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "harness/run_loop.h"
#include "sim/checksum.h"
#include "sim/state_io.h"

namespace hht::harness {

namespace {
constexpr Addr kArenaBase = 0x1000;  // keep address 0 unmapped-looking

/// Pre-construction validation hook: members are built from `config`, so
/// the checks must run before the initializer list touches it.
const SystemConfig& validated(const SystemConfig& config) {
  config.validate();
  return config;
}

// --- snapshot identity ---
//
// A snapshot only replays correctly on a System built from an *identical*
// SystemConfig running the *identical* program (same name and encoded
// instructions). Rather than store and diff whole configs, both sides
// are reduced to FNV-1a fingerprints over a canonical byte encoding;
// restore() rejects any mismatch with SimError(Checkpoint).
//
// These fingerprints start from 1469598103934665603, the FNV offset basis
// with its last decimal digit missing. v8 snapshot headers record them, so
// the start value stays.
constexpr std::uint64_t kFingerprintBasis = 1469598103934665603ull;

void io(sim::StateIo& ar, cpu::TimingConfig& t) {
  for (Cycle* c : {&t.int_alu, &t.int_mul, &t.int_div, &t.branch_not_taken,
                   &t.branch_taken, &t.jump, &t.fp_alu, &t.fp_mul,
                   &t.fp_madd, &t.fp_div, &t.fp_move, &t.load_issue,
                   &t.store_issue, &t.vec_cfg, &t.vec_alu, &t.vec_fp,
                   &t.vec_red, &t.vec_move, &t.vec_mem_issue,
                   &t.gather_startup}) {
    ar.u64(*c);
  }
  ar.u32(t.vec_bus_bytes);
  ar.u32(t.gather_issue_per_cycle);
  ar.f64(t.clock_hz);
}

void io(sim::StateIo& ar, mem::CacheConfig& c) {
  ar.u32(c.size_bytes);
  ar.u32(c.line_bytes);
  ar.u32(c.ways);
  ar.u64(c.hit_latency);
  ar.u64(c.miss_penalty);
  ar.u64(c.writeback_penalty);
}
}  // namespace

std::uint64_t configFingerprint(const SystemConfig& cfg) {
  SystemConfig copy = cfg;
  sim::StateIo w;
  io(w, copy);
  return sim::fnv1a(w.data(), kFingerprintBasis);
}

std::uint64_t programHash(const isa::Program& program) {
  sim::StateIo w;
  std::string name = program.name();
  w.str(name);
  for (std::size_t i = 0; i < program.size(); ++i) {
    isa::Instr instr = program.at(i);
    isa::io(w, instr);
  }
  return sim::fnv1a(w.data(), kFingerprintBasis);
}

void io(sim::StateIo& ar, SystemConfig& cfg) {
  io(ar, cfg.timing);
  mem::MemorySystemConfig& m = cfg.memory;
  ar.u64(m.sram_bytes);
  ar.u64(m.sram_latency);
  ar.u32(m.grants_per_cycle);
  ar.u8(m.policy, sim::after(mem::ArbiterPolicy::RoundRobin), "policy");
  ar.u32(m.num_tiles);
  ar.u32(m.cpu_starvation_limit);
  ar.b(m.cpu_cache_enabled);
  ar.b(m.hht_cache_enabled);
  io(ar, m.cache);
  ar.b(m.prefetch_enabled);
  ar.u32(m.prefetch_degree);
  ar.u32(m.mmio_base);
  ar.u32(m.mmio_size);
  ar.b(m.work_queue_enabled);
  mem::TopologyConfig& topo = m.topology;
  ar.u32(topo.channels);
  ar.u32(topo.interleave_bytes);
  ar.u64(topo.link_latency);
  ar.u32(topo.link_bandwidth);
  ar.b(topo.tile_l1_enabled);
  io(ar, topo.tile_l1);
  ar.b(topo.hht_prefetch_enabled);
  ar.u32(topo.hht_prefetch_degree);
  ar.u32(topo.hht_prefetch_queue);
  ar.seq<std::uint32_t>(topo.nodes, 12, [&](mem::TopologyNodeConfig& node) {
    ar.u32(node.grants_per_cycle);
    ar.u64(node.extra_latency);
  });
  core::HhtConfig& h = cfg.hht;
  for (std::uint32_t* v : {&h.num_buffers, &h.buffer_len, &h.be_issue_per_cycle,
                           &h.cmp_per_cycle, &h.cmp_recurrence,
                           &h.emit_per_cycle, &h.prefetch_queue,
                           &h.emission_queue}) {
    ar.u32(*v);
  }
  ar.u64(h.test_flip_element);
  ar.u32(cfg.vlmax);
  ar.b(cfg.programmable_hht);
  io(ar, cfg.micro_timing);
  sim::FaultConfig& f = cfg.faults;
  ar.b(f.enabled);
  ar.u64(f.seed);
  ar.f64(f.sram_read_flip_rate);
  ar.f64(f.drop_rate);
  ar.f64(f.delay_rate);
  ar.u64(f.delay_cycles);
  ar.f64(f.mmr_glitch_rate);
  ar.f64(f.fifo_corrupt_rate);
  ar.u32(f.ecc_retry_limit);
  ar.u64(f.drop_penalty_cycles);
  ar.u64(cfg.watchdog_cycles);
}

namespace {
/// Tile t's fault configuration: tile 0 keeps the base seed (the 1-tile
/// machine's fault stream is the paper machine's); other tiles mix the tile
/// index in with a golden-ratio stride so per-tile fault streams are
/// independent but reproducible.
sim::FaultConfig tileFaultConfig(const sim::FaultConfig& base,
                                 std::uint32_t tile) {
  sim::FaultConfig f = base;
  f.seed = base.seed + 0x9E3779B97F4A7C15ull * tile;
  return f;
}
}  // namespace

System::System(const SystemConfig& config)
    : config_(validated(config)),
      mem_(std::make_unique<mem::MemorySystem>(config.memory)),
      tiles_(config.memory.num_tiles),
      arena_(kArenaBase, config.memory.sram_bytes - kArenaBase) {
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    Tile& tile = tiles_[t];
    if (config.faults.enabled) {
      tile.injector = std::make_unique<sim::FaultInjector>(
          tileFaultConfig(config.faults, t));
    }
    tile.cpu = std::make_unique<cpu::Core>(config.timing, *mem_, config.vlmax,
                                           mem::Requester::Cpu, t);
    if (config.programmable_hht) {
      tile.hht = std::make_unique<core::MicroHht>(config.hht, *mem_,
                                                  config.micro_timing);
    } else {
      tile.hht = std::make_unique<core::Hht>(config.hht, *mem_, t);
    }
    mem_->attachMmioDevice(tile.hht.get(), t);
    tile.progress = {
        &tile.cpu->stats().counter("cpu.retired"),
        &mem_->stats().counter("mem." + mem::requesterLabel(2 * t) + ".grants"),
        &mem_->stats().counter("mem." + mem::requesterLabel(2 * t + 1) +
                               ".grants")};
    if (config.trace_sink != nullptr) setTileTraceSink(t, config.trace_sink);
  }
  armInjection(true);
  if (config.memory.work_queue_enabled) {
    wq_ = std::make_unique<mem::ChunkQueueDevice>(numTiles());
    mem_->attachMmioDevice(wq_.get(), numTiles());
  }
  if (config.trace_sink != nullptr) {
    mem_->setTraceSink(config.trace_sink);
    if (wq_) wq_->setTraceSink(config.trace_sink);
  }
}

void System::setTileTraceSink(std::uint32_t tile, obs::TraceSink* sink) {
  Tile& t = tiles_.at(tile);
  t.sink = sink;
  t.cpu->setTraceSink(sink, obs::Component::kCpu);
  t.hht->setTraceSink(sink);
}

void System::armInjection(bool armed) {
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    sim::FaultInjector* injector = armed ? tiles_[t].injector.get() : nullptr;
    mem_->setTileFaultInjector(t, injector);
    tiles_[t].hht->setFaultInjector(injector);
  }
}

void System::checkPrograms(std::span<const isa::Program> programs,
                           const isa::Program* fallback) const {
  if (programs.size() != numTiles()) {
    throw sim::SimError(sim::ErrorKind::Config, "system",
                        "expected " + std::to_string(numTiles()) +
                            " programs (one per tile), got " +
                            std::to_string(programs.size()));
  }
  if (fallback != nullptr && numTiles() > 1) {
    throw sim::SimError(sim::ErrorKind::Config, "system",
                        "a degradation fallback needs a 1-tile machine; the "
                        "serving layer owns the multi-tile degrade policy");
  }
}

RunResult System::run(std::span<const isa::Program> programs, Addr y_addr,
                      std::uint32_t y_len, Cycle max_cycles,
                      const isa::Program* fallback, RunObserver* observer) {
  checkPrograms(programs, fallback);
  // A fresh run never continues a degraded rerun a restore() left behind
  // (the latched cause and detail are read only while degraded).
  degraded_active_ = false;
  armInjection(true);
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    tiles_[t].cpu->loadProgram(programs[t]);
  }
  host_skipped_cycles_ = 0;
  return runPrimary(programs, y_addr, y_len, 0, max_cycles, fallback,
                    observer);
}

RunResult System::resume(std::span<const isa::Program> programs, Addr y_addr,
                         std::uint32_t y_len, Cycle start_cycle,
                         Cycle max_cycles, const isa::Program* fallback,
                         RunObserver* observer) {
  checkPrograms(programs, fallback);
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    tiles_[t].cpu->installProgram(programs[t]);
  }
  host_skipped_cycles_ = 0;
  if (!degraded_active_) {
    return runPrimary(programs, y_addr, y_len, start_cycle, max_cycles,
                      fallback, observer);
  }
  // The snapshot was taken mid-degraded-fallback: the program is the
  // fallback the machine was re-running. Finish that rerun — injection
  // stays detached, exactly as in the uninterrupted degraded rerun.
  runDegraded(programs[0], start_cycle, max_cycles, observer);
  RunResult result;
  result.degraded = true;
  result.fault_cause = degraded_cause_;
  result.fault_detail = degraded_detail_;
  finishResult(result, y_addr, y_len);
  return result;
}

template <typename Device>
struct System::LoopView {
  Device& device(std::uint32_t t) {
    return static_cast<Device&>(*sys.tiles_[t].hht);
  }
  cpu::Core& core(std::uint32_t t) { return *sys.tiles_[t].cpu; }
  std::uint64_t progress(std::uint32_t t) const {
    const Tile& tile = sys.tiles_[t];
    return *tile.progress[0] + *tile.progress[1] + *tile.progress[2] +
           static_cast<const Device&>(*tile.hht).progressSignal();
  }
  void onCycle(Cycle now) {
    if (observer != nullptr) observer->onCycle(sys, now);
    for (RunObserver* o : sys.observers_) o->onCycle(sys, now);
  }
  std::string dump(Cycle now) const { return sys.dumpDiagnostics(now); }
  // Reset the chunk queue's per-cycle claim budget before the memory tick
  // processes this cycle's MMIO (claims beyond the budget retry next cycle
  // as mem.wq.conflict_cycles).
  void beforeMemTick(Cycle now) {
    if (wq != nullptr) wq->beginCycle(now);
  }

  System& sys;
  RunObserver* observer;
  mem::ChunkQueueDevice* wq;
};

LoopOutcome System::runCycles(Cycle start_cycle, Cycle max_cycles,
                              RunObserver* observer, bool degraded) {
  // An observer (per-run or registered) is entitled to see every executed
  // cycle — the differential oracle samples FIFO occupancy, checkpoint
  // triggers fire at exact cycles — and a trace must record every executed
  // cycle's phase.
  bool every_cycle = !config_.host_fastforward || observer != nullptr ||
                     !observers_.empty() || config_.trace_sink != nullptr;
  for (const Tile& tile : tiles_) every_cycle = every_cycle || tile.sink;
  const LoopOptions options{
      .every_cycle = every_cycle,
      .watchdog_cycles = degraded ? 0 : config_.watchdog_cycles,
      .poll_faults = !degraded};
  if (numTiles() > 1) {
    return runTiles(start_cycle, max_cycles, observer, options);
  }
  // The paper's 1-tile machine: typed on the concrete device (both are
  // final) so the per-cycle dispatch is direct, with the tile count fixed
  // at compile time so every per-tile loop folds away. The function-local
  // view type keeps this instantiation internal with one caller, so it
  // inlines here and the serial loop carries no pool branch.
  const auto oneTile = [&]<typename Device>(std::type_identity<Device>) {
    struct View : LoopView<Device> {
    } view{{*this, observer, wq_.get()}};
    return RunLoop<Device, View, 1>(view, *mem_, 1, options)
        .run(start_cycle, max_cycles, host_skipped_cycles_);
  };
  return config_.programmable_hht ? oneTile(std::type_identity<core::MicroHht>())
                                  : oneTile(std::type_identity<core::Hht>());
}

LoopOutcome System::runTiles(Cycle start_cycle, Cycle max_cycles,
                             RunObserver* observer,
                             const LoopOptions& options) {
  // More than one tile means ASIC HHTs (programmable_hht is 1-tile).
  LoopView<core::Hht> view{*this, observer, wq_.get()};
  RunLoop<core::Hht, LoopView<core::Hht>> loop(view, *mem_, numTiles(),
                                               options);
  // tile_workers is host-only and fingerprint-excluded: the threaded tile
  // phase is bit-identical to the serial one.
  const std::uint32_t workers = std::min(config_.tile_workers, numTiles());
  std::optional<TilePool> pool;
  if (workers > 1) {
    pool.emplace(*mem_, numTiles(), workers,
                 [&loop](std::uint32_t begin, std::uint32_t end, Cycle now) {
                   loop.tickTiles(begin, end, now);
                 });
  }
  return loop.run(start_cycle, max_cycles, host_skipped_cycles_,
                  pool ? &*pool : nullptr);
}

RunResult System::runPrimary(std::span<const isa::Program> programs,
                             Addr y_addr, std::uint32_t y_len,
                             Cycle start_cycle, Cycle max_cycles,
                             const isa::Program* fallback,
                             RunObserver* observer) {
  RunResult result;
  const LoopOutcome out =
      runCycles(start_cycle, max_cycles, observer, /*degraded=*/false);
  if (out.stop == RunStop::Timeout) {
    throw sim::SimError(sim::ErrorKind::Watchdog, "system",
                        "simulation exceeded max_cycles running " +
                            programs[0].name() +
                            (numTiles() > 1 ? " and the other tiles" : ""),
                        dumpDiagnostics(out.now));
  }
  if (out.stop == RunStop::Fault) {
    // Host-side poll of the FAULT MMR (zero simulated cost): the run can
    // never complete with silently wrong data past this point.
    core::HhtDevice& hht = *tiles_[out.fault_tile].hht;
    result.fault_cause = hht.faultCause();
    result.fault_detail = hht.faultDetail();
    if (fallback == nullptr) {
      throw sim::SimError(
          sim::ErrorKind::DeviceFault, "hht",
          std::string("HHT raised fault [") +
              sim::faultCauseName(result.fault_cause) +
              "] with no degradation fallback installed: " +
              result.fault_detail,
          dumpDiagnostics(out.now), errorTile(out.fault_tile));
    }
    degraded_cause_ = result.fault_cause;
    degraded_detail_ = result.fault_detail;
    // Quiesce: stop injecting (the recovery run must succeed), drop every
    // in-flight access (stale responses must not leak into the rerun) and
    // return the device to its reset state.
    armInjection(false);
    mem_->cancelAll();
    hht.reset();
    tiles_[0].cpu->loadProgram(*fallback);
    runDegraded(*fallback, 0, max_cycles, observer);
    result.degraded = true;
  }
  // Horizon marker to every attached sink: the run executed cycles
  // [start_cycle, now], so each profile's total-cycle denominator is now +
  // 1, and per-tile profiles partition the same horizon.
  const auto emitRunEnd = [&](obs::TraceSink* sink) {
    if (sink != nullptr && sink->enabled(obs::Category::kSystem)) {
      sink->emit(out.now, obs::Category::kSystem, obs::Component::kSystem,
                 obs::EventKind::kRunEnd, out.now + 1);
    }
  };
  emitRunEnd(config_.trace_sink);
  for (const Tile& tile : tiles_) {
    if (tile.sink != config_.trace_sink) emitRunEnd(tile.sink);
  }
  finishResult(result, y_addr, y_len);
  return result;
}

void System::finishResult(RunResult& result, Addr y_addr,
                          std::uint32_t y_len) {
  // Wall-clock = slowest tile; wait counters sum across tiles (total CPU
  // cycles burnt stalling on FIFOs, the Fig. 6/7 quantity).
  for (const Tile& tile : tiles_) {
    result.cycles =
        std::max(result.cycles, tile.cpu->stats().value("cpu.cycles"));
    result.retired += tile.cpu->stats().value("cpu.retired");
    result.cpu_wait_cycles += tile.hht->cpuWaitCycles();
    result.hht_wait_cycles += tile.hht->hhtWaitCycles();
    result.hht_residual_busy = result.hht_residual_busy || tile.hht->busy();
  }
  result.y = sparse::DenseVector(
      mem_->sram().peekArray<float>(y_addr, y_len));

  mem_->finalizeStats();
  result.stats.absorb(mem_->stats(), "");
  if (wq_) result.stats.absorb(wq_->stats(), "");
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    // Tile 0 keeps the unprefixed names; tiles 1.. get the "t<N>." prefix
    // the memory system already uses for its per-requester counters.
    const std::string prefix = t == 0 ? "" : "t" + std::to_string(t) + ".";
    const Tile& tile = tiles_[t];
    result.stats.absorb(tile.cpu->stats(), prefix);
    result.stats.absorb(tile.hht->stats(), prefix);
    if (tile.injector) result.stats.absorb(tile.injector->stats(), prefix);
  }
}

std::vector<std::uint8_t> System::checkpoint(
    std::span<const isa::Program> programs, Cycle next_cycle) const {
  checkPrograms(programs, nullptr);
  sim::StateIo w;
  const_cast<System&>(*this).io(w, programs, next_cycle);
  return w.release();
}

Cycle System::restore(const std::vector<std::uint8_t>& snapshot,
                      std::span<const isa::Program> programs) {
  checkPrograms(programs, nullptr);
  sim::StateIo r(snapshot);
  const Cycle next_cycle = io(r, programs, 0);
  // A mid-fallback snapshot resumes with injection detached; resume()
  // re-arms it once the degraded loop completes.
  armInjection(!degraded_active_);
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    tiles_[t].cpu->installProgram(programs[t]);
  }
  return next_cycle;
}

Cycle System::io(sim::StateIo& ar, std::span<const isa::Program> programs,
                 Cycle next_cycle) {
  ar.tag("HHTS");
  std::uint32_t version = kSnapshotVersion;
  ar.u32(version);
  if (version > kSnapshotVersion) {
    // Forward compatibility is explicitly NOT attempted: a newer writer may
    // have added fields this binary cannot even skip safely (sections are
    // length-free), so best-effort reading would load garbage into live
    // component state. Fail structurally instead.
    throw sim::SimError(sim::ErrorKind::Checkpoint, "system",
                        "snapshot version " + std::to_string(version) +
                            " is newer than this binary's supported version " +
                            std::to_string(kSnapshotVersion) +
                            "; refusing best-effort restore (upgrade the "
                            "binary that restores, not the snapshot)");
  }
  if (version != kSnapshotVersion) {
    throw sim::SimError(sim::ErrorKind::Checkpoint, "system",
                        "snapshot version " + std::to_string(version) +
                            " != supported version " +
                            std::to_string(kSnapshotVersion));
  }
  ar.expect64(configFingerprint(config_), "SystemConfig fingerprint");
  ar.expect32(numTiles(), "tile count");
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    const std::uint64_t want = programHash(programs[t]);
    std::string name = programs[t].name();
    std::uint64_t hash = want;
    ar.str(name);
    ar.u64(hash);
    if (name != programs[t].name() || hash != want) {
      throw sim::SimError(sim::ErrorKind::Checkpoint, "system",
                          "snapshot records program '" + name + "', got '" +
                              programs[t].name() + "' (or the code differs)",
                          {}, errorTile(t));
    }
  }
  ar.u64(next_cycle);
  // Degraded-mode continuation state. When taken mid-fallback-rerun the
  // recorded program IS the fallback, and restore()+resume() must land in
  // the degraded loop (injection detached) rather than the primary one.
  // Read into locals and committed only once the whole payload has been
  // read: a rejected snapshot must not leave the machine half-degraded.
  bool degraded = degraded_active_;
  sim::FaultCause cause = degraded_cause_;
  std::string detail = degraded_detail_;
  ar.b(degraded);
  if (degraded) {
    ar.u8(cause, sim::after(sim::FaultCause::StreamCheck), "fault cause");
    ar.str(detail);
  }
  mem_->io(ar);
  // The chunk-queue section is config-implied (the fingerprint pins
  // work_queue_enabled), like the memory system's topology sections.
  if (wq_) wq_->io(ar);
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    // Each tile's fault injector (RNG + stats; config-implied like the
    // chunk queue) precedes its HHT/core sections, so a restored campaign
    // replays the same per-tile fault stream it would have seen
    // uninterrupted. Errors name the tile whose section was being visited:
    // serving logs need it, and the archive only knows the byte offset.
    try {
      Tile& tile = tiles_[t];
      if (tile.injector) tile.injector->io(ar);
      tile.hht->io(ar);
      tile.cpu->io(ar);
    } catch (const sim::SimError& e) {
      throw e.tile() == sim::SimError::kNoTile ? e.withTile(errorTile(t)) : e;
    }
  }
  ar.end();
  if (ar.reading()) {
    degraded_active_ = degraded;
    degraded_cause_ = cause;
    degraded_detail_ = std::move(detail);
  }
  return next_cycle;
}

void System::runDegraded(const isa::Program& fallback, Cycle start_cycle,
                         Cycle max_cycles, RunObserver* observer) {
  // The fallback run restarts its cycle numbering at 0 and never injects
  // or polls the FAULT MMR (the device was reset; the fallback is
  // CPU-only). Observers still see every executed cycle — that is what
  // lets a mid-degraded checkpoint fire at an exact degraded cycle —
  // with degradedActive() distinguishing these cycles from primary ones.
  degraded_active_ = true;
  const LoopOutcome out =
      runCycles(start_cycle, max_cycles, observer, /*degraded=*/true);
  if (out.stop == RunStop::Timeout) {
    throw sim::SimError(sim::ErrorKind::Watchdog, "system",
                        "degraded fallback run exceeded max_cycles running " +
                            fallback.name(),
                        dumpDiagnostics(out.now));
  }
  // Re-arm injection for any subsequent run on this System.
  armInjection(true);
  degraded_active_ = false;
}

std::string System::dumpDiagnostics(Cycle now) const {
  const bool multi = numTiles() > 1;
  std::ostringstream os;
  os << "diagnostic dump at cycle " << now;
  if (multi) os << " (" << numTiles() << " tiles)";
  os << "\n";
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    const std::string tag = multi ? "tile " + std::to_string(t) + " " : "";
    cpu::Core& core = *tiles_[t].cpu;
    os << tag << "cpu: halted=" << core.halted() << " pc=" << core.pc()
       << " retired=" << core.stats().value("cpu.retired")
       << " load_stalls=" << core.stats().value("cpu.load_stall_cycles")
       << "\n";
    os << tag << tiles_[t].hht->describeState() << "\n";
  }
  os << mem_->describeState();
  return os.str();
}

kernels::SpmvLayout loadSpmv(mem::Arena& arena, mem::Sram& sram,
                             const sparse::CsrMatrix& m,
                             const sparse::DenseVector& v) {
  if (v.size() != m.numCols()) {
    throw std::invalid_argument("loadSpmv: vector length != matrix columns");
  }
  kernels::SpmvLayout layout;
  layout.num_rows = m.numRows();
  layout.rows = arena.place<sim::Index>(sram, m.rowPtr());
  layout.cols = arena.place<sim::Index>(sram, m.cols());
  layout.vals = arena.place<float>(sram, m.vals());
  layout.v = arena.place<float>(sram, v.data());
  layout.y = arena.allocate(static_cast<std::size_t>(m.numRows()) * 4);
  return layout;
}

kernels::SpmvLayout loadSpmv(System& sys, const sparse::CsrMatrix& m,
                             const sparse::DenseVector& v) {
  return loadSpmv(sys.arena(), sys.memory().sram(), m, v);
}

kernels::SpmspvLayout loadSpmspv(mem::Arena& arena, mem::Sram& sram,
                                 const sparse::CsrMatrix& m,
                                 const sparse::SparseVector& v) {
  if (v.size() != m.numCols()) {
    throw std::invalid_argument("loadSpmspv: vector length != matrix columns");
  }
  kernels::SpmspvLayout layout;
  layout.num_rows = m.numRows();
  layout.v_nnz = v.nnz();
  layout.rows = arena.place<sim::Index>(sram, m.rowPtr());
  layout.cols = arena.place<sim::Index>(sram, m.cols());
  layout.vals = arena.place<float>(sram, m.vals());
  layout.vidx = arena.place<sim::Index>(sram, v.indices());
  layout.vvals = arena.place<float>(sram, v.vals());
  layout.y = arena.allocate(static_cast<std::size_t>(m.numRows()) * 4);
  return layout;
}

kernels::SpmspvLayout loadSpmspv(System& sys, const sparse::CsrMatrix& m,
                                 const sparse::SparseVector& v) {
  return loadSpmspv(sys.arena(), sys.memory().sram(), m, v);
}

kernels::HierLayout loadHier(System& sys, const sparse::HierBitmapMatrix& m,
                             const sparse::DenseVector& v) {
  if (v.size() != m.numCols()) {
    throw std::invalid_argument("loadHier: vector length != matrix columns");
  }
  mem::Arena& arena = sys.arena();
  mem::Sram& sram = sys.memory().sram();
  kernels::HierLayout layout;
  layout.num_rows = m.numRows();
  layout.num_cols = m.numCols();
  // uint64 words laid out little-endian: the engine's 32-bit reads see
  // bits [i*32, i*32+32) at word offset i, as it expects.
  layout.l1 = arena.place<std::uint64_t>(sram, m.level1(), 8);
  layout.leaves = arena.place<std::uint64_t>(sram, m.leaves(), 8);
  layout.packed_vals = arena.place<float>(sram, m.vals());
  layout.v = arena.place<float>(sram, v.data());
  layout.y = arena.allocate(static_cast<std::size_t>(m.numRows()) * 4);
  return layout;
}

kernels::SpmmLayout loadSpmm(System& sys, const sparse::CsrMatrix& m,
                             const sparse::DenseMatrix& b) {
  if (b.numRows() != m.numCols()) {
    throw std::invalid_argument("loadSpmm: B rows != matrix columns");
  }
  mem::Arena& arena = sys.arena();
  mem::Sram& sram = sys.memory().sram();
  kernels::SpmmLayout layout;
  layout.num_rows = m.numRows();
  layout.num_cols = m.numCols();
  layout.k = b.numCols();
  layout.rows = arena.place<sim::Index>(sram, m.rowPtr());
  layout.cols = arena.place<sim::Index>(sram, m.cols());
  layout.vals = arena.place<float>(sram, m.vals());
  // Column-major copy of B.
  std::vector<float> colmajor(static_cast<std::size_t>(b.numRows()) * b.numCols());
  for (sim::Index j = 0; j < b.numCols(); ++j) {
    for (sim::Index i = 0; i < b.numRows(); ++i) {
      colmajor[static_cast<std::size_t>(j) * b.numRows() + i] = b.at(i, j);
    }
  }
  layout.b = arena.place<float>(sram, colmajor);
  layout.y = arena.allocate(static_cast<std::size_t>(m.numRows()) * b.numCols() * 4);
  return layout;
}

kernels::HierLayout loadFlatBitmap(System& sys, const sparse::BitVectorMatrix& m,
                                   const sparse::DenseVector& v) {
  if (v.size() != m.numCols()) {
    throw std::invalid_argument("loadFlatBitmap: vector length != matrix columns");
  }
  mem::Arena& arena = sys.arena();
  mem::Sram& sram = sys.memory().sram();
  kernels::HierLayout layout;
  layout.num_rows = m.numRows();
  layout.num_cols = m.numCols();
  layout.l1 = 0;  // unused in flat mode
  layout.leaves = arena.place<std::uint64_t>(sram, m.words(), 8);
  layout.packed_vals = arena.place<float>(sram, m.vals());
  layout.v = arena.place<float>(sram, v.data());
  layout.y = arena.allocate(static_cast<std::size_t>(m.numRows()) * 4);
  return layout;
}

}  // namespace hht::harness
