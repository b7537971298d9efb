#include "harness/multi_tile.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "harness/run_loop.h"

namespace hht::harness {

namespace {
constexpr Addr kArenaBase = 0x1000;  // matches System: address 0 stays unmapped

/// Pre-construction validation: same hook as System, plus the multi-tile
/// restriction (ASIC HHTs only — the programmable HHT models a single-tile
/// microarchitecture study and has no per-tile story).
const SystemConfig& multiTileValidated(const SystemConfig& config) {
  config.validate();
  if (config.programmable_hht) {
    throw sim::SimError(sim::ErrorKind::Config, "multi_tile",
                        "MultiTileSystem supports ASIC HHTs only "
                        "(programmable_hht requires harness::System)");
  }
  return config;
}

/// Tile t's fault configuration: tile 0 keeps the base seed (a 1-tile
/// faulty MultiTileSystem must stay bit-identical to a System under the
/// same config); other tiles mix the tile index in with a golden-ratio
/// stride so per-tile fault streams are independent but reproducible.
sim::FaultConfig tileFaultConfig(const sim::FaultConfig& base,
                                 std::uint32_t tile) {
  sim::FaultConfig f = base;
  f.seed = base.seed + 0x9E3779B97F4A7C15ull * tile;
  return f;
}
}  // namespace

MultiTileSystem::MultiTileSystem(const SystemConfig& config)
    : config_(multiTileValidated(config)),
      num_tiles_(config.memory.num_tiles),
      mem_(std::make_unique<mem::MemorySystem>(config.memory)),
      tile_sinks_(config.memory.num_tiles, nullptr),
      arena_(kArenaBase, config.memory.sram_bytes - kArenaBase) {
  hhts_.reserve(num_tiles_);
  cpus_.reserve(num_tiles_);
  injectors_.resize(num_tiles_);
  for (std::uint32_t t = 0; t < num_tiles_; ++t) {
    hhts_.push_back(std::make_unique<core::Hht>(config.hht, *mem_, t));
    mem_->attachMmioDevice(hhts_.back().get(), t);
    cpus_.push_back(std::make_unique<cpu::Core>(
        config.timing, *mem_, config.vlmax, mem::Requester::Cpu, t));
    if (config.faults.enabled) {
      injectors_[t] = std::make_unique<sim::FaultInjector>(
          tileFaultConfig(config.faults, t));
      mem_->setTileFaultInjector(t, injectors_[t].get());
      hhts_[t]->setFaultInjector(injectors_[t].get());
    }
  }
  if (config.memory.work_queue_enabled) {
    wq_ = std::make_unique<mem::ChunkQueueDevice>(num_tiles_);
    mem_->attachMmioDevice(wq_.get(), num_tiles_);
  }
  if (config.trace_sink != nullptr) {
    mem_->setTraceSink(config.trace_sink);
    if (wq_) wq_->setTraceSink(config.trace_sink);
  }
}

void MultiTileSystem::setTileTraceSink(std::uint32_t tile,
                                       obs::TraceSink* sink) {
  tile_sinks_.at(tile) = sink;
  cpus_.at(tile)->setTraceSink(sink, obs::Component::kCpu);
  hhts_.at(tile)->setTraceSink(sink);
}

void MultiTileSystem::checkProgramCount(
    const std::vector<isa::Program>& programs) const {
  if (programs.size() != num_tiles_) {
    throw sim::SimError(sim::ErrorKind::Config, "multi_tile",
                        "expected " + std::to_string(num_tiles_) +
                            " programs (one per tile), got " +
                            std::to_string(programs.size()));
  }
}

RunResult MultiTileSystem::run(const std::vector<isa::Program>& programs,
                               Addr y_addr, std::uint32_t y_len,
                               Cycle max_cycles, MultiTileObserver* observer) {
  checkProgramCount(programs);
  for (std::uint32_t t = 0; t < num_tiles_; ++t) {
    cpus_[t]->loadProgram(programs[t]);
  }
  return runFrom(y_addr, y_len, 0, max_cycles, observer);
}

RunResult MultiTileSystem::resume(const std::vector<isa::Program>& programs,
                                  Addr y_addr, std::uint32_t y_len,
                                  Cycle start_cycle, Cycle max_cycles,
                                  MultiTileObserver* observer) {
  checkProgramCount(programs);
  for (std::uint32_t t = 0; t < num_tiles_; ++t) {
    cpus_[t]->installProgram(programs[t]);
  }
  return runFrom(y_addr, y_len, start_cycle, max_cycles, observer);
}

RunResult MultiTileSystem::runFrom(Addr y_addr, std::uint32_t y_len,
                                   Cycle start_cycle, Cycle max_cycles,
                                   MultiTileObserver* observer) {
  // One watchdog per tile over that tile's own progress sum (its core's
  // retirement, its HHT's FIFO/BE activity, its two arbiter ports' grants):
  // a single wedged tile fires SimError(Watchdog) attributed to that tile
  // even while the others keep the global sum moving. Halted tiles are
  // excluded — a tile that finished early makes no progress by design.
  struct View {
    MultiTileSystem& sys;
    MultiTileObserver* observer;
    std::vector<const std::uint64_t*> counters;  ///< 3 per tile
    core::Hht& device(std::uint32_t t) { return *sys.hhts_[t]; }
    cpu::Core& core(std::uint32_t t) { return *sys.cpus_[t]; }
    std::uint64_t progress(std::uint32_t t) const {
      return *counters[3 * t] + sys.hhts_[t]->progressSignal() +
             *counters[3 * t + 1] + *counters[3 * t + 2];
    }
    bool watched(std::uint32_t t) const { return !sys.cpus_[t]->halted(); }
    void onCycle(Cycle now) {
      if (observer != nullptr) observer->onCycle(sys, now);
    }
    std::string dump(Cycle now) const { return sys.dumpDiagnostics(now); }
    // Reset the chunk queue's per-cycle claim budget before the memory
    // tick processes this cycle's MMIO (claims beyond the budget retry
    // next cycle as mem.wq.conflict_cycles).
    void beforeMemTick(Cycle now) {
      if (sys.wq_) sys.wq_->beginCycle(now);
    }
  } view{*this, observer, {}};
  for (std::uint32_t t = 0; t < num_tiles_; ++t) {
    view.counters.push_back(&cpus_[t]->stats().counter("cpu.retired"));
    for (const std::uint32_t port : {2 * t, 2 * t + 1}) {
      view.counters.push_back(&mem_->stats().counter(
          "mem." + mem::requesterLabel(port) + ".grants"));
    }
  }
  // Any observer or any attached sink (shared or per-tile) must see every
  // executed cycle.
  bool every_cycle = !config_.host_fastforward || observer != nullptr ||
                     config_.trace_sink != nullptr;
  for (obs::TraceSink* s : tile_sinks_) every_cycle = every_cycle || s;
  const LoopOptions options{.every_cycle = every_cycle,
                            .watchdog_cycles = config_.watchdog_cycles,
                            .tile_watchdogs = true};
  RunLoop<core::Hht, View> loop(view, *mem_, num_tiles_, options);
  // tile_workers is host-only and fingerprint-excluded: the threaded tile
  // phase is bit-identical to the serial one.
  const std::uint32_t workers = std::min(config_.tile_workers, num_tiles_);
  std::optional<TilePool> pool;
  if (workers > 1) {
    pool.emplace(*mem_, num_tiles_, workers,
                 [&loop](std::uint32_t begin, std::uint32_t end, Cycle now) {
                   loop.tickTiles(begin, end, now);
                 });
  }
  host_skipped_cycles_ = 0;
  const LoopOutcome out = loop.run(start_cycle, max_cycles,
                                   host_skipped_cycles_,
                                   pool ? &*pool : nullptr);
  const Cycle now = out.now;
  if (out.stop == RunStop::Timeout) {
    throw sim::SimError(sim::ErrorKind::Watchdog, "multi_tile",
                        "simulation exceeded max_cycles (" +
                            std::to_string(num_tiles_) + " tiles)",
                        dumpDiagnostics(now));
  }
  if (out.stop == RunStop::Fault) {
    const std::uint32_t t = out.fault_tile;
    throw sim::SimError(
        sim::ErrorKind::DeviceFault, "multi_tile",
        "tile " + std::to_string(t) + " HHT raised fault [" +
            sim::faultCauseName(hhts_[t]->faultCause()) +
            "]: " + hhts_[t]->faultDetail(),
        dumpDiagnostics(now), static_cast<int>(t));
  }
  // Horizon marker to every attached sink: per-tile profiles must all use
  // the run's shared denominator (the buckets of each tile partition the
  // SAME wall-clock horizon).
  const auto emitRunEnd = [&](obs::TraceSink* sink) {
    if (sink != nullptr && sink->enabled(obs::Category::kSystem)) {
      sink->emit(now, obs::Category::kSystem, obs::Component::kSystem,
                 obs::EventKind::kRunEnd, now + 1);
    }
  };
  emitRunEnd(config_.trace_sink);
  for (obs::TraceSink* s : tile_sinks_) {
    if (s != config_.trace_sink) emitRunEnd(s);
  }

  // Wall-clock = slowest tile; wait counters sum across tiles (total CPU
  // cycles burnt stalling on FIFOs, the Fig. 6/7 quantity).
  RunResult result;
  for (std::uint32_t t = 0; t < num_tiles_; ++t) {
    result.cycles = std::max(result.cycles, cpus_[t]->stats().value("cpu.cycles"));
    result.retired += cpus_[t]->stats().value("cpu.retired");
    result.cpu_wait_cycles += hhts_[t]->cpuWaitCycles();
    result.hht_wait_cycles += hhts_[t]->hhtWaitCycles();
    result.hht_residual_busy = result.hht_residual_busy || hhts_[t]->busy();
  }
  result.y = sparse::DenseVector(mem_->sram().peekArray<float>(y_addr, y_len));

  mem_->finalizeStats();
  result.stats.absorb(mem_->stats(), "");
  if (wq_) result.stats.absorb(wq_->stats(), "");
  for (std::uint32_t t = 0; t < num_tiles_; ++t) {
    // Tile 0 keeps the historic unprefixed names (a 1-tile MultiTileSystem's
    // stats are a System's stats); tiles 1.. get the same "t<N>." prefix the
    // memory system already uses for its per-requester counters.
    const std::string prefix = t == 0 ? "" : "t" + std::to_string(t) + ".";
    result.stats.absorb(cpus_[t]->stats(), prefix);
    result.stats.absorb(hhts_[t]->stats(), prefix);
    if (injectors_[t]) result.stats.absorb(injectors_[t]->stats(), prefix);
  }
  return result;
}

std::vector<std::uint8_t> MultiTileSystem::checkpoint(
    const std::vector<isa::Program>& programs, Cycle next_cycle) const {
  checkProgramCount(programs);
  sim::StateWriter w;
  w.tag("HHTS");
  w.u32(kSnapshotVersion);
  w.u64(configFingerprint(config_));
  w.u32(num_tiles_);
  for (const isa::Program& p : programs) {
    w.str(p.name());
    w.u64(programHash(p));
  }
  w.u64(next_cycle);
  mem_->serialize(w);
  // v7: the chunk-queue section is config-implied (the fingerprint pins
  // work_queue_enabled), like the memory system's topology sections.
  if (wq_) wq_->serialize(w);
  for (std::uint32_t t = 0; t < num_tiles_; ++t) {
    // v4: each tile's fault-injector (RNG + stats) precedes its HHT/core
    // sections, so a restored campaign replays the same per-tile fault
    // stream it would have seen uninterrupted.
    w.b(injectors_[t] != nullptr);
    if (injectors_[t]) injectors_[t]->serialize(w);
    hhts_[t]->serialize(w);
    cpus_[t]->serialize(w);
  }
  return w.data();
}

Cycle MultiTileSystem::restore(const std::vector<std::uint8_t>& snapshot,
                               const std::vector<isa::Program>& programs) {
  checkProgramCount(programs);
  sim::StateReader r(snapshot);
  r.expectTag("HHTS");
  const std::uint32_t version = r.u32();
  if (version > kSnapshotVersion) {
    throw sim::SimError(sim::ErrorKind::Checkpoint, "multi_tile",
                        "snapshot version " + std::to_string(version) +
                            " is newer than this binary's supported version " +
                            std::to_string(kSnapshotVersion) +
                            "; refusing best-effort restore (upgrade the "
                            "binary that restores, not the snapshot)");
  }
  if (version != kSnapshotVersion) {
    throw sim::SimError(sim::ErrorKind::Checkpoint, "multi_tile",
                        "snapshot version " + std::to_string(version) +
                            " != supported version " +
                            std::to_string(kSnapshotVersion));
  }
  const std::uint64_t fingerprint = r.u64();
  if (fingerprint != configFingerprint(config_)) {
    throw sim::SimError(sim::ErrorKind::Checkpoint, "multi_tile",
                        "snapshot was taken under a different SystemConfig "
                        "(fingerprint mismatch)");
  }
  const std::uint32_t tiles = r.u32();
  if (tiles != num_tiles_) {
    throw sim::SimError(sim::ErrorKind::Checkpoint, "multi_tile",
                        "snapshot records " + std::to_string(tiles) +
                            " tiles, this system has " +
                            std::to_string(num_tiles_));
  }
  for (std::uint32_t t = 0; t < num_tiles_; ++t) {
    const std::string prog_name = r.str();
    const std::uint64_t prog_hash = r.u64();
    if (prog_name != programs[t].name() ||
        prog_hash != programHash(programs[t])) {
      throw sim::SimError(sim::ErrorKind::Checkpoint, "multi_tile",
                          "tile " + std::to_string(t) +
                              " snapshot records program '" + prog_name +
                              "', got '" + programs[t].name() +
                              "' (or the code differs)",
                          {}, static_cast<int>(t));
    }
  }
  const Cycle next_cycle = r.u64();
  mem_->deserialize(r);
  if (wq_) wq_->deserialize(r);
  for (std::uint32_t t = 0; t < num_tiles_; ++t) {
    // Attribute section-level corruption to the tile whose section was
    // being decoded — serving logs need to name the tile, and the reader's
    // own errors only know the byte offset.
    try {
      const bool has_injector = r.b();
      if (has_injector != (injectors_[t] != nullptr)) {
        throw sim::SimError(sim::ErrorKind::Checkpoint, "multi_tile",
                            "snapshot fault-injector presence does not "
                            "match this system's tile");
      }
      if (injectors_[t]) injectors_[t]->deserialize(r);
      hhts_[t]->deserialize(r);
      cpus_[t]->deserialize(r);
    } catch (const sim::SimError& e) {
      throw e.tile() == sim::SimError::kNoTile ? e.withTile(static_cast<int>(t))
                                               : e;
    }
  }
  if (!r.atEnd()) {
    throw sim::SimError(sim::ErrorKind::Checkpoint, "multi_tile",
                        std::to_string(r.remaining()) +
                            " trailing bytes after snapshot payload");
  }
  for (std::uint32_t t = 0; t < num_tiles_; ++t) {
    cpus_[t]->installProgram(programs[t]);
  }
  return next_cycle;
}

std::string MultiTileSystem::dumpDiagnostics(Cycle now) const {
  std::ostringstream os;
  os << "diagnostic dump at cycle " << now << " (" << num_tiles_
     << " tiles)\n";
  for (std::uint32_t t = 0; t < num_tiles_; ++t) {
    os << "tile " << t << " cpu: halted=" << cpus_[t]->halted()
       << " pc=" << cpus_[t]->pc()
       << " retired=" << cpus_[t]->stats().value("cpu.retired")
       << " load_stalls=" << cpus_[t]->stats().value("cpu.load_stall_cycles")
       << "\n";
    os << "tile " << t << " " << hhts_[t]->describeState() << "\n";
  }
  os << mem_->describeState();
  return os.str();
}

}  // namespace hht::harness
