#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/system.h"
#include "mem/work_queue.h"

namespace hht::harness {

class MultiTileSystem;

/// Per-cycle observer of a running MultiTileSystem (the multi-tile
/// differential oracle's hook; mirrors harness::RunObserver). Attaching one
/// selects the every-cycle schedule — observers see every executed cycle.
class MultiTileObserver {
 public:
  virtual ~MultiTileObserver() = default;
  virtual void onCycle(MultiTileSystem& sys, Cycle now) = 0;
};

/// N {cpu::Core + core::Hht} tiles over one shared banked MemorySystem
/// (multi-tile scale-out, DESIGN.md §13). The tile count comes from
/// config.memory.num_tiles; each tile's BE and core tag their memory
/// traffic with the tile id (arbiter ports tile*2 and tile*2+1) and the
/// tile's HHT sits behind its own MMIO window at mmioBaseOf(tile), so
/// kernels for tile t must be built against that base.
///
/// Per cycle, in fixed order: every tile's HHT ticks, then every tile's
/// core, then the shared memory system — for num_tiles=1 this is exactly
/// System's lockstep, and a 1-tile MultiTileSystem is cycle- and
/// bit-identical to a System under the same config.
///
/// Fault injection (config.faults) is per tile: each tile draws from its
/// own seeded FaultInjector (tile 0 keeps config.faults.seed so a 1-tile
/// faulty MultiTileSystem stays bit-identical to a System; other tiles mix
/// the tile index into the seed), so one tile's fault history never
/// perturbs another's. There is no graceful-degradation fallback at this
/// level — a tile's HHT fault surfaces as a SimError(DeviceFault) carrying
/// the tile index, and the serving layer (src/serve) owns the retry /
/// degrade / quarantine policy. Each tile is also watched by its own
/// forward-progress watchdog, so a wedged tile fires SimError(Watchdog)
/// attributed to that tile.
///
/// Deliberately narrower than System: ASIC HHTs only (programmable_hht is
/// rejected).
class MultiTileSystem {
 public:
  explicit MultiTileSystem(const SystemConfig& config);

  std::uint32_t numTiles() const { return num_tiles_; }
  mem::MemorySystem& memory() { return *mem_; }
  mem::Arena& arena() { return arena_; }
  const SystemConfig& config() const { return config_; }
  cpu::Core& cpu(std::uint32_t tile) { return *cpus_.at(tile); }
  core::Hht& hht(std::uint32_t tile) { return *hhts_.at(tile); }
  /// Tile `tile`'s fault injector; null unless config().faults.enabled.
  sim::FaultInjector* faultInjector(std::uint32_t tile) {
    return injectors_.at(tile).get();
  }
  /// Tile t's MMIO window base — the mmio_base to build tile t's kernel
  /// against.
  Addr mmioBaseOf(std::uint32_t tile) const { return mem_->mmioBaseOf(tile); }

  /// Shared chunk-queue device (config.memory.work_queue_enabled), nullptr
  /// otherwise. The harness seeds chunks before run(); the per-row oracle
  /// mode drains its claim log.
  mem::ChunkQueueDevice* workQueue() { return wq_.get(); }
  const mem::ChunkQueueDevice* workQueue() const { return wq_.get(); }
  /// Base of the shared work-queue MMIO window (window index num_tiles);
  /// tile t's claim register is workQueueBase() + 4*t.
  Addr workQueueBase() const { return mem_->mmioBaseOf(num_tiles_); }

  /// Attach a structured trace sink to tile `tile`'s core + HHT (host-only;
  /// the shared memory system and the kRunEnd horizon marker use
  /// config.trace_sink). One sink per tile keeps per-tile stall profiles
  /// separable: each tile's stream folds into an obs::ProfileReport whose
  /// buckets partition the SAME horizon, because every sink receives the
  /// run's kRunEnd. Any attached sink selects the every-cycle schedule.
  void setTileTraceSink(std::uint32_t tile, obs::TraceSink* sink);

  /// Run one program per tile (programs.size() == numTiles()) until every
  /// core has halted and the memory system has drained, then read back
  /// `y_len` floats at `y_addr`. RunResult::cycles is the wall-clock (max
  /// per-tile core cycles); per-tile counters land in RunResult::stats
  /// under the tile-0-unprefixed / "t<N>."-prefixed naming the memory
  /// system's stats already use.
  RunResult run(const std::vector<isa::Program>& programs, Addr y_addr,
                std::uint32_t y_len, Cycle max_cycles = 500'000'000,
                MultiTileObserver* observer = nullptr);

  /// Continue a restore()d run from `start_cycle` (programs installed
  /// without reset; all state came from the snapshot).
  RunResult resume(const std::vector<isa::Program>& programs, Addr y_addr,
                   std::uint32_t y_len, Cycle start_cycle,
                   Cycle max_cycles = 500'000'000,
                   MultiTileObserver* observer = nullptr);

  /// Snapshot (kSnapshotVersion) with per-tile sections: the common header
  /// (magic, version, config fingerprint) is followed by the tile count,
  /// each tile's program identity, the shared memory system, and one
  /// injector(v4)+HHT+core section per tile.
  std::vector<std::uint8_t> checkpoint(
      const std::vector<isa::Program>& programs, Cycle next_cycle) const;

  /// Restore a checkpoint() snapshot. Config fingerprint, tile count and
  /// every tile's program identity must match; any mismatch, version skew
  /// (including newer-than-supported) or corruption throws
  /// SimError(Checkpoint). Returns the cycle to pass to resume().
  Cycle restore(const std::vector<std::uint8_t>& snapshot,
                const std::vector<isa::Program>& programs);

  /// Multi-line per-tile diagnostic dump (watchdog reports).
  std::string dumpDiagnostics(Cycle now) const;

  /// Cycles the run loop jumped with no component ticked during the most
  /// recent run() / resume() (host diagnostic, never a simulated stat).
  std::uint64_t hostSkippedCycles() const { return host_skipped_cycles_; }

 private:
  /// Drive the shared run loop (harness/run_loop.h) over every tile from
  /// `start_cycle`; throws with the tile on a fault or a wedged tile.
  RunResult runFrom(Addr y_addr, std::uint32_t y_len, Cycle start_cycle,
                    Cycle max_cycles, MultiTileObserver* observer);
  void checkProgramCount(const std::vector<isa::Program>& programs) const;

  SystemConfig config_;
  std::uint32_t num_tiles_;
  std::unique_ptr<mem::MemorySystem> mem_;
  /// Per-tile injectors (empty slots when faults are disabled).
  std::vector<std::unique_ptr<sim::FaultInjector>> injectors_;
  std::vector<std::unique_ptr<core::Hht>> hhts_;
  std::vector<std::unique_ptr<cpu::Core>> cpus_;
  /// Shared work-queue device behind MMIO window num_tiles (null unless
  /// config.memory.work_queue_enabled).
  std::unique_ptr<mem::ChunkQueueDevice> wq_;
  std::vector<obs::TraceSink*> tile_sinks_;  ///< per tile; may hold nulls
  mem::Arena arena_;
  std::uint64_t host_skipped_cycles_ = 0;
};

}  // namespace hht::harness
