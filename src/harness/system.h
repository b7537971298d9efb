#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/device.h"
#include "core/hht.h"
#include "core/micro_hht.h"
#include "cpu/core.h"
#include "cpu/timing.h"
#include "kernels/kernels.h"
#include "mem/layout.h"
#include "mem/memory_system.h"
#include "sparse/csr.h"
#include "sparse/dense.h"
#include "sparse/bitvector.h"
#include "sparse/hier_bitmap.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sim/state_io.h"
#include "sparse/sparse_vector.h"

namespace hht::harness {

using sim::Addr;
using sim::Cycle;

/// Full simulated-machine configuration (Table 1 defaults).
struct SystemConfig {
  cpu::TimingConfig timing;
  mem::MemorySystemConfig memory;
  core::HhtConfig hht;
  int vlmax = 8;  ///< Table 1: VL = 8 elements (Fig. 8 sweeps 1/4/8)
  /// Instantiate the §7 programmable HHT (core::MicroHht) instead of the
  /// ASIC engines. Firmware must then be installed via System::microHht().
  bool programmable_hht = false;
  cpu::TimingConfig micro_timing;  ///< the micro-core's own latencies
  /// Fault-injection knobs (disabled by default: zero cost, identical
  /// cycle-for-cycle behaviour to a build without the fault layer).
  sim::FaultConfig faults;
  /// Forward-progress watchdog period: a run with this many consecutive
  /// cycles of no retired instruction, no SRAM grant and no FIFO pop is
  /// declared wedged (SimError(Watchdog) with a diagnostic dump). 0
  /// disables the watchdog; the max_cycles ceiling still applies.
  Cycle watchdog_cycles = 100'000;
  /// Host-side acceleration of the run loop (DESIGN.md §11): when no
  /// observer or trace sink is attached, the loop is event-scheduled —
  /// components tick only on cycles they have work, idle cycles are bulk-
  /// credited, and stretches where nothing is due are jumped — with results
  /// bit-identical to ticking every component every cycle. false forces
  /// that every-cycle reference schedule (--no-fastforward in the benches)
  /// for A/B verification. Host-only tooling: deliberately excluded from
  /// writeSystemConfig/readSystemConfig and the snapshot fingerprint,
  /// because two configs differing only here describe the same machine.
  bool host_fastforward = true;
  /// Worker threads for MultiTileSystem's tile phase (DESIGN.md §11):
  /// tiles tick in parallel between shared-memory epochs, exchanging
  /// requests at the epoch boundary in canonical tile order, so results
  /// and snapshot bytes stay bit-identical to the serial schedule. 1 =
  /// serial (the default); clamped to the tile count. Host-only,
  /// fingerprint-excluded; ignored by the single-tile System.
  std::uint32_t tile_workers = 1;
  /// Optional cycle-accurate trace sink (src/obs, DESIGN.md §12). Host-only
  /// tooling exactly like host_fastforward: excluded from
  /// writeSystemConfig/readSystemConfig and the snapshot fingerprint — a
  /// traced machine and an untraced machine are the same simulated machine.
  /// Attaching a sink forces the every-cycle schedule (every executed
  /// cycle must be observed) but never changes results, stats or snapshot
  /// bytes. The sink must outlive the System.
  obs::TraceSink* trace_sink = nullptr;

  /// Reject broken configurations with SimError(Config); called by the
  /// System constructor before any component is built.
  void validate() const {
    memory.validate();
    hht.validate();
    faults.validate();
    if (vlmax < 1) {
      throw sim::SimError(sim::ErrorKind::Config, "system",
                          "vlmax must be >= 1");
    }
  }
};

/// Canonical binary serialization of a SystemConfig: the byte stream the
/// snapshot fingerprint hashes, and the representation replay bundles embed
/// so a failure reproduces under the exact machine configuration.
void writeSystemConfig(sim::StateWriter& w, const SystemConfig& cfg);
SystemConfig readSystemConfig(sim::StateReader& r);

/// Snapshot format version written after the "HHTS" magic (bytes 4..8).
/// v2: StatSet gained interval histograms. v3: multi-tile scale-out —
/// MemAccess records carry a tile byte, the arbiter serializes its
/// rotation pointers + CPU streak, writeSystemConfig covers
/// num_tiles/cpu_starvation_limit, and MultiTileSystem snapshots append
/// per-tile HHT/CPU sections. v4: degraded-mode continuation — System
/// snapshots record whether the machine was mid-degraded-fallback (plus
/// the latched fault cause/detail) so a checkpoint taken during the
/// graceful-degradation rerun restores into the degraded loop, and
/// MultiTileSystem snapshots carry per-tile fault-injector sections.
/// v5: data-integrity subsystem — buffer/emission slots carry the poison
/// bit and e2e check tag, the BE/FE running stream CRCs are serialized,
/// the SRAM appends its latent-flip registry, the memory system appends
/// the patrol scrubber's cursor and due-cycle, and the fault injector
/// appends its silent-flip ordinal counter. writeSystemConfig is
/// unchanged: the integrity knobs are fingerprint-excluded (like
/// host_fastforward) because with no corruption they never change an
/// architectural outcome.
/// v6: per-requester request-id streams — the memory system serializes one
/// sequence counter per arbiter port instead of the v5 global next_id_
/// (ids are now allocation-order-independent across requesters, the
/// property the threaded multi-tile epoch protocol relies on).
/// v7: dynamic work distribution — writeSystemConfig appends
/// mem.work_queue_enabled (architectural: the claim schedule is machine
/// behaviour), and MultiTileSystem snapshots append the ChunkQueueDevice
/// section (per-tile chunk deques, the claim log and the wq stat block)
/// after the memory system when the queue is enabled.
/// restore() fails with SimError(Checkpoint) on any other version — and
/// with a distinct "newer than this binary" error when the snapshot is
/// from the future (no best-effort field skipping).
inline constexpr std::uint32_t kSnapshotVersion = 7;

/// FNV-1a fingerprint of writeSystemConfig(cfg)'s bytes — the identity
/// restore() checks before touching any component state.
std::uint64_t configFingerprint(const SystemConfig& cfg);

/// FNV-1a hash of a program's name + encoded instructions (snapshots record
/// programs by identity, never by contents).
std::uint64_t programHash(const isa::Program& program);

/// Outcome of simulating one kernel to completion.
struct RunResult {
  std::uint64_t cycles = 0;           ///< CPU cycles to ECALL
  std::uint64_t retired = 0;          ///< dynamic instruction count
  std::uint64_t cpu_wait_cycles = 0;  ///< CPU stalled on the HHT FE (Fig. 6/7)
  std::uint64_t hht_wait_cycles = 0;  ///< BE throttled on full buffers
  bool hht_residual_busy = false;     ///< HHT still busy after ECALL (kernel bug)
  /// The HHT faulted mid-run and the result was recomputed on the scalar
  /// software baseline: `y` is correct, the timing fields cover both runs.
  bool degraded = false;
  sim::FaultCause fault_cause = sim::FaultCause::None;  ///< when degraded
  std::string fault_detail;                             ///< when degraded
  sparse::DenseVector y;              ///< output vector read back from SRAM
  sim::StatSet stats;                 ///< merged cpu/mem/hht counters

  double cpuWaitFraction() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(cpu_wait_cycles) /
                             static_cast<double>(cycles);
  }
};

class System;
struct LoopOutcome;

/// Per-cycle observer of a running System. The differential oracle uses
/// this for its periodic FIFO-occupancy invariants; tests use it to trigger
/// mid-run checkpoints. Called after the three component ticks and the
/// fault poll of each cycle, before halt detection — so the observer sees
/// every cycle the machine actually executed.
class RunObserver {
 public:
  virtual ~RunObserver() = default;
  virtual void onCycle(System& sys, Cycle now) = 0;
};

/// One simulated machine instance: memory system + HHT + core, advanced in
/// lock-step (HHT first so its publications are CPU-visible next cycle,
/// then CPU, then the memory system which arbitrates both).
class System {
 public:
  explicit System(const SystemConfig& config);

  mem::MemorySystem& memory() { return *mem_; }
  cpu::Core& cpu() { return *cpu_; }
  core::HhtDevice& hht() { return *hht_; }
  /// Non-null when configured with programmable_hht.
  core::MicroHht* microHht() { return micro_hht_; }
  /// Non-null for the default (ASIC) device; the oracle's tap/invariant
  /// hooks live on the concrete core::Hht.
  core::Hht* asicHht() { return asic_hht_; }
  mem::Arena& arena() { return arena_; }
  const SystemConfig& config() const { return config_; }
  /// Non-null when config().faults.enabled.
  sim::FaultInjector* faultInjector() { return injector_.get(); }

  /// Run `program` to ECALL (plus memory drain); read back `y_len` floats
  /// from `y_addr`.
  ///
  /// Failure handling:
  /// - HHT fault detected mid-run: if `fallback` is non-null the system
  ///   gracefully degrades — injection is disabled, the device and memory
  ///   system are quiesced, and `fallback` (the scalar software baseline,
  ///   which must fully overwrite y) re-runs to completion; the result has
  ///   degraded=true with the fault recorded. Without a fallback the fault
  ///   becomes a SimError(DeviceFault) carrying a diagnostic dump.
  /// - No forward progress for config().watchdog_cycles: SimError(Watchdog)
  ///   with a dump naming the stalled components.
  /// - `max_cycles` elapsed: SimError(Watchdog) — a deadlocked kernel is
  ///   always a bug, never a valid result.
  RunResult run(const isa::Program& program, Addr y_addr, std::uint32_t y_len,
                Cycle max_cycles = 500'000'000,
                const isa::Program* fallback = nullptr,
                RunObserver* observer = nullptr);

  /// Continue a run previously restore()d from a snapshot: the program is
  /// installed WITHOUT a reset (all state came from the snapshot) and the
  /// cycle loop starts at `start_cycle`. Semantics otherwise match run().
  RunResult resume(const isa::Program& program, Addr y_addr,
                   std::uint32_t y_len, Cycle start_cycle,
                   Cycle max_cycles = 500'000'000,
                   const isa::Program* fallback = nullptr,
                   RunObserver* observer = nullptr);

  /// Serialize the complete simulator state (SRAM, caches, queues, HHT
  /// pipeline, CPU, RNG/fault-injector) to a versioned binary snapshot.
  /// `next_cycle` is the cycle at which a resume() should continue — from
  /// a RunObserver at cycle `now`, pass `now + 1`. The program is recorded
  /// by identity (name + code hash), not contents.
  std::vector<std::uint8_t> checkpoint(const isa::Program& program,
                                       Cycle next_cycle) const;

  /// Restore a snapshot taken by checkpoint() into this System. The
  /// SystemConfig must be identical (enforced via fingerprint) and
  /// `program` must be the recorded program (name + code hash); mismatch
  /// or corruption throws SimError(Checkpoint). Returns the cycle to pass
  /// to resume().
  Cycle restore(const std::vector<std::uint8_t>& snapshot,
                const isa::Program& program);

  /// Multi-line snapshot of every component (watchdog / fault dumps).
  std::string dumpDiagnostics(Cycle now) const;

  /// True while the machine is executing (or restored into) the
  /// graceful-degradation fallback rerun. Observers use this to tell
  /// degraded-loop cycles (which restart at 0) from primary-run cycles.
  bool degradedActive() const { return degraded_active_; }

  /// Cycles the run loop jumped with no component ticked during the most
  /// recent run() / resume(), degraded rerun included (host diagnostic,
  /// not a simulated statistic — it never appears in RunResult::stats).
  std::uint64_t hostSkippedCycles() const { return host_skipped_cycles_; }

  /// Persistent observer registry: observers registered here are invoked
  /// every executed cycle, after the per-run observer passed to run() /
  /// resume() (registration order). This is the single attach point that
  /// lets a differential-oracle tap and a trace sink ride the same run:
  /// any observer selects the every-cycle schedule once — there is no
  /// per-observer disable to double-apply. Observers are borrowed; remove
  /// before destroying.
  void addObserver(RunObserver* observer) {
    if (observer == nullptr) return;
    for (RunObserver* o : observers_) {
      if (o == observer) return;
    }
    observers_.push_back(observer);
  }
  void removeObserver(RunObserver* observer) {
    std::erase(observers_, observer);
  }

 private:
  /// The primary run from `start_cycle`: degrade-or-throw on a fault.
  RunResult runPrimary(const isa::Program& program, Addr y_addr,
                       std::uint32_t y_len, Cycle start_cycle,
                       Cycle max_cycles, const isa::Program* fallback,
                       RunObserver* observer);
  /// Run the fallback from `start_cycle` with injection detached, then
  /// re-arm it: the degraded rerun (from 0) and a mid-degraded resume().
  void runDegraded(const isa::Program& fallback, Cycle start_cycle,
                   Cycle max_cycles, RunObserver* observer);
  /// Drive the shared run loop (harness/run_loop.h) over this one tile.
  /// A degraded run neither polls the FAULT MMR nor runs the watchdog.
  LoopOutcome runCycles(Cycle start_cycle, Cycle max_cycles,
                        RunObserver* observer, bool degraded);
  /// Read back y + merge stats into `result` (common run/resume tail).
  void finishResult(RunResult& result, Addr y_addr, std::uint32_t y_len);

  SystemConfig config_;
  std::unique_ptr<sim::FaultInjector> injector_;  ///< null when disabled
  std::unique_ptr<mem::MemorySystem> mem_;
  std::unique_ptr<core::HhtDevice> hht_;
  core::MicroHht* micro_hht_ = nullptr;  ///< alias into hht_ when programmable
  core::Hht* asic_hht_ = nullptr;        ///< alias into hht_ when ASIC
  std::unique_ptr<cpu::Core> cpu_;
  mem::Arena arena_;
  std::vector<RunObserver*> observers_;  ///< borrowed; see addObserver
  std::uint64_t host_skipped_cycles_ = 0;
  /// Degraded-mode continuation state (serialized, v4): while true the
  /// machine is inside the fallback rerun — injection is detached and a
  /// resume() continues the degraded loop instead of the primary one.
  bool degraded_active_ = false;
  sim::FaultCause degraded_cause_ = sim::FaultCause::None;
  std::string degraded_detail_;
};

// --- workload loaders: place operands into simulated SRAM ---
//
// The Arena&/Sram& overloads are the primitive form (MultiTileSystem loads
// shared operands once into its single memory system); the System&
// overloads delegate.

kernels::SpmvLayout loadSpmv(mem::Arena& arena, mem::Sram& sram,
                             const sparse::CsrMatrix& m,
                             const sparse::DenseVector& v);
kernels::SpmvLayout loadSpmv(System& sys, const sparse::CsrMatrix& m,
                             const sparse::DenseVector& v);

kernels::SpmspvLayout loadSpmspv(mem::Arena& arena, mem::Sram& sram,
                                 const sparse::CsrMatrix& m,
                                 const sparse::SparseVector& v);
kernels::SpmspvLayout loadSpmspv(System& sys, const sparse::CsrMatrix& m,
                                 const sparse::SparseVector& v);

kernels::HierLayout loadHier(System& sys, const sparse::HierBitmapMatrix& m,
                             const sparse::DenseVector& v);

/// SpMM operands: B and Y stored column-major in simulated SRAM.
kernels::SpmmLayout loadSpmm(System& sys, const sparse::CsrMatrix& m,
                             const sparse::DenseMatrix& b);

/// Flat bit-vector layout (Fig. 1): the occupancy bitmap goes where the
/// hier layout's leaves live; l1 is unused.
kernels::HierLayout loadFlatBitmap(System& sys, const sparse::BitVectorMatrix& m,
                                   const sparse::DenseVector& v);

}  // namespace hht::harness
