#pragma once

#include <memory>

#include "core/buffers.h"
#include "core/config.h"
#include "core/device.h"
#include "core/emission.h"
#include "core/engine.h"
#include "core/mmr.h"
#include "mem/memory_system.h"
#include "sim/probe.h"
#include "sim/stats.h"

namespace hht::core {

/// The Hardware Helper Thread device: front-end (MMRs + CPU-side buffers +
/// streaming FIFO load interface) and back-end (per-mode pipeline engine),
/// coupled through the control unit's buffer-availability throttling (§3).
///
/// Attach to the memory system's MMIO window and tick once per cycle
/// *before* the CPU (registered interface: data published in cycle t is
/// loadable at t+1).
class Hht final : public HhtDevice {
 public:
  /// `tile` identifies the {CPU+HHT} tile this device belongs to in a
  /// multi-tile system; the BE tags its memory traffic with it (0 in the
  /// paper's single-tile machine).
  Hht(const HhtConfig& config, mem::MemorySystem& memory,
      std::uint32_t tile = 0);

  /// Advance the back-end one cycle and drain the emission queue into the
  /// CPU-side buffers.
  void tick(sim::Cycle now) override;

  /// Quiescence protocol (DESIGN.md §11). The device sleeps while its
  /// engine is stalled on memory (Engine::stalledOnMemory) or done, the
  /// emission queue cannot drain and the tail buffer is flushed — until
  /// the next response reaches its tile's BE port
  /// (MemorySystem::requesterReadyCycle; a done engine may still hold
  /// speculative reads in flight whose responses only leave the memory
  /// system through its tick polls). skipCycles credits a sleeping live
  /// engine's active and buffer-throttled cycles. Any attached observer —
  /// stream tap or trace sink — forces per-cycle mode: delivery timestamps
  /// must come from real ticks. The two share one combined check so
  /// stacking observers never double-disables anything.
  sim::Cycle nextEventCycle(sim::Cycle now) const override;
  void skipCycles(sim::Cycle n) override;

  // MmioDevice interface (driven by the memory system). The ASIC HHT has
  // no device-side micro-core, so `who` only guards against misuse.
  mem::MmioReadResult mmioRead(Addr offset, std::uint32_t size,
                               mem::Requester who) override;
  void mmioWrite(Addr offset, std::uint32_t size, std::uint32_t value,
                 mem::Requester who) override;
  /// A refused BUF_DATA/VALID read waits for a published buffer, which
  /// only this device's own tick can produce: the read cannot be accepted
  /// before the device's next event.
  sim::Cycle mmioReadyCycle(sim::Cycle now) const override {
    return nextEventCycle(now);
  }
  void skipRefusedReads(Addr offset, std::uint64_t n) override;

  /// True while the BE is producing or the FE holds undelivered data.
  bool busy() const override;

  const MmrFile& mmrs() const { return mmr_; }
  const HhtConfig& config() const { return cfg_; }
  sim::StatSet& stats() override { return stats_; }
  const sim::StatSet& stats() const override { return stats_; }

  /// Cycles the CPU spent stalled on a not-ready FE read — Fig. 6/7's
  /// "CPU wait" metric.
  std::uint64_t cpuWaitCycles() const override {
    return stats_.value("hht.cpu_wait_cycles");
  }
  /// Cycles the BE spent throttled because all buffers were full — the
  /// control unit's "HHT waiting for CPU" counter (§4).
  std::uint64_t hhtWaitCycles() const override {
    return stats_.value("hht.stall_buffers_full");
  }

  // ---- fault surface (HhtDevice) ----
  void setFaultInjector(sim::FaultInjector* injector) override;
  void reset() override;
  std::uint64_t progressSignal() const override { return *fifo_pops_; }
  std::string describeState() const override;

  // ---- verification / observability surface ----

  /// Register an observer of every delivered element (a DifferentialOracle
  /// tap, a test probe, ...). Several can coexist; delivery order is
  /// registration order. Empty registry = zero overhead per pop.
  void addStreamTap(sim::StreamTap* tap) { taps_.add(tap); }
  void removeStreamTap(sim::StreamTap* tap) { taps_.remove(tap); }
  /// Attach a structured trace sink (obs layer; host-only, not serialized).
  void setTraceSink(obs::TraceSink* sink) override {
    trace_ = sink;
    trace_bucket_ = obs::kNoBucket;
  }
  /// Read-only FE internals for the oracle's occupancy invariants.
  const BufferPool& bufferPool() const { return buffers_; }
  const EmissionQueue& emissionQueue() const { return emit_; }

  // ---- checkpoint surface (HhtDevice) ----
  void io(sim::StateIo& ar) override;

 private:
  void start();
  /// Construct the mode's back-end engine from the current MMRs (shared by
  /// start() and a restoring io(); engine constructors have no memory side
  /// effects, so reconstruct-then-read restores exact state).
  std::unique_ptr<Engine> makeEngine();

  HhtConfig cfg_;
  mem::MemorySystem& mem_;
  std::uint8_t tile_;
  MmrFile mmr_;
  BufferPool buffers_;
  EmissionQueue emit_;
  std::unique_ptr<Engine> engine_;
  bool finished_flush_done_ = false;
  /// FE-side running stream CRC (e2e_check): folds every slot the FE pops,
  /// compared against the BE's check tag on each published buffer's closing
  /// slot. Architectural state (the CHECK_FE MMR) — serialized (v5).
  std::uint32_t fe_crc_ = 0;
  /// Config-register parity: cleared when the injector glitches a latched
  /// MMR value; checked once at START (writes are posted, so detection at
  /// use time is the only architecturally visible point).
  bool mmr_parity_ok_ = true;
  sim::FaultInjector* injector_ = nullptr;
  sim::TapRegistry taps_;
  /// Host-only trace state (not serialized).
  obs::TraceSink* trace_ = nullptr;
  std::uint8_t trace_bucket_ = obs::kNoBucket;
  /// Cycle of the most recent tick; MMIO pops have no cycle parameter, so
  /// this is the timestamp the stream taps (and divergence reports) see.
  sim::Cycle last_tick_cycle_ = 0;
  sim::StatSet stats_;
  std::uint64_t* fifo_pops_;  ///< cached "hht.fifo_pops" (watchdog signal)
  // Hot-path counters cached once (StatSet references are stable).
  std::uint64_t* c_active_cycles_;
  std::uint64_t* c_stall_buffers_full_;
  std::uint64_t* c_cpu_wait_cycles_;
  std::uint64_t* c_elements_delivered_;
};

}  // namespace hht::core
