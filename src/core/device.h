#pragma once

#include <string>
#include <utility>

#include "mem/mmio.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sim/state_io.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace hht::core {

/// Common interface of the two HHT implementations: the dedicated ASIC
/// (core::Hht, §3) and the programmable micro-core variant (core::MicroHht,
/// the §7 design the paper proposes as future work). The harness and the
/// primary core interact with either through this surface plus the shared
/// MMIO register map (core/mmr.h).
///
/// The device is also the system's FaultSink: back-end engines, walkers and
/// the FE's parity checks report detected errors here. The first fault wins
/// and is latched into architectural state (the FAULT/CAUSE MMRs) — the
/// device halts, software polls, and the harness either re-runs on the
/// scalar baseline (graceful degradation) or raises a structured SimError.
class HhtDevice : public mem::MmioDevice, public sim::FaultSink {
 public:
  /// Advance the accelerator one cycle (called before the primary core).
  virtual void tick(sim::Cycle now) = 0;

  /// Producing, or holding undelivered data.
  virtual bool busy() const = 0;

  /// Quiescence protocol (DESIGN.md §11): earliest future cycle (> now) at
  /// which this device can change state, perform an event, or needs its
  /// tick for side effects; sim::kNeverCycle when fully idle. The default
  /// (tick me every cycle) is always correct, merely never skippable —
  /// devices opt in by overriding.
  virtual sim::Cycle nextEventCycle(sim::Cycle now) const { return now + 1; }

  /// Bulk-credit `n` skipped cycles: exactly the counter bumps and phase
  /// advances the skipped ticks would have performed. Paired with
  /// nextEventCycle(); the default has nothing to credit.
  virtual void skipCycles(sim::Cycle n) { (void)n; }

  virtual sim::StatSet& stats() = 0;
  virtual const sim::StatSet& stats() const = 0;

  /// Cycles the primary CPU stalled on a not-ready FE read (Fig. 6/7).
  virtual std::uint64_t cpuWaitCycles() const = 0;
  /// Cycles the accelerator was throttled by buffer availability.
  virtual std::uint64_t hhtWaitCycles() const = 0;

  // ---- fault surface ----

  /// Latch a detected fault (first one wins; later reports are dropped so
  /// CAUSE names the root error, not a cascade).
  void raiseFault(sim::FaultCause cause, std::string detail) override {
    if (fault_cause_ != sim::FaultCause::None) return;
    fault_cause_ = cause;
    fault_detail_ = std::move(detail);
    ++stats().counter("hht.faults_raised");
  }
  /// Re-arm after software handled the fault (the FAULT_CLEAR MMR).
  void clearFault() {
    fault_cause_ = sim::FaultCause::None;
    fault_detail_.clear();
  }
  bool faultRaised() const { return fault_cause_ != sim::FaultCause::None; }
  sim::FaultCause faultCause() const { return fault_cause_; }
  const std::string& faultDetail() const { return fault_detail_; }

  /// Wire the shared fault injector (nullptr = no injection, zero cost).
  virtual void setFaultInjector(sim::FaultInjector* injector) = 0;

  /// Attach a structured trace sink (obs layer). Host-side observation
  /// only — never serialized, never consulted by simulated logic. An
  /// attached sink forces per-cycle mode (nextEventCycle returns now + 1)
  /// so no traced cycle is ever fast-forwarded over.
  virtual void setTraceSink(obs::TraceSink* sink) { (void)sink; }

  /// Return to the just-constructed state: MMRs cleared, buffers emptied,
  /// engine torn down, fault latch re-armed. Used by the harness's
  /// graceful-degradation path before re-running on the software baseline.
  virtual void reset() = 0;

  /// Monotonic count of observable forward progress (FIFO pops, and for the
  /// programmable variant the micro-core's retired instructions). Feeds the
  /// run loop's watchdog.
  virtual std::uint64_t progressSignal() const = 0;

  /// Multi-line snapshot for diagnostic dumps.
  virtual std::string describeState() const = 0;

  /// Checkpoint hook. Implementations that cannot snapshot themselves
  /// (the programmable variant borrows its firmware by reference) throw
  /// SimError(Checkpoint).
  virtual void io(sim::StateIo& ar) = 0;

 protected:
  sim::FaultCause fault_cause_ = sim::FaultCause::None;
  std::string fault_detail_;
};

}  // namespace hht::core
