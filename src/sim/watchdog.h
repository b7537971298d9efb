#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "sim/error.h"
#include "sim/types.h"

namespace hht::sim {

/// Forward-progress watchdog for a run loop.
///
/// The caller feeds it a monotonic progress sum each observation — for the
/// full system that is retired instructions + SRAM grants + HHT FIFO pops,
/// so a machine that is merely *slow* (long memory latency, throttled BE)
/// still shows progress, while a wedged one (CPU stalled on a FE read that
/// will never be ready, BE waiting on a response that was never sent) does
/// not. When the sum stays flat for `period` cycles the watchdog throws a
/// SimError carrying the caller-built diagnostic dump.
///
/// Observations are sampled every `interval` cycles (a power of two derived
/// from the period) so the per-cycle cost in the run loop is one branch.
class Watchdog {
 public:
  /// period = cycles without progress before firing; 0 disables. `tile`
  /// attributes the fired SimError to a tile (multi-tile run loops watch
  /// each tile's own progress sum with its own Watchdog).
  explicit Watchdog(Cycle period, int tile = SimError::kNoTile)
      : period_(period), tile_(tile) {
    Cycle target = period / 8;
    if (target > 1024) target = 1024;
    interval_mask_ = 0;
    while ((interval_mask_ + 1) * 2 <= target) {
      interval_mask_ = interval_mask_ * 2 + 1;  // next pow2 - 1
    }
  }

  /// Cheap per-cycle gate: true when this cycle is a sampling point.
  bool due(Cycle now) const {
    return period_ != 0 && (now & interval_mask_) == 0;
  }

  /// Called instead of per-cycle sampling when the run loop is about to
  /// jump across a stretch in which nothing ticks (so the progress sum
  /// cannot change). Performs the one state-updating observation the naive
  /// loop would have made at the first sampling point after `now`, then
  /// returns the aligned cycle at which the watchdog would fire if the sum
  /// stays flat. The loop must not skip past the returned cycle: simulating
  /// it live makes due()/observe() fire with the exact naive diagnostics.
  /// Returns kNeverCycle when disabled.
  Cycle observeSkip(Cycle now, std::uint64_t progress_sum) {
    if (period_ == 0) return kNeverCycle;
    const Cycle first_sample = (now | interval_mask_) + 1;
    if (progress_sum != last_sum_) {
      last_sum_ = progress_sum;
      last_progress_ = first_sample;
    }
    Cycle fire = last_progress_ + period_;
    fire = (fire + interval_mask_) & ~interval_mask_;  // round up to a sample
    return fire > first_sample ? fire : first_sample;
  }

  /// Record the progress sum at a sampling point; throws SimError(Watchdog)
  /// once `period` cycles elapse with no change. `dump` is only invoked
  /// when firing (it is expensive to build).
  template <typename DumpFn>
  void observe(Cycle now, std::uint64_t progress_sum, DumpFn&& dump) {
    if (progress_sum != last_sum_) {
      last_sum_ = progress_sum;
      last_progress_ = now;
      return;
    }
    if (now - last_progress_ >= period_) {
      throw SimError(
          ErrorKind::Watchdog, "watchdog",
          "no forward progress for " + std::to_string(now - last_progress_) +
              " cycles (no retired instruction, no SRAM grant, no FIFO pop)",
          std::forward<DumpFn>(dump)(), tile_);
    }
  }

 private:
  Cycle period_;
  int tile_ = SimError::kNoTile;
  Cycle interval_mask_ = 0;
  Cycle last_progress_ = 0;
  std::uint64_t last_sum_ = 0;
};

}  // namespace hht::sim
