#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/types.h"

/// Per-component next-event calendar for the run loop (DESIGN.md §11).
///
/// The run loop has a small set of tickable components per machine (each
/// tile's device and core, plus the shared memory system: 2N+1 slots), so
/// the calendar is an indexed table of next-event cycles: post() is one
/// store and next() one scan. At these sizes (3 to 33 slots) the scan is
/// cheaper than keeping a cached minimum up to date on every post.
///
/// Invariants (unit-tested in tests/test_sim.cc):
///  - next() never exceeds the earliest posted event: the loop can never
///    skip past a cycle where some component has work.
///  - Re-posting a slot overwrites its previous entry (dedupe): a component
///    has exactly one "next event", the most recently declared one.
///  - Multiple slots posted for the same cycle all stay due until each is
///    individually re-posted past it (same-cycle multi-component wakeups).
///  - kNeverCycle in every slot means the calendar is idle.
namespace hht::sim {

class EventCalendar {
 public:
  explicit EventCalendar(std::size_t slots) : slots_(slots, kNeverCycle) {}

  /// Declare that component `slot` next has work at `cycle` (kNeverCycle =
  /// fully quiescent). Overwrites any previous posting for the slot.
  void post(std::size_t slot, Cycle cycle) { slots_[slot] = cycle; }

  /// Next cycle at which any component has work (kNeverCycle if idle).
  Cycle next() const {
    return slots_.empty() ? kNeverCycle
                          : *std::min_element(slots_.begin(), slots_.end());
  }

  /// The posted next-event cycle for one slot.
  Cycle at(std::size_t slot) const { return slots_[slot]; }

  /// True if `slot` has work at or before `now`.
  bool due(std::size_t slot, Cycle now) const { return slots_[slot] <= now; }

  /// True if no component has any pending event.
  bool idle() const { return next() == kNeverCycle; }

  std::size_t size() const { return slots_.size(); }

 private:
  std::vector<Cycle> slots_;
};

}  // namespace hht::sim
