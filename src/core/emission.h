#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/buffers.h"

namespace hht::core {

/// In-order emission/reorder queue between a back-end engine and the
/// buffer pool.
///
/// Engines discover the *order* of emitted slots before all their payloads
/// are available (e.g. variant-2 interleaves immediate zeros with vector
/// values still being fetched from memory; variant-1 reserves the m/v pair
/// slots at compare time and fills them when the two value reads return).
/// The engine reserves slots in stream order, fills them as responses
/// arrive, and the queue drains filled head slots into the BufferPool at
/// the pipeline's emit rate.
class EmissionQueue {
 public:
  using Ticket = std::uint64_t;

  explicit EmissionQueue(std::uint32_t depth) : depth_(depth) {}

  bool canReserve(std::uint32_t slots = 1) const {
    return entries_.size() + slots <= depth_;
  }

  /// Reserve the next slot in stream order; fill it later via fill().
  Ticket reserve() {
    if (!canReserve()) throw std::logic_error("EmissionQueue overflow");
    entries_.push_back(std::nullopt);
    return base_ + entries_.size() - 1;
  }

  /// Reserve and immediately fill (markers, literal zeros).
  void emitNow(const Slot& slot) {
    const Ticket t = reserve();
    fill(t, slot);
  }

  void fill(Ticket ticket, const Slot& slot) {
    if (ticket < base_ || ticket - base_ >= entries_.size()) {
      throw std::logic_error("EmissionQueue::fill bad ticket");
    }
    auto& entry = entries_[static_cast<std::size_t>(ticket - base_)];
    if (entry.has_value()) throw std::logic_error("EmissionQueue double fill");
    entry = slot;
  }

  /// Move up to `max_slots` filled head slots into the pool (bounded also
  /// by the pool's free capacity). Returns slots drained.
  std::uint32_t drainTo(BufferPool& pool, std::uint32_t max_slots) {
    std::uint32_t drained = 0;
    while (drained < max_slots && !entries_.empty() &&
           entries_.front().has_value() && pool.canPush()) {
      pool.push(*entries_.front());
      entries_.erase(entries_.begin());
      ++base_;
      ++drained;
    }
    return drained;
  }

  bool empty() const { return entries_.empty(); }
  /// Is the head slot filled (drainable once the pool has room)?
  bool headFilled() const {
    return !entries_.empty() && entries_.front().has_value();
  }
  std::size_t size() const { return entries_.size(); }

  void reset() {
    entries_.clear();
    base_ = 0;
  }

  void io(sim::StateIo& ar) {
    ar.tag("EMIQ");
    ar.u64(base_);
    ar.seq(entries_, 1, [&](std::optional<Slot>& entry) {
      ar.optional(entry, [&](Slot& slot) { core::io(ar, slot); });
    });
    ar.check(entries_.size() <= depth_, "emission queue deeper than configured");
  }

 private:
  std::uint32_t depth_;
  /// Bounded by depth_ and touched every engine tick; a contiguous vector
  /// keeps reserve/fill/drain on cache-line-friendly storage.
  std::vector<std::optional<Slot>> entries_;
  Ticket base_ = 0;
};

}  // namespace hht::core
