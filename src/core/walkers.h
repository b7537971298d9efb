#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/engine.h"
#include "sim/state_io.h"

namespace hht::core {

/// Streaming fetcher for the CSR row-pointer array: supplies
/// [rows[r], rows[r+1]) for consecutive rows. One outstanding read at a
/// time — the FE programs M_Rows_Base precisely so the BE can walk row
/// extents itself (§3.1).
class RowPtrWalker {
 public:
  void configure(Addr rows_base, std::uint32_t num_rows) {
    rows_base_ = rows_base;
    num_rows_ = num_rows;
    row_ = 0;
    row_start_.reset();
    row_end_.reset();
    pending_ = mem::kInvalidRequest;
    fetch_slot_ = 0;
    saw_poison_ = false;
  }

  bool finished() const { return row_ >= num_rows_; }
  bool haveRow() const {
    return !finished() && row_start_.has_value() && row_end_.has_value();
  }
  std::uint32_t row() const { return row_; }
  std::uint32_t rowStart() const { return *row_start_; }
  std::uint32_t rowEnd() const { return *row_end_; }

  void advance() {
    ++row_;
    row_start_ = row_end_;  // rows[r+1] becomes the next row's start
    row_end_.reset();
  }

  /// Does the walker need a memory read this cycle?
  bool wantIssue() const {
    if (finished() || pending_ != mem::kInvalidRequest) return false;
    return !row_start_.has_value() || !row_end_.has_value();
  }

  /// Issue the next row-pointer read (caller checked wantIssue()).
  void issue(Engine& engine, mem::MemorySystem&) {
    fetch_slot_ = row_ + (row_start_.has_value() ? 1u : 0u);
    pending_ = engine.issueReadFor(rows_base_ + fetch_slot_ * 4u);
  }

  void poll(Engine& engine) {
    if (pending_ == mem::kInvalidRequest) return;
    if (auto response = engine.takeResponse(pending_)) {
      pending_ = mem::kInvalidRequest;
      if (response->poisoned) {
        saw_poison_ = true;  // row extent unusable; owner raises the fault
        return;
      }
      if (fetch_slot_ == row_) {
        row_start_ = response->data;
      } else {
        row_end_ = response->data;
      }
    }
  }

  /// An ECC-uncorrectable response reached this walker; the owning engine
  /// must raise MemUncorrectable (the row extent was lost, not delivered).
  bool sawPoison() const { return saw_poison_; }

  void io(sim::StateIo& ar) {
    ar.tag("RWLK");
    ar.u32(rows_base_);
    ar.u32(num_rows_);
    ar.u32(row_);
    const auto word = [&](std::uint32_t& v) { ar.u32(v); };
    ar.optional(row_start_, word);
    ar.optional(row_end_, word);
    ar.u64(pending_);
    ar.u32(fetch_slot_);
    ar.b(saw_poison_);
  }

 private:
  Addr rows_base_ = 0;
  std::uint32_t num_rows_ = 0;
  std::uint32_t row_ = 0;
  std::optional<std::uint32_t> row_start_;
  std::optional<std::uint32_t> row_end_;
  mem::RequestId pending_ = mem::kInvalidRequest;
  std::uint32_t fetch_slot_ = 0;
  bool saw_poison_ = false;
};

/// Prefetching reader of a contiguous 32-bit-element array segment
/// (CSR cols of one row; the sparse vector's index array). Supports
/// mid-stream restart (variant-1/2 rescan the vector indices every row);
/// stale in-flight responses are dropped via an epoch tag.
class IndexStream {
 public:
  explicit IndexStream(std::uint32_t prefetch_depth) : depth_(prefetch_depth) {}

  /// (Re)target the stream at elements [0, count) of the array at `base`,
  /// with `first_global` the global element index of element 0 (used for
  /// CSR value addressing). Discards queued and in-flight data.
  void configure(Addr base, std::uint32_t count, std::uint32_t first_global) {
    base_ = base;
    count_ = count;
    first_global_ = first_global;
    fetch_i_ = 0;
    next_pop_ = 0;
    queue_.clear();
    ++epoch_;
    saw_poison_ = false;
  }

  /// The stream delivers strictly in element order: responses land in their
  /// (sorted) slot, and the head only becomes available once the *next*
  /// element has arrived. Injected delays/drops can complete reads out of
  /// order; without this gate a late response would let a later column
  /// overtake an earlier one and silently mis-pair the gathered stream.
  bool headAvailable() const {
    return !queue_.empty() && queue_.front().index == next_pop_;
  }
  std::uint32_t head() const { return queue_.front().value; }
  /// Stream-local index of the head element.
  std::uint32_t headIndex() const { return queue_.front().index; }
  /// Global element index (first_global + headIndex).
  std::uint32_t headGlobal() const { return first_global_ + queue_.front().index; }
  bool headIsLast() const { return queue_.front().index + 1 == count_; }
  void pop() {
    ++next_pop_;
    queue_.erase(queue_.begin());
  }

  std::uint32_t consumedUpTo() const { return next_pop_; }
  /// All `count` elements popped? (Queue empty and nothing left to fetch.)
  bool exhausted() const {
    return queue_.empty() && fetch_i_ >= count_ && inflight() == 0;
  }
  /// Nothing queued *yet* but more is coming (distinguishes "wait" from
  /// "done" for the consumer).
  bool morePending() const {
    return fetch_i_ < count_ || inflight() > 0 || !queue_.empty();
  }

  bool wantIssue() const {
    return fetch_i_ < count_ && queue_.size() + inflight() < depth_;
  }

  void issue(Engine& engine, mem::MemorySystem&) {
    pending_.push_back({engine.issueReadFor(base_ + fetch_i_ * 4u), fetch_i_, epoch_});
    ++fetch_i_;
  }

  void poll(Engine& engine) {
    std::erase_if(pending_, [&](const Pending& p) {
      if (auto response = engine.takeResponse(p.id)) {
        if (p.epoch == epoch_) {
          if (response->poisoned) {
            // Stale-epoch poison is dropped with the data (it was never
            // going to be consumed); current-epoch poison is a real loss.
            saw_poison_ = true;
          } else {
            // Sorted insert: out-of-order completions (injected delays)
            // fill their slot, never reorder delivery.
            const auto at = std::lower_bound(
                queue_.begin(), queue_.end(), p.index,
                [](const Entry& e, std::uint32_t i) { return e.index < i; });
            queue_.insert(at, {response->data, p.index});
          }
        }
        return true;
      }
      return false;
    });
  }

  bool sawPoison() const { return saw_poison_; }

  void io(sim::StateIo& ar) {
    ar.tag("ISTR");
    ar.u32(depth_);
    ar.u32(base_);
    ar.u32(count_);
    ar.u32(first_global_);
    ar.u32(fetch_i_);
    ar.u32(next_pop_);
    ar.u64(epoch_);
    ar.b(saw_poison_);
    ar.seq(queue_, 8, [&](Entry& e) {
      ar.u32(e.value);
      ar.u32(e.index);
    });
    ar.seq(pending_, 20, [&](Pending& p) {
      ar.u64(p.id);
      ar.u32(p.index);
      ar.u64(p.epoch);
    });
  }

 private:
  struct Entry {
    std::uint32_t value;
    std::uint32_t index;
  };
  struct Pending {
    mem::RequestId id;
    std::uint32_t index;
    std::uint64_t epoch;
  };

  std::uint32_t inflight() const {
    std::uint32_t n = 0;
    for (const Pending& p : pending_) n += (p.epoch == epoch_);
    return n;
  }

  std::uint32_t depth_;
  Addr base_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t first_global_ = 0;
  std::uint32_t fetch_i_ = 0;
  std::uint32_t next_pop_ = 0;  ///< stream-local index of the next delivery
  std::uint64_t epoch_ = 0;
  bool saw_poison_ = false;
  // Vectors, not deques: both stay at or below the (small) prefetch depth,
  // and they are polled every engine tick — contiguous storage keeps that
  // scan cheap. Element order is the delivery contract; never reorder.
  std::vector<Entry> queue_;
  std::vector<Pending> pending_;
};

/// Queue of deferred value fetches whose emission slots are already
/// reserved (in stream order) in the EmissionQueue.
class ValueFetchQueue {
 public:
  struct Item {
    Addr addr;
    EmissionQueue::Ticket ticket;
    bool publish_after;
  };

  /// `containment` selects the poison semantics (DESIGN.md §15): false =
  /// legacy freeze (sawPoison() latches, the owning engine faults at poll
  /// time); true = the poisoned response fills its reserved ticket with the
  /// slot poison bit set, so the corruption flows in order to the delivery
  /// port where the FE raises a precise MemUncorrectable fault.
  explicit ValueFetchQueue(std::uint32_t depth, bool containment = false)
      : depth_(depth), containment_(containment) {}

  bool canAccept(std::uint32_t n = 1) const { return todo_.size() + n <= depth_; }
  void enqueue(const Item& item) { todo_.push_back(item); }
  bool wantIssue() const { return !todo_.empty(); }

  void issue(Engine& engine, mem::MemorySystem&) {
    const Item item = todo_.front();
    todo_.erase(todo_.begin());
    pending_.push_back({engine.issueReadFor(item.addr), item});
  }

  void poll(Engine& engine, EmissionQueue& emit) {
    std::erase_if(pending_, [&](const Pending& p) {
      if (auto response = engine.takeResponse(p.id)) {
        if (response->poisoned) {
          if (!containment_) {
            // Legacy: the reserved ticket stays unfilled — the stream
            // stalls rather than delivering a corrupt value; the owner
            // raises MemUncorrectable for the whole pipeline.
            saw_poison_ = true;
            return true;
          }
          // Containment: fill the ticket with a poisoned slot (payload
          // zeroed, parity good — poison is its own channel). It flows in
          // stream order; the FE faults exactly at its delivery.
          Slot poison{0, false, p.item.publish_after};
          poison.poisoned = true;
          emit.fill(p.item.ticket, poison);
          return true;
        }
        emit.fill(p.item.ticket,
                  Slot{response->data, false, p.item.publish_after});
        return true;
      }
      return false;
    });
  }

  bool sawPoison() const { return saw_poison_; }

  bool drained() const { return todo_.empty() && pending_.empty(); }

  void io(sim::StateIo& ar) {
    ar.tag("VFQU");
    ar.u32(depth_);
    ar.b(saw_poison_);
    const auto item = [&](Item& i) {
      ar.u32(i.addr);
      ar.u64(i.ticket);
      ar.b(i.publish_after);
    };
    ar.seq(todo_, 13, item);
    ar.seq(pending_, 21, [&](Pending& p) {
      ar.u64(p.id);
      item(p.item);
    });
  }

 private:
  struct Pending {
    mem::RequestId id;
    Item item;
  };

  std::uint32_t depth_;
  bool containment_ = false;  ///< config wiring, not run state
  bool saw_poison_ = false;
  std::vector<Item> todo_;      ///< bounded by depth_; polled every tick
  std::vector<Pending> pending_;
};

}  // namespace hht::core
