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

  void serialize(sim::StateWriter& w) const {
    w.tag("RWLK");
    w.u32(rows_base_);
    w.u32(num_rows_);
    w.u32(row_);
    w.b(row_start_.has_value());
    if (row_start_) w.u32(*row_start_);
    w.b(row_end_.has_value());
    if (row_end_) w.u32(*row_end_);
    w.u64(pending_);
    w.u32(fetch_slot_);
    w.b(saw_poison_);
  }

  void deserialize(sim::StateReader& r) {
    r.expectTag("RWLK");
    rows_base_ = r.u32();
    num_rows_ = r.u32();
    row_ = r.u32();
    row_start_.reset();
    if (r.b()) row_start_ = r.u32();
    row_end_.reset();
    if (r.b()) row_end_ = r.u32();
    pending_ = r.u64();
    fetch_slot_ = r.u32();
    saw_poison_ = r.b();
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

  void serialize(sim::StateWriter& w) const {
    w.tag("ISTR");
    w.u32(depth_);
    w.u32(base_);
    w.u32(count_);
    w.u32(first_global_);
    w.u32(fetch_i_);
    w.u32(next_pop_);
    w.u64(epoch_);
    w.b(saw_poison_);
    w.u64(queue_.size());
    for (const Entry& e : queue_) {
      w.u32(e.value);
      w.u32(e.index);
    }
    w.u64(pending_.size());
    for (const Pending& p : pending_) {
      w.u64(p.id);
      w.u32(p.index);
      w.u64(p.epoch);
    }
  }

  void deserialize(sim::StateReader& r) {
    r.expectTag("ISTR");
    depth_ = r.u32();
    base_ = r.u32();
    count_ = r.u32();
    first_global_ = r.u32();
    fetch_i_ = r.u32();
    next_pop_ = r.u32();
    epoch_ = r.u64();
    saw_poison_ = r.b();
    queue_.clear();
    const std::uint64_t n_queue = r.u64();
    for (std::uint64_t i = 0; i < n_queue; ++i) {
      Entry e{};
      e.value = r.u32();
      e.index = r.u32();
      queue_.push_back(e);
    }
    pending_.clear();
    const std::uint64_t n_pending = r.u64();
    for (std::uint64_t i = 0; i < n_pending; ++i) {
      Pending p{};
      p.id = r.u64();
      p.index = r.u32();
      p.epoch = r.u64();
      pending_.push_back(p);
    }
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

  void serialize(sim::StateWriter& w) const {
    w.tag("VFQU");
    w.u32(depth_);
    w.b(saw_poison_);
    auto write_item = [&w](const Item& item) {
      w.u32(item.addr);
      w.u64(item.ticket);
      w.b(item.publish_after);
    };
    w.u64(todo_.size());
    for (const Item& item : todo_) write_item(item);
    w.u64(pending_.size());
    for (const Pending& p : pending_) {
      w.u64(p.id);
      write_item(p.item);
    }
  }

  void deserialize(sim::StateReader& r) {
    r.expectTag("VFQU");
    depth_ = r.u32();
    saw_poison_ = r.b();
    auto read_item = [&r]() {
      Item item{};
      item.addr = r.u32();
      item.ticket = r.u64();
      item.publish_after = r.b();
      return item;
    };
    todo_.clear();
    const std::uint64_t n_todo = r.u64();
    for (std::uint64_t i = 0; i < n_todo; ++i) todo_.push_back(read_item());
    pending_.clear();
    const std::uint64_t n_pending = r.u64();
    for (std::uint64_t i = 0; i < n_pending; ++i) {
      const mem::RequestId id = r.u64();
      pending_.push_back({id, read_item()});
    }
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
