#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/config.h"
#include "sim/checksum.h"
#include "sim/fault.h"
#include "sim/state_io.h"

namespace hht::core {

/// One element slot in the CPU-side buffer stream.
///
/// A Value slot carries 32 data bits; a RowEnd slot is the variant-1 /
/// hier-bitmap end-of-row marker the FE turns into a VALID=0 response.
/// `publish_after` asks the pool to close (publish) the staging buffer
/// after this slot — the row-aligned fill policy of §3.1 (the FE knows row
/// extents because M_Rows_Base is programmed).
struct Slot {
  std::uint32_t bits = 0;
  bool is_row_end = false;
  bool publish_after = false;
  /// Parity tag carried with the entry. The fault injector clears it when
  /// it corrupts `bits` in the SRAM cell; the FE checks it on pop and
  /// raises a FifoParity fault instead of handing the CPU bad data.
  bool parity_ok = true;
  /// Poison bit (DESIGN.md §15): the payload came from an uncorrectable
  /// memory response. Under poison containment the slot flows through the
  /// FIFOs in order and the FE faults exactly when it would deliver it.
  bool poisoned = false;
  /// End-to-end check tag: when has_check, `check` carries the BE's running
  /// stream CRC as of this slot; the FE compares its own running CRC here.
  bool has_check = false;
  std::uint32_t check = 0;
};

/// A slot's snapshot encoding (kSlotBytes), shared by the buffer pool and
/// the emission queue.
inline void io(sim::StateIo& ar, Slot& slot) {
  ar.u32(slot.bits);
  ar.b(slot.is_row_end);
  ar.b(slot.publish_after);
  ar.b(slot.parity_ok);
  ar.b(slot.poisoned);  // snapshot v5: integrity channel fields
  ar.b(slot.has_check);
  ar.u32(slot.check);
}
inline constexpr std::size_t kSlotBytes = 13;

/// The N CPU-side buffers of the HHT front-end (Table 1: N=2, 32 B each).
///
/// The back-end stages slots into the current *write* buffer; a buffer
/// becomes visible to the CPU only when published (full, or row boundary).
/// The CPU drains the oldest published buffer through the FIFO interface;
/// fully-drained buffers return to the free pool. At most `num_buffers`
/// buffers exist between staging and published — `freeCapacity()` is the
/// control unit's BE-throttle signal (§3.1).
class BufferPool {
 public:
  explicit BufferPool(const HhtConfig& config)
      : num_buffers_(config.num_buffers),
        buffer_len_(config.buffer_len),
        e2e_(config.e2e_check) {
    if (num_buffers_ == 0 || buffer_len_ == 0) {
      throw std::invalid_argument("BufferPool needs >=1 buffer of >=1 slot");
    }
  }

  // ---- back-end (write) side ----

  /// Slots the BE may still stage before the pool is saturated.
  std::uint32_t freeCapacity() const {
    const bool staging_open = !staging_.empty();
    const std::uint32_t buffers_free =
        num_buffers_ - static_cast<std::uint32_t>(published_.size()) -
        (staging_open ? 1u : 0u);
    return buffers_free * buffer_len_ +
           (staging_open ? buffer_len_ - static_cast<std::uint32_t>(staging_.size())
                         : 0u);
  }

  bool canPush() const { return freeCapacity() > 0; }

  /// Stage one slot; publishes the staging buffer when it fills or the slot
  /// requests a row-aligned publish. Precondition: canPush(). The write
  /// into the buffer SRAM is the injection point for FIFO corruption: a
  /// flipped entry keeps its (now wrong) payload but loses its parity tag.
  void push(const Slot& slot) {
    if (!canPush()) throw std::logic_error("BufferPool::push past capacity");
    Slot staged = slot;
    // The e2e CRC folds the *intended* slot content, before any injected
    // corruption below — this is the single chokepoint every producer
    // (emission-queue drains and micro-HHT firmware pushes alike) funnels
    // through, so the whole BE-to-FE path downstream is covered.
    if (e2e_) be_crc_ = sim::crcFoldSlot(be_crc_, staged.bits, staged.is_row_end);
    if (injector_ != nullptr && !staged.is_row_end) {
      if (injector_->corruptFifoSlot(staged.bits)) {
        staged.parity_ok = false;
      }
      // Parity-evading SDC injection (campaign-only): flips the payload but
      // leaves the parity tag GOOD. Only the e2e check can catch it.
      injector_->silentFifoFlip(staged.bits);
    }
    staging_.push_back(staged);
    if (staging_.size() == buffer_len_ || slot.publish_after) publish();
  }

  /// Publish a partial staging buffer (stream end).
  void finish() {
    if (!staging_.empty()) publish();
  }

  // ---- front-end (read) side ----

  bool hasFront() const { return !published_.empty(); }
  const Slot& front() const { return published_.front()[read_pos_]; }

  Slot pop() {
    const Slot slot = front();
    if (++read_pos_ == published_.front().size()) {
      recycle(std::move(published_.front()));
      published_.pop_front();
      read_pos_ = 0;
    }
    return slot;
  }

  /// Unread published slots (diagnostics; STATUS busy bit).
  std::size_t unread() const {
    std::size_t n = 0;
    for (const auto& buf : published_) n += buf.size();
    return n - read_pos_;
  }
  bool hasUnread() const { return !published_.empty(); }
  std::size_t stagedSlots() const { return staging_.size(); }
  std::size_t publishedBuffers() const { return published_.size(); }

  void reset() {
    published_.clear();
    staging_.clear();
    read_pos_ = 0;
    be_crc_ = 0;
  }

  /// BE-side running stream CRC (read out through the CHECK_BE MMR).
  std::uint32_t beCrc() const { return be_crc_; }

  /// nullptr = no injection (zero cost).
  void setFaultInjector(sim::FaultInjector* injector) { injector_ = injector; }

  /// Checkpoint hook. A read must describe a pool this config can hold:
  /// at most num_buffers buffers of at most buffer_len slots, and a read
  /// position inside the oldest published one.
  void io(sim::StateIo& ar) {
    ar.tag("BUFP");
    const auto slots = [&](std::vector<Slot>& buf) {
      ar.seq(buf, kSlotBytes, [&](Slot& slot) { core::io(ar, slot); });
      ar.check(buf.size() <= buffer_len_, "buffer holds too many slots");
    };
    ar.seq(published_, 8, slots);
    slots(staging_);
    ar.check(published_.size() + (staging_.empty() ? 0 : 1) <= num_buffers_,
             "more buffers than configured");
    ar.u64(read_pos_, published_.empty() ? 1 : published_.front().size(),
           "buffer read position");
    ar.u32(be_crc_);  // snapshot v5
  }

 private:
  void publish() {
    // Tag the closing slot of every published buffer with the BE's running
    // CRC; the FE re-verifies there. Tagging at publish covers both the
    // buffer-full and row-aligned paths as well as the finish() tail.
    if (e2e_ && !staging_.empty()) {
      staging_.back().has_check = true;
      staging_.back().check = be_crc_;
    }
    published_.push_back(std::move(staging_));
    if (!spare_.empty()) {
      staging_ = std::move(spare_.back());
      spare_.pop_back();
      staging_.clear();
    }
    staging_.reserve(buffer_len_);
  }

  /// Return a drained buffer's storage to the spare pool so the staging
  /// buffer never reallocates in steady state (publish() moves the staging
  /// allocation out, which would otherwise force a fresh growth sequence
  /// for every published buffer). Host-side only — never serialized.
  void recycle(std::vector<Slot>&& storage) {
    if (spare_.size() < num_buffers_) spare_.push_back(std::move(storage));
  }

  std::uint32_t num_buffers_;
  std::uint32_t buffer_len_;
  bool e2e_;                    ///< e2e stream-checksum channel enabled
  std::uint32_t be_crc_ = 0;    ///< running CRC over staged slot content
  sim::FaultInjector* injector_ = nullptr;
  std::deque<std::vector<Slot>> published_;
  std::vector<Slot> staging_;
  std::vector<std::vector<Slot>> spare_;  ///< recycled storage, host-only
  std::size_t read_pos_ = 0;
};

}  // namespace hht::core
