#include "core/hier_engine.h"

#include <bit>

namespace hht::core {

namespace {
constexpr std::uint32_t kLeafBits = 64;
constexpr std::uint32_t kL1Granule = 32;  ///< level-1 fetched as 32-bit words
}  // namespace

HierBitmapEngine::HierBitmapEngine(const EngineContext& ctx, bool flat)
    : Engine(ctx), l1_(ctx.cfg.prefetch_queue),
      vfetch_(ctx.cfg.emission_queue, ctx.cfg.poison_containment),
      flat_(flat),
      c_rows_done_(&ctx_.stats.counter("hht.hier.rows_done")),
      c_values_requested_(&ctx_.stats.counter("hht.hier.values_requested")),
      c_emit_stall_(&ctx_.stats.counter("hht.hier.emit_stall_cycles")),
      c_slots_found_(&ctx_.stats.counter("hht.hier.slots_found")),
      c_l1_words_scanned_(&ctx_.stats.counter("hht.hier.l1_words_scanned")) {
  const std::uint64_t positions = numPositions();
  num_slots_ = (positions + kLeafBits - 1) / kLeafBits;
  const std::uint32_t l1_words = flat_
      ? 0u
      : static_cast<std::uint32_t>((num_slots_ + kL1Granule - 1) / kL1Granule);
  l1_.configure(ctx.mmr.l1_base, l1_words, 0);
}

void HierBitmapEngine::tick(Cycle now) {
  if (faulted_) return;

  // Response collection is skipped wholesale when the BE lane is empty:
  // neither the stream polls nor the leaf-half loop can progress without a
  // completed response (a leaf fetch with both halves present never
  // survives to the next tick), and the poison flags only change under a
  // poll.
  if (responsesWaiting()) {
    l1_.poll(*this);
    vfetch_.poll(*this, ctx_.emit);
    if (l1_.sawPoison() || vfetch_.sawPoison()) {
      reportFault(sim::FaultCause::MemUncorrectable,
                  "ECC-uncorrectable response reached the bitmap pipeline");
      return;
    }

    // Collect leaf word responses (lo/hi 32-bit halves).
    while (!leaf_fetches_.empty()) {
      LeafFetch& f = leaf_fetches_.front();
      if (!f.have_lo) {
        if (auto r = takeResponse(f.lo_req)) {
          if (r->poisoned) {
            reportFault(sim::FaultCause::MemUncorrectable,
                        "ECC-uncorrectable leaf-word response");
            return;
          }
          f.lo = r->data;
          f.have_lo = true;
        }
      }
      if (!f.have_hi) {
        if (auto r = takeResponse(f.hi_req)) {
          if (r->poisoned) {
            reportFault(sim::FaultCause::MemUncorrectable,
                        "ECC-uncorrectable leaf-word response");
            return;
          }
          f.hi = r->data;
          f.have_hi = true;
        }
      }
      if (!(f.have_lo && f.have_hi)) break;
      leaf_q_.push_back(
          {f.slot, (static_cast<std::uint64_t>(f.hi) << 32) | f.lo});
      leaf_fetches_.pop_front();
    }
  }

  // Bit-scan work, budgeted like the merge unit's comparisons (one step
  // per cmp_recurrence cycles).
  const bool cmp_ready = cmp_phase_ == 0;
  cmp_phase_ = (cmp_phase_ + 1) % ctx_.cfg.cmp_recurrence;
  std::uint32_t budget = cmp_ready ? ctx_.cfg.cmp_per_cycle : 0;
  while (budget > 0) {
    // Prefer draining fetched leaves into emissions.
    if (!leaf_q_.empty()) {
      Leaf& leaf = leaf_q_.front();
      if (leaf.bits == 0) {
        leaf_q_.pop_front();
        continue;
      }
      const int bit = std::countr_zero(leaf.bits);
      const std::uint64_t pos = leaf.slot * kLeafBits + static_cast<unsigned>(bit);
      const std::uint32_t row =
          static_cast<std::uint32_t>(pos / ctx_.mmr.num_cols);
      const std::uint32_t col =
          static_cast<std::uint32_t>(pos % ctx_.mmr.num_cols);
      if (row >= ctx_.mmr.m_num_rows) {
        // A set bit past the matrix extent means the bitmap metadata is
        // corrupt (position maps outside the num_rows × num_cols grid).
        reportFault(sim::FaultCause::MalformedMeta,
                    "bitmap position " + std::to_string(pos) +
                        " maps to row " + std::to_string(row) +
                        " >= num_rows " + std::to_string(ctx_.mmr.m_num_rows));
        return;
      }
      if (row > cur_row_) {
        // Close the previous row(s); one marker per budget slot.
        if (!ctx_.emit.canReserve()) break;
        ctx_.emit.emitNow(Slot{0, true, true});
        traceRowDone(now, cur_row_);
        ++cur_row_;
        ++*c_rows_done_;
        --budget;
        continue;
      }
      if (!ctx_.emit.canReserve() || !vfetch_.canAccept()) {
        ++*c_emit_stall_;
        traceEmitStall(now);
        break;
      }
      vfetch_.enqueue({ctx_.mmr.v_base + col * ctx_.mmr.element_size,
                       ctx_.emit.reserve(), false});
      leaf.bits &= leaf.bits - 1;
      ++*c_values_requested_;
      --budget;
      continue;
    }

    // Flat mode: visit every slot in order (the slot counter is free
    // hardware; each slot still costs its two occupancy-word fetches).
    if (flat_) {
      bool queued = false;
      while (next_slot_ < num_slots_ &&
             slot_q_.size() < ctx_.cfg.prefetch_queue) {
        slot_q_.push_back(next_slot_++);
        queued = true;
        ++*c_slots_found_;
      }
      if (queued) continue;
    }

    // Scan level-1 words for occupied slots.
    if (l1_word_open_) {
      if (l1_word_bits_ == 0) {
        l1_word_open_ = false;
        continue;
      }
      if (slot_q_.size() >= ctx_.cfg.prefetch_queue) break;
      const int bit = std::countr_zero(l1_word_bits_);
      l1_word_bits_ &= l1_word_bits_ - 1;
      slot_q_.push_back(static_cast<std::uint64_t>(l1_word_index_) * kL1Granule +
                        static_cast<unsigned>(bit));
      ++*c_slots_found_;
      --budget;
      continue;
    }
    if (l1_.headAvailable()) {
      l1_word_bits_ = l1_.head();
      l1_word_index_ = l1_.headIndex();
      l1_.pop();
      l1_word_open_ = true;
      ++*c_l1_words_scanned_;
      --budget;
      continue;
    }

    // Stream end: close trailing rows once all upstream stages drained.
    const bool scan_done =
        flat_ ? next_slot_ >= num_slots_ : !l1_.morePending();
    if (scan_done && slot_q_.empty() && leaf_fetches_.empty() &&
        cur_row_ < ctx_.mmr.m_num_rows) {
      if (!ctx_.emit.canReserve()) break;
      ctx_.emit.emitNow(Slot{0, true, true});
      traceRowDone(now, cur_row_);
      ++cur_row_;
      ++*c_rows_done_;
      --budget;
      continue;
    }
    break;
  }

  // Memory issue budget: leaf fetches unblock the most work, then value
  // gathers, then level-1 prefetches.
  std::uint32_t issue = ctx_.cfg.be_issue_per_cycle;
  while (issue > 0) {
    if (!slot_q_.empty() && leaf_fetches_.size() < 2) {
      LeafFetch f;
      f.slot = slot_q_.front();
      slot_q_.pop_front();
      // Hier mode: leaves are packed by occupied slot (leaf_seq_); flat
      // mode: the bitmap is a plain array indexed by slot number.
      const Addr base =
          flat_ ? ctx_.mmr.leaves_base + static_cast<Addr>(f.slot) * 8u
                : ctx_.mmr.leaves_base + leaf_seq_ * 8u;
      ++leaf_seq_;
      f.lo_req = issueReadFor(base);
      // The pair costs two port slots; spend the second now if available,
      // otherwise next cycle would lose ordering — so charge both here.
      f.hi_req = issueReadFor(base + 4u);
      leaf_fetches_.push_back(f);
      issue = (issue >= 2) ? issue - 2 : 0;
    } else if (vfetch_.wantIssue()) {
      vfetch_.issue(*this, ctx_.mem);
      --issue;
    } else if (l1_.wantIssue()) {
      l1_.issue(*this, ctx_.mem);
      --issue;
    } else {
      break;
    }
  }
}

bool HierBitmapEngine::scanWaits(bool& stall) const {
  // The first step of the bit-scan loop in tick(), without its effects.
  stall = false;
  if (!leaf_q_.empty()) {
    const Leaf& leaf = leaf_q_.front();
    if (leaf.bits == 0) return false;  // drops the leaf
    const std::uint64_t pos =
        leaf.slot * kLeafBits +
        static_cast<unsigned>(std::countr_zero(leaf.bits));
    const auto row = static_cast<std::uint32_t>(pos / ctx_.mmr.num_cols);
    if (row >= ctx_.mmr.m_num_rows) return false;  // faults
    if (row > cur_row_) return !ctx_.emit.canReserve();  // closes a row
    stall = !ctx_.emit.canReserve() || !vfetch_.canAccept();
    return stall;
  }
  const std::uint32_t depth = ctx_.cfg.prefetch_queue;
  if (flat_ && next_slot_ < num_slots_ && slot_q_.size() < depth) return false;
  if (l1_word_open_) return l1_word_bits_ != 0 && slot_q_.size() >= depth;
  if (l1_.headAvailable()) return false;
  const bool scan_done = flat_ ? next_slot_ >= num_slots_ : !l1_.morePending();
  return !(scan_done && slot_q_.empty() && leaf_fetches_.empty() &&
           cur_row_ < ctx_.mmr.m_num_rows && ctx_.emit.canReserve());
}

bool HierBitmapEngine::stalledOnMemory() const {
  // Without a response a tick can only take a bit-scan step or issue a
  // read.
  bool stall = false;
  if (!scanWaits(stall)) return false;
  return (slot_q_.empty() || leaf_fetches_.size() >= 2) &&
         !vfetch_.wantIssue() && !l1_.wantIssue();
}

bool HierBitmapEngine::done() const {
  const bool scan_done = flat_ ? next_slot_ >= num_slots_ : !l1_.morePending();
  return scan_done && slot_q_.empty() && leaf_fetches_.empty() &&
         leaf_q_.empty() && cur_row_ == ctx_.mmr.m_num_rows &&
         vfetch_.drained() && ctx_.emit.empty();
}

}  // namespace hht::core
