#pragma once

#include <deque>

#include "core/engine.h"
#include "core/walkers.h"

namespace hht::core {

/// SMASH-style hierarchical-bitmap engine (§6 extension).
///
/// Walks the two-level bitmap of sparse::HierBitmapMatrix laid out in
/// simulated memory: level-1 words locate occupied 64-position leaves,
/// leaf words locate the non-zero positions, positions map to (row, col),
/// and the engine gathers V[col] for each non-zero, closing rows with
/// RowEnd markers (VALID protocol — the CPU cannot know per-row counts
/// without walking the bitmaps itself, which is the whole point of
/// offloading this format).
///
/// The paper reports this mode makes the HHT "perform more work than the
/// CPU", causing CPU idling; the multi-level popcount walk below is where
/// that work goes.
class HierBitmapEngine : public Engine {
 public:
  /// `flat` selects the one-level bit-vector mode (Mode::FlatBitmap):
  /// no level-1 bitmap exists, so *every* 64-position occupancy word is
  /// fetched in slot order — cheaper logic, but the walk touches the whole
  /// bitmap even where SMASH's level-1 would have skipped empty regions.
  explicit HierBitmapEngine(const EngineContext& ctx, bool flat = false);

  void tick(Cycle now) override;
  bool done() const override;
  bool stalledOnMemory() const override;

  /// The comparator recurrence free-runs every tick, even when idle or
  /// done; skipped ticks must advance it identically, and each skipped
  /// ready tick of a gather stalled behind a full emission queue counts
  /// its emit stall (DESIGN.md §11).
  void creditSkippedCycles(Cycle n) override {
    bool stall = false;
    if (scanWaits(stall) && stall) {
      *c_emit_stall_ += readyTicks(cmp_phase_, ctx_.cfg.cmp_recurrence, n);
    }
    cmp_phase_ = static_cast<std::uint32_t>(
        (cmp_phase_ + n) % ctx_.cfg.cmp_recurrence);
  }

  void io(sim::StateIo& ar) override {
    Engine::io(ar);
    l1_.io(ar);
    ar.u32(l1_word_bits_);
    ar.u32(l1_word_index_);
    ar.b(l1_word_open_);
    ar.seq(slot_q_, 8, [&](std::uint64_t& slot) { ar.u64(slot); });
    ar.seq(leaf_fetches_, 34, [&](LeafFetch& f) {
      ar.u64(f.lo_req);
      ar.u64(f.hi_req);
      ar.u64(f.slot);
      ar.u32(f.lo);
      ar.u32(f.hi);
      ar.b(f.have_lo);
      ar.b(f.have_hi);
    });
    ar.u32(leaf_seq_);
    ar.seq(leaf_q_, 16, [&](Leaf& leaf) {
      ar.u64(leaf.slot);
      ar.u64(leaf.bits);
    });
    ar.u32(cur_row_);
    vfetch_.io(ar);
    ar.b(flat_);
    ar.u64(next_slot_);
    ar.u64(num_slots_);
    ar.u32(cmp_phase_, ctx_.cfg.cmp_recurrence, "comparator phase");
  }

 private:
  struct LeafFetch {
    mem::RequestId lo_req = mem::kInvalidRequest;
    mem::RequestId hi_req = mem::kInvalidRequest;
    std::uint64_t slot = 0;
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    bool have_lo = false;
    bool have_hi = false;
  };
  struct Leaf {
    std::uint64_t slot;
    std::uint64_t bits;
  };

  /// True when a ready bit-scan step would change no state without a new
  /// response; `stall` is then whether it stalls a gather behind a full
  /// emission queue (bumping the emit-stall counter).
  bool scanWaits(bool& stall) const;

  std::uint64_t numPositions() const {
    return static_cast<std::uint64_t>(ctx_.mmr.m_num_rows) * ctx_.mmr.num_cols;
  }

  IndexStream l1_;                 ///< level-1 words (32-bit granules)
  std::uint32_t l1_word_bits_ = 0; ///< remaining bit mask of current word
  std::uint32_t l1_word_index_ = 0;
  bool l1_word_open_ = false;

  std::deque<std::uint64_t> slot_q_;   ///< occupied leaf slots, in order
  std::deque<LeafFetch> leaf_fetches_; ///< in-flight leaf word pairs
  std::uint32_t leaf_seq_ = 0;         ///< next leaf's index in the packed array
  std::deque<Leaf> leaf_q_;            ///< fetched leaves awaiting bit scan

  std::uint32_t cur_row_ = 0;          ///< rows closed so far
  ValueFetchQueue vfetch_;
  bool flat_ = false;                  ///< Mode::FlatBitmap
  std::uint64_t next_slot_ = 0;        ///< flat mode: next slot to visit
  std::uint64_t num_slots_ = 0;
  std::uint32_t cmp_phase_ = 0;  ///< merge-recurrence phase counter
  std::uint64_t* c_rows_done_;
  std::uint64_t* c_values_requested_;
  std::uint64_t* c_emit_stall_;
  std::uint64_t* c_slots_found_;
  std::uint64_t* c_l1_words_scanned_;
};

}  // namespace hht::core
