#pragma once

#include "core/engine.h"
#include "core/walkers.h"

namespace hht::core {

/// SpMSpV variant-1 engine: per row, merge-intersect the row's column
/// indices with the sparse vector's index array and emit the aligned
/// (matrix value, vector value) pairs, closing each row with a RowEnd
/// marker (the FE's VALID=0 response).
///
/// The HHT does all the index walking here — the paper notes this is the
/// variant where "HHT is performing more work than the CPU" and the CPU
/// idles waiting (§5.1, §5.2); the one-comparison-per-cycle merge unit and
/// the per-row rescan of the vector index array make that cost explicit.
class MergeEngine : public Engine {
 public:
  explicit MergeEngine(const EngineContext& ctx);

  void tick(Cycle now) override;
  bool done() const override;
  bool stalledOnMemory() const override;

  /// The comparator recurrence free-runs every tick, even when idle or
  /// done; skipped ticks must advance it identically, and each skipped
  /// ready tick of a match stalled behind a full emission queue counts its
  /// comparison and emit stall (DESIGN.md §11).
  void creditSkippedCycles(Cycle n) override {
    bool stall = false;
    if (stepWaits(stall) && stall) {
      const Cycle k = readyTicks(cmp_phase_, ctx_.cfg.cmp_recurrence, n);
      *c_comparisons_ += k;
      *c_emit_stall_ += k;
    }
    cmp_phase_ = static_cast<std::uint32_t>(
        (cmp_phase_ + n) % ctx_.cfg.cmp_recurrence);
  }

  void io(sim::StateIo& ar) override {
    Engine::io(ar);
    rows_.io(ar);
    cols_.io(ar);
    vidx_.io(ar);
    vfetch_.io(ar);
    ar.b(row_ready_);
    ar.b(row_merge_done_);
    ar.b(prefer_cols_);
    ar.u32(cmp_phase_, ctx_.cfg.cmp_recurrence, "comparator phase");
  }

 private:
  void configureRow();
  /// True when a ready merge step would change no state without a new
  /// response; `stall` is then whether it compares and stalls on a full
  /// emission queue (bumping both counters).
  bool stepWaits(bool& stall) const;
  /// Try to close the current row (marker + advance). Returns true if
  /// advanced.
  bool tryFinishRow(Cycle now);

  RowPtrWalker rows_;
  IndexStream cols_;    ///< current row's column indices
  IndexStream vidx_;    ///< sparse vector indices, rescanned per row
  ValueFetchQueue vfetch_;
  bool row_ready_ = false;
  bool row_merge_done_ = false;  ///< matrix side exhausted; marker pending
  bool prefer_cols_ = true;      ///< round-robin between the index streams
  std::uint32_t cmp_phase_ = 0;  ///< merge-recurrence phase counter
  std::uint64_t* c_rows_done_;
  std::uint64_t* c_comparisons_;
  std::uint64_t* c_matches_;
  std::uint64_t* c_emit_stall_;
};

}  // namespace hht::core
