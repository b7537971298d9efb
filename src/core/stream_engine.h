#pragma once

#include "core/engine.h"
#include "core/walkers.h"

namespace hht::core {

/// SpMSpV variant-2 engine: for *every* stored matrix non-zero, emit the
/// vector's value at that column — the matched non-zero when one exists,
/// otherwise a literal 0.0f (§5.1: "either a nonzero value if the
/// corresponding vector location contains a value or zero otherwise").
///
/// The CPU keeps fetching the matrix values itself (they are contiguous)
/// and multiply-accumulates against this stream, so the stream is dense in
/// matrix-NZ order and vectorizable — which is why variant-2 wins at low
/// sparsity and loses to variant-1 above ~80% sparsity, where most emitted
/// values are wasted zeros.
class StreamEngine : public Engine {
 public:
  explicit StreamEngine(const EngineContext& ctx);

  void tick(Cycle now) override;
  bool done() const override;
  bool stalledOnMemory() const override;

  /// The comparator recurrence free-runs every tick, even when idle or
  /// done; skipped ticks must advance it identically, and each skipped
  /// ready tick of a waiting step counts the comparison it makes (and the
  /// emit stall of a match behind a full emission queue) (DESIGN.md §11).
  void creditSkippedCycles(Cycle n) override {
    int bumps = 0;
    if (stepWaits(bumps) && bumps > 0) {
      const Cycle k = readyTicks(cmp_phase_, ctx_.cfg.cmp_recurrence, n);
      *c_comparisons_ += k;
      if (bumps > 1) *c_emit_stall_ += k;
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
    ar.b(prefer_cols_);
    ar.u32(cmp_phase_, ctx_.cfg.cmp_recurrence, "comparator phase");
  }

 private:
  void configureRow();
  /// True when a ready step would change no state without a new response;
  /// `bumps` is then 0 (no step), 1 (it counts a comparison) or 2 (a
  /// comparison and an emit stall).
  bool stepWaits(int& bumps) const;

  RowPtrWalker rows_;
  IndexStream cols_;
  IndexStream vidx_;
  ValueFetchQueue vfetch_;
  bool row_ready_ = false;
  bool prefer_cols_ = true;
  std::uint32_t cmp_phase_ = 0;  ///< merge-recurrence phase counter
  std::uint64_t* c_rows_done_;
  std::uint64_t* c_comparisons_;
  std::uint64_t* c_matches_;
  std::uint64_t* c_zeros_emitted_;
  std::uint64_t* c_emit_stall_;
};

}  // namespace hht::core
