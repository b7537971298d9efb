#include "core/merge_engine.h"

namespace hht::core {

MergeEngine::MergeEngine(const EngineContext& ctx)
    : Engine(ctx),
      cols_(ctx.cfg.prefetch_queue),
      vidx_(ctx.cfg.prefetch_queue),
      vfetch_(ctx.cfg.emission_queue, ctx.cfg.poison_containment),
      c_rows_done_(&ctx_.stats.counter("hht.merge.rows_done")),
      c_comparisons_(&ctx_.stats.counter("hht.merge.comparisons")),
      c_matches_(&ctx_.stats.counter("hht.merge.matches")),
      c_emit_stall_(&ctx_.stats.counter("hht.merge.emit_stall_cycles")) {
  rows_.configure(ctx.mmr.m_rows_base, ctx.mmr.m_num_rows);
}

void MergeEngine::configureRow() {
  const std::uint32_t start = rows_.rowStart();
  const std::uint32_t end = rows_.rowEnd();
  if (!checkRowExtent(rows_.row(), start, end)) return;
  cols_.configure(ctx_.mmr.m_cols_base + start * 4u, end - start, start);
  // Variant-1 rescans the vector index list for every row: both lists are
  // sorted, but the next row's columns restart from low indices.
  vidx_.configure(ctx_.mmr.v_idx_base, ctx_.mmr.v_nnz, 0);
  row_ready_ = true;
  row_merge_done_ = false;
}

bool MergeEngine::tryFinishRow(Cycle now) {
  if (!ctx_.emit.canReserve()) return false;
  ctx_.emit.emitNow(Slot{0, /*is_row_end=*/true, /*publish_after=*/true});
  ++*c_rows_done_;
  traceRowDone(now, rows_.row());
  rows_.advance();
  row_ready_ = false;
  row_merge_done_ = false;
  return true;
}

void MergeEngine::tick(Cycle now) {
  if (faulted_) return;

  if (responsesWaiting()) {
    rows_.poll(*this);
    cols_.poll(*this);
    vidx_.poll(*this);
    vfetch_.poll(*this, ctx_.emit);
    if (rows_.sawPoison() || cols_.sawPoison() || vidx_.sawPoison() ||
        vfetch_.sawPoison()) {
      reportFault(sim::FaultCause::MemUncorrectable,
                  "ECC-uncorrectable response reached the merge pipeline");
      return;
    }
  }

  if (rows_.haveRow() && !row_ready_) {
    configureRow();
    if (faulted_) return;
  }

  // Merge step: the compare-select-advance recurrence completes every
  // cmp_recurrence cycles; each completion performs cmp_per_cycle steps.
  const bool cmp_ready = cmp_phase_ == 0;
  cmp_phase_ = (cmp_phase_ + 1) % ctx_.cfg.cmp_recurrence;
  std::uint32_t cmps = cmp_ready ? ctx_.cfg.cmp_per_cycle : 0;
  while (row_ready_ && !row_merge_done_ && cmps > 0) {
    if (!cols_.morePending()) {
      // Matrix side of the row fully consumed: the row's intersection is
      // complete whatever remains on the vector side.
      row_merge_done_ = true;
      break;
    }
    if (!cols_.headAvailable()) break;  // waiting on a column fetch

    if (!vidx_.morePending()) {
      // Vector exhausted: remaining columns are unmatched; discard one per
      // comparison slot (the hardware still walks them).
      cols_.pop();
      ++*c_comparisons_;
      --cmps;
      continue;
    }
    if (!vidx_.headAvailable()) break;  // waiting on a vector-index fetch

    const std::uint32_t mc = cols_.head();
    const std::uint32_t vc = vidx_.head();
    ++*c_comparisons_;
    --cmps;
    if (mc == vc) {
      if (!ctx_.emit.canReserve(2) || !vfetch_.canAccept(2)) {
        // Downstream full: retry the same comparison next cycle.
        ++*c_emit_stall_;
        traceEmitStall(now);
        break;
      }
      const Addr m_addr = ctx_.mmr.m_vals_base + cols_.headGlobal() * 4u;
      const Addr v_addr = ctx_.mmr.v_vals_base + vidx_.headIndex() * 4u;
      vfetch_.enqueue({m_addr, ctx_.emit.reserve(), false});
      vfetch_.enqueue({v_addr, ctx_.emit.reserve(), false});
      cols_.pop();
      vidx_.pop();
      ++*c_matches_;
    } else if (mc < vc) {
      cols_.pop();
    } else {
      vidx_.pop();
    }
  }

  // Close the row once its pairs' value fetches are all in flight order
  // (the RowEnd marker is reserved after them, so emission order is safe
  // even while fetches are pending).
  if (row_ready_ && row_merge_done_) tryFinishRow(now);

  // Issue budget: row pointers, then value fetches, then whichever index
  // stream is shorter on buffered entries.
  std::uint32_t budget = ctx_.cfg.be_issue_per_cycle;
  while (budget > 0) {
    if (rows_.wantIssue()) {
      rows_.issue(*this, ctx_.mem);
    } else if (vfetch_.wantIssue()) {
      vfetch_.issue(*this, ctx_.mem);
    } else if (row_ready_ && cols_.wantIssue() &&
               (!vidx_.wantIssue() || prefer_cols_)) {
      cols_.issue(*this, ctx_.mem);
      prefer_cols_ = false;
    } else if (row_ready_ && vidx_.wantIssue()) {
      vidx_.issue(*this, ctx_.mem);
      prefer_cols_ = true;
    } else {
      break;
    }
    --budget;
  }
}

bool MergeEngine::stepWaits(bool& stall) const {
  stall = false;
  if (!row_ready_ || row_merge_done_) return true;  // no step runs
  if (!cols_.morePending()) return false;           // closes the merge
  if (!cols_.headAvailable()) return true;
  if (!vidx_.morePending()) return false;  // discards a column
  if (!vidx_.headAvailable()) return true;
  if (cols_.head() != vidx_.head()) return false;  // advances one side
  stall = !ctx_.emit.canReserve(2) || !vfetch_.canAccept(2);
  return stall;
}

bool MergeEngine::stalledOnMemory() const {
  // Without a response a tick can only configure a row, take a merge step,
  // close a row or issue a read.
  bool stall = false;
  if (rows_.haveRow() && !row_ready_) return false;
  if (!stepWaits(stall)) return false;
  if (row_ready_ && row_merge_done_ && ctx_.emit.canReserve()) return false;
  return !rows_.wantIssue() && !vfetch_.wantIssue() &&
         !(row_ready_ && (cols_.wantIssue() || vidx_.wantIssue()));
}

bool MergeEngine::done() const {
  return rows_.finished() && vfetch_.drained() && ctx_.emit.empty();
}

}  // namespace hht::core
