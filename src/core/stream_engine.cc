#include "core/stream_engine.h"

#include <bit>

namespace hht::core {

StreamEngine::StreamEngine(const EngineContext& ctx)
    : Engine(ctx),
      cols_(ctx.cfg.prefetch_queue),
      vidx_(ctx.cfg.prefetch_queue),
      vfetch_(ctx.cfg.emission_queue, ctx.cfg.poison_containment),
      c_rows_done_(&ctx_.stats.counter("hht.stream.rows_done")),
      c_comparisons_(&ctx_.stats.counter("hht.stream.comparisons")),
      c_matches_(&ctx_.stats.counter("hht.stream.matches")),
      c_zeros_emitted_(&ctx_.stats.counter("hht.stream.zeros_emitted")),
      c_emit_stall_(&ctx_.stats.counter("hht.stream.emit_stall_cycles")) {
  rows_.configure(ctx.mmr.m_rows_base, ctx.mmr.m_num_rows);
}

void StreamEngine::configureRow() {
  const std::uint32_t start = rows_.rowStart();
  const std::uint32_t end = rows_.rowEnd();
  if (!checkRowExtent(rows_.row(), start, end)) return;
  cols_.configure(ctx_.mmr.m_cols_base + start * 4u, end - start, start);
  vidx_.configure(ctx_.mmr.v_idx_base, ctx_.mmr.v_nnz, 0);
  row_ready_ = true;
}

void StreamEngine::tick(Cycle now) {
  if (faulted_) return;

  if (responsesWaiting()) {
    rows_.poll(*this);
    cols_.poll(*this);
    vidx_.poll(*this);
    vfetch_.poll(*this, ctx_.emit);
    if (rows_.sawPoison() || cols_.sawPoison() || vidx_.sawPoison() ||
        vfetch_.sawPoison()) {
      reportFault(sim::FaultCause::MemUncorrectable,
                  "ECC-uncorrectable response reached the stream pipeline");
      return;
    }
  }

  if (rows_.haveRow() && !row_ready_) {
    configureRow();
    if (faulted_) return;
  }

  // One emitted element (or vector-pointer advance) per merge step,
  // completing every cmp_recurrence cycles.
  const bool cmp_ready = cmp_phase_ == 0;
  cmp_phase_ = (cmp_phase_ + 1) % ctx_.cfg.cmp_recurrence;
  std::uint32_t cmps = cmp_ready ? ctx_.cfg.cmp_per_cycle : 0;
  while (row_ready_ && cmps > 0) {
    if (!cols_.morePending()) {
      // Row complete (every matrix NZ produced one stream element).
      traceRowDone(now, rows_.row());
      rows_.advance();
      row_ready_ = false;
      ++*c_rows_done_;
      if (rows_.haveRow()) {
        configureRow();
        if (faulted_) return;
      }
      continue;
    }
    if (!cols_.headAvailable()) break;

    const std::uint32_t mc = cols_.head();
    const bool last = cols_.headIsLast();
    ++*c_comparisons_;
    --cmps;

    if (!vidx_.morePending()) {
      // Vector exhausted: remaining columns all miss — emit zeros.
      if (!ctx_.emit.canReserve()) break;
      ctx_.emit.emitNow(Slot{std::bit_cast<std::uint32_t>(0.0f), false, last});
      cols_.pop();
      ++*c_zeros_emitted_;
      continue;
    }
    if (!vidx_.headAvailable()) break;

    const std::uint32_t vc = vidx_.head();
    if (mc == vc) {
      if (!ctx_.emit.canReserve() || !vfetch_.canAccept()) {
        ++*c_emit_stall_;
        traceEmitStall(now);
        break;
      }
      const Addr v_addr = ctx_.mmr.v_vals_base + vidx_.headIndex() * 4u;
      vfetch_.enqueue({v_addr, ctx_.emit.reserve(), last});
      cols_.pop();
      vidx_.pop();
      ++*c_matches_;
    } else if (mc < vc) {
      if (!ctx_.emit.canReserve()) break;
      ctx_.emit.emitNow(Slot{std::bit_cast<std::uint32_t>(0.0f), false, last});
      cols_.pop();
      ++*c_zeros_emitted_;
    } else {
      vidx_.pop();
    }
  }

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

bool StreamEngine::stepWaits(int& bumps) const {
  bumps = 0;
  if (!row_ready_) return true;             // no step runs
  if (!cols_.morePending()) return false;   // retires the row
  if (!cols_.headAvailable()) return true;
  bumps = 1;  // every step past the column head counts a comparison
  if (!vidx_.morePending()) return !ctx_.emit.canReserve();  // emits a zero
  if (!vidx_.headAvailable()) return true;
  const std::uint32_t mc = cols_.head();
  const std::uint32_t vc = vidx_.head();
  if (mc == vc) {
    if (ctx_.emit.canReserve() && vfetch_.canAccept()) return false;
    bumps = 2;
    return true;
  }
  if (mc < vc) return !ctx_.emit.canReserve();  // emits a zero
  return false;                                 // advances the vector
}

bool StreamEngine::stalledOnMemory() const {
  // Without a response a tick can only configure or retire a row, take a
  // merge step or issue a read.
  int bumps = 0;
  if (rows_.haveRow() && !row_ready_) return false;
  if (!stepWaits(bumps)) return false;
  return !rows_.wantIssue() && !vfetch_.wantIssue() &&
         !(row_ready_ && (cols_.wantIssue() || vidx_.wantIssue()));
}

bool StreamEngine::done() const {
  return rows_.finished() && vfetch_.drained() && ctx_.emit.empty();
}

}  // namespace hht::core
