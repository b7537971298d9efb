#include "core/gather_engine.h"

namespace hht::core {

GatherEngine::GatherEngine(const EngineContext& ctx)
    : Engine(ctx),
      cols_(ctx.cfg.prefetch_queue),
      vfetch_(ctx.cfg.prefetch_queue, ctx.cfg.poison_containment),
      c_values_requested_(&ctx_.stats.counter("hht.gather.values_requested")) {
  rows_.configure(ctx.mmr.m_rows_base, ctx.mmr.m_num_rows);
}

void GatherEngine::configureRowStream() {
  const std::uint32_t start = rows_.rowStart();
  const std::uint32_t end = rows_.rowEnd();
  if (!checkRowExtent(rows_.row(), start, end)) return;
  cols_.configure(ctx_.mmr.m_cols_base + start * 4u, end - start, start);
  row_stream_ready_ = true;
}

void GatherEngine::tick(Cycle now) {
  if (faulted_) return;

  // 1. Collect memory responses (the poison flags only change under a
  //    poll, so the whole block is skipped when the lane is empty).
  if (responsesWaiting()) {
    rows_.poll(*this);
    cols_.poll(*this);
    vfetch_.poll(*this, ctx_.emit);
    if (rows_.sawPoison() || cols_.sawPoison() || vfetch_.sawPoison()) {
      reportFault(sim::FaultCause::MemUncorrectable,
                  "ECC-uncorrectable response reached the gather pipeline");
      return;
    }
  }

  // 2. Row bookkeeping: target the column stream at the current row, and
  //    advance over rows whose indices are fully consumed (including
  //    empty rows).
  while (rows_.haveRow()) {
    if (!row_stream_ready_) {
      configureRowStream();
      if (faulted_) return;
    }
    if (cols_.morePending()) break;
    traceRowDone(now, rows_.row());
    rows_.advance();
    row_stream_ready_ = false;
  }

  // 3. Address generation: convert buffered column indices into V-fetches.
  //    The emission slot is reserved here so V values reach the CPU buffer
  //    in index order; the last index of a row tags its slot for a
  //    row-aligned publish.
  while (row_stream_ready_ && cols_.headAvailable() && ctx_.emit.canReserve() &&
         vfetch_.canAccept()) {
    if (ctx_.mmr.v_len != 0 && cols_.head() >= ctx_.mmr.v_len) {
      reportFault(sim::FaultCause::AddrOutOfBounds,
                  "gather column index " + std::to_string(cols_.head()) +
                      " exceeds programmed V_LEN " +
                      std::to_string(ctx_.mmr.v_len));
      return;
    }
    const Addr v_addr =
        ctx_.mmr.v_base + cols_.head() * ctx_.mmr.element_size;
    const bool last_of_row = cols_.headIsLast();
    vfetch_.enqueue({v_addr, ctx_.emit.reserve(), last_of_row});
    cols_.pop();
    ++*c_values_requested_;
  }

  // 4. Issue memory requests within the BE budget.
  //    Priority: row pointers (they unblock everything), then V fetches
  //    (drain the pipeline), then column prefetches.
  std::uint32_t budget = ctx_.cfg.be_issue_per_cycle;
  while (budget > 0) {
    if (rows_.wantIssue()) {
      rows_.issue(*this, ctx_.mem);
    } else if (vfetch_.wantIssue()) {
      vfetch_.issue(*this, ctx_.mem);
    } else if (row_stream_ready_ && cols_.wantIssue()) {
      cols_.issue(*this, ctx_.mem);
    } else {
      break;
    }
    --budget;
  }
}

bool GatherEngine::stalledOnMemory() const {
  // Without a response a tick can only configure or retire a row (step 2),
  // generate a V address (step 3) or issue a read (step 4).
  if (rows_.haveRow() && !(row_stream_ready_ && cols_.morePending())) {
    return false;
  }
  if (row_stream_ready_ && cols_.headAvailable() && ctx_.emit.canReserve() &&
      vfetch_.canAccept()) {
    return false;
  }
  return !rows_.wantIssue() && !vfetch_.wantIssue() &&
         !(row_stream_ready_ && cols_.wantIssue());
}

bool GatherEngine::done() const {
  return rows_.finished() && vfetch_.drained() && ctx_.emit.empty();
}

}  // namespace hht::core
