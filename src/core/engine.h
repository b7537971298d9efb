#pragma once

#include <optional>
#include <string>

#include "core/buffers.h"
#include "core/config.h"
#include "core/emission.h"
#include "core/mmr.h"
#include "mem/memory_system.h"
#include "obs/trace.h"
#include "sim/state_io.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace hht::core {

using sim::Addr;
using sim::Cycle;

/// Everything a back-end engine needs: configuration, the programmed MMRs,
/// the shared memory system (BE port), the CPU-side buffers and the
/// emission queue feeding them, plus the device's stat set.
struct EngineContext {
  const HhtConfig& cfg;
  const MmrFile& mmr;
  mem::MemorySystem& mem;
  BufferPool& buffers;
  EmissionQueue& emit;
  sim::StatSet& stats;
  /// Where detected faults go (the owning device). May be null in
  /// unit-test contexts; reports are then dropped.
  sim::FaultSink* fault = nullptr;
  /// Structured trace sink (obs layer); null = no tracing, zero cost.
  obs::TraceSink* trace = nullptr;
  /// Tile this BE's memory traffic belongs to (multi-tile scale-out; 0 in
  /// a single-tile system).
  std::uint8_t tile = 0;
};

/// A back-end engine implements one MODE's pipeline (§3.2). The device
/// ticks it once per cycle; the engine processes memory responses, performs
/// its comparisons/address generation, and issues at most
/// cfg.be_issue_per_cycle new memory requests.
class Engine {
 public:
  explicit Engine(const EngineContext& ctx)
      : ctx_(ctx),
        port_(mem::requesterIndex(mem::Requester::Hht, ctx.tile)),
        c_mem_reads_(&ctx_.stats.counter("hht.mem_reads")) {}
  virtual ~Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  virtual void tick(Cycle now) = 0;

  /// True once every slot of the stream has been handed to the emission
  /// queue (the queue and buffers may still hold undelivered slots).
  virtual bool done() const = 0;

  /// Quiescence protocol (DESIGN.md §11): true when no tick can change
  /// this engine's state (beyond what creditSkippedCycles credits) until a
  /// new response reaches this tile's BE port — no walker wants to issue,
  /// no row needs configuring, and a merge step can only wait or stall
  /// behind a full emission queue. The device then sleeps until
  /// MemorySystem::requesterReadyCycle. The default (never) is always
  /// correct.
  virtual bool stalledOnMemory() const { return false; }

  /// Quiescence protocol (DESIGN.md §11): credit `n` ticks the device
  /// skipped over. Engines whose tick advances free-running state even
  /// while idle (the comparator recurrence phase), or bumps a stall
  /// counter while stalled on memory, override this so a skipping run
  /// serializes byte-identically to a naive one.
  virtual void creditSkippedCycles(Cycle n) { (void)n; }

  /// Checkpoint hook. The base visits the shared `faulted_` flag; each
  /// engine appends its own pipeline latches and walker state. The
  /// restoring device reconstructs the engine from the (already-restored)
  /// MMRs via its mode factory, then calls io.
  virtual void io(sim::StateIo& ar) { ar.b(faulted_); }

  /// Issue one 4-byte BE read. Callers (the engine itself and its walker
  /// helpers) enforce the per-cycle issue budget.
  ///
  /// Every BE-generated address passes a physical bounds check here: an
  /// address outside the SRAM (the product of corrupted metadata) raises an
  /// AddrOutOfBounds fault and returns kInvalidRequest instead of letting
  /// the corrupt pointer reach the memory system.
  mem::RequestId issueReadFor(Addr addr) {
    if (!ctx_.mem.sram().inBounds(addr, 4)) {
      reportFault(sim::FaultCause::AddrOutOfBounds,
                  "BE-generated read address 0x" + toHex(addr) +
                      " outside SRAM (" +
                      std::to_string(ctx_.mem.sram().size()) + " bytes)");
      return mem::kInvalidRequest;
    }
    ++*c_mem_reads_;
    return ctx_.mem.submit(
        {addr, 4, false, 0, mem::Requester::Hht, ctx_.tile});
  }

  /// One-load gate for the per-tick response polls: when this tile's BE
  /// lane holds no completed response, no stream poll can make progress, so
  /// the per-pending scans are skipped wholesale on quiet cycles.
  bool responsesWaiting() const {
    return ctx_.mem.hasResponses(mem::Requester::Hht, ctx_.tile);
  }

  /// Claim a completed BE read (walker polls), straight from this tile's
  /// BE port.
  std::optional<mem::MemResponse> takeResponse(mem::RequestId id) {
    return ctx_.mem.takeResponse(port_, id);
  }

  /// Report a detected fault to the owning device and freeze this engine
  /// (the device stops ticking a faulted pipeline).
  void reportFault(sim::FaultCause cause, const std::string& detail) {
    faulted_ = true;
    if (ctx_.fault != nullptr) ctx_.fault->raiseFault(cause, detail);
  }
  bool faulted() const { return faulted_; }

  /// Validate a CSR row extent [start, end) fetched from memory before any
  /// address is generated from it. A corrupted row pointer shows up as an
  /// inverted extent (end < start would underflow into a ~4-billion-element
  /// row) or one past the programmed M_NNZ cap. Returns false (fault
  /// raised) when the metadata cannot be trusted.
  bool checkRowExtent(std::uint32_t row, std::uint32_t start,
                      std::uint32_t end) {
    if (end < start) {
      reportFault(sim::FaultCause::MalformedMeta,
                  "CSR row " + std::to_string(row) +
                      " extent inverted: rows[r+1]=" + std::to_string(end) +
                      " < rows[r]=" + std::to_string(start));
      return false;
    }
    if (ctx_.mmr.m_nnz != 0 && end > ctx_.mmr.m_nnz) {
      reportFault(sim::FaultCause::MalformedMeta,
                  "CSR row " + std::to_string(row) + " extent end " +
                      std::to_string(end) + " exceeds programmed M_NNZ " +
                      std::to_string(ctx_.mmr.m_nnz));
      return false;
    }
    return true;
  }

  /// Trace helpers for the per-engine pipeline events. The emit sites sit
  /// exactly at the corresponding stat-counter bumps so the profiler's
  /// tallies reconcile with fig6/fig7 counters by construction.
  void traceRowDone(Cycle now, std::uint64_t row) {
    if (ctx_.trace != nullptr && ctx_.trace->enabled(obs::Category::kPipe)) {
      ctx_.trace->emit(now, obs::Category::kPipe, obs::Component::kHhtBe,
                       obs::EventKind::kEngineRowDone, row);
    }
  }
  void traceEmitStall(Cycle now) {
    if (ctx_.trace != nullptr && ctx_.trace->enabled(obs::Category::kPipe)) {
      ctx_.trace->emit(now, obs::Category::kPipe, obs::Component::kHhtBe,
                       obs::EventKind::kEngineEmitStall);
    }
  }

 protected:
  /// How many of the `n` ticks starting at comparator phase `phase` are
  /// comparator-ready (phase 0 of `recurrence`).
  static Cycle readyTicks(std::uint32_t phase, std::uint32_t recurrence,
                          Cycle n) {
    const Cycle first = (recurrence - phase) % recurrence;
    return n > first ? (n - 1 - first) / recurrence + 1 : 0;
  }

  static std::string toHex(Addr addr) {
    static const char* digits = "0123456789abcdef";
    std::string out;
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(digits[(addr >> shift) & 0xF]);
    }
    return out;
  }

  EngineContext ctx_;
  std::uint32_t port_;  ///< this tile's BE requester index
  bool faulted_ = false;
  std::uint64_t* c_mem_reads_;  ///< hot path: one BE read per issue slot
};

}  // namespace hht::core
