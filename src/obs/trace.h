#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "sim/types.h"

namespace hht::obs {

/// Event categories, one bit each so a sink can subscribe to a subset
/// (`--trace-categories=cpu,fifo`). An emit site pays one pointer test plus
/// one mask AND when a sink is attached, and only the pointer test when not.
enum class Category : std::uint32_t {
  kCpu = 1u << 0,     ///< core phase transitions + retires
  kMem = 1u << 1,     ///< arbitration grants, bank conflicts, queue depth
  kFifo = 1u << 2,    ///< HHT FE: FIFO push/pop/not-ready/full
  kPipe = 1u << 3,    ///< HHT BE: device/engine occupancy, rows, emit stalls
  kMmr = 1u << 4,     ///< MMR writes
  kSystem = 1u << 5,  ///< run horizon markers
  kScrub = 1u << 6,   ///< memory patrol-scrubber reads (DESIGN.md §15)
  kWq = 1u << 7,      ///< shared work-queue chunk claims (DESIGN.md §18)
};

inline constexpr std::uint32_t kAllCategories = 0xFF;

constexpr std::uint32_t bit(Category c) {
  return static_cast<std::uint32_t>(c);
}

/// Who emitted the event. One trace "thread" per component in the Perfetto
/// export; the profiler keeps one cycle breakdown per component.
enum class Component : std::uint16_t {
  kSystem = 0,
  kCpu,        ///< primary scalar/vector core
  kMem,        ///< shared SRAM + MMIO interconnect
  kHhtFe,      ///< HHT front end (CPU-side buffers, MMRs)
  kHhtBe,      ///< HHT back end (engine pipeline / firmware)
  kMicroCore,  ///< micro-HHT's embedded core
  kCount,
};

inline constexpr std::size_t kNumComponents =
    static_cast<std::size_t>(Component::kCount);

/// Event kinds. Payload meaning of (a, b) per kind:
///   kPhase         a = Bucket the component enters this cycle
///   kRetire        a = pc, b = opcode
///   kMemGrant      a = addr, b = requester | is_write<<1 | queue_depth<<8
///   kMemConflict   a = queued CPU requests passed over, b = queued HHT
///   kFifoPush      a = slots drained from the emission queue this cycle
///   kFifoPop       a = payload bits, b = 1 for the VALID row-end pop
///   kFifoNotReady  a = polled MMR offset (the c_cpu_wait_cycles_ site)
///   kFifoFull      (the c_stall_buffers_full_ site; no payload)
///   kMmrWrite      a = offset, b = value
///   kEngineRowDone a = row index just closed
///   kEngineEmitStall (the engine c_emit_stall_ site; no payload)
///   kFwSpaceWait   firmware polled FW_SPACE and found none
///   kFwPush        a = value bits, b = 1 when pushed via the EOR port
///   kFwRowEnd      firmware closed a row
///   kRunEnd        a = horizon (total simulated cycles this run segment)
///   kScrubGrant    a = patrol word address, b = 0 clean / 1 corrected /
///                  2 uncorrectable (its own kind, NOT kMemGrant: patrol
///                  reads never count toward mem.grants, so the profiler's
///                  mem_grants == mem.grants reconciliation stays exact)
///   kHhtPrefetch   a = predicted line address, b = tile | action<<8 with
///                  action 0 issued / 1 filled / 2 useful (first demand hit)
///                  / 3 late (demand miss beat the fill) / 4 dropped. Like
///                  kScrubGrant, its own kind: prefetch fills use spare
///                  slots and never count toward mem.grants.
///   kWqClaim       a = packed chunk (row_begin<<12 | row_count),
///                  b = claiming tile | stolen<<8. One event per granted
///                  chunk-queue claim; like kScrubGrant, never part of
///                  mem.grants (the queue is an MMIO device).
enum class EventKind : std::uint16_t {
  kPhase = 0,
  kRetire,
  kMemGrant,
  kMemConflict,
  kFifoPush,
  kFifoPop,
  kFifoNotReady,
  kFifoFull,
  kMmrWrite,
  kEngineRowDone,
  kEngineEmitStall,
  kFwSpaceWait,
  kFwPush,
  kFwRowEnd,
  kRunEnd,
  kScrubGrant,
  kHhtPrefetch,
  kWqClaim,
  kCount,
};

/// Stall-attribution buckets carried by kPhase events. The CPU classifies
/// every non-halted cycle as compute / FIFO-wait / memory-wait /
/// queue-wait (a load stalled on the shared work-queue's claim register);
/// devices and the memory system report active / drained. Cycles outside
/// any span (halted CPU tail, pre-start) are implicitly kDrained.
/// kBucketQueueWait is appended after kDrained so the older buckets keep
/// their ids (golden traces stay valid).
enum : std::uint8_t {
  kBucketCompute = 0,
  kBucketFifoWait,
  kBucketMemWait,
  kBucketActive,
  kBucketDrained,
  kBucketQueueWait,
  kNumBuckets,
};

inline constexpr std::uint8_t kNoBucket = 0xFF;

/// One trace record. 32 bytes, POD, stamped with the simulated cycle.
struct TraceEvent {
  sim::Cycle cycle = 0;
  std::uint32_t category = 0;  ///< single Category bit
  Component component = Component::kSystem;
  EventKind kind = EventKind::kPhase;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

std::string_view categoryName(std::uint32_t category_bit);
std::string_view componentName(Component c);
std::string_view kindName(EventKind k);
std::string_view bucketName(std::uint8_t bucket);

/// Parse a comma-separated category list ("cpu,fifo,mmr") into a mask.
/// Returns nullopt on an unknown name. "all" selects every category.
std::optional<std::uint32_t> parseCategoryList(std::string_view list);

/// Ring-buffered structured trace sink.
///
/// Determinism contract (DESIGN.md §12): event order and payloads are a
/// pure function of the simulated architectural state, never of host state
/// (no pointers, timestamps or iteration-order artifacts in events), so two
/// runs of the same config+workload produce byte-identical streams, as does
/// any `--jobs` schedule (one sink per task). Attaching a sink forces
/// per-cycle simulation (the run loop's every-cycle mode) but never
/// changes architectural state: a traced run's results, stats and snapshots
/// are bit-identical to an untraced one.
///
/// When the ring fills, the oldest events are overwritten (newest win) and
/// `dropped()` counts the loss; exporters surface it so a truncated trace is
/// never mistaken for a complete one.
class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  explicit TraceSink(std::size_t capacity = kDefaultCapacity,
                     std::uint32_t category_mask = kAllCategories)
      : mask_(category_mask), capacity_(capacity == 0 ? 1 : capacity) {
    buf_.reserve(std::min<std::size_t>(capacity_, 4096));
  }

  /// Emit-site guard: is anyone listening to this category?
  bool enabled(Category c) const { return (mask_ & bit(c)) != 0; }

  std::uint32_t mask() const { return mask_; }

  void emit(sim::Cycle cycle, Category cat, Component comp, EventKind kind,
            std::uint64_t a = 0, std::uint64_t b = 0) {
    TraceEvent ev{cycle, bit(cat), comp, kind, a, b};
    if (buf_.size() < capacity_) {
      buf_.push_back(ev);
      return;
    }
    buf_[head_] = ev;  // overwrite oldest, keep newest
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }

  std::size_t size() const { return buf_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// Events oldest -> newest (materializes the ring in order).
  std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> out;
    out.reserve(buf_.size());
    for (std::size_t i = 0; i < buf_.size(); ++i) {
      out.push_back(buf_[(head_ + i) % buf_.size()]);
    }
    return out;
  }

  void clear() {
    buf_.clear();
    head_ = 0;
    dropped_ = 0;
  }

 private:
  std::uint32_t mask_;
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< oldest element once the ring is full
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> buf_;
};

}  // namespace hht::obs
