#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/mmio.h"
#include "obs/trace.h"
#include "sim/state_io.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace hht::mem {

using sim::Cycle;
using sim::StatSet;

/// Shared work-queue device for dynamic row distribution across tiles
/// (DESIGN.md §18).
///
/// The device occupies ONE extra MMIO window at index `num_tiles`
/// (mmio_base + num_tiles*mmio_size), enabled by
/// MemorySystemConfig::work_queue_enabled. Each tile claims row chunks by
/// reading its own claim register at offset tile*4 inside that window —
/// the offset is the tile identity, so the MmioDevice interface needs no
/// extra plumbing. A claim returns a packed chunk descriptor
///
///   packed = (row_begin << 12) | row_count       (row_count in [1, 4095])
///
/// or the sentinel 0 once every deque is drained (0 also happens to be
/// what an unmapped MMIO window reads as, so a mis-wired kernel halts
/// instead of spinning). The host seeds one chunk deque per tile; a tile
/// pops its own deque front-first and, when empty, steals from the BACK of
/// the most-loaded victim's deque (classic work-stealing: owner and thief
/// touch opposite ends, and the steal grabs the work farthest from the
/// victim's current locality).
///
/// Arbitration: the device answers at most `claims_per_cycle` claims per
/// simulated cycle (beginCycle() resets the budget; harness::System's
/// run loop calls it just before MemorySystem::tick). A claim that misses
/// the budget returns ready=false, which the memory system retries every
/// cycle in per-requester FIFO order — the contention shows up as
/// `mem.wq.conflict_cycles`, successful claims as `mem.wq.grants`, and
/// cross-tile grabs additionally as `mem.wq.steals`.
///
/// Determinism: claims are processed inside MemorySystem::tick in MMIO
/// queue arrival order, which the staged-submission epoch protocol keeps
/// canonical under tile_workers > 1, so the claim schedule — and with it
/// the whole run — is bit-identical across serial and threaded loops.
///
/// The claim log (who got which rows, in grant order) is host-side
/// observability for the per-row oracle mode; it is serialized with the
/// deques (snapshot v7) so a restored run's oracle sees the same history.
class ChunkQueueDevice : public MmioDevice {
 public:
  /// Chunk descriptors: row_count occupies the low 12 bits.
  static constexpr std::uint32_t kCountBits = 12;
  static constexpr std::uint32_t kMaxChunkRows = (1u << kCountBits) - 1;
  static constexpr std::uint32_t kMaxRowBegin = (1u << 20) - 1;

  struct Chunk {
    std::uint32_t row_begin = 0;
    std::uint32_t row_count = 0;
  };
  /// One granted claim, in grant order.
  struct Claim {
    std::uint32_t tile = 0;
    std::uint32_t row_begin = 0;
    std::uint32_t row_count = 0;
    bool stolen = false;
  };

  explicit ChunkQueueDevice(std::uint32_t num_tiles,
                            std::uint32_t claims_per_cycle = 1);

  /// Load the per-tile chunk deques (one vector per tile, index = tile).
  /// Throws SimError(Config) on an encoding-range violation or a zero-row
  /// chunk. Replaces any previous content; clears the claim log.
  void seed(const std::vector<std::vector<Chunk>>& per_tile);

  /// Reset the per-cycle claim budget. Called once per simulated cycle by
  /// the owning run loop before MemorySystem::tick processes MMIO.
  void beginCycle(Cycle now) {
    now_ = now;
    claims_this_cycle_ = 0;
  }

  MmioReadResult mmioRead(Addr offset, std::uint32_t size,
                          Requester who) override;
  /// The queue has no writable registers; writes are dropped.
  void mmioWrite(Addr offset, std::uint32_t size, std::uint32_t value,
                 Requester who) override {
    (void)offset;
    (void)size;
    (void)value;
    (void)who;
  }

  /// True once every tile deque is drained.
  bool empty() const;
  /// Rows not yet claimed, across all deques.
  std::uint64_t pendingRows() const;

  /// Granted claims in grant order (the per-row oracle drains this).
  const std::vector<Claim>& claimLog() const { return log_; }

  StatSet& stats() { return stats_; }
  const StatSet& stats() const { return stats_; }

  void setTraceSink(obs::TraceSink* sink) { trace_ = sink; }

  /// Snapshot hook (v7): deque contents and the claim log. The per-cycle
  /// claim budget is transient (checkpoints land on cycle boundaries).
  void io(sim::StateIo& ar);

 private:
  static std::uint32_t pack(const Chunk& c) {
    return (c.row_begin << kCountBits) | c.row_count;
  }
  /// Grant one chunk to `tile`, or 0 when all deques are empty.
  std::uint32_t claim(std::uint32_t tile);

  std::uint32_t num_tiles_;
  std::uint32_t claims_per_cycle_;
  std::uint32_t claims_this_cycle_ = 0;
  Cycle now_ = 0;
  std::vector<std::deque<Chunk>> queues_;  ///< one per tile
  std::vector<Claim> log_;
  StatSet stats_;
  std::uint64_t* grants_;
  std::uint64_t* steals_;
  std::uint64_t* conflict_cycles_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace hht::mem
