#include "mem/work_queue.h"

#include <string>

#include "sim/error.h"

namespace hht::mem {

ChunkQueueDevice::ChunkQueueDevice(std::uint32_t num_tiles,
                                   std::uint32_t claims_per_cycle)
    : num_tiles_(num_tiles),
      claims_per_cycle_(claims_per_cycle == 0 ? 1 : claims_per_cycle),
      queues_(num_tiles),
      grants_(&stats_.counter("mem.wq.grants")),
      steals_(&stats_.counter("mem.wq.steals")),
      conflict_cycles_(&stats_.counter("mem.wq.conflict_cycles")) {
  if (num_tiles == 0) {
    throw sim::SimError(sim::ErrorKind::Config, "wq",
                        "chunk queue needs at least one tile");
  }
}

void ChunkQueueDevice::seed(const std::vector<std::vector<Chunk>>& per_tile) {
  if (per_tile.size() != num_tiles_) {
    throw sim::SimError(sim::ErrorKind::Config, "wq",
                        "seed: got " + std::to_string(per_tile.size()) +
                            " deques for " + std::to_string(num_tiles_) +
                            " tiles");
  }
  for (std::size_t t = 0; t < per_tile.size(); ++t) {
    for (const Chunk& c : per_tile[t]) {
      if (c.row_count == 0 || c.row_count > kMaxChunkRows ||
          c.row_begin > kMaxRowBegin) {
        throw sim::SimError(
            sim::ErrorKind::Config, "wq",
            "seed: chunk [" + std::to_string(c.row_begin) + ", +" +
                std::to_string(c.row_count) + ") for tile " +
                std::to_string(t) + " outside the packed encoding (count in "
                "[1, " + std::to_string(kMaxChunkRows) + "], row_begin <= " +
                std::to_string(kMaxRowBegin) + ")");
      }
    }
    queues_[t].assign(per_tile[t].begin(), per_tile[t].end());
  }
  log_.clear();
}

bool ChunkQueueDevice::empty() const {
  for (const auto& q : queues_) {
    if (!q.empty()) return false;
  }
  return true;
}

std::uint64_t ChunkQueueDevice::pendingRows() const {
  std::uint64_t rows = 0;
  for (const auto& q : queues_) {
    for (const Chunk& c : q) rows += c.row_count;
  }
  return rows;
}

std::uint32_t ChunkQueueDevice::claim(std::uint32_t tile) {
  Chunk chunk;
  bool stolen = false;
  if (!queues_[tile].empty()) {
    chunk = queues_[tile].front();
    queues_[tile].pop_front();
  } else {
    // Steal from the back of the most-loaded victim (most pending rows;
    // ties break to the lowest tile index, so the choice is deterministic).
    std::uint32_t victim = num_tiles_;
    std::uint64_t victim_rows = 0;
    for (std::uint32_t t = 0; t < num_tiles_; ++t) {
      std::uint64_t rows = 0;
      for (const Chunk& c : queues_[t]) rows += c.row_count;
      if (rows > victim_rows) {
        victim_rows = rows;
        victim = t;
      }
    }
    if (victim == num_tiles_) return 0;  // drained: sentinel
    chunk = queues_[victim].back();
    queues_[victim].pop_back();
    stolen = true;
    ++*steals_;
  }
  ++*grants_;
  ++claims_this_cycle_;
  log_.push_back(Claim{tile, chunk.row_begin, chunk.row_count, stolen});
  const std::uint32_t packed = pack(chunk);
  if (trace_ != nullptr && trace_->enabled(obs::Category::kWq)) {
    trace_->emit(now_, obs::Category::kWq, obs::Component::kMem,
                 obs::EventKind::kWqClaim, packed,
                 tile | (stolen ? 1ull << 8 : 0ull));
  }
  return packed;
}

MmioReadResult ChunkQueueDevice::mmioRead(Addr offset, std::uint32_t size,
                                          Requester who) {
  (void)who;
  // Claim registers live at offset tile*4; anything else in the window
  // (including a misaligned or non-word read) reads as 0, the same as an
  // unmapped window — a mis-wired kernel sees "queue drained" and halts.
  if (size != 4 || offset % 4 != 0 || offset / 4 >= num_tiles_) {
    return {true, 0};
  }
  if (claims_this_cycle_ >= claims_per_cycle_) {
    ++*conflict_cycles_;
    return {false, 0};  // retried next cycle, per-requester FIFO order
  }
  return {true, claim(static_cast<std::uint32_t>(offset / 4))};
}

void ChunkQueueDevice::io(sim::StateIo& ar) {
  ar.tag("WKQ7");
  ar.expect32(num_tiles_, "work-queue deque count");
  for (auto& q : queues_) {
    ar.seq(q, 8, [&](Chunk& c) {
      ar.u32(c.row_begin);
      ar.u32(c.row_count);
    });
  }
  ar.seq(log_, 13, [&](Claim& c) {
    ar.u32(c.tile, num_tiles_, "claim tile");
    ar.u32(c.row_begin);
    ar.u32(c.row_count);
    ar.b(c.stolen);
  });
  stats_.io(ar);
}

}  // namespace hht::mem
