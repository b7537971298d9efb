#pragma once

#include <cstdint>
#include <vector>

#include "sim/state_io.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace hht::mem {

using sim::Addr;
using sim::Cycle;

/// L1D cache configuration for the "high-performance processor integration"
/// of §3.2 (the MCU integration runs cache-less against on-chip SRAM).
struct CacheConfig {
  std::uint32_t size_bytes = 16 * 1024;
  std::uint32_t line_bytes = 32;
  std::uint32_t ways = 4;
  Cycle hit_latency = 1;      ///< cycles for a hit (beyond request issue)
  Cycle miss_penalty = 20;    ///< extra cycles to fill a line from backing RAM
  Cycle writeback_penalty = 8; ///< extra cycles when the victim line is dirty
};

/// Timing-only set-associative write-back/write-allocate cache with true-LRU
/// replacement.
///
/// Functional data always lives in the Sram backing store (the simulation is
/// single-master-at-a-time and element-granular, so no coherence state is
/// needed); the cache tracks tags and dirty bits purely to decide each
/// access's latency — exactly the abstraction level of the paper's modified
/// Spike simulator.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Account one access; returns its total latency in cycles and updates
  /// tag/LRU/dirty state.
  Cycle access(Addr addr, bool is_write);

  /// Did the most recent access() miss? (Drives the prefetcher.)
  bool lastAccessMissed() const { return last_missed_; }

  /// Prefetch fill: bring the line in (evicting LRU, possibly dirty)
  /// without charging demand-access latency or hit/miss statistics.
  /// Returns false if the line was already resident (prefetch was useless).
  bool install(Addr addr);

  /// Residency probe: is `addr`'s line present? Pure lookup — no LRU,
  /// counter or dirty-bit side effects (prefetchers use it to skip targets
  /// that are already resident without perturbing replacement state).
  bool contains(Addr addr) const;

  /// Drop all lines (dirty contents are functionally in SRAM already).
  void flush();

  const CacheConfig& config() const { return config_; }
  std::uint32_t numSets() const { return num_sets_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t writebacks() const { return writebacks_; }
  std::uint64_t prefetchFills() const { return prefetch_fills_; }
  double hitRate() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }

  void io(sim::StateIo& ar) {
    ar.tag("CACH");
    ar.expect64(lines_.size(), "cache line count");
    for (Line& line : lines_) {
      ar.u64(line.tag);
      ar.b(line.valid);
      ar.b(line.dirty);
      ar.u64(line.lru_stamp);
    }
    ar.u64(access_counter_);
    ar.u64(hits_);
    ar.u64(misses_);
    ar.u64(writebacks_);
    ar.u64(prefetch_fills_);
    ar.b(last_missed_);
  }

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru_stamp = 0;  ///< larger = more recently used
  };

  CacheConfig config_;
  std::uint32_t num_sets_;
  std::vector<Line> lines_;  ///< num_sets_ * ways, set-major
  std::uint64_t access_counter_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t writebacks_ = 0;
  std::uint64_t prefetch_fills_ = 0;
  bool last_missed_ = false;
};

}  // namespace hht::mem
