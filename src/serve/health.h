#pragma once

#include <cstdint>
#include <vector>

#include "sim/error.h"
#include "sim/state_io.h"

namespace hht::serve {

/// Per-tile health tracker implementing the quarantine policy (DESIGN.md
/// §14): every HHT attempt's outcome lands in a sliding window per tile;
/// a tile whose windowed fault rate crosses the threshold (with enough
/// samples to mean anything) is quarantined — excluded from HHT dispatch —
/// and periodically probed with a canary workload. A passing probe
/// reinstates the tile with a cleared window, so one old burst of faults
/// cannot re-quarantine it instantly.
///
/// Pure bookkeeping, no simulator dependencies: the Server records
/// outcomes and asks scheduling questions; tests drive it directly.
class TileHealth {
 public:
  struct Config {
    std::uint32_t window = 8;          ///< attempts remembered per tile
    std::uint32_t min_samples = 4;     ///< no verdict on fewer attempts
    double fault_rate_threshold = 0.5; ///< quarantine at >= this rate
    std::uint32_t probe_period = 4;    ///< batches between probes

    void validate() const {
      if (window == 0 || min_samples == 0 || min_samples > window) {
        throw sim::SimError(sim::ErrorKind::Config, "serve",
                            "health window/min_samples must satisfy "
                            "0 < min_samples <= window");
      }
      if (fault_rate_threshold <= 0.0 || fault_rate_threshold > 1.0) {
        throw sim::SimError(sim::ErrorKind::Config, "serve",
                            "fault_rate_threshold must be in (0, 1]");
      }
      if (probe_period == 0) {
        throw sim::SimError(sim::ErrorKind::Config, "serve",
                            "probe_period must be >= 1");
      }
    }
  };

  TileHealth(std::uint32_t num_tiles, const Config& cfg);

  std::uint32_t numTiles() const {
    return static_cast<std::uint32_t>(tiles_.size());
  }

  /// Record one HHT attempt outcome on `tile`; may flip it to quarantined.
  void record(std::uint32_t tile, bool fault);

  bool quarantined(std::uint32_t tile) const { return at(tile).quarantined; }
  /// A probe should be dispatched to `tile` this batch.
  bool probeDue(std::uint32_t tile) const {
    return at(tile).quarantined && at(tile).cooldown == 0;
  }
  /// A probe on `tile` came back faulty: stay quarantined, restart the
  /// probe cooldown.
  void probeFailed(std::uint32_t tile);
  /// A probe on `tile` passed: clear quarantine and forget the window.
  void reinstate(std::uint32_t tile);
  /// Advance one batch (counts down probe cooldowns).
  void tickBatch();

  std::uint32_t quarantinedCount() const;
  std::uint64_t quarantineEvents() const { return quarantine_events_; }
  std::uint64_t reinstateEvents() const { return reinstate_events_; }
  /// Windowed fault count / sample count for `tile` (diagnostics).
  std::uint32_t windowFaults(std::uint32_t tile) const {
    return at(tile).faults;
  }
  std::uint32_t windowSamples(std::uint32_t tile) const {
    return at(tile).filled;
  }

  /// Checkpoint hook. On restore the tile count and window size must match
  /// this instance's construction, or SimError(Checkpoint).
  void io(sim::StateIo& ar);

 private:
  struct Tile {
    std::vector<std::uint8_t> ring;  ///< fault flags, size == cfg.window
    std::uint32_t head = 0;          ///< next slot to overwrite
    std::uint32_t filled = 0;        ///< valid entries in the ring
    std::uint32_t faults = 0;        ///< set flags among valid entries
    bool quarantined = false;
    std::uint32_t cooldown = 0;      ///< batches until the next probe
  };

  Tile& at(std::uint32_t tile);
  const Tile& at(std::uint32_t tile) const;

  Config cfg_;
  std::vector<Tile> tiles_;
  std::uint64_t quarantine_events_ = 0;
  std::uint64_t reinstate_events_ = 0;
};

}  // namespace hht::serve
