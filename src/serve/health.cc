#include "serve/health.h"

namespace hht::serve {

TileHealth::TileHealth(std::uint32_t num_tiles, const Config& cfg)
    : cfg_(cfg) {
  cfg_.validate();
  if (num_tiles == 0) {
    throw sim::SimError(sim::ErrorKind::Config, "serve",
                        "TileHealth needs at least one tile");
  }
  tiles_.resize(num_tiles);
  for (Tile& t : tiles_) t.ring.assign(cfg_.window, 0);
}

TileHealth::Tile& TileHealth::at(std::uint32_t tile) {
  if (tile >= tiles_.size()) {
    throw sim::SimError(sim::ErrorKind::Config, "serve",
                        "tile " + std::to_string(tile) + " out of range",
                        {}, static_cast<int>(tile));
  }
  return tiles_[tile];
}

const TileHealth::Tile& TileHealth::at(std::uint32_t tile) const {
  return const_cast<TileHealth*>(this)->at(tile);
}

void TileHealth::record(std::uint32_t tile, bool fault) {
  Tile& t = at(tile);
  if (t.filled == cfg_.window) {
    t.faults -= t.ring[t.head];  // evict the oldest sample
  } else {
    ++t.filled;
  }
  t.ring[t.head] = fault ? 1 : 0;
  t.faults += t.ring[t.head];
  t.head = (t.head + 1) % cfg_.window;
  if (!t.quarantined && t.filled >= cfg_.min_samples &&
      static_cast<double>(t.faults) >=
          cfg_.fault_rate_threshold * static_cast<double>(t.filled)) {
    t.quarantined = true;
    t.cooldown = cfg_.probe_period;
    ++quarantine_events_;
  }
}

void TileHealth::probeFailed(std::uint32_t tile) {
  Tile& t = at(tile);
  t.cooldown = cfg_.probe_period;
}

void TileHealth::reinstate(std::uint32_t tile) {
  Tile& t = at(tile);
  t.quarantined = false;
  t.cooldown = 0;
  t.filled = 0;
  t.faults = 0;
  t.head = 0;
  for (auto& slot : t.ring) slot = 0;
  ++reinstate_events_;
}

void TileHealth::tickBatch() {
  for (Tile& t : tiles_) {
    if (t.quarantined && t.cooldown > 0) --t.cooldown;
  }
}

std::uint32_t TileHealth::quarantinedCount() const {
  std::uint32_t n = 0;
  for (const Tile& t : tiles_) n += t.quarantined ? 1 : 0;
  return n;
}

void TileHealth::io(sim::StateIo& ar) {
  ar.tag("HLTH");
  ar.expect32(static_cast<std::uint32_t>(tiles_.size()), "health tile count");
  ar.expect32(cfg_.window, "health window");
  ar.u64(quarantine_events_);
  ar.u64(reinstate_events_);
  for (Tile& t : tiles_) {
    ar.u32(t.head, cfg_.window, "health ring head");
    ar.u32(t.filled, std::uint64_t{cfg_.window} + 1, "health ring fill");
    ar.u32(t.faults);
    ar.b(t.quarantined);
    ar.u32(t.cooldown);
    for (std::uint8_t& slot : t.ring) ar.u8(slot);
  }
}

}  // namespace hht::serve
