#include "mem/memory_system.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "sim/log.h"

namespace hht::mem {

namespace {
// kHhtPrefetch payload actions (trace.h).
constexpr std::uint64_t kPfIssued = 0;
constexpr std::uint64_t kPfFilled = 1;
constexpr std::uint64_t kPfUseful = 2;
constexpr std::uint64_t kPfLate = 3;
constexpr std::uint64_t kPfDropped = 4;
// Bound on per-tile tracked prefetched lines (useful-accounting only).
constexpr std::size_t kMaxTrackedLines = 64;
}  // namespace

void MemorySystemConfig::validate() const {
  using sim::ErrorKind;
  using sim::SimError;
  if (sram_bytes < 16) {
    throw SimError(ErrorKind::Config, "mem", "sram_bytes too small");
  }
  if (grants_per_cycle == 0) {
    throw SimError(ErrorKind::Config, "mem",
                   "grants_per_cycle must be >= 1 (zero-bandwidth SRAM "
                   "can never complete an access)");
  }
  if (prefetch_enabled && !cpu_cache_enabled) {
    throw SimError(ErrorKind::Config, "mem",
                   "prefetch_enabled requires cpu_cache_enabled (the "
                   "prefetcher fills L1D lines)");
  }
  if (prefetch_enabled && prefetch_degree == 0) {
    throw SimError(ErrorKind::Config, "mem",
                   "prefetch_enabled requires prefetch_degree >= 1");
  }
  if (mmio_size == 0) {
    throw SimError(ErrorKind::Config, "mem", "mmio_size must be non-zero");
  }
  if (scrub_enabled && scrub_period == 0) {
    throw SimError(ErrorKind::Config, "mem",
                   "scrub_enabled requires scrub_period >= 1");
  }
  if (scrub_enabled && sram_bytes % 4 != 0) {
    throw SimError(ErrorKind::Config, "mem",
                   "scrub_enabled requires a word-multiple sram_bytes (the "
                   "patrol walks 32-bit ECC words)");
  }
  if (mmio_base < sram_bytes) {
    throw SimError(ErrorKind::Config, "mem",
                   "MMIO window overlaps the SRAM address range");
  }
  if (num_tiles < 1 || num_tiles > 16) {
    throw SimError(ErrorKind::Config, "mem",
                   "num_tiles must be in [1, 16], got " +
                       std::to_string(num_tiles));
  }
  // All MMIO windows (per-tile plus the optional shared work-queue window)
  // must fit below the top of the address space.
  const std::uint64_t mmio_span =
      static_cast<std::uint64_t>(numMmioWindows()) * mmio_size;
  if (static_cast<std::uint64_t>(mmio_base) + mmio_span > 0x1'0000'0000ull) {
    throw SimError(ErrorKind::Config, "mem",
                   "MMIO windows wrap past the 32-bit address space: "
                   "base + numMmioWindows()*mmio_size overflows");
  }
  topology.validate();
  if (topology.tile_l1_enabled && (cpu_cache_enabled || hht_cache_enabled)) {
    throw SimError(ErrorKind::Config, "mem",
                   "topology.tile_l1_enabled conflicts with the flat "
                   "cpu/hht caches: two same-level caches would charge "
                   "every access twice");
  }
}

MemorySystem::MemorySystem(const MemorySystemConfig& config)
    : config_(config),
      num_requesters_(config.numRequesters()),
      sram_(config.sram_bytes),
      mmio_devices_(config.numMmioWindows(), nullptr),
      injectors_(config.num_tiles, nullptr) {
  reads_.resize(num_requesters_);
  writes_.resize(num_requesters_);
  mmio_requests_.resize(num_requesters_);
  conflict_cycles_.resize(num_requesters_);
  grants_by_.resize(num_requesters_);
  for (std::uint32_t r = 0; r < num_requesters_; ++r) {
    const std::string who = requesterLabel(r);
    reads_[r] = &stats_.counter("mem." + who + ".reads");
    writes_[r] = &stats_.counter("mem." + who + ".writes");
    mmio_requests_[r] = &stats_.counter("mem." + who + ".mmio_requests");
    conflict_cycles_[r] = &stats_.counter("mem." + who + ".conflict_cycles");
    grants_by_[r] = &stats_.counter("mem." + who + ".grants");
  }
  grants_ = &stats_.counter("mem.grants");
  forced_rotations_ = &stats_.counter("mem.arb.forced_rotations");
  ecc_detected_ = &stats_.counter("mem.ecc_detected");
  ecc_retries_ = &stats_.counter("mem.ecc_retries");
  ecc_corrected_ = &stats_.counter("mem.ecc_corrected");
  ecc_uncorrectable_ = &stats_.counter("mem.ecc_uncorrectable");
  drop_recoveries_ = &stats_.counter("mem.drop_recoveries");
  delayed_responses_ = &stats_.counter("mem.delayed_responses");
  prefetch_fills_ = &stats_.counter("mem.cpu.prefetch_fills");
  scrub_reads_ = &stats_.counter("mem.scrub.reads");
  scrub_corrected_ = &stats_.counter("mem.scrub.corrected");
  scrub_uncorrectable_ = &stats_.counter("mem.scrub.uncorrectable");
  scrub_conflict_cycles_ = &stats_.counter("mem.scrub.conflict_cycles");
  secded_demand_corrected_ = &stats_.counter("mem.secded.demand_corrected");
  secded_demand_uncorrectable_ =
      &stats_.counter("mem.secded.demand_uncorrectable");
  next_scrub_cycle_ = config_.scrub_period;
  next_seq_.resize(num_requesters_, 0);
  slot_shift_ = static_cast<std::uint32_t>(std::countr_zero(num_requesters_));
  responses_.resize(num_requesters_);
  for (ResponseTable& table : responses_) table.slots.resize(16);
  queued_.resize(num_requesters_, 0);
  mmio_refused_at_.resize(num_requesters_, sim::kNeverCycle);
  mmio_wake_.resize(num_requesters_, kWakeStale);
  stage_.resize(num_requesters_);
  if (config_.cpu_cache_enabled) {
    cpu_cache_ = std::make_unique<Cache>(config_.cache);
  }
  if (config_.hht_cache_enabled) {
    hht_cache_ = std::make_unique<Cache>(config_.cache);
  }

  // Topology nodes: resolve each channel's arbiter knobs (top-level
  // defaults + per-node overrides). Flat = one node = the legacy arbiter.
  const TopologyConfig& topo = config_.topology;
  channels_.resize(topo.channels);
  for (std::uint32_t k = 0; k < topo.channels; ++k) {
    ChannelState& ch = channels_[k];
    const TopologyNodeConfig* node =
        topo.nodes.empty() ? nullptr : &topo.nodes[k];
    ch.grants_per_cycle =
        (node != nullptr && node->grants_per_cycle != 0)
            ? node->grants_per_cycle
            : config_.grants_per_cycle;
    ch.extra_latency = node != nullptr ? node->extra_latency : 0;
    if (topo.channels > 1) {
      const std::string prefix = "mem.ch" + std::to_string(k);
      ch.grants = &stats_.counter(prefix + ".grants");
      ch.conflict_cycles = &stats_.counter(prefix + ".conflict_cycles");
    }
  }
  if (topo.routed()) {
    tile_lanes_.resize(config_.num_tiles);
  }
  if (topo.tile_l1_enabled) {
    tile_l1_.reserve(config_.num_tiles);
    for (std::uint32_t t = 0; t < config_.num_tiles; ++t) {
      tile_l1_.push_back(std::make_unique<Cache>(topo.tile_l1));
    }
  }
  if (topo.hht_prefetch_enabled) {
    hht_pf_.resize(config_.num_tiles);
    hht_pf_tracked_.resize(config_.num_tiles);
    hpf_issued_ = &stats_.counter("hht.prefetch.issued");
    hpf_useful_ = &stats_.counter("hht.prefetch.useful");
    hpf_late_ = &stats_.counter("hht.prefetch.late");
    hpf_dropped_ = &stats_.counter("hht.prefetch.dropped");
  }
}

void MemorySystem::routeDemand(const Pending& pending) {
  if (!tile_lanes_.empty()) {
    // Routed topology: the access first crosses its tile's edge (link
    // bandwidth + L1 lookup happen at lane service).
    tile_lanes_[pending.access.tile].push_back(pending);
    return;
  }
  channels_[config_.topology.channelOf(pending.access.addr)].queue.push_back(
      pending);
}

RequestId MemorySystem::submit(const MemAccess& access) {
  using sim::ErrorKind;
  using sim::SimError;
  if (access.size != 1 && access.size != 2 && access.size != 4) {
    throw SimError(ErrorKind::Memory, requesterName(access.requester),
                   "oversized access: size=" + std::to_string(access.size) +
                       " at addr=" + std::to_string(access.addr),
                   {}, access.tile);
  }
  if (access.addr % access.size != 0) {
    throw SimError(ErrorKind::Memory, requesterName(access.requester),
                   "misaligned access: addr=" + std::to_string(access.addr) +
                       " size=" + std::to_string(access.size),
                   {}, access.tile);
  }
  if (access.tile >= config_.num_tiles) {
    throw SimError(ErrorKind::Memory, requesterName(access.requester),
                   "access from tile " + std::to_string(access.tile) +
                       " but the memory system has " +
                       std::to_string(config_.num_tiles) + " tile(s)",
                   {}, access.tile);
  }
  const std::uint32_t who = requesterIndex(access);
  const bool is_mmio = isMmio(access.addr);
  if (is_mmio) {
    // The access must stay inside its own tile's window: a straddling
    // access would silently touch the neighbouring tile's device.
    if ((access.addr - config_.mmio_base) % config_.mmio_size + access.size >
        config_.mmio_size) {
      throw SimError(ErrorKind::Memory, requesterName(access.requester),
                     "MMIO access crosses the window end: addr=" +
                         std::to_string(access.addr),
                     {}, access.tile);
    }
  } else if (!sram_.inBounds(access.addr, access.size)) {
    throw SimError(ErrorKind::Memory, requesterName(access.requester),
                   "SRAM access out of bounds: addr=" +
                       std::to_string(access.addr) +
                       " size=" + std::to_string(access.size) +
                       " sram_bytes=" + std::to_string(sram_.size()),
                   {}, access.tile);
  }
  // Per-requester id stream: the id depends only on this requester's own
  // submission count, never on cross-requester interleaving. +1 keeps ids
  // clear of kInvalidRequest.
  const RequestId id = next_seq_[who]++ * num_requesters_ + who + 1;
  ++queued_[who];
  if (is_mmio) {
    ++*mmio_requests_[who];
  } else {
    ++*(access.is_write ? writes_[who] : reads_[who]);
  }
  if (staging_) {
    // Threaded epoch: park in this requester's private lane; the epoch
    // barrier's drainStagedSubmissions() moves it into the shared queues
    // in canonical serial order. Everything touched on this path (seq,
    // counters, lane) is owned by `who`, so concurrent submits from
    // different requesters never race.
    stage_[who].push_back({id, access});
    return id;
  }
  if (is_mmio) {
    mmio_queue_.push_back({id, access});
    mmio_fresh_ = true;
  } else {
    routeDemand({id, access});
  }
  return id;
}

void MemorySystem::growTable(ResponseTable& table) const {
  // Double until the held responses land in distinct slots again (they
  // are one port's, so distinct ids have distinct keys); the caller
  // re-probes for the incoming one.
  const std::vector<ResponseTable::Entry> held = std::move(table.slots);
  for (std::size_t size = held.size() * 2;; size *= 2) {
    table.slots.assign(size, ResponseTable::Entry{});
    const bool placed = std::all_of(
        held.begin(), held.end(), [&](const ResponseTable::Entry& e) {
          if (e.id == ResponseTable::kNoResponse) return true;
          ResponseTable::Entry& dst = table.slots[slotOf(table, e.id)];
          if (dst.id != ResponseTable::kNoResponse) return false;
          dst = e;
          return true;
        });
    if (placed) return;
  }
}

void MemorySystem::clearResponses() {
  for (ResponseTable& table : responses_) {
    for (ResponseTable::Entry& e : table.slots) {
      e.id = ResponseTable::kNoResponse;
    }
    table.ready = 0;
  }
}

void MemorySystem::beginStagedSubmission() { staging_ = true; }

void MemorySystem::drainStagedSubmissions() {
  // Canonical serial arrival order: the serial multi-tile loop ticks every
  // device (HHT role, odd indices) in tile order, then every core (CPU
  // role, even indices) in tile order. Reproducing that order here makes
  // queue contents — and therefore arbitration history and snapshot bytes
  // — identical to the serial schedule.
  const auto drain_lane = [this](std::uint32_t who) {
    for (const Pending& p : stage_[who]) {
      if (isMmio(p.access.addr)) {
        mmio_queue_.push_back(p);
        mmio_fresh_ = true;
      } else {
        routeDemand(p);
      }
    }
    stage_[who].clear();
  };
  for (std::uint32_t who = 1; who < num_requesters_; who += 2) drain_lane(who);
  for (std::uint32_t who = 0; who < num_requesters_; who += 2) drain_lane(who);
}

void MemorySystem::endStagedSubmission() {
  drainStagedSubmissions();  // defensive: staged work must never be dropped
  staging_ = false;
}

void MemorySystem::applySecded(const MemAccess& a, std::uint32_t& data,
                               bool& poisoned) {
  if (sram_.latentCount() == 0) return;
  // At-rest SECDED (DESIGN.md §15). Sram::read returns the true data;
  // a word carrying one latent flip is corrected in flight (the cell
  // stays dirty until a write or the scrubber refreshes it), two or
  // more flips are uncorrectable: the observed (corrupted) bits are
  // delivered poisoned. Aligned 1/2/4-byte accesses never straddle a
  // 32-bit ECC word, so exactly one registry lookup covers the access.
  const std::uint32_t mask = sram_.latentMask(a.addr);
  if (mask == 0) return;
  if (std::popcount(mask) == 1) {
    ++*secded_demand_corrected_;
  } else {
    ++*secded_demand_uncorrectable_;
    const std::uint32_t shift = (a.addr & 3u) * 8;
    const std::uint32_t keep = a.size == 4 ? ~0u : (1u << (a.size * 8)) - 1u;
    data ^= (mask >> shift) & keep;
    poisoned = true;
  }
}

void MemorySystem::grant(const Pending& pending, Cycle now, ChannelState& ch,
                         std::uint32_t ch_index) {
  const MemAccess& a = pending.access;
  Cycle latency = config_.sram_latency;
  Cache* cache = a.requester == Requester::Cpu ? cpu_cache_.get()
                                               : hht_cache_.get();
  if (cache != nullptr) {
    latency = cache->access(a.addr, a.is_write);
    if (config_.prefetch_enabled && cache == cpu_cache_.get() &&
        cache->lastAccessMissed()) {
      // Queue the next lines; filled opportunistically from spare slots.
      const Addr line = a.addr - a.addr % config_.cache.line_bytes;
      for (std::uint32_t d = 1; d <= config_.prefetch_degree; ++d) {
        const Addr target = line + d * config_.cache.line_bytes;
        if (sram_.inBounds(target, config_.cache.line_bytes) &&
            prefetch_queue_.size() < 16) {
          prefetch_queue_.push_back(target);
        }
      }
    }
  } else if (pending.l1_latency != 0) {
    // Tile-L1 miss: the lookup already charged hit+miss(+writeback); the
    // shared level adds only its own node/link costs below.
    latency = pending.l1_latency;
  }
  latency += ch.extra_latency + config_.topology.link_latency;
  if (latency == 0) latency = 1;

  if (a.is_write) {
    // Posted write: applied at grant, no completion record — no requester
    // ever waits on a store (the SRAM absorbs it), so recording one would
    // leak and keep idle() false forever.
    sram_.write(a.addr, a.size, a.wdata);
    ++*grants_;
    ++*grants_by_[requesterIndex(a)];
    if (ch.grants != nullptr) ++*ch.grants;
    if (trace_ != nullptr && trace_->enabled(obs::Category::kMem)) {
      trace_->emit(now, obs::Category::kMem, obs::Component::kMem,
                   obs::EventKind::kMemGrant, a.addr,
                   static_cast<std::uint64_t>(a.requester) |
                       (std::uint64_t{a.is_write} << 1) |
                       (static_cast<std::uint64_t>(a.tile) << 2) |
                       (static_cast<std::uint64_t>(ch.queue.size()) << 8) |
                       (static_cast<std::uint64_t>(ch_index) << 56));
    }
    return;
  }
  std::uint32_t data = sram_.read(a.addr, a.size);
  bool poisoned = false;
  applySecded(a, data, poisoned);
  sim::FaultInjector* const injector = injectors_[a.tile];
  if (injector != nullptr) {
    // ECC path: a flip on the read port is always *detected* (SECDED-style
    // model); the controller re-reads up to ecc_retry_limit times, each
    // attempt paying another array access. A flip that recurs on every
    // attempt is delivered poisoned — consumers must not use the payload.
    const std::uint32_t clean = data;
    if (injector->corruptReadData(data)) {
      ++*ecc_detected_;
      const std::uint32_t limit = injector->config().ecc_retry_limit;
      std::uint32_t attempt = 0;
      for (; attempt < limit; ++attempt) {
        ++*ecc_retries_;
        latency += config_.sram_latency;
        data = clean;
        if (!injector->corruptReadData(data)) break;
      }
      if (attempt < limit) {
        ++*ecc_corrected_;
      } else {
        ++*ecc_uncorrectable_;
        poisoned = true;
      }
    }
    if (injector->dropResponse()) {
      // Dropped response: the controller times out and re-requests; the
      // requester just sees a long-latency completion.
      ++*drop_recoveries_;
      latency += injector->config().drop_penalty_cycles;
    }
    if (injector->delayResponse()) {
      ++*delayed_responses_;
      latency += injector->config().delay_cycles;
    }
  }
  in_flight_.push_back({pending.id, now + latency, data, poisoned,
                        static_cast<std::uint8_t>(requesterIndex(a))});
  ++*grants_;
  ++*grants_by_[requesterIndex(a)];
  if (ch.grants != nullptr) ++*ch.grants;
  if (trace_ != nullptr && trace_->enabled(obs::Category::kMem)) {
    // b packs requester | is_write<<1 | tile<<2 | queue-depth-at-grant<<8 |
    // channel<<56, so the trace carries request-queue occupancy and the
    // granting node without a per-cycle event (tile and channel are 0 on a
    // flat single-tile machine: payloads unchanged).
    trace_->emit(now, obs::Category::kMem, obs::Component::kMem,
                 obs::EventKind::kMemGrant, a.addr,
                 static_cast<std::uint64_t>(a.requester) |
                     (std::uint64_t{a.is_write} << 1) |
                     (static_cast<std::uint64_t>(a.tile) << 2) |
                     (static_cast<std::uint64_t>(ch.queue.size()) << 8) |
                     (static_cast<std::uint64_t>(ch_index) << 56));
  }
  HHT_LOG_AT(Trace, "mem", "grant id=%llu %s addr=0x%x done@%llu",
             static_cast<unsigned long long>(pending.id),
             a.is_write ? "W" : "R", a.addr,
             static_cast<unsigned long long>(now + latency));
}

void MemorySystem::completeLocal(const Pending& pending, Cycle latency,
                                 Cycle now) {
  const MemAccess& a = pending.access;
  --queued_[requesterIndex(a)];
  if (latency == 0) latency = 1;
  if (a.is_write) {
    // Posted, like a channel-granted store: functional data lives in the
    // backing Sram, the L1 only tracked the dirty bit for timing.
    sram_.write(a.addr, a.size, a.wdata);
    return;
  }
  std::uint32_t data = sram_.read(a.addr, a.size);
  bool poisoned = false;
  applySecded(a, data, poisoned);
  // No fault-injector draw: injection models the shared SRAM read port,
  // which a tile-local hit never touches. Keeping the draw sequence off
  // this path also keeps a tile's injector stream identical between flat
  // and hierarchical runs of the same miss traffic.
  in_flight_.push_back({pending.id, now + latency, data, poisoned,
                        static_cast<std::uint8_t>(requesterIndex(a))});
}

void MemorySystem::emitPrefetchEvent(Cycle now, Addr line, std::uint32_t tile,
                                     std::uint64_t action) {
  if (trace_ != nullptr && trace_->enabled(obs::Category::kMem)) {
    trace_->emit(now, obs::Category::kMem, obs::Component::kMem,
                 obs::EventKind::kHhtPrefetch, line,
                 static_cast<std::uint64_t>(tile) | (action << 8));
  }
}

void MemorySystem::observeHhtStride(std::uint32_t tile, Addr addr, Cycle now) {
  StrideState& pf = hht_pf_[tile];
  const std::int64_t stride = static_cast<std::int64_t>(addr) -
                              static_cast<std::int64_t>(pf.last_addr);
  const bool warm = pf.last_addr != 0;
  if (warm && stride != 0 && stride == pf.last_stride) {
    if (pf.confidence < 255) ++pf.confidence;
  } else {
    pf.confidence = (warm && stride != 0) ? 1 : 0;
    pf.last_stride = stride;
  }
  pf.last_addr = addr;
  if (pf.confidence < 2) return;

  const TopologyConfig& topo = config_.topology;
  const std::uint32_t line_bytes = topo.tile_l1.line_bytes;
  Cache* l1 = tile_l1_[tile].get();
  Addr prev_line = ~Addr{0};
  for (std::uint32_t d = 1; d <= topo.hht_prefetch_degree; ++d) {
    const std::int64_t target =
        static_cast<std::int64_t>(addr) + stride * static_cast<std::int64_t>(d);
    if (target < 0) break;
    const Addr line = static_cast<Addr>(target) -
                      static_cast<Addr>(target) % line_bytes;
    if (line == prev_line) continue;  // small strides share a line
    prev_line = line;
    if (!sram_.inBounds(line, line_bytes)) {
      // Mispredicted past the array end: never submitted, never faults —
      // only the dropped counter sees it.
      ++*hpf_dropped_;
      emitPrefetchEvent(now, line, tile, kPfDropped);
      continue;
    }
    if (l1->contains(line)) continue;  // already resident, nothing to do
    bool queued = false;
    for (const PrefetchTarget& t : hht_pf_queue_) {
      if (t.line == line && t.tile == tile) {
        queued = true;
        break;
      }
    }
    if (queued) continue;
    if (hht_pf_queue_.size() >= topo.hht_prefetch_queue) {
      ++*hpf_dropped_;
      emitPrefetchEvent(now, line, tile, kPfDropped);
      continue;
    }
    hht_pf_queue_.push_back({line, static_cast<std::uint8_t>(tile)});
    ++*hpf_issued_;
    emitPrefetchEvent(now, line, tile, kPfIssued);
  }
}

void MemorySystem::serviceLanes(Cycle now) {
  const TopologyConfig& topo = config_.topology;
  const std::uint32_t bw = topo.link_bandwidth;  // 0 = unbounded
  const bool pf_on = topo.hht_prefetch_enabled;
  for (std::uint32_t t = 0; t < config_.num_tiles; ++t) {
    auto& lane = tile_lanes_[t];
    if (lane.empty()) continue;
    Cache* l1 = tile_l1_.empty() ? nullptr : tile_l1_[t].get();
    // Serve the lane's oldest entries in order, then erase the served
    // prefix in one move.
    const std::size_t served =
        bw == 0 ? lane.size() : std::min<std::size_t>(bw, lane.size());
    for (std::size_t i = 0; i < served; ++i) {
      Pending p = lane[i];
      const MemAccess& a = p.access;
      if (pf_on && !a.is_write && a.requester == Requester::Hht) {
        observeHhtStride(t, a.addr, now);
      }
      if (l1 == nullptr) {
        // Pure link (bandwidth/latency edge, no tile storage).
        channels_[topo.channelOf(a.addr)].queue.push_back(p);
        continue;
      }
      const Cycle lat = l1->access(a.addr, a.is_write);
      const Addr line = a.addr - a.addr % topo.tile_l1.line_bytes;
      if (!l1->lastAccessMissed()) {
        // Tile-local hit: completes without a shared-level grant. First
        // demand hit on a prefetched line counts it useful.
        if (pf_on) {
          auto& tracked = hht_pf_tracked_[t];
          auto it = std::find(tracked.begin(), tracked.end(), line);
          if (it != tracked.end()) {
            tracked.erase(it);
            ++*hpf_useful_;
            emitPrefetchEvent(now, line, t, kPfUseful);
          }
        }
        completeLocal(p, lat, now);
        continue;
      }
      // Demand miss: a queued-but-unfilled prefetch of this line was late;
      // the demand fetch supersedes it. A tracked line that missed was
      // evicted before use — quietly untrack it.
      if (pf_on) {
        for (std::size_t q = 0; q < hht_pf_queue_.size(); ++q) {
          if (hht_pf_queue_[q].line == line && hht_pf_queue_[q].tile == t) {
            hht_pf_queue_.erase(hht_pf_queue_.begin() +
                                static_cast<std::ptrdiff_t>(q));
            ++*hpf_late_;
            emitPrefetchEvent(now, line, t, kPfLate);
            break;
          }
        }
        auto& tracked = hht_pf_tracked_[t];
        auto it = std::find(tracked.begin(), tracked.end(), line);
        if (it != tracked.end()) tracked.erase(it);
      }
      p.l1_latency = lat;
      channels_[topo.channelOf(a.addr)].queue.push_back(p);
    }
    lane.erase(lane.begin(),
               lane.begin() + static_cast<std::ptrdiff_t>(served));
  }
}

void MemorySystem::tick(Cycle now) {
  if (trace_ != nullptr) traceTick(now);
  // Pure-stall fast path: nothing queued on any node or lane, nothing in
  // flight, no prefetch candidates, no patrol read due — the whole tick is
  // a no-op, so skip the arbitration and conflict bookkeeping below. This
  // is the common case whenever the CPU computes out of registers (naive
  // mode pays this every such cycle).
  if (in_flight_.empty() && mmio_queue_.empty() && prefetch_queue_.empty() &&
      hht_pf_queue_.empty() &&
      !(config_.scrub_enabled && now >= next_scrub_cycle_)) {
    bool any_queued = false;
    for (const ChannelState& ch : channels_) {
      if (!ch.queue.empty()) {
        any_queued = true;
        break;
      }
    }
    if (!any_queued) {
      for (const auto& lane : tile_lanes_) {
        if (!lane.empty()) {
          any_queued = true;
          break;
        }
      }
    }
    if (!any_queued) return;
  }
  // 1. Retire accesses whose latency has elapsed.
  std::erase_if(in_flight_, [&](const InFlight& f) {
    if (f.done_at > now) return false;
    deliver(f.who, f.id, MemResponse{f.data, f.poisoned});
    return true;
  });

  // 1b. Edge service (routed topologies): per-tile L1 lookups and link
  //     bandwidth metering; hits complete locally, misses drop into their
  //     channel's queue and arbitrate this same cycle (the edge adds no
  //     pipeline bubble, matching the flat submit->arbitrate timing).
  if (!tile_lanes_.empty()) serviceLanes(now);

  // 2. Arbitrate every node's grant slots over the 2*num_tiles requester
  //    ports. Channels arbitrate independently (own rotation, own slots).
  for (std::uint32_t k = 0; k < channels_.size(); ++k) {
    ChannelState& ch = channels_[k];
    ch.slots_left = ch.grants_per_cycle;
    for (std::uint32_t slot = 0; slot < ch.grants_per_cycle; ++slot) {
      if (ch.queue.empty()) break;
      --ch.slots_left;

      std::uint64_t present = 0;
      for (const Pending& p : ch.queue) {
        present |= 1ull << requesterIndex(p.access);
      }
      const std::uint32_t winner = pickRequester(ch, present);
      // Oldest request of the winning requester: taking the first queue
      // entry with the matching port preserves per-requester program order.
      auto it = std::find_if(ch.queue.begin(), ch.queue.end(),
                             [&](const Pending& p) {
                               return requesterIndex(p.access) == winner;
                             });
      grant(*it, now, ch, k);
      --queued_[winner];
      ch.queue.erase(it);
    }
  }
  // Requesters left with work waiting lost arbitration this cycle — on any
  // channel, or stuck behind a saturated tile link. Each stalled
  // *requester* counts one conflict cycle regardless of how many of its
  // requests sat in queues — the counter answers "how many cycles did this
  // port wait", and a deferred request re-arbitrated next cycle must not
  // be double-counted as a fresh conflict.
  std::uint64_t stalled = 0;
  for (ChannelState& ch : channels_) {
    for (const Pending& p : ch.queue) {
      stalled |= 1ull << requesterIndex(p.access);
    }
    if (ch.conflict_cycles != nullptr && !ch.queue.empty()) {
      ++*ch.conflict_cycles;
    }
  }
  for (const auto& lane : tile_lanes_) {
    for (const Pending& p : lane) {
      stalled |= 1ull << requesterIndex(p.access);
    }
  }
  if (stalled != 0) {
    std::uint64_t stalled_by_role[2] = {0, 0};
    for (std::uint32_t r = 0; r < num_requesters_; ++r) {
      if ((stalled >> r) & 1u) {
        ++*conflict_cycles_[r];
        ++stalled_by_role[static_cast<int>(requesterRole(r))];
      }
    }
    if (trace_ != nullptr && trace_->enabled(obs::Category::kMem)) {
      trace_->emit(now, obs::Category::kMem, obs::Component::kMem,
                   obs::EventKind::kMemConflict, stalled_by_role[0],
                   stalled_by_role[1]);
    }
  }

  // Spare slots feed the CPU stream prefetcher (demand traffic always
  // wins). Each target consumes a slot on its own channel.
  for (std::size_t i = 0; i < prefetch_queue_.size();) {
    ChannelState& ch = channels_[config_.topology.channelOf(prefetch_queue_[i])];
    if (ch.slots_left == 0) {
      ++i;
      continue;
    }
    --ch.slots_left;
    const Addr target = prefetch_queue_[i];
    prefetch_queue_.erase(prefetch_queue_.begin() +
                          static_cast<std::ptrdiff_t>(i));
    if (cpu_cache_ && cpu_cache_->install(target)) {
      ++*prefetch_fills_;
    }
  }

  // Then the HHT stride prefetcher: fills install into the owning tile's
  // L1 from whatever slots demand and the CPU prefetcher left over.
  for (std::size_t i = 0; i < hht_pf_queue_.size();) {
    const PrefetchTarget target = hht_pf_queue_[i];
    ChannelState& ch = channels_[config_.topology.channelOf(target.line)];
    if (ch.slots_left == 0) {
      ++i;
      continue;
    }
    --ch.slots_left;
    hht_pf_queue_.erase(hht_pf_queue_.begin() +
                        static_cast<std::ptrdiff_t>(i));
    if (tile_l1_[target.tile]->install(target.line)) {
      auto& tracked = hht_pf_tracked_[target.tile];
      if (tracked.size() >= kMaxTrackedLines) tracked.erase(tracked.begin());
      tracked.push_back(target.line);
      emitPrefetchEvent(now, target.line, target.tile, kPfFilled);
    } else {
      // Raced with a demand fill of the same line: the slot was wasted.
      ++*hpf_dropped_;
      emitPrefetchEvent(now, target.line, target.tile, kPfDropped);
    }
  }

  // The patrol scrubber is the lowest-priority requester class: it takes
  // a slot only after demand traffic and the prefetchers are satisfied —
  // a spare slot on the channel that owns the patrol word. A due patrol
  // read that finds no spare bandwidth counts a conflict cycle and retries
  // every tick until one frees up.
  if (config_.scrub_enabled && now >= next_scrub_cycle_) {
    ChannelState& ch = channels_[config_.topology.channelOf(scrub_addr_)];
    if (ch.slots_left > 0) {
      scrubStep(now);
      next_scrub_cycle_ = now + config_.scrub_period;
    } else {
      ++*scrub_conflict_cycles_;
    }
  }

  // 3. MMIO windows (device-adjacent ports; no SRAM bandwidth consumed).
  //    One window per tile, each routed to that tile's device.
  //    Per-requester FIFO: a stalled CPU read must not block the
  //    programmable HHT's firmware-side port and vice versa, but each
  //    requester's own accesses stay in program order.
  std::uint64_t blocked = 0;
  std::erase_if(mmio_queue_, [&](Pending& p) {
    const std::uint32_t who = requesterIndex(p.access);
    if ((blocked >> who) & 1u) return false;
    MmioDevice* device = mmioDevice(p.access);
    if (device == nullptr) {
      // Unmapped MMIO: reads return 0, writes are dropped.
      if (!p.access.is_write) deliver(who, p.id, MemResponse{0, false});
      --queued_[who];
      return true;
    }
    const Addr offset = mmioOffset(p.access);
    if (p.access.is_write) {
      device->mmioWrite(offset, p.access.size, p.access.wdata,
                        p.access.requester);
      --queued_[who];
      return true;  // posted, like SRAM stores
    }
    // A read refused at an earlier tick: first the retries skipped since
    // (ticks before its device's wake cycle, each a certain refusal).
    Cycle& refused_at = mmio_refused_at_[who];
    if (refused_at != sim::kNeverCycle && now - refused_at > 1) {
      device->skipRefusedReads(offset, now - refused_at - 1);
    }
    const MmioReadResult result =
        device->mmioRead(offset, p.access.size, p.access.requester);
    if (!result.ready) {
      blocked |= 1ull << who;  // requester stays stalled
      refused_at = now;
      mmio_wake_[who] = kWakeStale;
      return false;
    }
    refused_at = sim::kNeverCycle;
    deliver(who, p.id, MemResponse{result.data, false});
    --queued_[who];
    return true;
  });
  mmio_fresh_ = false;
}

Cycle MemorySystem::mmioWake(const Pending& head, Cycle now) const {
  // Asked lazily, after the tick that refused the read: run loops ask
  // only between ticks, so the device state is the refusal's (ticking
  // every cycle never asks at all).
  const std::uint32_t who = requesterIndex(head.access);
  Cycle& wake = mmio_wake_[who];
  if (wake == kWakeStale) wake = mmioDevice(head.access)->mmioReadyCycle(now);
  return std::max(wake, now + 1);
}

void MemorySystem::creditSkippedRetries(Cycle upto) {
  std::uint64_t seen = 0;
  for (const Pending& p : mmio_queue_) {
    const std::uint32_t who = requesterIndex(p.access);
    if ((seen >> who) & 1u) continue;  // only a port's head is retried
    seen |= 1ull << who;
    Cycle& refused_at = mmio_refused_at_[who];
    if (refused_at == sim::kNeverCycle || upto - refused_at <= 1) continue;
    mmioDevice(p.access)->skipRefusedReads(mmioOffset(p.access),
                                           upto - refused_at - 1);
    refused_at = upto - 1;
  }
}

// Coalesced active/drained occupancy transitions (one kPhase event per
// contiguous span). Host-only; see DESIGN.md §12 for the resume contract.
void MemorySystem::traceTick(Cycle now) {
  if (!trace_->enabled(obs::Category::kMem)) return;
  const std::uint8_t bucket =
      idle() ? obs::kBucketDrained : obs::kBucketActive;
  if (bucket != trace_bucket_) {
    trace_bucket_ = bucket;
    trace_->emit(now, obs::Category::kMem, obs::Component::kMem,
                 obs::EventKind::kPhase, bucket);
  }
}

void MemorySystem::scrubStep(Cycle now) {
  ++*scrub_reads_;
  const std::uint32_t mask = sram_.latentMask(scrub_addr_);
  std::uint64_t outcome = 0;
  if (mask != 0) {
    if (std::popcount(mask) == 1) {
      // Correctable: the patrol read runs the word through SECDED and
      // writes the corrected data back, clearing the latent flip.
      sram_.clearLatentWord(scrub_addr_);
      ++*scrub_corrected_;
      outcome = 1;
    } else {
      // Uncorrectable pair: the scrubber can only report it; a demand
      // read of this word will deliver a poisoned response.
      ++*scrub_uncorrectable_;
      outcome = 2;
    }
  }
  if (trace_ != nullptr && trace_->enabled(obs::Category::kScrub)) {
    trace_->emit(now, obs::Category::kScrub, obs::Component::kMem,
                 obs::EventKind::kScrubGrant, scrub_addr_, outcome);
  }
  scrub_addr_ += 4;
  if (static_cast<std::size_t>(scrub_addr_) >= sram_.size()) scrub_addr_ = 0;
}

std::uint32_t MemorySystem::pickRequester(ChannelState& ch,
                                          std::uint64_t present) {
  const std::uint32_t R = num_requesters_;
  // Scan helper: first requester with work at-or-after `from`, wrapping.
  const auto scan = [&](std::uint32_t from, std::uint64_t mask) {
    for (std::uint32_t i = 0; i < R; ++i) {
      const std::uint32_t r = (from + i) % R;
      if ((mask >> r) & 1u) return r;
    }
    return R;  // unreachable when mask != 0
  };

  if (config_.policy == ArbiterPolicy::RoundRobin) {
    const std::uint32_t r = scan(ch.rr_next, present);
    ch.rr_next = (r + 1) % R;
    return r;
  }

  // CpuPriority: every CPU-role port outranks every HHT-role port, with
  // rotation inside each role so no tile monopolizes its role's turn.
  // Role masks: CPU-role ports are the even indices.
  const std::uint64_t all = R >= 64 ? ~0ull : (1ull << R) - 1;
  const std::uint64_t cpu_mask = present & (0x5555'5555'5555'5555ull & all);
  const std::uint64_t hht_mask = present & ~0x5555'5555'5555'5555ull;
  if (cpu_mask != 0 && hht_mask != 0 && config_.cpu_starvation_limit != 0 &&
      ch.cpu_streak >= config_.cpu_starvation_limit) {
    // Starvation bound: the CPU side has taken cpu_starvation_limit
    // consecutive grants while HHT work waited; force one HHT grant so a
    // saturating CPU stream cannot defer the BE indefinitely.
    const std::uint32_t r = scan(ch.prio_next[1], hht_mask);
    ch.prio_next[1] = (r + 2) % R;
    ch.cpu_streak = 0;
    ++*forced_rotations_;
    return r;
  }
  if (cpu_mask != 0) {
    const std::uint32_t r = scan(ch.prio_next[0], cpu_mask);
    ch.prio_next[0] = (r + 2) % R;
    if (hht_mask != 0) {
      ++ch.cpu_streak;  // a CPU grant that left HHT work waiting
    } else {
      ch.cpu_streak = 0;
    }
    return r;
  }
  const std::uint32_t r = scan(ch.prio_next[1], hht_mask);
  ch.prio_next[1] = (r + 2) % R;
  ch.cpu_streak = 0;
  return r;
}

Cycle MemorySystem::requesterReadyCycle(Requester role, std::uint32_t tile,
                                        Cycle now) const {
  const std::uint32_t who = requesterIndex(role, tile);
  if (queued_[who] != 0 || responses_[who].ready != 0) return now + 1;
  Cycle earliest = sim::kNeverCycle;
  for (const InFlight& f : in_flight_) {
    if (f.who == who) earliest = std::min(earliest, f.done_at);
  }
  // Retired during tick(done_at), after the consumer's tick that cycle.
  return earliest == sim::kNeverCycle ? sim::kNeverCycle
                                      : std::max(earliest, now) + 1;
}

Cycle MemorySystem::responseReadyCycle(std::uint32_t who, RequestId id,
                                       Cycle now) const {
  const ResponseTable& table = responses_[who];
  if (table.ready != 0 && table.slots[slotOf(table, id)].id == id) {
    return now + 1;
  }
  for (const InFlight& f : in_flight_) {
    // The response is filed during tick(done_at); consumers tick before
    // the memory system, so the first successful poll is done_at+1.
    if (f.id == id) return std::max(f.done_at, now) + 1;
  }
  const Pending* head = nullptr;
  for (const Pending& p : mmio_queue_) {
    if (requesterIndex(p.access) != who) continue;
    if (head == nullptr) head = &p;
    if (p.id != id) continue;
    if (mmio_refused_at_[who] == sim::kNeverCycle) break;  // not tried yet
    // The port's head read was refused: neither it nor anything behind it
    // can complete before the head's device wakes.
    const Cycle wake = mmioWake(*head, now);
    return wake == sim::kNeverCycle ? sim::kNeverCycle : wake + 1;
  }
  return now + 1;  // still queued (lane, channel or MMIO): poll next cycle
}

Cycle MemorySystem::nextEventCycle(Cycle now) const {
  if (pendingArbitration()) {
    return now + 1;  // arbitration runs every tick
  }
  Cycle earliest = sim::kNeverCycle;
  if (config_.scrub_enabled) {
    // Quiescence fast-forward must land exactly on patrol ticks: a skipped
    // stretch may not jump over a due scrub read.
    earliest = std::max(next_scrub_cycle_, now + 1);
  }
  for (const InFlight& f : in_flight_) {
    earliest = std::min(earliest, f.done_at);
  }
  // Every queued MMIO access was tried by the last tick (none is fresh),
  // so each port's head was refused: it retries at its device's wake.
  std::uint64_t seen = 0;
  for (const Pending& p : mmio_queue_) {
    const std::uint32_t who = requesterIndex(p.access);
    if ((seen >> who) & 1u) continue;
    seen |= 1ull << who;
    earliest = std::min(earliest, mmioWake(p, now));
  }
  return earliest == sim::kNeverCycle ? sim::kNeverCycle
                                      : std::max(earliest, now + 1);
}

void MemorySystem::attachMmioDevice(MmioDevice* device, std::uint32_t tile) {
  if (device == nullptr) {
    throw sim::SimError(sim::ErrorKind::Mmio, "mem",
                        "attachMmioDevice(nullptr): detaching the device "
                        "window is not supported");
  }
  if (tile >= config_.numMmioWindows()) {
    throw sim::SimError(sim::ErrorKind::Mmio, "mem",
                        "attachMmioDevice: window " + std::to_string(tile) +
                            " out of range (numMmioWindows=" +
                            std::to_string(config_.numMmioWindows()) + ")");
  }
  if (mmio_devices_[tile] != nullptr) {
    throw sim::SimError(sim::ErrorKind::Mmio, "mem",
                        "attachMmioDevice: a device is already mapped in tile " +
                            std::to_string(tile) +
                            "'s window; silently replacing it would orphan "
                            "in-flight MMIO requests");
  }
  mmio_devices_[tile] = device;
}

void MemorySystem::cancelAll() {
  for (ChannelState& ch : channels_) ch.queue.clear();
  for (auto& lane : tile_lanes_) lane.clear();
  mmio_queue_.clear();
  prefetch_queue_.clear();
  hht_pf_queue_.clear();
  for (StrideState& pf : hht_pf_) pf = StrideState{};
  for (auto& tracked : hht_pf_tracked_) tracked.clear();
  in_flight_.clear();
  clearResponses();
  for (auto& lane : stage_) lane.clear();
  std::fill(queued_.begin(), queued_.end(), 0u);
  std::fill(mmio_refused_at_.begin(), mmio_refused_at_.end(), sim::kNeverCycle);
  mmio_fresh_ = false;
}

std::string MemorySystem::describeState() const {
  std::size_t completed_total = 0;
  for (const ResponseTable& table : responses_) completed_total += table.ready;
  std::size_t channel_total = 0;
  for (const ChannelState& ch : channels_) channel_total += ch.queue.size();
  std::size_t lane_total = 0;
  for (const auto& lane : tile_lanes_) lane_total += lane.size();
  std::ostringstream os;
  os << "mem: sram_queue=" << channel_total;
  if (channels_.size() > 1) os << " (channels=" << channels_.size() << ")";
  if (!tile_lanes_.empty()) os << " tile_lanes=" << lane_total;
  os << " mmio_queue=" << mmio_queue_.size()
     << " in_flight=" << in_flight_.size()
     << " completed_unclaimed=" << completed_total << "\n";
  auto line = [&os](const std::string& tag, const Pending& p) {
    os << "  " << tag << " id=" << p.id << " "
       << requesterLabel(requesterIndex(p.access)) << " "
       << (p.access.is_write ? "W" : "R") << " addr=0x" << std::hex
       << p.access.addr << std::dec << " size=" << p.access.size << "\n";
  };
  std::size_t shown = 0;
  for (std::size_t k = 0; k < channels_.size(); ++k) {
    const std::string tag =
        channels_.size() == 1 ? "sram" : "ch" + std::to_string(k);
    for (const Pending& p : channels_[k].queue) {
      if (++shown > 8) break;
      line(tag, p);
    }
  }
  shown = 0;
  for (std::size_t t = 0; t < tile_lanes_.size(); ++t) {
    for (const Pending& p : tile_lanes_[t]) {
      if (++shown > 8) break;
      line("lane" + std::to_string(t), p);
    }
  }
  shown = 0;
  for (const Pending& p : mmio_queue_) {
    if (++shown > 8) break;
    line("mmio", p);
  }
  for (const InFlight& f : in_flight_) {
    os << "  in-flight id=" << f.id << " done_at=" << f.done_at
       << (f.poisoned ? " POISONED" : "") << "\n";
  }
  return os.str();
}

void MemorySystem::io(sim::StateIo& ar) {
  // Topology-dependent sections are config-implied (present exactly when
  // the corresponding topology feature is on); the snapshot's config
  // fingerprint pins the topology, so decoding is unambiguous and the
  // flat layout's byte stream is identical to the pre-topology format v6.
  const bool with_l1 = config_.topology.tile_l1_enabled;
  ar.tag("MEMS");
  sram_.io(ar);
  for (const auto* cache : {&cpu_cache_, &hht_cache_}) {
    bool present = *cache != nullptr;
    ar.b(present);
    ar.check(present == (*cache != nullptr),
             "cache presence disagrees with config");
    if (*cache) (*cache)->io(ar);
  }
  for (const auto& l1 : tile_l1_) l1->io(ar);

  const auto queue = [&](std::vector<Pending>& q) {
    ar.seq(q, with_l1 ? 31 : 23, [&](Pending& p) {
      ar.u64(p.id);
      MemAccess& a = p.access;
      ar.u32(a.addr);
      ar.u32(a.size);
      ar.b(a.is_write);
      ar.u32(a.wdata);
      ar.u8(a.requester, sim::after(Requester::Hht), "requester");
      ar.u8(a.tile, config_.num_tiles, "access tile");
      if (with_l1) ar.u64(p.l1_latency);
    });
  };
  for (ChannelState& ch : channels_) queue(ch.queue);
  for (auto& lane : tile_lanes_) queue(lane);
  queue(mmio_queue_);

  ar.seq(prefetch_queue_, 4, [&](Addr& a) { ar.u32(a); });

  if (config_.topology.hht_prefetch_enabled) {
    ar.seq(hht_pf_queue_, 5, [&](PrefetchTarget& t) {
      ar.u32(t.line);
      ar.u8(t.tile, config_.num_tiles, "prefetch tile");
    });
    for (StrideState& pf : hht_pf_) {
      ar.u32(pf.last_addr);
      ar.u64(pf.last_stride);
      ar.u32(pf.confidence);
    }
    for (auto& tracked : hht_pf_tracked_) {
      ar.seq(tracked, 4, [&](Addr& a) { ar.u32(a); });
    }
  }

  ar.seq(in_flight_, 21, [&](InFlight& f) {
    ar.u64(f.id);
    ar.u64(f.done_at);
    ar.u32(f.data);
    ar.b(f.poisoned);
  });

  // Unclaimed responses sit in per-port slot tables; they are written
  // flattened and sorted by id so identical states produce identical
  // snapshot bytes whatever the table sizes or retirement order.
  std::vector<ResponseTable::Entry> done;
  if (!ar.reading()) {
    for (const ResponseTable& table : responses_) {
      for (const ResponseTable::Entry& e : table.slots) {
        if (e.id != ResponseTable::kNoResponse) done.push_back(e);
      }
    }
    std::sort(done.begin(), done.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });
  }
  ar.seq(done, 13, [&](ResponseTable::Entry& e) {
    ar.u64(e.id);
    ar.u32(e.response.data);
    ar.b(e.response.poisoned);
  });

  // Snapshot v6: per-requester id-stream counters (replaces the single
  // global next_id_ of v5 and earlier).
  ar.expect64(next_seq_.size(), "requester count");
  for (RequestId& seq : next_seq_) ar.u64(seq);
  // Per-node arbiter turn; one record per channel (flat = one record,
  // byte-identical to the legacy rr/prio/streak fields).
  for (ChannelState& ch : channels_) {
    ar.u32(ch.rr_next, num_requesters_, "arbiter turn");
    ar.u32(ch.prio_next[0], num_requesters_, "arbiter turn");
    ar.u32(ch.prio_next[1], num_requesters_, "arbiter turn");
    ar.u64(ch.cpu_streak);
  }
  ar.u32(scrub_addr_);  // snapshot v5: patrol walk state
  ar.u64(next_scrub_cycle_);
  stats_.io(ar);
  if (!ar.reading()) return;

  // Ids carry their port (id = seq*R + who + 1), so the host-only port
  // fields and tables are rebuilt from them. An id its port has not issued
  // yet (or a repeated one) would grow a slot table without bound.
  const auto port_of = [&](RequestId id) {
    const auto port = static_cast<std::uint32_t>((id - 1) % num_requesters_);
    ar.check((id - 1) / num_requesters_ < next_seq_[port],
             "request id was never issued");
    return port;
  };
  for (InFlight& f : in_flight_) f.who = static_cast<std::uint8_t>(port_of(f.id));
  clearResponses();
  for (std::size_t i = 0; i < done.size(); ++i) {
    ar.check(i == 0 || done[i - 1].id < done[i].id,
             "response ids are not strictly increasing");
    deliver(port_of(done[i].id), done[i].id, done[i].response);
  }
  std::fill(queued_.begin(), queued_.end(), 0u);
  const auto count = [this](const std::vector<Pending>& q) {
    for (const Pending& p : q) ++queued_[requesterIndex(p.access)];
  };
  for (const ChannelState& ch : channels_) count(ch.queue);
  for (const auto& lane : tile_lanes_) count(lane);
  count(mmio_queue_);
  std::fill(mmio_refused_at_.begin(), mmio_refused_at_.end(), sim::kNeverCycle);
  mmio_fresh_ = !mmio_queue_.empty();
}

void MemorySystem::finalizeStats() {
  if (cpu_cache_) {
    stats_.counter("mem.cpu.cache_hits") = cpu_cache_->hits();
    stats_.counter("mem.cpu.cache_misses") = cpu_cache_->misses();
    stats_.counter("mem.cpu.cache_writebacks") = cpu_cache_->writebacks();
  }
  if (hht_cache_) {
    stats_.counter("mem.hht.cache_hits") = hht_cache_->hits();
    stats_.counter("mem.hht.cache_misses") = hht_cache_->misses();
    stats_.counter("mem.hht.cache_writebacks") = hht_cache_->writebacks();
  }
  if (!tile_l1_.empty()) {
    std::uint64_t hits = 0, misses = 0, writebacks = 0, fills = 0;
    for (std::uint32_t t = 0; t < tile_l1_.size(); ++t) {
      const Cache& l1 = *tile_l1_[t];
      const std::string prefix = "mem.l1.t" + std::to_string(t);
      stats_.counter(prefix + ".hits") = l1.hits();
      stats_.counter(prefix + ".misses") = l1.misses();
      stats_.counter(prefix + ".writebacks") = l1.writebacks();
      stats_.counter(prefix + ".prefetch_fills") = l1.prefetchFills();
      hits += l1.hits();
      misses += l1.misses();
      writebacks += l1.writebacks();
      fills += l1.prefetchFills();
    }
    stats_.counter("mem.l1.hits") = hits;
    stats_.counter("mem.l1.misses") = misses;
    stats_.counter("mem.l1.writebacks") = writebacks;
    stats_.counter("mem.l1.prefetch_fills") = fills;
  }
}

}  // namespace hht::mem
