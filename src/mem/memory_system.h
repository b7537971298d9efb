#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "mem/cache.h"
#include "mem/mmio.h"
#include "mem/request.h"
#include "mem/sram.h"
#include "mem/topology.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace hht::mem {

using sim::Cycle;
using sim::StatSet;

/// Arbitration policy when requesters compete for the same-cycle SRAM
/// grant slots.
enum class ArbiterPolicy : std::uint8_t {
  CpuPriority,  ///< paper design: never add latency to the primary core
  RoundRobin,   ///< fair rotation over all 2*num_tiles requesters
};

struct MemorySystemConfig {
  std::size_t sram_bytes = 1u << 20;      ///< Table 1: RAM size = 1 MB
  Cycle sram_latency = 1;                  ///< cycles from grant to data
  std::uint32_t grants_per_cycle = 2;      ///< SRAM bandwidth (ports/banks)
  ArbiterPolicy policy = ArbiterPolicy::CpuPriority;
  /// Number of {CPU+HHT} tiles sharing this memory system (scale-out,
  /// DESIGN.md §13). Each tile contributes two arbiter ports (requester
  /// indices tile*2 and tile*2+1) and owns its own MMIO window at
  /// mmio_base + tile*mmio_size. 1 = the paper's single-tile machine.
  std::uint32_t num_tiles = 1;
  /// CpuPriority starvation bound: maximum consecutive CPU-role grants
  /// issued while an HHT-role request was left waiting before the arbiter
  /// forces one grant to the oldest waiting HHT request. Unbounded CPU
  /// priority (0) can defer HHT grants indefinitely under a saturating
  /// CPU stream — a real deadlock risk once the CPU itself spins on an
  /// HHT FIFO that cannot fill because the BE never gets a grant. The
  /// default is far above anything the paper's workloads produce, so
  /// Table-1 results are unchanged. Ignored under RoundRobin.
  std::uint32_t cpu_starvation_limit = 64;
  bool cpu_cache_enabled = false;          ///< L1D on the CPU path (§3.2 HP integration)
  bool hht_cache_enabled = false;          ///< let the HHT BE hit the same-level cache
  CacheConfig cache;
  /// Next-line stream prefetcher on the CPU's L1D (requires
  /// cpu_cache_enabled): each demand miss queues the following
  /// `prefetch_degree` lines, filled using *spare* SRAM grant slots. This
  /// is the "traditional prefetcher" of §2 — it recovers streaming misses
  /// (rows/cols/vals) but cannot anticipate the v[cols[k]] indirection.
  bool prefetch_enabled = false;
  std::uint32_t prefetch_degree = 2;
  /// Background patrol scrubber (DESIGN.md §15): a lowest-priority
  /// requester class that walks the SRAM one ECC word per scrub_period
  /// cycles using *spare* arbitration slots only (demand traffic and the
  /// prefetcher always win), correcting latent single-bit flips before a
  /// second flip in the same word makes them uncorrectable. Excluded from
  /// the snapshot config fingerprint (same discipline as host_fastforward):
  /// scrubbing is an integrity knob, not a different machine, and with no
  /// latent faults registered it never changes an architectural outcome.
  bool scrub_enabled = false;
  Cycle scrub_period = 64;  ///< cycles between patrol reads
  Addr mmio_base = 0xF000'0000u;
  Addr mmio_size = 0x1'0000u;
  /// Shared chunk-queue work-stealing device (DESIGN.md §18): adds one
  /// extra MMIO window at index num_tiles for a ChunkQueueDevice that
  /// tiles claim row chunks from. Architectural (the claim schedule is
  /// part of machine behaviour), so it is covered by the snapshot config
  /// fingerprint — unlike host-only knobs such as host_fastforward.
  bool work_queue_enabled = false;
  /// Memory topology (DESIGN.md §17): per-tile L1 + interleaved shared
  /// channels behind latency/bandwidth links. The default is the flat
  /// single-arbiter SRAM, bit-identical to the pre-topology machine.
  TopologyConfig topology;

  std::uint32_t numRequesters() const { return 2 * num_tiles; }

  /// MMIO windows: one per tile, plus the shared work-queue window when
  /// enabled (window index num_tiles).
  std::uint32_t numMmioWindows() const {
    return num_tiles + (work_queue_enabled ? 1u : 0u);
  }

  /// Reject obviously-broken configurations with SimError(Config). Called
  /// by SystemConfig::validate(); standalone users may call it directly.
  void validate() const;
};

/// The simulated memory system: a composable topology of bank-set nodes
/// behind bandwidth-limited arbiters, shared by the CPU and HHT ports of
/// every tile, plus per-tile MMIO windows routed to registered devices.
///
/// The flat default is the paper machine: one node (the 1 MB on-chip SRAM)
/// behind one arbiter. Hierarchical configurations (TopologyConfig) add
/// per-tile L1s, K address-interleaved channels each with its own arbiter,
/// latency/bandwidth tile<->channel links and an HHT stride prefetcher —
/// all timing-only: functional data always lives in the single Sram, so
/// every topology is output-identical to flat, and the flat topology is
/// bit-identical (grant schedule, stats, snapshot bytes) to the
/// pre-topology implementation.
///
/// Usage per cycle (strict order): requesters call submit() during their
/// tick; MemorySystem::tick() then arbitrates, applies latencies and marks
/// completions; requesters observe completion the following cycle via
/// takeCompleted(). MMIO does not consume SRAM grant slots (the FE sits on
/// the CPU's port, §3.1).
class MemorySystem {
 public:
  explicit MemorySystem(const MemorySystemConfig& config);

  /// Queue an access; returns a handle to poll with takeResponse(). The
  /// access is validated here — misaligned, oversized, out-of-SRAM or
  /// window-crossing MMIO accesses throw SimError(Memory) at submit time
  /// rather than corrupting state deeper in the pipeline.
  ///
  /// Request ids are drawn from per-requester streams (id = seq *
  /// numRequesters + requesterIndex + 1), so the id a requester receives
  /// depends only on its own submission history — never on how its
  /// submissions interleave with other tiles'. That property is what lets
  /// the threaded multi-tile epoch loop (DESIGN.md §11) allocate ids from
  /// concurrent workers and still match the serial schedule bit for bit.
  RequestId submit(const MemAccess& access);

  /// Epoch staging (threaded MultiTileSystem, DESIGN.md §11). Between
  /// beginStagedSubmission() and endStagedSubmission(), submit() validates,
  /// allocates the id and bumps the per-requester counters as usual but
  /// parks the access in a per-requester staging lane instead of the shared
  /// queues; submit() is then safe to call concurrently from different
  /// requesters (each touches only its own lane/counters). After the epoch
  /// barrier, drainStagedSubmissions() moves the staged accesses into the
  /// real queues in the canonical serial arrival order — every HHT-role
  /// lane in tile order, then every CPU-role lane in tile order — exactly
  /// the order the serial loop (all device ticks, then all core ticks)
  /// would have produced.
  void beginStagedSubmission();
  void drainStagedSubmissions();
  void endStagedSubmission();

  /// If request `id` has completed, consume it and return the response
  /// (data is zero for writes). Poison-aware consumers (cores, walkers)
  /// use this. Otherwise std::nullopt. Defined below, inline: every
  /// consumer polls this once per pending request per cycle, and the
  /// common miss (empty completed_) must cost a load and a branch.
  std::optional<MemResponse> takeResponse(RequestId id);

  /// Legacy convenience: like takeResponse but returns the bare data.
  /// Throws SimError(Memory) if the response was poisoned — callers that
  /// can recover must use takeResponse instead.
  std::optional<std::uint32_t> takeCompleted(RequestId id);

  /// Advance one cycle: service tile lanes (L1 lookups, link-bandwidth
  /// metering), arbitrate each channel's grants, retry MMIO reads, retire
  /// in-flight accesses whose latency elapsed.
  void tick(Cycle now);

  /// Register the device behind MMIO window `tile` (offset tile*mmio_size
  /// from mmio_base). Valid windows are the per-tile ones plus, with
  /// work_queue_enabled, the shared work-queue window at index num_tiles.
  /// Attaching a second device to the same window (or a null one, or to a
  /// window >= numMmioWindows()) throws SimError(Mmio) — a silently-
  /// replaced device window is a wiring bug, never intentional.
  void attachMmioDevice(MmioDevice* device, std::uint32_t tile = 0);

  /// Attach a structured trace sink (obs layer). Host-side observation
  /// only: arbitration grants (with queue depth), bank-conflict tallies and
  /// active/drained occupancy transitions. Never serialized, never
  /// consulted by simulated logic.
  void setTraceSink(obs::TraceSink* sink) {
    trace_ = sink;
    trace_bucket_ = obs::kNoBucket;
  }

  /// Wire the fault injector for tile 0 (nullptr = no injection, zero
  /// cost). Injection applies to SRAM read grants: bit flips (detected by
  /// ECC and retried up to FaultConfig::ecc_retry_limit times, else
  /// poisoned), dropped responses (controller re-request after
  /// drop_penalty_cycles) and delayed responses.
  void setFaultInjector(sim::FaultInjector* injector) {
    injectors_[0] = injector;
  }

  /// Per-tile injector wiring (multi-tile fault containment: each tile's
  /// SRAM read traffic draws from its own seeded injector, so one tile's
  /// fault history never perturbs another's). Tile 0 via the single-arg
  /// overload is identical to setTileFaultInjector(0, ...).
  void setTileFaultInjector(std::uint32_t tile, sim::FaultInjector* injector) {
    if (tile >= config_.num_tiles) {
      throw sim::SimError(sim::ErrorKind::Config, "mem",
                          "setTileFaultInjector: tile " + std::to_string(tile) +
                              " out of range (num_tiles=" +
                              std::to_string(config_.num_tiles) + ")");
    }
    injectors_[tile] = injector;
  }

  /// Drop every queued and in-flight access (graceful-degradation path:
  /// the harness aborts a faulted run and re-runs on the software
  /// baseline; stale responses must not leak into the rerun).
  void cancelAll();

  /// Multi-line queue/in-flight snapshot for diagnostic dumps.
  std::string describeState() const;

  bool isMmio(Addr addr) const {
    return addr >= config_.mmio_base &&
           addr - config_.mmio_base <
               static_cast<Addr>(config_.numMmioWindows()) * config_.mmio_size;
  }

  /// True when `addr` falls in the shared work-queue window (the extra
  /// window at index num_tiles, present only with work_queue_enabled).
  /// Lets the CPU stall profiler split queue-wait from FIFO-wait.
  bool isWorkQueue(Addr addr) const {
    return config_.work_queue_enabled &&
           addr >= config_.mmio_base +
                       static_cast<Addr>(config_.num_tiles) *
                           config_.mmio_size &&
           addr - config_.mmio_base <
               static_cast<Addr>(config_.numMmioWindows()) * config_.mmio_size;
  }

  /// MMIO window base of tile `tile` (each tile's HHT FE occupies its own
  /// mmio_size-byte window).
  Addr mmioBaseOf(std::uint32_t tile) const {
    return config_.mmio_base + tile * config_.mmio_size;
  }

  /// True when no request is queued or in flight (used by run loops to
  /// detect quiescence). Only called from serial loop contexts (never from
  /// inside a threaded epoch's parallel phase), so scanning the per-
  /// requester completed lanes is race-free; with <= 2*16 lanes it is also
  /// a trivial cost. Prefetch fill queues are deliberately excluded —
  /// abandoned prefetches at quiescence are harmless (timing-only fills).
  bool idle() const {
    if (!mmio_queue_.empty() || !in_flight_.empty()) return false;
    for (const ChannelState& ch : channels_) {
      if (!ch.queue.empty()) return false;
    }
    for (const auto& lane : tile_lanes_) {
      if (!lane.empty()) return false;
    }
    for (const auto& lane : completed_) {
      if (!lane.empty()) return false;
    }
    return true;
  }

  /// True when tick() must run next cycle regardless of in-flight latency:
  /// queued SRAM/MMIO/lane work awaits arbitration, or a prefetcher holds
  /// fill candidates. The event-scheduled loop consults this after the
  /// device/core phase, because a submit *this* cycle makes the memory
  /// system due the same cycle (nextEventCycle() snapshots are stale by
  /// then).
  bool pendingArbitration() const {
    if (!mmio_queue_.empty() || !prefetch_queue_.empty() ||
        !hht_pf_queue_.empty()) {
      return true;
    }
    for (const ChannelState& ch : channels_) {
      if (!ch.queue.empty()) return true;
    }
    for (const auto& lane : tile_lanes_) {
      if (!lane.empty()) return true;
    }
    return false;
  }

  /// True while any MMIO access is queued (retried every cycle until the
  /// device window accepts it).
  bool mmioPending() const { return !mmio_queue_.empty(); }

  /// Any completed-but-unclaimed response on `role`/`tile`'s lane? One load
  /// and a compare: consumers with several outstanding requests check this
  /// before their per-pending poll scans, collapsing the common quiet-cycle
  /// case to a single branch.
  bool hasResponses(Requester role, std::uint32_t tile) const {
    return !completed_[requesterIndex(role, tile)].empty();
  }

  /// Quiescence protocol (DESIGN.md §11): first cycle (> now) at which a
  /// consumer polling takeResponse(id) can succeed. A completed response is
  /// consumable next cycle; an in-flight one the cycle after its latency
  /// elapses (components tick before the memory system, so the grant cycle
  /// itself is never consumable); anything still queued conservatively
  /// polls next cycle.
  Cycle responseReadyCycle(RequestId id, Cycle now) const;

  /// Earliest future cycle (> now) at which tick() can change state:
  /// next cycle while anything is queued on any node or lane (arbitration
  /// runs every tick), else the earliest in-flight completion, else
  /// sim::kNeverCycle. Pure-stall ticks mutate nothing, so there is no
  /// skipCycles().
  Cycle nextEventCycle(Cycle now) const;

  Sram& sram() { return sram_; }
  const Sram& sram() const { return sram_; }
  const MemorySystemConfig& config() const { return config_; }
  StatSet& stats() { return stats_; }
  const StatSet& stats() const { return stats_; }
  const Cache* cpuCache() const { return cpu_cache_.get(); }
  const Cache* hhtCache() const { return hht_cache_.get(); }
  /// Tile-local L1 (nullptr when topology.tile_l1_enabled is off).
  const Cache* tileL1(std::uint32_t tile) const {
    return tile < tile_l1_.size() ? tile_l1_[tile].get() : nullptr;
  }

  /// Export cache counters into stats() (called by run loops at the end).
  void finalizeStats();

  /// Checkpoint hooks: serialize the complete run state (SRAM contents,
  /// cache tag state, all queues — per-channel and per-tile-lane — the
  /// in-flight and completed responses, the request-id allocator, every
  /// node's arbiter turn and the prefetcher state). Topology-only sections
  /// are config-implied (the snapshot fingerprint pins the config), so the
  /// flat layout's bytes are identical to the pre-topology format v6. The
  /// MMIO device pointer and fault injector are wiring, re-established by
  /// the owning System.
  void serialize(sim::StateWriter& w) const;
  void deserialize(sim::StateReader& r);

 private:
  struct Pending {
    RequestId id;
    MemAccess access;
    /// Latency already determined by the tile L1 lookup (miss path):
    /// carried to the channel grant so the fill charges the L1's miss
    /// penalty instead of the raw sram_latency. 0 = no L1 on this path.
    Cycle l1_latency = 0;
  };
  struct InFlight {
    RequestId id;
    Cycle done_at;
    std::uint32_t data;
    bool poisoned = false;
  };
  /// One topology node: a bank set with its own queue and arbiter state.
  /// The flat topology has exactly one, reproducing the legacy single
  /// arbiter bit for bit.
  struct ChannelState {
    std::vector<Pending> queue;
    std::uint32_t rr_next = 0;
    std::uint32_t prio_next[2] = {0, 0};  ///< indexed by role
    std::uint64_t cpu_streak = 0;
    // Resolved config (top-level knobs + per-node overrides).
    std::uint32_t grants_per_cycle = 0;
    Cycle extra_latency = 0;
    // Transient per-tick slot budget (not serialized).
    std::uint32_t slots_left = 0;
    // Per-channel counters, created only on multi-channel topologies so
    // flat stat sets (and snapshots) are unchanged.
    std::uint64_t* grants = nullptr;
    std::uint64_t* conflict_cycles = nullptr;
  };
  /// Per-tile stride detector over the HHT demand-read stream.
  struct StrideState {
    Addr last_addr = 0;
    std::int64_t last_stride = 0;
    std::uint32_t confidence = 0;
  };
  struct PrefetchTarget {
    Addr line;
    std::uint8_t tile;
  };

  void routeDemand(const Pending& pending);
  void grant(const Pending& pending, Cycle now, ChannelState& ch,
             std::uint32_t ch_index);
  /// Service the per-tile lanes (hierarchical routed topologies): L1
  /// lookups complete hits locally; misses forward to their channel. At
  /// most link_bandwidth entries per tile per cycle (0 = all).
  void serviceLanes(Cycle now);
  /// Local completion off a tile-L1 hit: data comes from the backing Sram
  /// (with at-rest SECDED applied — a latent flip under a cached line is
  /// still corrected or contained), no shared-level grant consumed, no
  /// fault-injector draw (injection models the SRAM read port).
  void completeLocal(const Pending& pending, Cycle latency, Cycle now);
  /// At-rest SECDED check for a demand read (DESIGN.md §15): corrects a
  /// single latent flip in flight, delivers >=2 flips as poisoned data.
  void applySecded(const MemAccess& a, std::uint32_t& data, bool& poisoned);
  /// Observe one HHT demand read for the stride prefetcher; queue
  /// predicted line fills once confidence is established.
  void observeHhtStride(std::uint32_t tile, Addr addr, Cycle now);
  void emitPrefetchEvent(Cycle now, Addr line, std::uint32_t tile,
                         std::uint64_t action);
  /// One patrol read: inspect the word under the scrub pointer, correct a
  /// single latent flip (clear the cell), count an uncorrectable pair, and
  /// advance the pointer (wrapping). Costs one spare grant slot on the
  /// word's owning channel; never touches demand queues/in_flight_ (so
  /// idle() and the demand-grant watchdog signal are unaffected) and never
  /// bumps mem.grants.
  void scrubStep(Cycle now);
  void traceTick(Cycle now);
  /// Pick the flat requester index to grant `ch`'s current slot (ch.queue
  /// must be non-empty). Implements both policies over M requesters,
  /// including the CpuPriority starvation bound; rotation state is per
  /// node, so channels arbitrate independently.
  std::uint32_t pickRequester(ChannelState& ch, std::uint64_t present);

  MemorySystemConfig config_;
  std::uint32_t num_requesters_;
  Sram sram_;
  std::unique_ptr<Cache> cpu_cache_;
  std::unique_ptr<Cache> hht_cache_;
  /// Tile-local L1s (topology.tile_l1_enabled; empty otherwise).
  std::vector<std::unique_ptr<Cache>> tile_l1_;
  std::vector<MmioDevice*> mmio_devices_;  ///< one window per tile
  std::vector<sim::FaultInjector*> injectors_;  ///< one (optional) per tile

  /// Topology nodes. channels_[k].queue is arrival-ordered (arrival order
  /// IS the arbitration tiebreak and the serialized format); all queues
  /// stay short and are scanned every cycle, so contiguous storage wins
  /// over std::deque. Flat = exactly one channel.
  std::vector<ChannelState> channels_;
  /// Per-tile edge lanes (routed topologies only; empty when flat). A
  /// submitted SRAM access waits here for its tile's link slot, takes its
  /// L1 lookup, and either completes locally or forwards to its channel.
  std::vector<std::vector<Pending>> tile_lanes_;
  std::vector<Pending> mmio_queue_;
  std::vector<Addr> prefetch_queue_;  ///< CPU L1D line fills awaiting spare slots
  /// HHT stride-prefetcher fill targets awaiting spare channel slots.
  std::vector<PrefetchTarget> hht_pf_queue_;
  std::vector<StrideState> hht_pf_;  ///< per-tile detectors
  /// Lines installed by the prefetcher and not yet demanded (per tile,
  /// bounded): first demand hit counts `useful` and untracks.
  std::vector<std::vector<Addr>> hht_pf_tracked_;
  std::vector<InFlight> in_flight_;
  /// Unclaimed responses, one lane per requester (lane = (id-1) %
  /// numRequesters, well-defined because ids are per-requester streams).
  /// Per-lane storage keeps takeResponse() scanning only the caller's own
  /// handful of entries — and makes concurrent polls from different tiles
  /// race-free during the threaded epoch's parallel phase. Each lane stays
  /// in retirement order.
  std::vector<std::vector<std::pair<RequestId, MemResponse>>> completed_;

  /// Per-requester next sequence numbers (id = seq*R + who + 1); replaces
  /// the old global next_id_ counter (snapshot v6).
  std::vector<RequestId> next_seq_;
  /// Epoch staging lanes (host-only, always drained before any snapshot or
  /// idle() decision; never serialized).
  std::vector<std::vector<Pending>> stage_;
  bool staging_ = false;
  /// Patrol-scrubber walk state (serialized, snapshot v5): next word to
  /// inspect and the cycle its next read becomes due.
  Addr scrub_addr_ = 0;
  Cycle next_scrub_cycle_ = 0;
  StatSet stats_;

  // Host-only trace state (not serialized).
  obs::TraceSink* trace_ = nullptr;
  std::uint8_t trace_bucket_ = obs::kNoBucket;

  // Hot-path counters cached once (StatSet references are stable); indexed
  // by flat requester index (tile*2 + role).
  std::vector<std::uint64_t*> reads_;
  std::vector<std::uint64_t*> writes_;
  std::vector<std::uint64_t*> mmio_requests_;
  std::vector<std::uint64_t*> conflict_cycles_;
  std::vector<std::uint64_t*> grants_by_;  ///< per-requester grant counters
  std::uint64_t* grants_;  ///< watchdog progress signal
  std::uint64_t* forced_rotations_;  ///< starvation-bound interventions
  std::uint64_t* ecc_detected_;
  std::uint64_t* ecc_retries_;
  std::uint64_t* ecc_corrected_;
  std::uint64_t* ecc_uncorrectable_;
  std::uint64_t* drop_recoveries_;
  std::uint64_t* delayed_responses_;
  std::uint64_t* prefetch_fills_;
  std::uint64_t* scrub_reads_;            ///< == patrol grants issued
  std::uint64_t* scrub_corrected_;
  std::uint64_t* scrub_uncorrectable_;
  std::uint64_t* scrub_conflict_cycles_;  ///< due but no spare slot
  std::uint64_t* secded_demand_corrected_;
  std::uint64_t* secded_demand_uncorrectable_;
  // HHT prefetcher stat block (created only when enabled, so flat stat
  // sets and snapshots are unchanged). Final stat names after absorption:
  // hht.prefetch.{issued,useful,late,dropped}.
  std::uint64_t* hpf_issued_ = nullptr;
  std::uint64_t* hpf_useful_ = nullptr;
  std::uint64_t* hpf_late_ = nullptr;
  std::uint64_t* hpf_dropped_ = nullptr;
};

inline std::optional<MemResponse> MemorySystem::takeResponse(RequestId id) {
  auto& lane = completed_[(id - 1) % num_requesters_];
  for (std::size_t i = 0; i < lane.size(); ++i) {
    if (lane[i].first == id) {
      const MemResponse response = lane[i].second;
      lane.erase(lane.begin() + static_cast<std::ptrdiff_t>(i));
      return response;
    }
  }
  return std::nullopt;
}

}  // namespace hht::mem
