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
/// takeResponse(). MMIO does not consume SRAM grant slots (the FE sits on
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

  /// Epoch staging (threaded tile phase, DESIGN.md §11). Between
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

  /// If request `id`, submitted by requester port `who` (requesterIndex of
  /// its role and tile), has completed, consume it and return the response.
  /// Otherwise std::nullopt. This is the only way to claim a response;
  /// the consumer handles its poison flag. Defined below, inline: every
  /// consumer polls this once per pending request per cycle, so it is one
  /// probe of the port's slot table, and the common miss (nothing
  /// completed) a load and a branch.
  /// kInvalidRequest (a walker whose issue faulted) never matches.
  std::optional<MemResponse> takeResponse(std::uint32_t who, RequestId id);

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

  /// Wire tile `tile`'s fault injector (nullptr = no injection, zero cost).
  /// Injection applies to SRAM read grants: bit flips (detected by ECC and
  /// retried up to FaultConfig::ecc_retry_limit times, else poisoned),
  /// dropped responses (controller re-request after drop_penalty_cycles)
  /// and delayed responses. Each tile's SRAM read traffic draws from its own
  /// seeded injector, so one tile's fault history never perturbs another's.
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
  /// inside a threaded epoch's parallel phase), so reading the per-
  /// requester counters is race-free. Prefetch fill queues are deliberately
  /// excluded — abandoned prefetches at quiescence are harmless
  /// (timing-only fills).
  bool idle() const {
    if (!mmio_queue_.empty() || !in_flight_.empty()) return false;
    for (const ChannelState& ch : channels_) {
      if (!ch.queue.empty()) return false;
    }
    for (const auto& lane : tile_lanes_) {
      if (!lane.empty()) return false;
    }
    for (const ResponseTable& table : responses_) {
      if (table.ready != 0) return false;
    }
    return true;
  }

  /// True when tick() must run this cycle regardless of in-flight latency:
  /// queued SRAM/lane work awaits arbitration, an MMIO access was submitted
  /// since the last tick, or a prefetcher holds fill candidates. MMIO
  /// reads a device refused are not pending here: they sleep until the
  /// device's mmioReadyCycle(), which nextEventCycle() reports. The
  /// event-scheduled loop consults this after the device/core phase,
  /// because a submit *this* cycle makes the memory system due the same
  /// cycle (nextEventCycle() snapshots are stale by then).
  bool pendingArbitration() const {
    if (mmio_fresh_ || !prefetch_queue_.empty() || !hht_pf_queue_.empty()) {
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

  /// True while any MMIO access is queued (retried until the device window
  /// accepts it).
  bool mmioPending() const { return !mmio_queue_.empty(); }

  /// Any completed-but-unclaimed response for `role`/`tile`'s port? One
  /// load and a compare: consumers with several outstanding requests check
  /// this before their per-pending polls, collapsing the common quiet-cycle
  /// case to a single branch.
  bool hasResponses(Requester role, std::uint32_t tile) const {
    return responses_[requesterIndex(role, tile)].ready != 0;
  }

  /// Quiescence protocol (DESIGN.md §11): first cycle (> now) at which the
  /// `role`/`tile` port's consumer can see anything new from memory: next
  /// cycle while it has anything queued or completed-but-unclaimed, else
  /// the cycle after its earliest in-flight read completes, else
  /// sim::kNeverCycle.
  Cycle requesterReadyCycle(Requester role, std::uint32_t tile,
                            Cycle now) const;

  /// Quiescence protocol (DESIGN.md §11): first cycle (> now) at which a
  /// consumer polling takeResponse(who, id) can succeed. A completed
  /// response is consumable next cycle; an in-flight one the cycle after
  /// its latency elapses (components tick before the memory system, so the
  /// grant cycle itself is never consumable); an MMIO read its device
  /// refused the cycle after the device's mmioReadyCycle(); anything else
  /// still queued conservatively polls next cycle.
  Cycle responseReadyCycle(std::uint32_t who, RequestId id, Cycle now) const;

  /// Earliest future cycle (> now) at which tick() can change state:
  /// next cycle while anything is queued on any node or lane (arbitration
  /// runs every tick), else the earliest of the in-flight completions, the
  /// refused MMIO reads' device wake cycles and the next patrol read, else
  /// sim::kNeverCycle. A tick skipped before then changes nothing but the
  /// refused reads' retry counts, which creditSkippedRetries() settles.
  Cycle nextEventCycle(Cycle now) const;

  /// Settle every refused MMIO read's skipped retries through cycle
  /// `upto - 1`: each cycle whose tick the run loop skipped while a read
  /// sat refused is one retry the device would have refused again
  /// (MmioDevice::skipRefusedReads). tick() settles the gap before each
  /// retry itself; run loops call this before anything reads the devices'
  /// counters without a memory tick (a stop, a dump, a burst).
  void creditSkippedRetries(Cycle upto);

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

  /// Checkpoint hook: visit the complete run state (SRAM contents,
  /// cache tag state, all queues — per-channel and per-tile-lane — the
  /// in-flight and completed responses, the request-id allocator, every
  /// node's arbiter turn and the prefetcher state). Topology-only sections
  /// are config-implied (the snapshot fingerprint pins the config), so the
  /// flat layout's bytes are identical to the pre-topology format v6. The
  /// MMIO device pointer and fault injector are wiring, re-established by
  /// the owning System.
  void io(sim::StateIo& ar);

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
    std::uint8_t who = 0;  ///< requester port (host-only, not serialized)
  };
  /// One requester's completed-but-unclaimed responses, direct-mapped by
  /// the id's sequence number. A port's ids are seq*R + who + 1 with
  /// R = 2^slot_shift_ * m (m odd), so (id - 1) >> slot_shift_ is
  /// m*seq + const and any 2^k consecutive sequence numbers land in 2^k
  /// distinct slots of a 2^k-slot table. A retirement that finds its slot
  /// taken doubles the table, so no response is ever dropped or scanned for.
  struct ResponseTable {
    struct Entry {
      RequestId id = kNoResponse;
      MemResponse response;
    };
    static constexpr RequestId kNoResponse = ~RequestId{0};
    std::vector<Entry> slots;  ///< power-of-two size
    std::uint32_t ready = 0;   ///< occupied slots
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
  /// File a completed response in port `who`'s slot table.
  void deliver(std::uint32_t who, RequestId id, const MemResponse& response);
  void growTable(ResponseTable& table) const;
  void clearResponses();
  std::size_t slotOf(const ResponseTable& table, RequestId id) const {
    return static_cast<std::size_t>((id - 1) >> slot_shift_) &
           (table.slots.size() - 1);
  }
  /// The device behind an MMIO access's window, and the access's offset in
  /// it.
  MmioDevice* mmioDevice(const MemAccess& a) const {
    return mmio_devices_[(a.addr - config_.mmio_base) / config_.mmio_size];
  }
  Addr mmioOffset(const MemAccess& a) const {
    return (a.addr - config_.mmio_base) % config_.mmio_size;
  }
  /// First cycle (> now) at which port `who`'s refused MMIO read `head`
  /// can be accepted: its device's mmioReadyCycle, asked once per refusal.
  Cycle mmioWake(const Pending& head, Cycle now) const;
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
  /// Unclaimed responses, one slot table per requester port. Per-port
  /// storage also makes concurrent polls from different tiles race-free
  /// during the threaded epoch's parallel phase.
  std::vector<ResponseTable> responses_;
  std::uint32_t slot_shift_ = 0;  ///< power-of-two factor of R, as a shift
  /// Accesses each port has in a channel queue, tile lane, MMIO queue or
  /// staging lane (host-only; rebuilt on restore).
  std::vector<std::uint32_t> queued_;
  /// Refused-MMIO-read state per port (host-only, not serialized: a
  /// restored queue retries every entry on its first tick). refused_at is
  /// the last cycle the port's head read was refused or credited as
  /// refused (kNeverCycle: not refused); wake caches its device's answer
  /// (kWakeStale: not asked since the last refusal).
  std::vector<Cycle> mmio_refused_at_;
  mutable std::vector<Cycle> mmio_wake_;
  static constexpr Cycle kWakeStale = 0;
  bool mmio_fresh_ = false;  ///< an MMIO access was submitted since tick()

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

// Inline, like takeResponse: one per retirement on the busy path.
inline void MemorySystem::deliver(std::uint32_t who, RequestId id,
                                  const MemResponse& response) {
  ResponseTable& table = responses_[who];
  while (table.slots[slotOf(table, id)].id != ResponseTable::kNoResponse) {
    growTable(table);
  }
  table.slots[slotOf(table, id)] = {id, response};
  ++table.ready;
}

inline std::optional<MemResponse> MemorySystem::takeResponse(std::uint32_t who,
                                                             RequestId id) {
  ResponseTable& table = responses_[who];
  if (table.ready == 0) return std::nullopt;
  // An empty slot holds kNoResponse, which no issued id (kInvalidRequest
  // included) ever equals.
  ResponseTable::Entry& entry = table.slots[slotOf(table, id)];
  if (entry.id != id) return std::nullopt;
  entry.id = ResponseTable::kNoResponse;
  --table.ready;
  return entry.response;
}

}  // namespace hht::mem
