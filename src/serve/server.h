#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "harness/system.h"
#include "serve/health.h"
#include "serve/request.h"
#include "sim/stats.h"

namespace hht::serve {

/// Sparse-as-a-service configuration (DESIGN.md §14).
struct ServerConfig {
  /// Per-tile machine configuration. faults.* here is the *base* fault
  /// environment: every attempt derives its injector seed from
  /// (faults.seed, tile, attempt, request id) so fault histories are
  /// isolated per attempt and reproducible after crash recovery.
  harness::SystemConfig system;
  std::uint32_t num_tiles = 4;    ///< serving pool size
  unsigned jobs = 0;              ///< host threads for a batch; 0 = all
  std::uint32_t queue_capacity = 32;  ///< admission bound; overflow is shed
  /// Retries after the first attempt. Total attempts = retry_budget + 1.
  std::uint32_t retry_budget = 2;
  /// Retry r of a request waits backoff_base << (r-1) cycles before it is
  /// eligible again (exponential backoff).
  Cycle backoff_base = 1'024;
  /// When true the *last* allowed attempt (and any attempt with no healthy
  /// tile left) runs the CPU baseline with injection detached — it cannot
  /// fault, so every admitted request terminates. When false, all attempts
  /// take the HHT path and budget exhaustion yields Outcome::kFailed.
  bool degraded_fallback = true;
  TileHealth::Config health;
  /// Probe canary matrix dimension (small: probes ride the batch barrier).
  std::uint32_t probe_size = 16;
  /// Per-attempt simulated-cycle ceiling (the watchdog usually fires long
  /// before this; both surface as a retryable fault).
  Cycle attempt_max_cycles = 100'000'000;

  void validate() const;
};

/// Aggregate serving metrics (exact percentiles over served latencies).
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;          ///< structural + load-shed
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;
  std::uint64_t late = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;
  std::uint64_t hht_faults = 0;        ///< faulty HHT attempts observed
  std::uint64_t retries = 0;           ///< attempts re-queued after a fault
  std::uint64_t probes = 0;            ///< canary probes dispatched
  std::uint64_t quarantine_events = 0;
  std::uint64_t reinstate_events = 0;
  std::uint32_t quarantined_now = 0;
  Cycle final_cycle = 0;               ///< server clock after the last batch
  // Latency distribution over served requests (ok + degraded + late), in
  // simulated cycles from arrival to finish.
  std::uint64_t served = 0;
  Cycle p50 = 0;
  Cycle p99 = 0;
  Cycle p999 = 0;
  Cycle max_latency = 0;
  double goodput = 0.0;  ///< (ok + degraded) / submitted — on-time fraction
};

/// Fault-tolerant batched request server over a pool of simulated tiles.
///
/// Each tile is an independent single-tile harness::System world: an
/// attempt constructs a fresh System from the server's SystemConfig, runs
/// one kernel, and checks the result against the sparse:: reference. That
/// makes every attempt a pure function of (request, tile, attempt index,
/// mode) — attempts on different tiles share no simulator state (so the
/// SweepRunner thread pool may execute them concurrently), a faulty
/// attempt cannot poison a later one, and crash recovery replays to
/// bit-identical per-request outputs. Per-tile fault isolation follows the
/// harness::System convention: tile t's injector seed mixes the tile index
/// into the base seed with the same 0x9E3779B97F4A7C15 stride.
///
/// Scheduling is batch-synchronous in simulated time: each batch dispatches
/// at most one attempt per eligible tile, the batch occupies
/// max(attempt cycles) on the server clock, and a request's own finish
/// time is batch start + its own attempt's cycles. The request lifecycle
/// (admit -> queue -> attempt -> retry/degrade -> complete) and the
/// quarantine/probe policy are specified in DESIGN.md §14.
class Server {
 public:
  explicit Server(const ServerConfig& cfg);

  /// Admission control. A structurally valid request whose arrival is not
  /// in the server's past is scheduled (it enters the bounded queue at its
  /// arrival cycle; if the queue is full then, it is shed with a logged
  /// kRejected completion). Returns a structured verdict immediately for
  /// requests that can never be scheduled: duplicate id, zero size, a
  /// deadline at or before arrival, or an arrival cycle already in the
  /// past. Rejections are also appended to rejections() and completions().
  std::optional<Rejected> submit(const Request& r);

  /// Run up to `batch_limit` batches (default: until idle). Returns the
  /// number of batches executed. Guaranteed to terminate: every admitted
  /// request completes within retry_budget + 1 attempts or expires.
  std::uint64_t drain(std::uint64_t batch_limit = ~std::uint64_t{0});

  /// No queued, retrying, or not-yet-arrived requests remain.
  bool idle() const {
    return arrivals_.empty() && queue_.empty() && retries_.empty();
  }

  Cycle now() const { return now_; }
  std::uint64_t batches() const { return batches_; }
  const ServerConfig& config() const { return cfg_; }
  const std::vector<Completion>& completions() const { return completions_; }
  const std::vector<Rejected>& rejections() const { return rejections_; }
  const TileHealth& health() const { return health_; }
  const sim::Histogram& latencyHistogram() const { return latency_hist_; }
  ServerStats stats() const;

  /// Serialize the complete serving state ("SRVS" container): clock, queue,
  /// retry set, pending arrivals, completion/rejection logs, tile health
  /// and latency accounting. Attempts in flight never appear — checkpoints
  /// are taken at batch boundaries, where there is no partial state.
  std::vector<std::uint8_t> checkpoint() const;

  /// Restore a checkpoint() snapshot into a server built from an identical
  /// ServerConfig (enforced via fingerprint). Because attempt execution is
  /// deterministic, a restored server replays any batches that ran after
  /// the snapshot bit-identically — recovery needs only the *latest*
  /// periodic checkpoint, not one per batch.
  void restore(const std::vector<std::uint8_t>& snapshot);

  /// Fingerprint of everything that shapes scheduling and attempt
  /// execution; restore() requires equality.
  static std::uint64_t configFingerprint(const ServerConfig& cfg);

 private:
  /// A request in flight through the retry state machine.
  struct Pending {
    Request r;
    std::uint32_t attempts_used = 0;
    std::int32_t last_tile = -1;   ///< tile of the previous (faulty) attempt
    Cycle ready_cycle = 0;         ///< backoff: not dispatchable before this
    std::string last_error;        ///< most recent fault diagnostic
  };

  /// One unit of work in a batch.
  struct Job {
    bool is_probe = false;
    Pending p;                 ///< valid when !is_probe
    std::uint32_t tile = 0;
    bool degraded = false;     ///< CPU-fallback mode for this attempt
    std::uint64_t probe_seq = 0;
  };

  /// Outcome of executing one Job on the host pool.
  struct AttemptResult {
    bool fault = false;
    Cycle cycles = 0;
    std::uint64_t y_hash = 0;
    std::string error;
  };

  bool stepBatch();
  void admitArrivals();
  void shed(const Request& r, const std::string& reason);
  void complete(Completion c);
  AttemptResult runAttempt(const Request& r, std::uint32_t tile,
                           std::uint32_t attempt_index, bool degraded) const;
  AttemptResult runProbe(std::uint32_t tile, std::uint64_t probe_seq) const;
  /// The snapshot: checkpoint() writes it, restore() reads it and rebuilds
  /// ids_.
  void io(sim::StateIo& ar);

  ServerConfig cfg_;
  Cycle now_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t probe_seq_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t hht_faults_ = 0;
  std::uint64_t retry_count_ = 0;
  std::uint64_t probe_count_ = 0;
  /// Submitted but not yet arrived, sorted by (arrival_cycle, submit order).
  std::deque<Pending> arrivals_;
  std::deque<Pending> queue_;     ///< admitted, ready, FIFO
  std::vector<Pending> retries_;  ///< backing off, sorted by (ready, id)
  std::vector<Completion> completions_;
  std::vector<Rejected> rejections_;
  /// Every id in completions_, arrivals_, queue_ and retries_: submit()'s
  /// duplicate check. Ids only move between those containers, never leave.
  std::unordered_set<std::uint64_t> ids_;
  TileHealth health_;
  sim::Histogram latency_hist_;
};

}  // namespace hht::serve
