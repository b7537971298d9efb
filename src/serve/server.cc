#include "serve/server.h"

#include <algorithm>

#include "harness/experiment.h"
#include "harness/sweep.h"
#include "sim/checksum.h"
#include "sparse/reference.h"

namespace hht::serve {

namespace {

constexpr std::uint32_t kServeSnapshotVersion = 1;
/// Same golden-ratio stride harness::System uses to give each tile its own
/// fault stream.
constexpr std::uint64_t kTileSeedStride = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kAttemptSeedStride = 0xD1B54A32D192ED03ull;
constexpr std::uint64_t kRequestSeedStride = 0x632BE59BD9B4E019ull;

bool sameVector(const sparse::DenseVector& got,
                const sparse::DenseVector& want) {
  if (got.size() != want.size()) return false;
  for (sim::Index i = 0; i < want.size(); ++i) {
    if (got.at(i) != want.at(i)) return false;
  }
  return true;
}

/// The kernel an attempt runs, by [Kind][degraded]: the scalar HHT consumer,
/// or in CPU-fallback mode the scalar software baseline.
constexpr harness::Kernel kAttemptKernel[2][2] = {
    {harness::Kernel::kSpmvScalarHht, harness::Kernel::kSpmvScalarBaseline},
    {harness::Kernel::kSpmspvHhtV2Scalar,
     harness::Kernel::kSpmspvScalarBaseline}};

}  // namespace

void ServerConfig::validate() const {
  system.validate();
  health.validate();
  if (num_tiles == 0) {
    throw sim::SimError(sim::ErrorKind::Config, "serve",
                        "num_tiles must be >= 1");
  }
  if (queue_capacity == 0) {
    throw sim::SimError(sim::ErrorKind::Config, "serve",
                        "queue_capacity must be >= 1");
  }
  if (backoff_base == 0) {
    throw sim::SimError(sim::ErrorKind::Config, "serve",
                        "backoff_base must be >= 1");
  }
  if (probe_size == 0) {
    throw sim::SimError(sim::ErrorKind::Config, "serve",
                        "probe_size must be >= 1");
  }
  if (attempt_max_cycles == 0) {
    throw sim::SimError(sim::ErrorKind::Config, "serve",
                        "attempt_max_cycles must be >= 1");
  }
}

Server::Server(const ServerConfig& cfg)
    : cfg_(cfg), health_(cfg.num_tiles, cfg.health) {
  cfg_.validate();
}

std::optional<Rejected> Server::submit(const Request& r) {
  ++submitted_;
  const auto reject = [&](const std::string& reason) -> std::optional<Rejected> {
    Rejected rej{r.id, now_, static_cast<std::uint32_t>(queue_.size()), reason};
    rejections_.push_back(rej);
    complete(Completion{r.id, Outcome::kRejected, 0, -1, now_, 0, 0, reason});
    return rej;
  };
  if (r.size == 0) return reject("request size must be >= 1");
  if (r.deadline_cycle != 0 && r.deadline_cycle <= r.arrival_cycle) {
    return reject("deadline at or before arrival");
  }
  if (r.arrival_cycle < now_) {
    return reject("arrival cycle " + std::to_string(r.arrival_cycle) +
                  " is in the server's past (now " + std::to_string(now_) +
                  ")");
  }
  if (!ids_.insert(r.id).second) {
    return reject("duplicate request id " + std::to_string(r.id));
  }
  Pending p;
  p.r = r;
  // Stable insert by arrival cycle: equal arrivals keep submission order.
  const auto pos = std::upper_bound(
      arrivals_.begin(), arrivals_.end(), r.arrival_cycle,
      [](Cycle at, const Pending& q) { return at < q.r.arrival_cycle; });
  arrivals_.insert(pos, std::move(p));
  return std::nullopt;
}

void Server::complete(Completion c) {
  ids_.insert(c.id);
  completions_.push_back(std::move(c));
}

void Server::shed(const Request& r, const std::string& reason) {
  rejections_.push_back(
      Rejected{r.id, now_, static_cast<std::uint32_t>(queue_.size()), reason});
  complete(Completion{r.id, Outcome::kRejected, 0, -1, now_, 0, 0, reason});
}

void Server::admitArrivals() {
  while (!arrivals_.empty() && arrivals_.front().r.arrival_cycle <= now_) {
    Pending p = std::move(arrivals_.front());
    arrivals_.pop_front();
    if (queue_.size() >= cfg_.queue_capacity) {
      shed(p.r, "queue full (" + std::to_string(cfg_.queue_capacity) +
                    " requests) at admission");
      continue;
    }
    queue_.push_back(std::move(p));
  }
}

std::uint64_t Server::drain(std::uint64_t batch_limit) {
  std::uint64_t executed = 0;
  while (executed < batch_limit && !idle()) {
    if (stepBatch()) ++executed;
  }
  return executed;
}

bool Server::stepBatch() {
  // If nothing is dispatchable now, jump the clock to the next event
  // (earliest arrival or retry becoming ready). Safe: !idle() guarantees
  // such an event exists whenever the queue is empty.
  if (queue_.empty()) {
    bool any_ready =
        !arrivals_.empty() && arrivals_.front().r.arrival_cycle <= now_;
    for (const Pending& p : retries_) any_ready |= p.ready_cycle <= now_;
    if (!any_ready) {
      Cycle next = ~Cycle{0};
      if (!arrivals_.empty()) {
        next = std::min(next, arrivals_.front().r.arrival_cycle);
      }
      for (const Pending& p : retries_) next = std::min(next, p.ready_cycle);
      if (next == ~Cycle{0}) return false;  // idle (caller re-checks)
      now_ = std::max(now_, next);
    }
  }
  admitArrivals();

  // Ready retries dispatch ahead of fresh queue entries (they have waited
  // longest); order within the retry set is (ready_cycle, id) — stable and
  // jobs-independent.
  std::deque<Pending> pool;
  for (auto it = retries_.begin(); it != retries_.end();) {
    if (it->ready_cycle <= now_) {
      pool.push_back(std::move(*it));
      it = retries_.erase(it);
    } else {
      ++it;
    }
  }
  while (!queue_.empty()) {
    pool.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }

  // Deadline shedding at dispatch: a request whose deadline already passed
  // never occupies a tile.
  for (auto it = pool.begin(); it != pool.end();) {
    if (it->r.deadline_cycle != 0 && now_ > it->r.deadline_cycle) {
      complete(Completion{it->r.id, Outcome::kDeadlineExpired,
                          it->attempts_used, it->last_tile, now_,
                          now_ - it->r.arrival_cycle, 0,
                          "deadline " + std::to_string(it->r.deadline_cycle) +
                              " passed before dispatch" +
                              (it->last_error.empty()
                                   ? std::string()
                                   : "; last fault: " + it->last_error)});
      it = pool.erase(it);
    } else {
      ++it;
    }
  }

  // Eligible tiles: the healthy ones — or, as a last resort so admitted
  // work always drains, every tile (attempts then run degraded when the
  // fallback is enabled).
  std::vector<std::uint32_t> tiles;
  for (std::uint32_t t = 0; t < cfg_.num_tiles; ++t) {
    if (!health_.quarantined(t)) tiles.push_back(t);
  }
  const bool no_healthy = tiles.empty();
  if (no_healthy) {
    for (std::uint32_t t = 0; t < cfg_.num_tiles; ++t) tiles.push_back(t);
  }

  std::vector<Job> jobs;
  // Probes first: a quarantined tile whose cooldown elapsed gets a canary
  // this batch (it rides the same host pool as real attempts).
  for (std::uint32_t t = 0; t < cfg_.num_tiles; ++t) {
    if (health_.probeDue(t)) {
      Job j;
      j.is_probe = true;
      j.tile = t;
      j.probe_seq = probe_seq_++;
      jobs.push_back(std::move(j));
    }
  }
  // One attempt per eligible tile. A retried request prefers a tile other
  // than the one that faulted on it (re-execute in-flight work on healthy
  // *different* silicon when the pool allows it).
  for (const std::uint32_t t : tiles) {
    if (pool.empty()) break;
    auto pick = pool.begin();
    for (auto it = pool.begin(); it != pool.end(); ++it) {
      if (it->last_tile != static_cast<std::int32_t>(t)) {
        pick = it;
        break;
      }
    }
    Job j;
    j.p = std::move(*pick);
    pool.erase(pick);
    j.tile = t;
    const std::uint32_t attempt_index = j.p.attempts_used + 1;
    const std::uint32_t total_attempts = cfg_.retry_budget + 1;
    j.degraded = cfg_.degraded_fallback &&
                 ((attempt_index > 1 && attempt_index == total_attempts) ||
                  no_healthy);
    jobs.push_back(std::move(j));
  }
  // Anything not dispatched this batch returns to the queue unchanged.
  while (!pool.empty()) {
    queue_.push_front(std::move(pool.back()));
    pool.pop_back();
  }

  if (jobs.empty()) return false;  // everything expired or backed off

  // Execute the batch on the host pool. Each job is a pure function of its
  // own fields, so results are byte-identical for every jobs value; faults
  // are caught inside the task (SweepRunner rethrows escapes).
  harness::SweepRunner runner(cfg_.jobs);
  const std::vector<AttemptResult> results =
      runner.run(jobs.size(), [&](std::size_t i) -> AttemptResult {
        const Job& j = jobs[i];
        if (j.is_probe) return runProbe(j.tile, j.probe_seq);
        return runAttempt(j.p.r, j.tile, j.p.attempts_used + 1, j.degraded);
      });

  // Batch duration on the server clock: the slowest attempt (the tiles run
  // concurrently in simulated time). Individual requests finish at
  // now_ + their own attempt's cycles.
  Cycle duration = 1;
  for (const AttemptResult& res : results) {
    duration = std::max(duration, res.cycles);
  }
  const Cycle batch_end = now_ + duration;

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    const AttemptResult& res = results[i];
    if (j.is_probe) {
      ++probe_count_;
      if (res.fault) {
        health_.probeFailed(j.tile);
      } else {
        health_.reinstate(j.tile);
      }
      continue;
    }
    const std::uint32_t attempt_index = j.p.attempts_used + 1;
    // Only HHT-path attempts say anything about tile health; the degraded
    // path never touches the device.
    if (!j.degraded) health_.record(j.tile, res.fault);
    if (!res.fault) {
      const Cycle finish = now_ + res.cycles;
      Outcome o = j.degraded ? Outcome::kDegraded : Outcome::kOk;
      if (j.p.r.deadline_cycle != 0 && finish > j.p.r.deadline_cycle) {
        o = Outcome::kLate;
      }
      const Cycle latency = finish - j.p.r.arrival_cycle;
      latency_hist_.add(latency);
      complete(Completion{j.p.r.id, o, attempt_index,
                          static_cast<std::int32_t>(j.tile), finish, latency,
                          res.y_hash, {}});
      continue;
    }
    if (!j.degraded) ++hht_faults_;
    if (attempt_index >= cfg_.retry_budget + 1) {
      complete(Completion{j.p.r.id, Outcome::kFailed, attempt_index,
                          static_cast<std::int32_t>(j.tile),
                          now_ + res.cycles, now_ + res.cycles - j.p.r.arrival_cycle,
                          0, "retry budget exhausted; last fault: " + res.error});
      continue;
    }
    ++retry_count_;
    Pending p = std::move(jobs[i].p);
    p.attempts_used = attempt_index;
    p.last_tile = static_cast<std::int32_t>(j.tile);
    p.last_error = res.error;
    const std::uint32_t shift = std::min(attempt_index - 1, 40u);
    p.ready_cycle = batch_end + (cfg_.backoff_base << shift);
    const auto pos = std::upper_bound(
        retries_.begin(), retries_.end(), p, [](const Pending& a, const Pending& b) {
          return a.ready_cycle != b.ready_cycle ? a.ready_cycle < b.ready_cycle
                                                : a.r.id < b.r.id;
        });
    retries_.insert(pos, std::move(p));
  }

  now_ = batch_end;
  health_.tickBatch();
  ++batches_;
  return true;
}

Server::AttemptResult Server::runAttempt(const Request& r, std::uint32_t tile,
                                         std::uint32_t attempt_index,
                                         bool degraded) const {
  AttemptResult out;
  try {
    const OperandData ops = materialize(r);
    harness::SystemConfig scfg = cfg_.system;
    if (degraded) {
      // CPU-fallback mode mirrors System's graceful degradation: injection
      // is detached, the scalar software baseline computes y.
      scfg.faults.enabled = false;
    } else if (scfg.faults.enabled) {
      // Every attempt gets its own fault stream: reproducible (pure
      // function of these four values) and isolated (one attempt's fault
      // history never leaks into a retry or another tile).
      scfg.faults.seed += kTileSeedStride * tile +
                          kAttemptSeedStride * attempt_index +
                          kRequestSeedStride * r.id;
    }
    harness::System sys(scfg);
    const harness::Prepared p = harness::prepare(
        sys, {kAttemptKernel[static_cast<int>(r.kind)][degraded]},
        {.m = &ops.m, .v = &ops.v, .sv = &ops.sv});
    const harness::RunResult rr =
        sys.run(p.programs(), p.y, p.y_len, cfg_.attempt_max_cycles);
    out.cycles = std::max<Cycle>(rr.cycles, 1);
    // Acceptance check: every served result is verified against the
    // software reference before it leaves the server, so an undetected
    // in-flight corruption becomes a retryable fault — never a silently
    // wrong response (kSmallIntegers operands make == exact).
    const sparse::DenseVector reference =
        r.kind == Kind::kSpmv ? sparse::spmvCsr(ops.m, ops.v)
                              : sparse::spmspvMerge(ops.m, ops.sv);
    if (!sameVector(rr.y, reference)) {
      out.fault = true;
      out.error = "acceptance check failed: y diverges from the software "
                  "reference on tile " + std::to_string(tile);
      return out;
    }
    out.y_hash = hashVector(rr.y);
  } catch (const sim::SimError& e) {
    out.fault = true;
    // A detected fault is charged the watchdog period — the upper bound on
    // how long the failure takes to surface (deterministic, config-only).
    out.cycles = std::max<Cycle>(cfg_.system.watchdog_cycles, 1);
    out.error = e.what();
  }
  return out;
}

Server::AttemptResult Server::runProbe(std::uint32_t tile,
                                       std::uint64_t probe_seq) const {
  // The canary is a tiny SpMV whose operands derive from the probe
  // sequence number, so probe workloads never repeat (a tile must pass on
  // fresh data, not replay a memorized success) yet stay reproducible.
  Request canary;
  canary.id = ~std::uint64_t{0} - probe_seq;  // outside the user id space
  canary.kind = Kind::kSpmv;
  canary.seed = cfg_.system.faults.seed ^ (0xC0FFEEull + probe_seq);
  canary.size = cfg_.probe_size;
  return runAttempt(canary, tile, 1, /*degraded=*/false);
}

ServerStats Server::stats() const {
  ServerStats s;
  s.submitted = submitted_;
  s.batches = batches_;
  s.hht_faults = hht_faults_;
  s.retries = retry_count_;
  s.probes = probe_count_;
  s.quarantine_events = health_.quarantineEvents();
  s.reinstate_events = health_.reinstateEvents();
  s.quarantined_now = health_.quarantinedCount();
  s.final_cycle = now_;
  std::vector<Cycle> latencies;
  for (const Completion& c : completions_) {
    switch (c.outcome) {
      case Outcome::kOk: ++s.ok; break;
      case Outcome::kDegraded: ++s.degraded; break;
      case Outcome::kLate: ++s.late; break;
      case Outcome::kRejected: ++s.rejected; break;
      case Outcome::kDeadlineExpired: ++s.deadline_expired; break;
      case Outcome::kFailed: ++s.failed; break;
    }
    if (served(c.outcome)) latencies.push_back(c.latency_cycles);
  }
  s.served = latencies.size();
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    const auto pct = [&](std::uint64_t permille) {
      const std::size_t idx = std::min(
          latencies.size() - 1,
          static_cast<std::size_t>((latencies.size() * permille) / 1000));
      return latencies[idx];
    };
    s.p50 = pct(500);
    s.p99 = pct(990);
    s.p999 = pct(999);
    s.max_latency = latencies.back();
  }
  if (s.submitted > 0) {
    s.goodput = static_cast<double>(s.ok + s.degraded) /
                static_cast<double>(s.submitted);
  }
  return s;
}

std::uint64_t Server::configFingerprint(const ServerConfig& cfg) {
  ServerConfig c = cfg;
  sim::StateIo w;
  harness::io(w, c.system);
  w.u32(c.num_tiles);
  // jobs is deliberately excluded: it is a host-side knob and results are
  // byte-identical for every value (SweepRunner determinism contract).
  w.u32(c.queue_capacity);
  w.u32(c.retry_budget);
  w.u64(c.backoff_base);
  w.b(c.degraded_fallback);
  w.u32(c.health.window);
  w.u32(c.health.min_samples);
  w.f64(c.health.fault_rate_threshold);
  w.u32(c.health.probe_period);
  w.u32(c.probe_size);
  w.u64(c.attempt_max_cycles);
  return sim::fnv1a(w.data());
}

std::vector<std::uint8_t> Server::checkpoint() const {
  sim::StateIo w;
  const_cast<Server&>(*this).io(w);
  return w.release();
}

void Server::restore(const std::vector<std::uint8_t>& snapshot) {
  sim::StateIo r(snapshot);
  io(r);
}

void Server::io(sim::StateIo& ar) {
  ar.tag("SRVS");
  ar.expect32(kServeSnapshotVersion, "version");
  ar.expect64(configFingerprint(cfg_), "ServerConfig fingerprint");
  for (std::uint64_t* v : {&now_, &batches_, &probe_seq_, &submitted_,
                           &hht_faults_, &retry_count_, &probe_count_}) {
    ar.u64(*v);
  }
  // Smallest records (empty strings): a request is 45 bytes and a pending
  // entry 69; a completion is 49 and a rejection 28.
  const auto pending = [&](Pending& p) {
    serve::io(ar, p.r);
    ar.u32(p.attempts_used);
    ar.u32(p.last_tile);
    ar.u64(p.ready_cycle);
    ar.str(p.last_error);
  };
  ar.tag("ARRV");
  ar.seq(arrivals_, 69, pending);
  ar.tag("QUEU");
  ar.seq(queue_, 69, pending);
  ar.tag("RTRY");
  ar.seq(retries_, 69, pending);
  ar.tag("DONE");
  ar.seq(completions_, 49, [&](Completion& c) { serve::io(ar, c); });
  ar.tag("SHED");
  ar.seq(rejections_, 28, [&](Rejected& rej) { serve::io(ar, rej); });
  health_.io(ar);
  latency_hist_.io(ar);
  ar.end();
  if (!ar.reading()) return;
  ids_.clear();
  for (const Completion& c : completions_) ids_.insert(c.id);
  for (const Pending& p : arrivals_) ids_.insert(p.r.id);
  for (const Pending& p : queue_) ids_.insert(p.r.id);
  for (const Pending& p : retries_) ids_.insert(p.r.id);
}

}  // namespace hht::serve
