// Serving-layer tests (DESIGN.md §14): tile-health quarantine policy,
// admission control and load shedding, deadline handling, fault-driven
// retry/degrade, crash recovery via SRVS snapshots, and the determinism
// contract (results independent of the host thread count).
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "serve/server.h"
#include "sparse/reference.h"

namespace hht::serve {
namespace {

using sim::Cycle;
using sim::ErrorKind;
using sim::SimError;

TileHealth::Config healthConfig() {
  TileHealth::Config h;
  h.window = 4;
  h.min_samples = 2;
  h.fault_rate_threshold = 0.5;
  h.probe_period = 2;
  return h;
}

// ---------------------------------------------------------------------------
// TileHealth unit tests
// ---------------------------------------------------------------------------

TEST(TileHealth, QuarantinesOnlyWithEnoughSamples) {
  TileHealth th(2, healthConfig());
  th.record(0, true);  // 1/1 faulty, but min_samples is 2
  EXPECT_FALSE(th.quarantined(0));
  th.record(0, true);  // 2/2 faulty >= 50%
  EXPECT_TRUE(th.quarantined(0));
  EXPECT_FALSE(th.quarantined(1));  // neighbour unaffected
  EXPECT_EQ(th.quarantineEvents(), 1u);
  EXPECT_EQ(th.quarantinedCount(), 1u);
}

TEST(TileHealth, HealthyHistoryAbsorbsOneFault) {
  TileHealth th(1, healthConfig());
  th.record(0, false);
  th.record(0, false);
  th.record(0, false);
  th.record(0, true);  // 1/4 < 50%
  EXPECT_FALSE(th.quarantined(0));
  th.record(0, true);  // window slides: 2/4 >= 50%
  EXPECT_TRUE(th.quarantined(0));
}

TEST(TileHealth, ProbeCadenceAndReinstatement) {
  TileHealth th(1, healthConfig());
  th.record(0, true);
  th.record(0, true);
  ASSERT_TRUE(th.quarantined(0));
  // Cooldown = probe_period batches before the first probe.
  EXPECT_FALSE(th.probeDue(0));
  th.tickBatch();
  EXPECT_FALSE(th.probeDue(0));
  th.tickBatch();
  EXPECT_TRUE(th.probeDue(0));
  // A failed probe restarts the cooldown.
  th.probeFailed(0);
  EXPECT_FALSE(th.probeDue(0));
  th.tickBatch();
  th.tickBatch();
  ASSERT_TRUE(th.probeDue(0));
  // A passing probe reinstates with a cleared window: the old fault burst
  // cannot instantly re-quarantine.
  th.reinstate(0);
  EXPECT_FALSE(th.quarantined(0));
  EXPECT_EQ(th.windowSamples(0), 0u);
  EXPECT_EQ(th.reinstateEvents(), 1u);
  th.record(0, false);
  th.record(0, false);
  th.record(0, true);  // 1/3 < 50%: one blip does not re-quarantine
  EXPECT_FALSE(th.quarantined(0));
}

TEST(TileHealth, SerializeRoundTripsAndRejectsShapeSkew) {
  TileHealth a(3, healthConfig());
  a.record(0, true);
  a.record(0, true);
  a.record(2, false);
  a.tickBatch();
  sim::StateIo w;
  a.io(w);

  TileHealth b(3, healthConfig());
  sim::StateIo r(w.data());
  b.io(r);
  for (std::uint32_t t = 0; t < 3; ++t) {
    EXPECT_EQ(a.quarantined(t), b.quarantined(t)) << "tile " << t;
    EXPECT_EQ(a.windowSamples(t), b.windowSamples(t)) << "tile " << t;
    EXPECT_EQ(a.windowFaults(t), b.windowFaults(t)) << "tile " << t;
  }
  EXPECT_EQ(a.quarantineEvents(), b.quarantineEvents());

  TileHealth wrong(2, healthConfig());
  sim::StateIo r2(w.data());
  EXPECT_THROW(wrong.io(r2), SimError);
}

// ---------------------------------------------------------------------------
// Request model
// ---------------------------------------------------------------------------

TEST(RequestStream, IsDeterministicAndOrdered) {
  StreamConfig sc;
  sc.count = 16;
  sc.size = 20;
  sc.deadline_slack = 1'000'000;
  const std::vector<Request> a = randomRequestStream(99, sc);
  const std::vector<Request> b = randomRequestStream(99, sc);
  ASSERT_EQ(a.size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].arrival_cycle, b[i].arrival_cycle);
    EXPECT_EQ(a[i].deadline_cycle, a[i].arrival_cycle + sc.deadline_slack);
    if (i > 0) {
      EXPECT_GT(a[i].arrival_cycle, a[i - 1].arrival_cycle);
    }
  }
  // A different seed produces a different stream.
  const std::vector<Request> c = randomRequestStream(100, sc);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) any_diff |= a[i].seed != c[i].seed;
  EXPECT_TRUE(any_diff);
}

TEST(RequestModel, MaterializeAndHashAreStable) {
  Request r;
  r.seed = 0xABCD;
  r.size = 18;
  const Operands a = materialize(r);
  const Operands b = materialize(r);
  EXPECT_EQ(a.m.nnz(), b.m.nnz());
  const sparse::DenseVector ya = sparse::spmvCsr(a.m, a.v);
  const sparse::DenseVector yb = sparse::spmvCsr(b.m, b.v);
  EXPECT_EQ(hashVector(ya), hashVector(yb));
  EXPECT_NE(hashVector(ya), 0u);
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

ServerConfig serverConfig(std::uint32_t tiles = 2) {
  ServerConfig cfg;
  cfg.system = harness::defaultConfig();
  cfg.num_tiles = tiles;
  cfg.jobs = 1;
  cfg.health = healthConfig();
  cfg.backoff_base = 64;
  return cfg;
}

std::vector<Request> smallStream(std::uint32_t count, Cycle deadline_slack = 0,
                                 Cycle mean_gap = 1'000) {
  StreamConfig sc;
  sc.count = count;
  sc.size = 16;
  sc.mean_gap = mean_gap;
  sc.deadline_slack = deadline_slack;
  return randomRequestStream(0x5EED, sc);
}

void submitAll(Server& s, const std::vector<Request>& reqs) {
  for (const Request& r : reqs) s.submit(r);
}

using CompletionKey =
    std::tuple<std::uint64_t, std::uint8_t, std::uint32_t, std::int32_t,
               std::uint64_t, std::uint64_t>;

std::vector<CompletionKey> keys(const Server& s) {
  std::vector<CompletionKey> out;
  for (const Completion& c : s.completions()) {
    out.emplace_back(c.id, static_cast<std::uint8_t>(c.outcome), c.attempts,
                     c.tile, c.y_hash, c.latency_cycles);
  }
  return out;
}

TEST(Server, FaultFreeStreamServesEverythingOk) {
  const ServerConfig cfg = serverConfig();
  Server s(cfg);
  const std::vector<Request> reqs = smallStream(6);
  submitAll(s, reqs);
  EXPECT_FALSE(s.idle());
  s.drain();
  EXPECT_TRUE(s.idle());
  ASSERT_EQ(s.completions().size(), reqs.size());
  for (const Completion& c : s.completions()) {
    EXPECT_EQ(c.outcome, Outcome::kOk) << "request " << c.id;
    EXPECT_EQ(c.attempts, 1u);
    EXPECT_NE(c.y_hash, 0u);
    EXPECT_GT(c.latency_cycles, 0u);
  }
  // The served hash is the reference hash — the acceptance check is
  // comparing against the right value, not just self-agreeing.
  const Request& r0 = reqs.front();
  const Operands ops = materialize(r0);
  const sparse::DenseVector ref = r0.kind == Kind::kSpmv
                                      ? sparse::spmvCsr(ops.m, ops.v)
                                      : sparse::spmspvMerge(ops.m, ops.sv);
  EXPECT_EQ(s.completions().front().y_hash, hashVector(ref));
  const ServerStats st = s.stats();
  EXPECT_EQ(st.ok, reqs.size());
  EXPECT_DOUBLE_EQ(st.goodput, 1.0);
  EXPECT_GT(st.p50, 0u);
  EXPECT_GE(st.p99, st.p50);
}

TEST(Server, StructuralRejectionsAreImmediateAndLogged) {
  Server s(serverConfig());
  Request ok;
  ok.id = 1;
  ok.seed = 7;
  EXPECT_FALSE(s.submit(ok).has_value());

  Request dup = ok;  // same id
  const auto r1 = s.submit(dup);
  ASSERT_TRUE(r1.has_value());
  EXPECT_NE(r1->reason.find("duplicate"), std::string::npos);

  Request zero = ok;
  zero.id = 2;
  zero.size = 0;
  EXPECT_TRUE(s.submit(zero).has_value());

  Request bad_deadline = ok;
  bad_deadline.id = 3;
  bad_deadline.arrival_cycle = 10;
  bad_deadline.deadline_cycle = 10;
  EXPECT_TRUE(s.submit(bad_deadline).has_value());

  // Every rejection is also a terminal kRejected completion.
  EXPECT_EQ(s.rejections().size(), 3u);
  EXPECT_EQ(s.completions().size(), 3u);
  for (const Completion& c : s.completions()) {
    EXPECT_EQ(c.outcome, Outcome::kRejected);
  }
  s.drain();
  EXPECT_EQ(s.completions().size(), 4u);  // the valid one completed
}

TEST(Server, QueueOverflowShedsWithStructuredReason) {
  ServerConfig cfg = serverConfig(1);
  cfg.queue_capacity = 2;
  Server s(cfg);
  // Five simultaneous arrivals into a capacity-2 queue on one tile: the
  // first two are admitted, the rest shed at admission time.
  for (std::uint64_t id = 1; id <= 5; ++id) {
    Request r;
    r.id = id;
    r.seed = id * 17;
    r.size = 16;
    EXPECT_FALSE(s.submit(r).has_value());  // future admission, not immediate
  }
  s.drain();
  const ServerStats st = s.stats();
  EXPECT_EQ(st.ok + st.rejected, 5u);
  EXPECT_EQ(st.rejected, 3u);
  for (const Rejected& rej : s.rejections()) {
    EXPECT_NE(rej.reason.find("queue full"), std::string::npos);
  }
}

TEST(Server, DeadlinesExpireQueuedWork) {
  ServerConfig cfg = serverConfig(1);
  Server s(cfg);
  // Two requests arrive together; one tile. The second runs a batch later —
  // by then its (tiny) deadline has passed, so it is shed at dispatch.
  Request a;
  a.id = 1;
  a.seed = 3;
  a.size = 16;
  a.deadline_cycle = 0;  // none
  Request b = a;
  b.id = 2;
  b.seed = 4;
  b.deadline_cycle = 10;
  ASSERT_FALSE(s.submit(a).has_value());
  ASSERT_FALSE(s.submit(b).has_value());
  s.drain();
  ASSERT_EQ(s.completions().size(), 2u);
  const ServerStats st = s.stats();
  EXPECT_EQ(st.ok, 1u);
  EXPECT_EQ(st.deadline_expired, 1u);
}

ServerConfig faultyServerConfig(std::uint32_t tiles, double rate,
                                std::uint64_t seed = 11) {
  ServerConfig cfg = serverConfig(tiles);
  cfg.system.faults.enabled = true;
  cfg.system.faults.seed = seed;
  cfg.system.faults.sram_read_flip_rate = rate;
  cfg.system.faults.drop_rate = rate;
  cfg.system.faults.fifo_corrupt_rate = rate / 2.0;
  return cfg;
}

TEST(Server, FaultsAreRetriedAndNeverServedWrong) {
  const ServerConfig cfg = faultyServerConfig(2, 5e-4);
  Server s(cfg);
  const std::vector<Request> reqs = smallStream(10);
  submitAll(s, reqs);
  s.drain();
  EXPECT_TRUE(s.idle());
  ASSERT_EQ(s.completions().size(), reqs.size());
  // Every served completion's hash must equal the reference hash — the
  // server never returns an unverified y (no silent wrongs by design).
  for (const Completion& c : s.completions()) {
    if (!served(c.outcome)) continue;
    const Request* req = nullptr;
    for (const Request& r : reqs) {
      if (r.id == c.id) req = &r;
    }
    ASSERT_NE(req, nullptr);
    const Operands ops = materialize(*req);
    const sparse::DenseVector ref = req->kind == Kind::kSpmv
                                        ? sparse::spmvCsr(ops.m, ops.v)
                                        : sparse::spmspvMerge(ops.m, ops.sv);
    EXPECT_EQ(c.y_hash, hashVector(ref)) << "request " << c.id;
  }
}

TEST(Server, PermanentFaultsQuarantineAndDegrade) {
  // fifo_corrupt_rate = 1 makes every HHT attempt fault on every tile:
  // tiles quarantine, probes keep failing, and every request must finish
  // on the degraded CPU path (the no-healthy-tile last resort).
  ServerConfig cfg = faultyServerConfig(2, 0.0);
  cfg.system.faults.fifo_corrupt_rate = 1.0;
  Server s(cfg);
  const std::vector<Request> reqs = smallStream(6);
  submitAll(s, reqs);
  s.drain();
  EXPECT_TRUE(s.idle()) << "degraded fallback must guarantee liveness";
  ASSERT_EQ(s.completions().size(), reqs.size());
  for (const Completion& c : s.completions()) {
    EXPECT_TRUE(c.outcome == Outcome::kDegraded || c.outcome == Outcome::kLate)
        << "request " << c.id << ": " << outcomeName(c.outcome);
    EXPECT_NE(c.y_hash, 0u);
  }
  const ServerStats st = s.stats();
  EXPECT_GT(st.hht_faults, 0u);
  EXPECT_GT(st.retries, 0u);
  EXPECT_EQ(st.quarantined_now, cfg.num_tiles);
  EXPECT_GT(st.quarantine_events, 0u);
  EXPECT_GT(st.probes, 0u);           // probes ran...
  EXPECT_EQ(st.reinstate_events, 0u); // ...and (rightly) kept failing
}

TEST(Server, BudgetExhaustionWithoutFallbackIsAStructuredFailure) {
  ServerConfig cfg = faultyServerConfig(2, 0.0);
  cfg.system.faults.fifo_corrupt_rate = 1.0;
  cfg.degraded_fallback = false;
  cfg.retry_budget = 1;
  Server s(cfg);
  const std::vector<Request> reqs = smallStream(4);
  submitAll(s, reqs);
  s.drain();
  EXPECT_TRUE(s.idle()) << "bounded retries must guarantee termination";
  ASSERT_EQ(s.completions().size(), reqs.size());
  for (const Completion& c : s.completions()) {
    EXPECT_EQ(c.outcome, Outcome::kFailed) << "request " << c.id;
    EXPECT_EQ(c.attempts, cfg.retry_budget + 1);
    EXPECT_FALSE(c.error.empty());
  }
}

TEST(Server, ResultsAreIndependentOfHostJobs) {
  const std::vector<Request> reqs = smallStream(8);
  ServerConfig cfg = faultyServerConfig(3, 1e-3);
  cfg.jobs = 1;
  Server serial(cfg);
  submitAll(serial, reqs);
  serial.drain();
  cfg.jobs = 4;
  Server parallel(cfg);
  submitAll(parallel, reqs);
  parallel.drain();
  EXPECT_EQ(keys(serial), keys(parallel));
  EXPECT_EQ(serial.checkpoint(), parallel.checkpoint());
}

TEST(Server, CrashRecoveryReplaysBitIdentically) {
  const std::vector<Request> reqs = smallStream(8);
  const ServerConfig cfg = faultyServerConfig(2, 1e-3);

  Server uninterrupted(cfg);
  submitAll(uninterrupted, reqs);
  uninterrupted.drain();
  ASSERT_EQ(uninterrupted.completions().size(), reqs.size());

  // Crash after 3 batches, recover from a batch-2 snapshot: the recovered
  // server re-executes batch 3 deterministically and must converge on the
  // exact same completion log.
  std::vector<std::uint8_t> snapshot;
  {
    Server crashing(cfg);
    submitAll(crashing, reqs);
    crashing.drain(2);
    snapshot = crashing.checkpoint();
    crashing.drain(1);  // work past the checkpoint is lost in the "crash"
  }
  Server recovered(cfg);
  recovered.restore(snapshot);
  EXPECT_EQ(recovered.batches(), 2u);
  recovered.drain();
  EXPECT_EQ(keys(recovered), keys(uninterrupted));
  EXPECT_EQ(recovered.stats().final_cycle, uninterrupted.stats().final_cycle);
}

TEST(Server, SnapshotIsDeterministicAndGuarded) {
  const std::vector<Request> reqs = smallStream(4);
  const ServerConfig cfg = serverConfig();
  Server a(cfg);
  submitAll(a, reqs);
  a.drain(1);
  Server b(cfg);
  submitAll(b, reqs);
  b.drain(1);
  const std::vector<std::uint8_t> snap = a.checkpoint();
  EXPECT_EQ(snap, b.checkpoint());

  // A server with different scheduling parameters must refuse the snapshot.
  ServerConfig other = cfg;
  other.retry_budget += 1;
  Server wrong(other);
  try {
    wrong.restore(snap);
    ADD_FAILURE() << "restore accepted a foreign snapshot";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Checkpoint) << e.what();
  }

  // Truncation is a structured checkpoint error, never a crash.
  std::vector<std::uint8_t> cut(snap.begin(), snap.begin() + snap.size() / 2);
  Server target(cfg);
  try {
    target.restore(cut);
    ADD_FAILURE() << "restore accepted a truncated snapshot";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Checkpoint) << e.what();
  }
}

TEST(Server, DuplicateIdsAreRejectedAcrossCheckpointRestore) {
  const ServerConfig cfg = serverConfig();
  const std::vector<Request> reqs = smallStream(6);
  Server a(cfg);
  submitAll(a, reqs);
  a.drain(1);
  // One id that has completed and one still pending (arriving or queued).
  ASSERT_FALSE(a.completions().empty());
  const std::uint64_t done_id = a.completions().front().id;
  const std::uint64_t waiting_id = reqs.back().id;
  for (const Completion& c : a.completions()) ASSERT_NE(c.id, waiting_id);
  for (const std::uint64_t id : {done_id, waiting_id}) {
    Request dup = reqs.front();
    dup.id = id;
    dup.arrival_cycle = a.now() + 1'000'000;
    const auto rej = a.submit(dup);
    ASSERT_TRUE(rej.has_value()) << id;
    EXPECT_EQ(rej->reason, "duplicate request id " + std::to_string(id));
  }

  Server b(cfg);
  b.restore(a.checkpoint());
  for (const std::uint64_t id : {done_id, waiting_id}) {
    Request dup = reqs.front();
    dup.id = id;
    dup.arrival_cycle = b.now() + 1'000'000;
    const auto rej = b.submit(dup);
    ASSERT_TRUE(rej.has_value()) << id;
    EXPECT_EQ(rej->reason, "duplicate request id " + std::to_string(id));
  }
  Request fresh = reqs.front();
  fresh.id = 1'000'000;
  fresh.arrival_cycle = b.now() + 1'000'000;
  EXPECT_FALSE(b.submit(fresh).has_value());
  b.drain();
  EXPECT_EQ(b.completions().back().id, fresh.id);
  EXPECT_EQ(b.completions().back().outcome, Outcome::kOk);
}

TEST(Server, EqualArrivalsKeepSubmissionOrder) {
  Server s(serverConfig(1));
  // Ids run against submission order, so neither an id sort nor a
  // last-in-first-out pop reproduces the expected sequence.
  const std::pair<std::uint64_t, Cycle> subs[] = {
      {50, 100}, {90, 0}, {30, 100}, {70, 0}, {10, 100}};
  for (const auto& [id, at] : subs) {
    Request r;
    r.id = id;
    r.seed = id;
    r.size = 16;
    r.arrival_cycle = at;
    ASSERT_FALSE(s.submit(r).has_value());
  }
  s.drain();
  std::vector<std::uint64_t> order;
  for (const Completion& c : s.completions()) order.push_back(c.id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{90, 70, 50, 30, 10}));
}

// FNV-1a over the per-request (id, outcome, attempts, tile, y_hash,
// latency) log of a 500-request stream with faults, retries, deadlines
// and shedding, pinned together with its outcome counts: a change to
// admission, dispatch or retry order moves them.
TEST(Server, CompletionLogOfALongStreamIsPinned) {
  ServerConfig cfg = faultyServerConfig(3, 3e-4);
  cfg.queue_capacity = 8;
  Server s(cfg);
  const std::vector<Request> reqs =
      smallStream(500, /*deadline_slack=*/8'000, /*mean_gap=*/1'600);
  submitAll(s, reqs);
  s.drain();
  ASSERT_EQ(s.completions().size(), reqs.size());
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  };
  for (const auto& [id, outcome, attempts, tile, y_hash, latency] : keys(s)) {
    fold(id);
    fold(outcome);
    fold(attempts);
    fold(static_cast<std::uint64_t>(static_cast<std::int64_t>(tile)));
    fold(y_hash);
    fold(latency);
  }
  const ServerStats st = s.stats();
  EXPECT_EQ(st.ok, 298u);
  EXPECT_EQ(st.rejected, 175u);  // shed at admission
  EXPECT_EQ(st.deadline_expired, 27u);
  EXPECT_EQ(st.retries, 3u);
  EXPECT_EQ(h, 0x9E23ABAF2744B207ull);
}

TEST(Server, ConfigValidationRejectsBrokenKnobs) {
  ServerConfig cfg = serverConfig();
  cfg.num_tiles = 0;
  EXPECT_THROW(Server s(cfg), SimError);
  cfg = serverConfig();
  cfg.queue_capacity = 0;
  EXPECT_THROW(Server s(cfg), SimError);
  cfg = serverConfig();
  cfg.backoff_base = 0;
  EXPECT_THROW(Server s(cfg), SimError);
  cfg = serverConfig();
  cfg.health.min_samples = 9;  // > window
  EXPECT_THROW(Server s(cfg), SimError);
}

}  // namespace
}  // namespace hht::serve
