// Sparse-as-a-service campaign (DESIGN.md §14): drive a serve::Server —
// a pool of simulated {CPU+HHT} tiles behind an admission queue — through
// a seeded open-loop request stream with optional fault injection, and
// report tail latency (p50/p99/p999 simulated cycles), goodput and the
// fault-handling counters as BENCH_serving.json.
//
// Invariants checked in-binary (nonzero exit on violation):
//  - liveness: the server drains completely — every submitted request
//    reaches a terminal outcome (no deadlock/livelock under faults);
//  - no silent wrongs: every served result passed the server's acceptance
//    check against the software reference (enforced inside serve::Server);
//  - crash recovery (--crash-at=N --recover): the server is checkpointed
//    every --checkpoint-every batches, "crashes" (the object is destroyed)
//    after batch N, is rebuilt from the latest snapshot and drained; its
//    per-request (outcome, attempts, tile, y_hash, latency) log must be
//    bit-identical to the uninterrupted run's — including requests that
//    completed between the snapshot and the crash, which the recovered
//    server re-executes deterministically.
//
// Extra flags on top of the shared benchutil set:
//   --requests=N         stream length (default 96 so tail percentiles rest
//                        on a non-trivial sample; --size sets the matrix
//                        dimension, default 28)
//   --tiles=N            serving pool size (default 3)
//   --fault-rate=PPM     injection rate in parts-per-million (integer, so
//                        the flag round-trips exactly; default 0)
//   --deadline=CYCLES    per-request deadline slack after arrival
//                        (default 40000000; 0 disables deadlines)
//   --crash-at=N         crash after batch N (requires --recover)
//   --recover            recover from the latest periodic checkpoint and
//                        prove bit-identical completion
//   --checkpoint-every=K periodic checkpoint cadence in batches (default 4)
//   --require-quarantine campaign point for the health policy: fail unless
//                        the run actually quarantined a tile AND dispatched
//                        at least one canary probe (use with a high
//                        --fault-rate; gated in bench/serving_baseline.json)
//   --out=FILE           JSON report path (default BENCH_serving.json), so
//                        CI can keep multiple campaign points side by side
#include <chrono>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "serve/server.h"

namespace {

using namespace hht;

struct ServeOptions {
  std::uint32_t requests = 96;
  std::uint32_t tiles = 3;
  std::uint64_t fault_ppm = 0;
  std::uint64_t deadline = 40'000'000;
  std::uint64_t crash_at = 0;
  bool recover = false;
  std::uint32_t checkpoint_every = 4;
  bool require_quarantine = false;
  std::string out = "BENCH_serving.json";
};

ServeOptions parseExtra(const char* prog,
                        const std::vector<std::string>& extra) {
  ServeOptions so;
  bool crash_seen = false;
  const auto fail = [&](const std::string& msg) {
    std::cerr << prog << ": " << msg << "\n"
              << "serve flags: [--requests=N] [--tiles=N] [--fault-rate=PPM]"
                 " [--deadline=CYCLES] [--crash-at=N --recover]"
                 " [--checkpoint-every=K] [--require-quarantine]"
                 " [--out=FILE]\n";
    std::exit(2);
  };
  const auto intval = [&](const std::string& arg, const char* name,
                          std::uint64_t& out, bool allow_zero) {
    const std::size_t n = std::strlen(name);
    if (arg.compare(0, n, name) != 0 || arg[n] != '=') return false;
    out = std::strtoull(arg.c_str() + n + 1, nullptr, 10);
    if (!allow_zero && out == 0) fail(std::string(name) + " must be >= 1");
    return true;
  };
  for (const std::string& arg : extra) {
    std::uint64_t v = 0;
    if (intval(arg, "--requests", v, false)) {
      so.requests = static_cast<std::uint32_t>(v);
    } else if (intval(arg, "--tiles", v, false)) {
      so.tiles = static_cast<std::uint32_t>(v);
    } else if (intval(arg, "--fault-rate", v, true)) {
      so.fault_ppm = v;
    } else if (intval(arg, "--deadline", v, true)) {
      so.deadline = v;
    } else if (intval(arg, "--crash-at", v, false)) {
      so.crash_at = v;
      crash_seen = true;
    } else if (arg == "--recover") {
      so.recover = true;
    } else if (intval(arg, "--checkpoint-every", v, false)) {
      so.checkpoint_every = static_cast<std::uint32_t>(v);
    } else if (arg == "--require-quarantine") {
      so.require_quarantine = true;
    } else if (arg.compare(0, 6, "--out=") == 0) {
      so.out = arg.substr(6);
      if (so.out.empty()) fail("--out needs a file name");
    } else {
      fail("unknown argument '" + arg + "'");
    }
  }
  if (crash_seen != so.recover) {
    fail("--crash-at and --recover must be used together");
  }
  return so;
}

serve::ServerConfig makeConfig(const benchutil::Options& opt,
                               const ServeOptions& so) {
  serve::ServerConfig cfg;
  cfg.system = harness::defaultConfig();
  cfg.system.host_fastforward = opt.fastforward;
  if (so.fault_ppm > 0) {
    const double rate = static_cast<double>(so.fault_ppm) * 1e-6;
    cfg.system.faults.enabled = true;
    cfg.system.faults.seed = opt.seed * 1000003u + 17;
    // Same shaping as fault_campaign: the SRAM read port takes the brunt.
    cfg.system.faults.sram_read_flip_rate = rate;
    cfg.system.faults.drop_rate = rate;
    cfg.system.faults.delay_rate = rate;
    cfg.system.faults.fifo_corrupt_rate = rate / 8.0;
    cfg.system.faults.mmr_glitch_rate = rate / 64.0;
  }
  cfg.num_tiles = so.tiles;
  cfg.jobs = opt.jobs;
  cfg.queue_capacity = 2 * so.tiles;  // small enough that bursts shed
  return cfg;
}

std::vector<serve::Request> makeStream(const benchutil::Options& opt,
                                       const ServeOptions& so) {
  serve::StreamConfig sc;
  sc.count = so.requests;
  sc.size = opt.size ? opt.size : 28;
  sc.mean_gap = 30'000;
  sc.deadline_slack = so.deadline;
  return serve::randomRequestStream(opt.seed, sc);
}

serve::Server submitAll(const serve::ServerConfig& cfg,
                        const std::vector<serve::Request>& stream) {
  serve::Server server(cfg);
  for (const serve::Request& r : stream) server.submit(r);
  return server;
}

/// The per-request identity crash recovery must preserve.
using Fingerprint =
    std::map<std::uint64_t,
             std::tuple<std::uint8_t, std::uint32_t, std::int32_t,
                        std::uint64_t, std::uint64_t>>;

Fingerprint fingerprint(const serve::Server& server) {
  Fingerprint fp;
  for (const serve::Completion& c : server.completions()) {
    fp[c.id] = {static_cast<std::uint8_t>(c.outcome), c.attempts, c.tile,
                c.y_hash, c.latency_cycles};
  }
  return fp;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::Options opt;
  std::string error;
  std::vector<std::string> extra;
  switch (benchutil::tryParse(argc, argv, opt, error, &extra)) {
    case benchutil::ParseStatus::kOk: break;
    case benchutil::ParseStatus::kHelp:
      benchutil::usage(argv[0], nullptr);
    case benchutil::ParseStatus::kError:
    default:
      benchutil::usage(argv[0], error.c_str());
  }
  const ServeOptions so = parseExtra(argv[0], extra);
  benchutil::HostTimeout watchdog(opt.timeout_ms, "serving campaign");

  const serve::ServerConfig cfg = makeConfig(opt, so);
  const std::vector<serve::Request> stream = makeStream(opt, so);

  // Uninterrupted run (the reference for --crash-at and the metrics run).
  const auto wall_start = std::chrono::steady_clock::now();
  serve::Server server = submitAll(cfg, stream);
  server.drain();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  const serve::ServerStats s = server.stats();

  bool ok = true;
  if (!server.idle()) {
    std::cerr << "LIVENESS VIOLATION: server did not drain\n";
    ok = false;
  }
  if (server.completions().size() != stream.size()) {
    std::cerr << "ACCOUNTING VIOLATION: " << server.completions().size()
              << " completions for " << stream.size() << " requests\n";
    ok = false;
  }
  if (so.require_quarantine &&
      (s.quarantine_events == 0 || s.probes == 0)) {
    std::cerr << "QUARANTINE GATE: campaign point was meant to exercise the "
                 "health policy but saw " << s.quarantine_events
              << " quarantine events and " << s.probes
              << " probes (raise --fault-rate?)\n";
    ok = false;
  }

  // Crash/recovery proof: checkpoint periodically, destroy the server after
  // batch N, rebuild from the *latest* snapshot, drain, compare.
  bool recovery_checked = false, recovery_identical = true;
  if (so.recover) {
    recovery_checked = true;
    std::vector<std::uint8_t> latest;
    std::uint64_t snapshot_batch = 0;
    {
      serve::Server crashing = submitAll(cfg, stream);
      latest = crashing.checkpoint();  // batch 0: post-admission
      while (crashing.batches() < so.crash_at && !crashing.idle()) {
        const std::uint64_t step =
            std::min<std::uint64_t>(so.checkpoint_every,
                                    so.crash_at - crashing.batches());
        if (crashing.drain(step) == 0) break;
        if (crashing.batches() % so.checkpoint_every == 0) {
          latest = crashing.checkpoint();
          snapshot_batch = crashing.batches();
        }
      }
    }  // crash: the server object (and all in-flight context) is gone
    serve::Server recovered(cfg);
    recovered.restore(latest);
    recovered.drain();
    recovery_identical = fingerprint(recovered) == fingerprint(server);
    if (!recovery_identical) {
      std::cerr << "RECOVERY MISMATCH: run recovered from the batch-"
                << snapshot_batch << " checkpoint diverged from the "
                << "uninterrupted run\n";
      ok = false;
    }
  }

  if (opt.csv) {
    harness::Table t({"requests", "ok", "degraded", "late", "rejected",
                      "expired", "failed", "hht_faults", "retries",
                      "quarantines", "n", "p50", "p99", "p999", "goodput"});
    t.addRow({std::to_string(s.submitted), std::to_string(s.ok),
              std::to_string(s.degraded), std::to_string(s.late),
              std::to_string(s.rejected), std::to_string(s.deadline_expired),
              std::to_string(s.failed), std::to_string(s.hht_faults),
              std::to_string(s.retries), std::to_string(s.quarantine_events),
              std::to_string(s.served), std::to_string(s.p50),
              std::to_string(s.p99), std::to_string(s.p999),
              harness::fmt(s.goodput, 4)});
    t.printCsv(std::cout);
  } else {
    harness::Table t({"metric", "value"});
    const auto row = [&t](const char* k, const std::string& v) {
      t.addRow({k, v});
    };
    row("requests submitted", std::to_string(s.submitted));
    row("served ok (HHT)", std::to_string(s.ok));
    row("served degraded (CPU)", std::to_string(s.degraded));
    row("served late", std::to_string(s.late));
    row("rejected (shed)", std::to_string(s.rejected));
    row("deadline expired", std::to_string(s.deadline_expired));
    row("failed", std::to_string(s.failed));
    row("HHT faults observed", std::to_string(s.hht_faults));
    row("retries", std::to_string(s.retries));
    row("probes / quarantines / reinstates",
        std::to_string(s.probes) + " / " + std::to_string(s.quarantine_events) +
            " / " + std::to_string(s.reinstate_events));
    row("batches", std::to_string(s.batches));
    row("final simulated cycle", std::to_string(s.final_cycle));
    // Percentile honesty: always show how many served latencies the
    // percentiles rest on — a p999 over 40 samples is really the max.
    row("latency p50/p99/p999 (cycles)",
        std::to_string(s.p50) + " / " + std::to_string(s.p99) + " / " +
            std::to_string(s.p999) + "  (n=" + std::to_string(s.served) +
            ")");
    row("goodput (on-time fraction)", harness::fmt(s.goodput, 4));
    row("host wall time (ms)", harness::fmt(wall_ms, 1));
    if (recovery_checked) {
      row("crash recovery", recovery_identical ? "bit-identical" : "DIVERGED");
    }
    t.print(std::cout);
  }

  std::FILE* f = std::fopen(so.out.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << so.out << "\n";
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"campaign\": \"serving\",\n"
               "  \"seed\": %llu,\n"
               "  \"requests\": %llu,\n"
               "  \"tiles\": %u,\n"
               "  \"fault_rate_ppm\": %llu,\n"
               "  \"ok\": %llu,\n"
               "  \"degraded\": %llu,\n"
               "  \"late\": %llu,\n"
               "  \"rejected\": %llu,\n"
               "  \"deadline_expired\": %llu,\n"
               "  \"failed\": %llu,\n"
               "  \"hht_faults\": %llu,\n"
               "  \"retries\": %llu,\n"
               "  \"probes\": %llu,\n"
               "  \"quarantine_events\": %llu,\n"
               "  \"reinstate_events\": %llu,\n"
               "  \"batches\": %llu,\n"
               "  \"final_cycle\": %llu,\n"
               "  \"latency_n\": %llu,\n"
               "  \"p50_cycles\": %llu,\n"
               "  \"p99_cycles\": %llu,\n"
               "  \"p999_cycles\": %llu,\n"
               "  \"max_latency_cycles\": %llu,\n"
               "  \"goodput\": %.6f,\n"
               "  \"host_wall_ms\": %.3f,\n"
               "  \"recovery_checked\": %s,\n"
               "  \"recovery_identical\": %s,\n"
               "  \"drained\": %s\n"
               "}\n",
               static_cast<unsigned long long>(opt.seed),
               static_cast<unsigned long long>(s.submitted), so.tiles,
               static_cast<unsigned long long>(so.fault_ppm),
               static_cast<unsigned long long>(s.ok),
               static_cast<unsigned long long>(s.degraded),
               static_cast<unsigned long long>(s.late),
               static_cast<unsigned long long>(s.rejected),
               static_cast<unsigned long long>(s.deadline_expired),
               static_cast<unsigned long long>(s.failed),
               static_cast<unsigned long long>(s.hht_faults),
               static_cast<unsigned long long>(s.retries),
               static_cast<unsigned long long>(s.probes),
               static_cast<unsigned long long>(s.quarantine_events),
               static_cast<unsigned long long>(s.reinstate_events),
               static_cast<unsigned long long>(s.batches),
               static_cast<unsigned long long>(s.final_cycle),
               static_cast<unsigned long long>(s.served),
               static_cast<unsigned long long>(s.p50),
               static_cast<unsigned long long>(s.p99),
               static_cast<unsigned long long>(s.p999),
               static_cast<unsigned long long>(s.max_latency), s.goodput,
               wall_ms, recovery_checked ? "true" : "false",
               recovery_identical ? "true" : "false",
               server.idle() ? "true" : "false");
  std::fclose(f);
  std::cout << "wrote " << so.out << "\n";
  return ok ? 0 : 1;
}
