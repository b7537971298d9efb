// Silent-data-corruption (SDC) campaign: inject parity-evading single-bit
// flips at seeded sites across all five HHT engine modes and the serving
// pool, run each trial twice — once with the integrity features off and
// once with the full defense-in-depth stack on (e2e stream checksum,
// poison containment, patrol scrubbing) — and classify every injection by
// diffing the finished y against the software reference:
//
//   corrected        repaired transparently (demand SECDED / patrol scrub);
//                    y is correct and a correction counter is nonzero
//   contained        a non-e2e check stopped the run with a structured
//                    error (poison at delivery, engine poison freeze,
//                    machine check) — nothing wrong ever left the machine
//   detected_by_e2e  the end-to-end stream CRC caught the flip at the FE
//                    delivery boundary (FaultCause::StreamCheck)
//   escaped          the run "succeeded" with a wrong y — true SDC
//   benign           the flip site was never consumed (y correct, nothing
//                    detected); counted separately so the denominator of
//                    the escape rate is honest
//
// The campaign is its own gate (nonzero exit on violation):
//  - with the integrity stack ON, escaped must be exactly 0;
//  - with it OFF, escaped must be nonzero — proving the measured
//    protection is real, not an artifact of flips that never bite.
// Results go to BENCH_sdc.json.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "kernels/kernels.h"
#include "serve/server.h"
#include "sparse/reference.h"
#include "workload/synthetic.h"

namespace {

using namespace hht;
using sim::Addr;

enum class EngineMode { kSpmv, kSpmspvV1, kSpmspvV2, kHier, kFlat };
constexpr EngineMode kModes[] = {EngineMode::kSpmv, EngineMode::kSpmspvV1,
                                 EngineMode::kSpmspvV2, EngineMode::kHier,
                                 EngineMode::kFlat};

/// Where the flip is planted.
enum class Site {
  kFifoFlip,      ///< buffer SRAM cell, parity left GOOD (sdc_fifo_ordinal)
  kDelivery,      ///< the FE delivery port itself (test_flip_element)
  kLatentSingle,  ///< one latent bit in an operand SRAM word
  kLatentDouble,  ///< two latent bits in one word (beyond SECDED)
};

enum class Verdict { kBenign, kCorrected, kContained, kDetectedE2e, kEscaped };

struct Workload {
  sparse::CsrMatrix csr;
  sparse::HierBitmapMatrix hb;
  sparse::BitVectorMatrix bv;
  sparse::DenseVector v;
  sparse::SparseVector sv;
  sparse::DenseVector ref_spmv;
  sparse::DenseVector ref_spmspv;
};

Workload makeWorkload(std::uint64_t seed, sim::Index n) {
  sim::Rng rng(seed);
  const sparse::DenseMatrix dense = workload::randomDense(rng, n, n, 0.7);
  Workload w{sparse::CsrMatrix::fromDense(dense),
             sparse::HierBitmapMatrix::fromDense(dense),
             sparse::BitVectorMatrix::fromDense(dense),
             workload::randomDenseVector(rng, n),
             workload::randomSparseVector(rng, n, 0.5),
             {},
             {}};
  w.ref_spmv = sparse::spmvCsr(w.csr, w.v);
  w.ref_spmspv = sparse::spmspvMerge(w.csr, w.sv);
  return w;
}

bool sameVector(const sparse::DenseVector& got,
                const sparse::DenseVector& want) {
  if (got.size() != want.size()) return false;
  for (sim::Index i = 0; i < want.size(); ++i) {
    if (got.at(i) != want.at(i)) return false;
  }
  return true;
}

struct Trial {
  EngineMode mode;
  Site site;
  std::uint64_t ordinal;  ///< slot/element/word index, per site family
  std::uint32_t bit;      ///< which bit to flip
  bool integrity;         ///< e2e + containment + scrub on
};

struct TrialOutcome {
  Verdict verdict = Verdict::kBenign;
  std::uint64_t corrected_events = 0;
};

TrialOutcome runTrial(const Workload& w, const Trial& t, bool fastforward) {
  harness::SystemConfig cfg = harness::defaultConfig();
  cfg.host_fastforward = fastforward;
  if (t.integrity) {
    cfg.hht.e2e_check = true;
    cfg.hht.poison_containment = true;
    cfg.memory.scrub_enabled = true;
    cfg.memory.scrub_period = 32;
  }
  if (t.site == Site::kFifoFlip) {
    // All rate knobs stay 0: the injector exists only to plant this one
    // deterministic, parity-evading flip.
    cfg.faults.enabled = true;
    cfg.faults.sdc_fifo_ordinal = t.ordinal;
    cfg.faults.sdc_fifo_bit = t.bit;
  } else if (t.site == Site::kDelivery) {
    cfg.hht.test_flip_element = t.ordinal;
  }

  harness::System sys(cfg);
  const Addr mmio = cfg.memory.mmio_base;

  // Per-mode program plus the operand region the HHT's value fetches read
  // (the latent-flip target: these words flow through the BE pipelines).
  struct Prepared {
    isa::Program prog;
    Addr y;
    std::uint32_t y_len;
    Addr vals;
    std::uint32_t val_words;
    const sparse::DenseVector* ref;
  };
  const Prepared p = [&]() -> Prepared {
    switch (t.mode) {
      case EngineMode::kSpmv: {
        const kernels::SpmvLayout l = harness::loadSpmv(sys, w.csr, w.v);
        return {kernels::spmvScalarHht(l, mmio), l.y, l.num_rows, l.v,
                static_cast<std::uint32_t>(w.v.size()), &w.ref_spmv};
      }
      case EngineMode::kSpmspvV1: {
        const kernels::SpmspvLayout l = harness::loadSpmspv(sys, w.csr, w.sv);
        return {kernels::spmspvHhtV1(l, mmio), l.y, l.num_rows, l.vvals,
                static_cast<std::uint32_t>(w.sv.nnz()), &w.ref_spmspv};
      }
      case EngineMode::kSpmspvV2: {
        const kernels::SpmspvLayout l = harness::loadSpmspv(sys, w.csr, w.sv);
        return {kernels::spmspvHhtV2Scalar(l, mmio), l.y, l.num_rows, l.vvals,
                static_cast<std::uint32_t>(w.sv.nnz()), &w.ref_spmspv};
      }
      case EngineMode::kHier: {
        const kernels::HierLayout l = harness::loadHier(sys, w.hb, w.v);
        return {kernels::hierBitmapHht(l, mmio), l.y, l.num_rows, l.v,
                static_cast<std::uint32_t>(w.v.size()), &w.ref_spmv};
      }
      case EngineMode::kFlat: {
        const kernels::HierLayout l = harness::loadFlatBitmap(sys, w.bv, w.v);
        return {kernels::flatBitmapHht(l, mmio), l.y, l.num_rows, l.v,
                static_cast<std::uint32_t>(w.v.size()), &w.ref_spmv};
      }
    }
    throw std::logic_error("unreachable");
  }();

  if (t.site == Site::kLatentSingle || t.site == Site::kLatentDouble) {
    // Plant after load (stores scrub latent state, as real writes do).
    const Addr word = p.vals + 4u * static_cast<Addr>(t.ordinal % p.val_words);
    std::uint32_t mask = 1u << (t.bit & 31u);
    if (t.site == Site::kLatentDouble) mask |= 1u << ((t.bit + 11u) & 31u);
    sys.memory().sram().injectLatentFlip(word, mask);
  }

  TrialOutcome out;
  try {
    const harness::RunResult r = sys.run(p.prog, p.y, p.y_len);
    out.corrected_events = r.stats.value("mem.secded.demand_corrected") +
                           r.stats.value("mem.scrub.corrected");
    if (!sameVector(r.y, *p.ref)) {
      out.verdict = Verdict::kEscaped;
    } else if (out.corrected_events > 0) {
      out.verdict = Verdict::kCorrected;
    } else {
      out.verdict = Verdict::kBenign;
    }
  } catch (const sim::SimError& e) {
    out.verdict = std::strstr(e.what(), "stream-check") != nullptr
                      ? Verdict::kDetectedE2e
                      : Verdict::kContained;
  }
  return out;
}

struct Bucket {
  std::uint64_t trials = 0;
  std::uint64_t benign = 0;
  std::uint64_t corrected = 0;
  std::uint64_t contained = 0;
  std::uint64_t detected_by_e2e = 0;
  std::uint64_t escaped = 0;

  void add(Verdict v) {
    ++trials;
    switch (v) {
      case Verdict::kBenign: ++benign; break;
      case Verdict::kCorrected: ++corrected; break;
      case Verdict::kContained: ++contained; break;
      case Verdict::kDetectedE2e: ++detected_by_e2e; break;
      case Verdict::kEscaped: ++escaped; break;
    }
  }
};

/// Serving-pool leg: a tiny pool facing a *persistent* parity-evading FIFO
/// flip on every HHT attempt. The server may never emit a silently wrong
/// response (its acceptance check is the last line of defense); with the
/// e2e channel on, detection moves from the post-run acceptance diff to a
/// precise in-flight device fault. Both legs must drain with every request
/// served ok or degraded.
struct ServingLeg {
  std::uint64_t submitted = 0, ok = 0, degraded = 0, failed = 0;
  std::uint64_t hht_faults = 0, retries = 0;
  bool drained = false;
};

ServingLeg runServingLeg(bool integrity, std::uint64_t seed, unsigned jobs) {
  serve::ServerConfig cfg;
  cfg.system = harness::defaultConfig();
  cfg.system.faults.enabled = true;
  cfg.system.faults.seed = seed;
  cfg.system.faults.sdc_fifo_ordinal = 5;
  cfg.system.faults.sdc_fifo_bit = 13;
  if (integrity) {
    cfg.system.hht.e2e_check = true;
    cfg.system.hht.poison_containment = true;
  }
  cfg.num_tiles = 2;
  cfg.jobs = jobs;
  cfg.queue_capacity = 16;

  serve::StreamConfig sc;
  sc.count = 6;
  sc.size = 16;
  sc.mean_gap = 30'000;
  serve::Server server(cfg);
  for (const serve::Request& r : serve::randomRequestStream(seed, sc)) {
    server.submit(r);
  }
  server.drain();
  const serve::ServerStats s = server.stats();
  return {s.submitted, s.ok,      s.degraded,     s.failed,
          s.hht_faults, s.retries, server.idle()};
}

std::string jsonBucket(const char* leg, const Bucket& b) {
  std::string s = std::string("    {\"leg\": \"") + leg + "\"";
  const auto field = [&s](const char* name, std::uint64_t v) {
    s += std::string(", \"") + name + "\": " + std::to_string(v);
  };
  field("trials", b.trials);
  field("benign", b.benign);
  field("corrected", b.corrected);
  field("contained", b.contained);
  field("detected_by_e2e", b.detected_by_e2e);
  field("escaped", b.escaped);
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Options opt = benchutil::parse(argc, argv);
  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "sdc_campaign");
  const sim::Index n = opt.size ? opt.size : 48;

  const Workload w = makeWorkload(opt.seed, n);

  // Seeded site randomization: ordinals land early in each stream so every
  // planted flip has a real chance to bite (trials whose site is still
  // never consumed are counted benign, keeping the escape-rate denominator
  // honest).
  sim::Rng site_rng(opt.seed ^ 0x5DC5DC5DCull);
  struct PlannedSite {
    Site site;
    std::uint64_t ordinal;
    std::uint32_t bit;
  };
  std::vector<PlannedSite> plan;
  for (int i = 0; i < 3; ++i) {
    plan.push_back({Site::kFifoFlip, site_rng.next64() % 24,
                    static_cast<std::uint32_t>(site_rng.next64() % 32)});
  }
  for (int i = 0; i < 2; ++i) {
    plan.push_back({Site::kDelivery, site_rng.next64() % 8, 0});
  }
  for (int i = 0; i < 2; ++i) {
    plan.push_back({Site::kLatentSingle, site_rng.next64(),
                    static_cast<std::uint32_t>(site_rng.next64() % 32)});
  }
  for (int i = 0; i < 2; ++i) {
    plan.push_back({Site::kLatentDouble, site_rng.next64(),
                    static_cast<std::uint32_t>(site_rng.next64() % 32)});
  }

  Bucket on, off;
  for (const EngineMode mode : kModes) {
    for (const PlannedSite& ps : plan) {
      const Trial base{mode, ps.site, ps.ordinal, ps.bit, false};
      Trial protected_trial = base;
      protected_trial.integrity = true;
      off.add(runTrial(w, base, opt.fastforward).verdict);
      on.add(runTrial(w, protected_trial, opt.fastforward).verdict);
    }
  }

  const ServingLeg serve_off = runServingLeg(false, opt.seed, opt.jobs);
  const ServingLeg serve_on = runServingLeg(true, opt.seed, opt.jobs);

  bool ok = true;
  if (on.escaped != 0) {
    std::cerr << "SDC GATE VIOLATION: " << on.escaped
              << " flips escaped to output with the integrity stack ON\n";
    ok = false;
  }
  if (off.escaped == 0) {
    std::cerr << "SDC GATE VIOLATION: no flip escaped with the integrity "
                 "stack OFF — the campaign is not exercising real SDC\n";
    ok = false;
  }
  for (const auto* leg : {&serve_off, &serve_on}) {
    if (!leg->drained || leg->failed != 0 ||
        leg->ok + leg->degraded != leg->submitted) {
      std::cerr << "SERVING GATE VIOLATION: pool did not serve every "
                   "request ok/degraded under persistent SDC\n";
      ok = false;
    }
  }

  const double off_escape_rate =
      off.trials == 0 ? 0.0
                      : static_cast<double>(off.escaped) /
                            static_cast<double>(off.trials);

  if (opt.csv) {
    harness::Table t({"leg", "trials", "benign", "corrected", "contained",
                      "detected_by_e2e", "escaped"});
    const auto row = [&t](const char* leg, const Bucket& b) {
      t.addRow({leg, std::to_string(b.trials), std::to_string(b.benign),
                std::to_string(b.corrected), std::to_string(b.contained),
                std::to_string(b.detected_by_e2e), std::to_string(b.escaped)});
    };
    row("integrity_off", off);
    row("integrity_on", on);
    t.printCsv(std::cout);
  } else {
    harness::printBanner(std::cout, "SDC campaign (DESIGN.md §15)",
                         "parity-evading flips vs the integrity stack");
    harness::Table t({"leg", "trials", "benign", "corrected", "contained",
                      "detected_by_e2e", "escaped"});
    const auto row = [&t](const char* leg, const Bucket& b) {
      t.addRow({leg, std::to_string(b.trials), std::to_string(b.benign),
                std::to_string(b.corrected), std::to_string(b.contained),
                std::to_string(b.detected_by_e2e), std::to_string(b.escaped)});
    };
    row("integrity_off", off);
    row("integrity_on", on);
    t.print(std::cout);
    std::cout << "unprotected escape rate: "
              << harness::fmt(off_escape_rate, 4) << " (" << off.escaped
              << "/" << off.trials << ")\n"
              << "serving pool (off/on): "
              << serve_off.ok + serve_off.degraded << "/"
              << serve_off.submitted << " and "
              << serve_on.ok + serve_on.degraded << "/"
              << serve_on.submitted << " served under persistent SDC\n";
  }

  std::FILE* f = std::fopen("BENCH_sdc.json", "w");
  if (f == nullptr) {
    std::cerr << "cannot write BENCH_sdc.json\n";
    return 1;
  }
  std::string legs = jsonBucket("integrity_off", off) + ",\n" +
                     jsonBucket("integrity_on", on);
  std::fprintf(
      f,
      "{\n"
      "  \"campaign\": \"sdc\",\n"
      "  \"matrix\": %u,\n"
      "  \"seed\": %llu,\n"
      "  \"legs\": [\n%s\n  ],\n"
      "  \"unprotected_escape_rate\": %.6f,\n"
      "  \"serving\": {\n"
      "    \"off\": {\"submitted\": %llu, \"ok\": %llu, \"degraded\": %llu,"
      " \"failed\": %llu, \"hht_faults\": %llu, \"retries\": %llu},\n"
      "    \"on\": {\"submitted\": %llu, \"ok\": %llu, \"degraded\": %llu,"
      " \"failed\": %llu, \"hht_faults\": %llu, \"retries\": %llu}\n"
      "  },\n"
      "  \"escaped_with_integrity\": %llu,\n"
      "  \"escaped_without_integrity\": %llu\n"
      "}\n",
      static_cast<unsigned>(n), static_cast<unsigned long long>(opt.seed),
      legs.c_str(), off_escape_rate,
      static_cast<unsigned long long>(serve_off.submitted),
      static_cast<unsigned long long>(serve_off.ok),
      static_cast<unsigned long long>(serve_off.degraded),
      static_cast<unsigned long long>(serve_off.failed),
      static_cast<unsigned long long>(serve_off.hht_faults),
      static_cast<unsigned long long>(serve_off.retries),
      static_cast<unsigned long long>(serve_on.submitted),
      static_cast<unsigned long long>(serve_on.ok),
      static_cast<unsigned long long>(serve_on.degraded),
      static_cast<unsigned long long>(serve_on.failed),
      static_cast<unsigned long long>(serve_on.hht_faults),
      static_cast<unsigned long long>(serve_on.retries),
      static_cast<unsigned long long>(on.escaped),
      static_cast<unsigned long long>(off.escaped));
  std::fclose(f);
  std::cout << "wrote BENCH_sdc.json\n";
  return ok ? 0 : 1;
}
