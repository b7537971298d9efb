#pragma once

// Shared helpers for the figure/table bench binaries.
//
// Every bench accepts:
//   --csv              emit CSV instead of the aligned table
//   --size=N           override the matrix dimension (default per figure)
//   --seed=S           override the workload seed
//   --jobs=N           host threads for the sweep (default: all hardware
//                      threads; 1 = serial)
//   --no-fastforward   run the every-cycle reference schedule instead of
//                      the event-scheduled run loop (A/B check: results
//                      must be bit-identical either way)
//   --timeout-ms=N     host wall-clock budget; the process prints a
//                      diagnostic and exits 124 if exceeded (HostTimeout)
// Benches that compare the run loop's two modes (parse with with_mode)
// also accept:
//   --mode=naive|event
//                      restrict the run to one mode (default: run both and
//                      gate event >= 1.0x naive)
//   --repeat=N         sample each pass N times and report the minimum
//                      wall time (min-of-N; default 1)
// Benches that wire a representative traced run (parse(..., true)) also
// accept:
//   --trace=FILE       after the sweep, re-run one representative point
//                      with a TraceSink attached and write FILE (.json =
//                      Perfetto/Chrome trace-event JSON, else CSV), plus a
//                      stall-attribution table on stdout
//   --trace-categories=LIST
//                      comma-separated subset of cpu,mem,fifo,pipe,mmr,
//                      system (or "all"; default all)
// Unknown flags are an error: a silently-ignored typo ("--sizes=512") used
// to produce a full run of the wrong experiment. Benches print the paper's
// expected values next to the measured ones so a reader can check the
// reproduced *shape* directly from the output.

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace hht::benchutil {

/// Run-loop mode selection for benches that expose --mode (sim_throughput).
/// The event-scheduled mode must be at least as fast as the every-cycle
/// mode on the bench's aggregate workload — the bench itself gates on it.
enum class RunMode {
  kAll,    ///< flag absent: run both modes and verify event >= naive
  kNaive,  ///< every-cycle reference schedule (host_fastforward off)
  kEvent,  ///< event-scheduled run loop (host_fastforward on)
};

struct Options {
  bool csv = false;
  std::uint32_t size = 0;     ///< 0 = figure default
  std::uint64_t seed = 0x5EED'2022;
  unsigned jobs = 0;          ///< 0 = hardware_concurrency
  bool fastforward = true;    ///< SystemConfig::host_fastforward
  std::uint32_t timeout_ms = 0;  ///< host wall-clock limit; 0 = none
  RunMode mode = RunMode::kAll;  ///< --mode (benches parsed with with_mode)
  unsigned repeat = 1;        ///< --repeat: min-of-N wall-time sampling
  std::string trace_file;     ///< empty = no tracing
  std::uint32_t trace_categories = obs::kAllCategories;

  bool traceRequested() const { return !trace_file.empty(); }
};

[[noreturn]] inline void usage(const char* prog, const char* error,
                               bool with_trace = false,
                               bool with_mode = false) {
  if (error != nullptr) {
    std::fprintf(stderr, "%s: %s\n", prog, error);
  }
  std::fprintf(stderr,
               "usage: %s [--csv] [--size=N] [--seed=S] [--jobs=N]"
               " [--no-fastforward] [--timeout-ms=N]%s%s\n",
               prog,
               with_mode ? " [--mode=naive|event] [--repeat=N]" : "",
               with_trace ? " [--trace=FILE] [--trace-categories=LIST]" : "");
  std::exit(error == nullptr ? 0 : 2);
}

/// Strict base-10 parse of a whole argument value: empty strings, trailing
/// junk ("3x"), signs and overflow all fail. The permissive strtoul-style
/// parsing used to accept "--repeat=3x" as 3 — a silently wrong sample
/// count in scripted sweeps.
inline bool parseU64(const char* s, std::uint64_t& out) {
  if (*s == '\0' || *s == '-' || *s == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

enum class ParseStatus { kOk, kHelp, kError };

/// The exit-free core of parse(): fills `opt` and returns kOk, or returns
/// kError with a diagnostic in `error` (unknown flag, duplicate flag, or a
/// rejected value). Testable without spawning a process — the bench
/// binaries go through parse(), which turns kError into usage()+exit(2).
///
/// Strictness (each historic hole produced a silent wrong-experiment run):
///  - unknown flags are errors, not ignored;
///  - every flag may appear at most once ("--seed=1 --seed=2" used to
///    silently keep the last one — ambiguous in scripted sweeps);
///  - "--jobs=0" is rejected: 0 is the *absence* default meaning "all
///    hardware threads"; an explicit 0 is always a typo for 1 or a
///    wrong-variable expansion in CI.
/// `extra`, when non-null, collects arguments this parser does not know
/// instead of treating them as errors — for benches that layer their own
/// flags on top of the shared set (serve_campaign). The caller is then
/// responsible for rejecting anything left over, so a typo still fails.
inline ParseStatus tryParse(int argc, char** argv, bool with_trace,
                            Options& opt, std::string& error,
                            std::vector<std::string>* extra = nullptr,
                            bool with_mode = false) {
  enum Flag {
    kCsv, kSize, kSeed, kJobs, kNoFf, kTimeout, kMode, kRepeat, kTrace,
    kTraceCat, kNumFlags
  };
  bool seen[kNumFlags] = {};
  const auto once = [&](Flag f, const char* name) {
    if (seen[f]) {
      error = std::string("duplicate argument '--") + name + "'";
      return false;
    }
    seen[f] = true;
    return true;
  };
  const auto number = [&](const char* value, const char* name,
                          std::uint64_t& out) {
    if (parseU64(value, out)) return true;
    error = std::string("bad value '") + value + "' for --" + name +
            " (want a base-10 integer)";
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::uint64_t value = 0;
    if (std::strcmp(arg, "--csv") == 0) {
      if (!once(kCsv, "csv")) return ParseStatus::kError;
      opt.csv = true;
    } else if (std::strncmp(arg, "--size=", 7) == 0) {
      if (!once(kSize, "size")) return ParseStatus::kError;
      if (!number(arg + 7, "size", value)) return ParseStatus::kError;
      opt.size = static_cast<std::uint32_t>(value);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      if (!once(kSeed, "seed")) return ParseStatus::kError;
      if (!number(arg + 7, "seed", value)) return ParseStatus::kError;
      opt.seed = value;
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      if (!once(kJobs, "jobs")) return ParseStatus::kError;
      if (!number(arg + 7, "jobs", value)) return ParseStatus::kError;
      opt.jobs = static_cast<unsigned>(value);
      if (opt.jobs == 0) {
        error = "--jobs must be >= 1 (omit the flag to use all hardware "
                "threads)";
        return ParseStatus::kError;
      }
    } else if (std::strcmp(arg, "--no-fastforward") == 0) {
      if (!once(kNoFf, "no-fastforward")) return ParseStatus::kError;
      opt.fastforward = false;
    } else if (std::strncmp(arg, "--timeout-ms=", 13) == 0) {
      if (!once(kTimeout, "timeout-ms")) return ParseStatus::kError;
      if (!number(arg + 13, "timeout-ms", value)) return ParseStatus::kError;
      opt.timeout_ms = static_cast<std::uint32_t>(value);
      if (opt.timeout_ms == 0) {
        error = "--timeout-ms must be >= 1 (omit the flag to run without a "
                "host watchdog)";
        return ParseStatus::kError;
      }
    } else if (with_mode && std::strncmp(arg, "--mode=", 7) == 0) {
      if (!once(kMode, "mode")) return ParseStatus::kError;
      const char* v = arg + 7;
      if (std::strcmp(v, "naive") == 0) {
        opt.mode = RunMode::kNaive;
      } else if (std::strcmp(v, "event") == 0) {
        opt.mode = RunMode::kEvent;
      } else {
        error = std::string("bad value '") + v +
                "' for --mode (want naive or event)";
        return ParseStatus::kError;
      }
    } else if (with_mode && std::strncmp(arg, "--repeat=", 9) == 0) {
      if (!once(kRepeat, "repeat")) return ParseStatus::kError;
      if (!number(arg + 9, "repeat", value)) return ParseStatus::kError;
      opt.repeat = static_cast<unsigned>(value);
      if (opt.repeat == 0) {
        error = "--repeat must be >= 1 (omit the flag for a single sample)";
        return ParseStatus::kError;
      }
    } else if (with_trace && std::strncmp(arg, "--trace=", 8) == 0) {
      if (!once(kTrace, "trace")) return ParseStatus::kError;
      opt.trace_file = arg + 8;
      if (opt.trace_file.empty()) {
        error = "--trace needs a file name";
        return ParseStatus::kError;
      }
    } else if (with_trace &&
               std::strncmp(arg, "--trace-categories=", 19) == 0) {
      if (!once(kTraceCat, "trace-categories")) return ParseStatus::kError;
      const auto mask = obs::parseCategoryList(arg + 19);
      if (!mask) {
        error = std::string("bad category list '") + (arg + 19) + "'";
        return ParseStatus::kError;
      }
      opt.trace_categories = *mask;
    } else if (std::strcmp(arg, "--help") == 0) {
      return ParseStatus::kHelp;
    } else if (extra != nullptr) {
      extra->push_back(arg);
    } else {
      error = std::string("unknown argument '") + arg + "'";
      return ParseStatus::kError;
    }
  }
  return ParseStatus::kOk;
}

inline Options parse(int argc, char** argv, bool with_trace = false,
                     bool with_mode = false) {
  Options opt;
  std::string error;
  switch (tryParse(argc, argv, with_trace, opt, error, nullptr, with_mode)) {
    case ParseStatus::kOk:
      return opt;
    case ParseStatus::kHelp:
      usage(argv[0], nullptr, with_trace, with_mode);
    case ParseStatus::kError:
    default:
      usage(argv[0], error.c_str(), with_trace, with_mode);
  }
}

/// Run `traced_run` (a callable taking obs::TraceSink&; it should execute
/// one representative workload with the sink installed in its
/// SystemConfig) and write the requested trace file. The format follows
/// the extension: ".json" emits Perfetto/Chrome trace-event JSON, anything
/// else the flat CSV golden format. A stall-attribution summary goes to
/// `os`. No-op when --trace was not given.
template <typename Fn>
inline void writeTraceIfRequested(const Options& opt, std::ostream& os,
                                  Fn&& traced_run) {
  if (!opt.traceRequested()) return;
  obs::TraceSink sink(obs::TraceSink::kDefaultCapacity, opt.trace_categories);
  traced_run(sink);
  std::ofstream out(opt.trace_file, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open trace file '%s'\n",
                 opt.trace_file.c_str());
    std::exit(2);
  }
  const std::string& f = opt.trace_file;
  const bool json =
      f.size() >= 5 && f.compare(f.size() - 5, 5, ".json") == 0;
  if (json) {
    obs::writePerfettoTrace(out, sink);
  } else {
    obs::writeCsvTrace(out, sink);
  }
  const obs::ProfileReport rep = obs::profile(sink);
  os << "trace: " << sink.size() << " events (" << sink.dropped()
     << " dropped) -> " << f << " [" << (json ? "perfetto" : "csv") << "]\n"
     << rep.table();
}

/// Host wall-clock watchdog (--timeout-ms). The *simulated* watchdog bounds
/// simulated time; this bounds host time — the failure mode it exists for
/// is a campaign that wedges at the host level (a stuck thread pool, an
/// accidental unbounded sweep), which no in-simulation check can see. On
/// expiry it prints a diagnostic and _Exit(124)s (the conventional timeout
/// status), skipping destructors on purpose: the process is by definition
/// not making progress, so unwinding it could block forever.
///
/// Arm it right after parsing flags; destruction (normal exit) disarms.
/// timeout_ms == 0 constructs a disarmed, zero-cost watchdog.
class HostTimeout {
 public:
  explicit HostTimeout(std::uint32_t timeout_ms,
                       const char* what = "campaign") {
    if (timeout_ms == 0) return;
    armed_ = true;
    thread_ = std::thread([this, timeout_ms, what] {
      std::unique_lock<std::mutex> lock(mutex_);
      if (cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [this] { return disarmed_; })) {
        return;
      }
      std::fprintf(stderr,
                   "%s still running after --timeout-ms=%u — aborting with "
                   "exit status 124\n",
                   what, timeout_ms);
      std::_Exit(124);
    });
  }

  ~HostTimeout() {
    if (!armed_) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      disarmed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  HostTimeout(const HostTimeout&) = delete;
  HostTimeout& operator=(const HostTimeout&) = delete;

 private:
  bool armed_ = false;
  bool disarmed_ = false;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::thread thread_;
};

}  // namespace hht::benchutil
