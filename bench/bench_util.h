#pragma once

// Shared helpers for the bench binaries.
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
// A driver of several figures (bench/paper: parse(..., figures)) also
// accepts:
//   --only=LIST        comma-separated figure names to run (default all)
//   --trace=FILE       after the sweep, re-run the one selected figure's
//                      representative point with a TraceSink attached and
//                      write FILE (.json = Perfetto/Chrome trace-event
//                      JSON, else CSV), plus a stall-attribution table on
//                      stdout; needs --only=NAME of a figure that wires a
//                      traced run
//   --trace-categories=LIST
//                      comma-separated subset of cpu,mem,fifo,pipe,mmr,
//                      system (or "all"; default all)
// Unknown flags are an error: a silently-ignored typo ("--sizes=512") used
// to produce a full run of the wrong experiment. Benches print the paper's
// expected values next to the measured ones so a reader can check the
// reproduced *shape* directly from the output.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness/report.h"
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
  std::vector<std::string> only;  ///< --only: figure names; empty = all

  bool traceRequested() const { return !trace_file.empty(); }
  bool selected(std::string_view figure) const {
    return only.empty() ||
           std::find(only.begin(), only.end(), figure) != only.end();
  }
};

/// A figure that a multi-figure driver lets --only select.
struct Figure {
  const char* name;
  bool traced;  ///< wires a representative --trace run
};

[[noreturn]] inline void usage(const char* prog, const char* error,
                               bool with_mode = false,
                               std::span<const Figure> figures = {}) {
  if (error != nullptr) {
    std::fprintf(stderr, "%s: %s\n", prog, error);
  }
  std::fprintf(stderr,
               "usage: %s [--csv] [--size=N] [--seed=S] [--jobs=N]"
               " [--no-fastforward] [--timeout-ms=N]%s%s\n",
               prog,
               with_mode ? " [--mode=naive|event] [--repeat=N]" : "",
               figures.empty() ? ""
                               : " [--only=LIST] [--trace=FILE]"
                                 " [--trace-categories=LIST]");
  if (!figures.empty()) {
    std::fprintf(stderr, "figures:");
    for (const Figure& f : figures) std::fprintf(stderr, " %s", f.name);
    std::fprintf(stderr, "\n");
  }
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
///  - a number above the range of its option is an error, not wrapped
///    ("--size=4294967296" used to run the default size);
///  - every flag may appear at most once ("--seed=1 --seed=2" used to
///    silently keep the last one — ambiguous in scripted sweeps);
///  - "--jobs=0" is rejected: 0 is the *absence* default meaning "all
///    hardware threads"; an explicit 0 is always a typo for 1 or a
///    wrong-variable expansion in CI.
/// `extra`, when non-null, collects arguments this parser does not know
/// instead of treating them as errors — for benches that layer their own
/// flags on top of the shared set (serve_campaign). The caller is then
/// responsible for rejecting anything left over, so a typo still fails.
/// `figures`, when non-empty, enables --only and the trace flags: every
/// --only name must be one of them and appear once, and --trace needs
/// exactly one selected figure that wires a traced run.
inline ParseStatus tryParse(int argc, char** argv, Options& opt,
                            std::string& error,
                            std::vector<std::string>* extra = nullptr,
                            bool with_mode = false,
                            std::span<const Figure> figures = {}) {
  enum Flag {
    kCsv, kSize, kSeed, kJobs, kNoFf, kTimeout, kMode, kRepeat, kTrace,
    kTraceCat, kOnly, kNumFlags
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
  const auto number = [&]<typename T>(const char* value, const char* name,
                                      T& out) {
    std::uint64_t v = 0;
    if (parseU64(value, v) && v <= std::numeric_limits<T>::max()) {
      out = static_cast<T>(v);
      return true;
    }
    error = std::string("bad value '") + value + "' for --" + name +
            " (want a base-10 integer <= " +
            std::to_string(std::numeric_limits<T>::max()) + ")";
    return false;
  };
  const auto figure = [&](std::string_view name) {
    return std::find_if(figures.begin(), figures.end(),
                        [&](const Figure& f) { return name == f.name; });
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--csv") == 0) {
      if (!once(kCsv, "csv")) return ParseStatus::kError;
      opt.csv = true;
    } else if (std::strncmp(arg, "--size=", 7) == 0) {
      if (!once(kSize, "size")) return ParseStatus::kError;
      if (!number(arg + 7, "size", opt.size)) return ParseStatus::kError;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      if (!once(kSeed, "seed")) return ParseStatus::kError;
      if (!number(arg + 7, "seed", opt.seed)) return ParseStatus::kError;
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      if (!once(kJobs, "jobs")) return ParseStatus::kError;
      if (!number(arg + 7, "jobs", opt.jobs)) return ParseStatus::kError;
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
      if (!number(arg + 13, "timeout-ms", opt.timeout_ms)) {
        return ParseStatus::kError;
      }
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
      if (!number(arg + 9, "repeat", opt.repeat)) return ParseStatus::kError;
      if (opt.repeat == 0) {
        error = "--repeat must be >= 1 (omit the flag for a single sample)";
        return ParseStatus::kError;
      }
    } else if (!figures.empty() && std::strncmp(arg, "--trace=", 8) == 0) {
      if (!once(kTrace, "trace")) return ParseStatus::kError;
      opt.trace_file = arg + 8;
      if (opt.trace_file.empty()) {
        error = "--trace needs a file name";
        return ParseStatus::kError;
      }
    } else if (!figures.empty() &&
               std::strncmp(arg, "--trace-categories=", 19) == 0) {
      if (!once(kTraceCat, "trace-categories")) return ParseStatus::kError;
      const auto mask = obs::parseCategoryList(arg + 19);
      if (!mask) {
        error = std::string("bad category list '") + (arg + 19) + "'";
        return ParseStatus::kError;
      }
      opt.trace_categories = *mask;
    } else if (!figures.empty() && std::strncmp(arg, "--only=", 7) == 0) {
      if (!once(kOnly, "only")) return ParseStatus::kError;
      std::string_view list = arg + 7;
      for (;;) {
        const std::size_t comma = list.find(',');
        const std::string_view name = list.substr(0, comma);
        if (figure(name) == figures.end()) {
          error = "unknown figure '" + std::string(name) + "' in --only";
          return ParseStatus::kError;
        }
        if (std::find(opt.only.begin(), opt.only.end(), name) !=
            opt.only.end()) {
          error = "duplicate figure '" + std::string(name) + "' in --only";
          return ParseStatus::kError;
        }
        opt.only.emplace_back(name);
        if (comma == std::string_view::npos) break;
        list.remove_prefix(comma + 1);
      }
    } else if (std::strcmp(arg, "--help") == 0) {
      return ParseStatus::kHelp;
    } else if (extra != nullptr) {
      extra->push_back(arg);
    } else {
      error = std::string("unknown argument '") + arg + "'";
      return ParseStatus::kError;
    }
  }
  if (!figures.empty() && opt.traceRequested()) {
    if (opt.only.size() != 1) {
      error = "--trace needs exactly one figure (--only=NAME)";
      return ParseStatus::kError;
    }
    if (!figure(opt.only.front())->traced) {
      error = "figure '" + opt.only.front() + "' has no traced run";
      return ParseStatus::kError;
    }
  }
  return ParseStatus::kOk;
}

inline Options parse(int argc, char** argv, bool with_mode = false,
                     std::span<const Figure> figures = {}) {
  Options opt;
  std::string error;
  switch (tryParse(argc, argv, opt, error, nullptr, with_mode, figures)) {
    case ParseStatus::kOk:
      return opt;
    case ParseStatus::kHelp:
      usage(argv[0], nullptr, with_mode, figures);
    case ParseStatus::kError:
    default:
      usage(argv[0], error.c_str(), with_mode, figures);
  }
}

/// Print `table` as CSV under --csv, aligned otherwise.
inline void printTable(const Options& opt, const harness::Table& table) {
  opt.csv ? table.printCsv(std::cout) : table.print(std::cout);
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
