// Strict bench CLI parser tests (benchutil::tryParse — the exit-free core
// of every bench binary's parse()). Regression coverage for two silent
// wrong-experiment holes: "--jobs=0" (a typo or empty-variable expansion in
// CI, previously accepted as "serial-ish") and duplicate flags (previously
// last-one-wins, ambiguous in scripted sweeps).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.h"

namespace hht::benchutil {
namespace {

/// Build a mutable argv from string literals (argv[0] is the program name).
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    strings.insert(strings.begin(), "bench");
    for (std::string& s : strings) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> strings;
  std::vector<char*> ptrs;
};

ParseStatus tryParseArgs(std::vector<std::string> args, Options& opt,
                         std::string& error) {
  Argv a(std::move(args));
  return tryParse(a.argc(), a.argv(), opt, error);
}

/// A multi-figure driver's figures (bench/paper-style --only parsing).
constexpr Figure kFigures[] = {
    {"fig4", true}, {"fig5", true}, {"abl_buffers", false}};

ParseStatus tryParseFigureArgs(std::vector<std::string> args, Options& opt,
                               std::string& error) {
  Argv a(std::move(args));
  return tryParse(a.argc(), a.argv(), opt, error, /*extra=*/nullptr,
                  /*with_mode=*/false, kFigures);
}

TEST(BenchUtil, ParsesEveryFlagOnce) {
  Options opt;
  std::string error;
  ASSERT_EQ(tryParseArgs({"--csv", "--size=512", "--seed=7", "--jobs=3",
                          "--no-fastforward"},
                         opt, error),
            ParseStatus::kOk)
      << error;
  EXPECT_TRUE(opt.csv);
  EXPECT_EQ(opt.size, 512u);
  EXPECT_EQ(opt.seed, 7u);
  EXPECT_EQ(opt.jobs, 3u);
  EXPECT_FALSE(opt.fastforward);
}

TEST(BenchUtil, DefaultsSurviveEmptyCommandLine) {
  Options opt;
  std::string error;
  ASSERT_EQ(tryParseArgs({}, opt, error), ParseStatus::kOk);
  EXPECT_FALSE(opt.csv);
  EXPECT_EQ(opt.size, 0u);
  EXPECT_EQ(opt.jobs, 0u);  // 0 = all hardware threads
  EXPECT_TRUE(opt.fastforward);
}

TEST(BenchUtil, RejectsJobsZero) {
  Options opt;
  std::string error;
  EXPECT_EQ(tryParseArgs({"--jobs=0"}, opt, error), ParseStatus::kError);
  EXPECT_NE(error.find("--jobs"), std::string::npos) << error;
}

TEST(BenchUtil, RejectsDuplicateFlags) {
  Options opt;
  std::string error;
  EXPECT_EQ(tryParseArgs({"--seed=1", "--seed=2"}, opt, error),
            ParseStatus::kError);
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  EXPECT_NE(error.find("--seed"), std::string::npos) << error;

  error.clear();
  Options opt2;
  EXPECT_EQ(tryParseArgs({"--csv", "--csv"}, opt2, error),
            ParseStatus::kError);
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;

  // A figure named twice in --only, and --only given twice.
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"--only=fig4,fig4"}, {"--only=fig4", "--only=fig5"}}) {
    Options opt3;
    error.clear();
    EXPECT_EQ(tryParseFigureArgs(args, opt3, error), ParseStatus::kError)
        << args.back();
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  }
}

TEST(BenchUtil, RejectsUnknownArguments) {
  Options opt;
  std::string error;
  // The historic hole: a typo silently ran the wrong experiment.
  EXPECT_EQ(tryParseArgs({"--sizes=512"}, opt, error), ParseStatus::kError);
  EXPECT_NE(error.find("--sizes=512"), std::string::npos) << error;

  // Unknown, empty and missing figure names in --only.
  for (const char* arg : {"--only=fig10", "--only=fig4,", "--only="}) {
    Options opt2;
    error.clear();
    EXPECT_EQ(tryParseFigureArgs({arg}, opt2, error), ParseStatus::kError)
        << arg;
    EXPECT_NE(error.find("unknown figure"), std::string::npos) << error;
  }
  // A bench without figures does not know --only.
  Options opt3;
  EXPECT_EQ(tryParseArgs({"--only=fig4"}, opt3, error), ParseStatus::kError);
  EXPECT_NE(error.find("--only=fig4"), std::string::npos) << error;
}

TEST(BenchUtil, OnlySelectsFigures) {
  Options all;
  std::string error;
  ASSERT_EQ(tryParseFigureArgs({}, all, error), ParseStatus::kOk) << error;
  EXPECT_TRUE(all.selected("fig5"));

  Options opt;
  ASSERT_EQ(tryParseFigureArgs({"--only=abl_buffers,fig4"}, opt, error),
            ParseStatus::kOk)
      << error;
  EXPECT_EQ(opt.only, (std::vector<std::string>{"abl_buffers", "fig4"}));
  EXPECT_TRUE(opt.selected("fig4"));
  EXPECT_TRUE(opt.selected("abl_buffers"));
  EXPECT_FALSE(opt.selected("fig5"));
}

TEST(BenchUtil, ParsesTimeoutAndRejectsZero) {
  Options opt;
  std::string error;
  ASSERT_EQ(tryParseArgs({"--timeout-ms=30000"}, opt, error), ParseStatus::kOk)
      << error;
  EXPECT_EQ(opt.timeout_ms, 30000u);

  // 0 would mean "no watchdog" — make the caller omit the flag instead of
  // silently disarming it.
  Options opt2;
  EXPECT_EQ(tryParseArgs({"--timeout-ms=0"}, opt2, error), ParseStatus::kError);
  EXPECT_NE(error.find("--timeout-ms"), std::string::npos) << error;

  error.clear();
  Options opt3;
  EXPECT_EQ(tryParseArgs({"--timeout-ms=1", "--timeout-ms=2"}, opt3, error),
            ParseStatus::kError);
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(BenchUtil, ExtraArgsCollectUnknownsForLayeredParsers) {
  // serve_campaign-style layering: the shared parser keeps its own flags
  // strict but hands unrecognised ones back instead of erroring.
  Argv a({"--seed=9", "--tiles=3", "--timeout-ms=5", "--recover"});
  Options opt;
  std::string error;
  std::vector<std::string> extra;
  ASSERT_EQ(tryParse(a.argc(), a.argv(), opt, error, &extra),
            ParseStatus::kOk)
      << error;
  EXPECT_EQ(opt.seed, 9u);
  EXPECT_EQ(opt.timeout_ms, 5u);
  ASSERT_EQ(extra.size(), 2u);
  EXPECT_EQ(extra[0], "--tiles=3");
  EXPECT_EQ(extra[1], "--recover");

  // Shared-flag errors still fail even with the extra channel open.
  Argv b({"--jobs=0", "--whatever"});
  Options opt2;
  std::vector<std::string> extra2;
  EXPECT_EQ(tryParse(b.argc(), b.argv(), opt2, error, &extra2),
            ParseStatus::kError);
}

ParseStatus tryParseModeArgs(std::vector<std::string> args, Options& opt,
                             std::string& error) {
  Argv a(std::move(args));
  return tryParse(a.argc(), a.argv(), opt, error, /*extra=*/nullptr,
                  /*with_mode=*/true);
}

TEST(BenchUtil, ParsesModeAndRepeat) {
  {
    Options opt;
    std::string error;
    ASSERT_EQ(tryParseModeArgs({"--mode=event", "--repeat=5"}, opt, error),
              ParseStatus::kOk)
        << error;
    EXPECT_EQ(opt.mode, RunMode::kEvent);
    EXPECT_EQ(opt.repeat, 5u);
  }
  {
    Options opt;
    std::string error;
    ASSERT_EQ(tryParseModeArgs({"--mode=naive"}, opt, error), ParseStatus::kOk);
    EXPECT_EQ(opt.mode, RunMode::kNaive);
    EXPECT_EQ(opt.repeat, 1u) << "--repeat default is a single sample";
  }
  {  // Only the run loop's two modes parse.
    Options opt;
    std::string error;
    EXPECT_EQ(tryParseModeArgs({"--mode=fast"}, opt, error),
              ParseStatus::kError);
  }
  {  // Default: run every mode.
    Options opt;
    std::string error;
    ASSERT_EQ(tryParseModeArgs({}, opt, error), ParseStatus::kOk);
    EXPECT_EQ(opt.mode, RunMode::kAll);
  }
}

TEST(BenchUtil, ModeFlagsOnlyExistWhenWired) {
  // A bench without mode passes (fig sweeps) must reject --mode rather
  // than silently ignore it.
  Options opt;
  std::string error;
  EXPECT_EQ(tryParseArgs({"--mode=event"}, opt, error), ParseStatus::kError);
  EXPECT_NE(error.find("--mode=event"), std::string::npos) << error;
}

TEST(BenchUtil, RejectsBadModeAndRepeatZero) {
  {
    Options opt;
    std::string error;
    EXPECT_EQ(tryParseModeArgs({"--mode=turbo"}, opt, error),
              ParseStatus::kError);
    EXPECT_NE(error.find("--mode"), std::string::npos) << error;
  }
  {  // min-of-zero-samples is meaningless; make the caller omit the flag.
    Options opt;
    std::string error;
    EXPECT_EQ(tryParseModeArgs({"--repeat=0"}, opt, error),
              ParseStatus::kError);
    EXPECT_NE(error.find("--repeat"), std::string::npos) << error;
  }
  {
    Options opt;
    std::string error;
    EXPECT_EQ(tryParseModeArgs({"--repeat=2", "--repeat=3"}, opt, error),
              ParseStatus::kError);
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  }
}

TEST(BenchUtil, RejectsMalformedNumbers) {
  // Every numeric flag goes through the strict base-10 parser: trailing
  // garbage, signs, empty values and overflow are errors, never silent
  // truncation (strtoull would happily accept "12abc" and "-1").
  // The last five fit a uint64 but not the option's type; a narrowing
  // cast used to wrap them into another valid-looking run (the default
  // size, size 512, a 1 ms watchdog, one job, one sample).
  const std::vector<std::string> bad = {
      "--size=12abc", "--seed=-3", "--jobs=", "--repeat=+2",
      "--size=99999999999999999999999999", "--size=4294967296",
      "--size=4294967808", "--timeout-ms=4294967297", "--jobs=4294967297",
      "--repeat=4294967296"};
  for (const std::string& arg : bad) {
    Options opt;
    std::string error;
    EXPECT_EQ(tryParseModeArgs({arg}, opt, error), ParseStatus::kError)
        << arg << " was accepted";
    EXPECT_NE(error.find("bad value"), std::string::npos) << error;
  }
  // Each type's largest value still parses.
  Options opt;
  std::string error;
  ASSERT_EQ(tryParseModeArgs({"--size=4294967295",
                              "--seed=18446744073709551615"},
                             opt, error),
            ParseStatus::kOk)
      << error;
  EXPECT_EQ(opt.size, 4294967295u);
  EXPECT_EQ(opt.seed, 18446744073709551615u);
}

TEST(BenchUtil, HelpShortCircuits) {
  Options opt;
  std::string error;
  EXPECT_EQ(tryParseArgs({"--help"}, opt, error), ParseStatus::kHelp);
  EXPECT_TRUE(error.empty());
}

TEST(BenchUtil, TraceFlagsOnlyExistWhenWired) {
  {  // Bench without figures (no traced run): --trace is unknown.
    Options opt;
    std::string error;
    EXPECT_EQ(tryParseArgs({"--trace=out.json"}, opt, error),
              ParseStatus::kError);
  }
  {  // Wired: accepted, and an empty file name is rejected.
    Options opt;
    std::string error;
    EXPECT_EQ(tryParseFigureArgs({"--only=fig5", "--trace=out.json"}, opt,
                                 error),
              ParseStatus::kOk)
        << error;
    EXPECT_EQ(opt.trace_file, "out.json");

    Options opt2;
    EXPECT_EQ(tryParseFigureArgs({"--only=fig5", "--trace="}, opt2, error),
              ParseStatus::kError);
    EXPECT_NE(error.find("--trace"), std::string::npos) << error;
  }
  {  // Bad category list.
    Options opt;
    std::string error;
    EXPECT_EQ(tryParseFigureArgs({"--trace-categories=cpu,bogus"}, opt, error),
              ParseStatus::kError);
    EXPECT_NE(error.find("bogus"), std::string::npos) << error;
  }
  {  // A multi-figure driver traces exactly one selected, traced figure.
    std::string error;
    for (const auto& args : std::vector<std::vector<std::string>>{
             {"--trace=f.json"},                        // every figure
             {"--only=fig4,fig5", "--trace=f.json"},    // two figures
             {"--only=abl_buffers", "--trace=f.json"},  // no traced run
         }) {
      Options opt2;
      error.clear();
      EXPECT_EQ(tryParseFigureArgs(args, opt2, error), ParseStatus::kError)
          << args.front();
      EXPECT_NE(error.find("trace"), std::string::npos) << error;
    }
  }
}

}  // namespace
}  // namespace hht::benchutil
