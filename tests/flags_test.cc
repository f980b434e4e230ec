#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tools/flags.h"

namespace imoltp::tools {
namespace {

/// Every flag kind once, with the tools' own shapes: a bounded worker
/// count, an unbounded transaction count, a size, a choice with an
/// alias, a choice list, and two repeatable flags shaped like
/// imoltp_diff's --metric-rtol and --ignore.
struct Dests {
  std::string json;
  bool csv = false;
  bool compilation = true;
  uint64_t txns = 6000;
  int workers = 1;
  double rtol = 0.02;
  double max_regress = 0.15;
  uint64_t db = 10ULL << 20;
  uint64_t log_buffer = 64ULL << 10;
  std::string engine = "voltdb";
  std::string mode = "serial";
  std::vector<std::string> engines = {"hyper"};
  std::vector<std::pair<std::string, double>> metric_rtols;
  std::vector<std::string> ignores;
};

FlagTable MakeTable(Dests* d) {
  FlagTable t("tool", "[flags] FILE", 1);
  t.String("json", &d->json, "FILE", "write the report");
  t.Bool("csv", &d->csv, "print CSV");
  t.Bool("no-compilation", &d->compilation, "disable compilation", false);
  t.Unsigned("txns", &d->txns, "measured transactions");
  t.Int("workers", &d->workers, 1, 64, "worker threads");
  t.Real("rtol", &d->rtol, "relative tolerance", /*allow_zero=*/true);
  t.Real("max-regress", &d->max_regress, "allowed slowdown",
         /*allow_zero=*/false);
  t.Size("db", &d->db, "database size");
  t.Size("log-buffer", &d->log_buffer, "WAL ring", 1ULL << 30);
  t.Choice("engine", &d->engine, "shore-mt voltdb hyper", "engine");
  t.Choice("mode", &d->mode, "serial free", "host threading",
           {{"deterministic", "serial"}});
  t.List("engines", &d->engines, "shore-mt voltdb hyper", "engines");
  t.Custom("metric-rtol", "PREFIX=X", "per-prefix tolerance",
           [d](const std::string& spec, std::string* why) {
             const size_t eq = spec.rfind('=');
             double x = 0;
             if (eq == std::string::npos || eq == 0 ||
                 !ParseReal(spec.substr(eq + 1), &x)) {
               return *why = "want PREFIX=X", false;
             }
             d->metric_rtols.emplace_back(spec.substr(0, eq), x);
             return true;
           })
      .repeatable = true;
  t.Custom("ignore", "PREFIX", "skip a subtree",
           [d](const std::string& prefix, std::string*) {
             d->ignores.push_back(prefix);
             return true;
           })
      .repeatable = true;
  return t;
}

struct Outcome {
  bool ok;
  std::string error;
  Dests dests;
  bool help;
  std::vector<std::string> positional;
};

Outcome Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "tool");
  Outcome out;
  FlagTable t = MakeTable(&out.dests);
  out.ok = t.Parse(static_cast<int>(args.size()),
                   const_cast<char* const*>(args.data()), &out.error);
  out.help = t.help();
  out.positional = t.positional();
  return out;
}

/// The argument must be refused with an error naming its flag and
/// containing `reason`.
void ExpectRefused(const char* arg, const std::string& flag,
                   const std::string& reason = "") {
  const Outcome o = Parse({arg});
  EXPECT_FALSE(o.ok) << arg;
  EXPECT_NE(o.error.find(flag), std::string::npos)
      << arg << ": " << o.error;
  EXPECT_NE(o.error.find(reason), std::string::npos)
      << arg << ": " << o.error;
}

TEST(FlagTableTest, ParsesEveryKind) {
  const Outcome o = Parse(
      {"--json=out.json", "--csv", "--no-compilation",
       "--txns=18446744073709551615", "--workers=64", "--rtol=0",
       "--max-regress=.5", "--db=2.5MB", "--log-buffer=1GB",
       "--engine=hyper", "--mode=free", "--engines=hyper,,shore-mt",
       "in.json"});
  ASSERT_TRUE(o.ok) << o.error;
  EXPECT_EQ(o.dests.json, "out.json");
  EXPECT_TRUE(o.dests.csv);
  EXPECT_FALSE(o.dests.compilation);
  EXPECT_EQ(o.dests.txns, UINT64_MAX);
  EXPECT_EQ(o.dests.workers, 64);
  EXPECT_EQ(o.dests.rtol, 0.0);
  EXPECT_EQ(o.dests.max_regress, 0.5);
  EXPECT_EQ(o.dests.db, (5ULL << 20) / 2);
  EXPECT_EQ(o.dests.log_buffer, 1ULL << 30);
  EXPECT_EQ(o.dests.engine, "hyper");
  EXPECT_EQ(o.dests.mode, "free");
  EXPECT_EQ(o.dests.engines,
            (std::vector<std::string>{"hyper", "shore-mt"}));
  EXPECT_EQ(o.positional, std::vector<std::string>{"in.json"});
  EXPECT_FALSE(o.help);
}

TEST(FlagTableTest, OmittedFlagsKeepTheirDefaults) {
  const Outcome o = Parse({});
  ASSERT_TRUE(o.ok) << o.error;
  EXPECT_EQ(o.dests.txns, 6000u);
  EXPECT_EQ(o.dests.workers, 1);
  EXPECT_EQ(o.dests.engine, "voltdb");
  EXPECT_TRUE(o.dests.compilation);
}

TEST(FlagTableTest, RefusesMalformedIntegers) {
  for (const char* flag : {"--txns", "--workers"}) {
    for (const char* value : {"abc", "12x", "-1", "+1", " 1", "1.5", "",
                              "18446744073709551616"}) {
      const std::string arg = std::string(flag) + "=" + value;
      ExpectRefused(arg.c_str(), flag, "want an unsigned integer");
    }
  }
}

TEST(FlagTableTest, RefusesOutOfRangeIntegers) {
  ExpectRefused("--workers=0", "--workers", "out of range 1..64");
  ExpectRefused("--workers=65", "--workers", "out of range 1..64");
  ExpectRefused("--workers=4294967297", "--workers", "out of range");
}

TEST(FlagTableTest, RefusesMalformedReals) {
  for (const char* arg : {"--rtol=abc", "--rtol=-1", "--rtol=0.1x",
                          "--rtol=nan", "--rtol=1e999", "--rtol="}) {
    ExpectRefused(arg, "--rtol", "want a number >= 0");
  }
  ExpectRefused("--max-regress=0", "--max-regress", "want a number > 0");
  ExpectRefused("--max-regress=x", "--max-regress", "want a number > 0");
}

TEST(FlagTableTest, RefusesMalformedSizes) {
  for (const char* arg : {"--db=abc", "--db=-5MB", "--db=10XB",
                          "--db=10MBextra", "--db=0", "--db=1e30GB",
                          "--db=inf"}) {
    ExpectRefused(arg, "--db", "want a size");
  }
  ExpectRefused("--log-buffer=2GB", "--log-buffer", "above 1GB");
}

TEST(FlagTableTest, RefusesUnknownChoicesAndNamesTheValidOnes) {
  ExpectRefused("--engine=typo", "--engine",
                "choices: shore-mt voltdb hyper");
  ExpectRefused("--engine=", "--engine", "choices:");
  ExpectRefused("--engines=hyper,typo", "--engines",
                "unknown 'typo'; choices: shore-mt voltdb hyper");
  ExpectRefused("--engines=,", "--engines", "empty list");
}

TEST(FlagTableTest, AliasesStoreTheCanonicalName) {
  const Outcome o = Parse({"--mode=deterministic"});
  ASSERT_TRUE(o.ok) << o.error;
  EXPECT_EQ(o.dests.mode, "serial");
}

TEST(FlagTableTest, RefusesShapeErrors) {
  ExpectRefused("--txns", "--txns", "needs a value (--txns=N)");
  ExpectRefused("--csv=1", "--csv", "takes no value");
  ExpectRefused("--json=", "--json", "empty value");
  ExpectRefused("--frobnicate=yes", "unknown flag: --frobnicate");
  const Outcome o = Parse({"a.json", "b.json"});
  EXPECT_FALSE(o.ok);
  EXPECT_NE(o.error.find("unexpected argument: b.json"), std::string::npos)
      << o.error;
}

TEST(FlagTableTest, RepeatableFlagsSeeEveryOccurrence) {
  const Outcome o = Parse({"--metric-rtol=window.misses=0.1",
                           "--ignore=host", "--metric-rtol=spans=0.2",
                           "--ignore=timeseries"});
  ASSERT_TRUE(o.ok) << o.error;
  ASSERT_EQ(o.dests.metric_rtols.size(), 2u);
  EXPECT_EQ(o.dests.metric_rtols[0].first, "window.misses");
  EXPECT_EQ(o.dests.metric_rtols[0].second, 0.1);
  EXPECT_EQ(o.dests.metric_rtols[1].first, "spans");
  EXPECT_EQ(o.dests.metric_rtols[1].second, 0.2);
  EXPECT_EQ(o.dests.ignores,
            (std::vector<std::string>{"host", "timeseries"}));
  ExpectRefused("--metric-rtol=spans", "--metric-rtol", "want PREFIX=X");
  ExpectRefused("--metric-rtol=spans=-1", "--metric-rtol");
}

TEST(FlagTableTest, LaterValuesOfOtherFlagsWin) {
  const Outcome o = Parse({"--txns=1", "--txns=2"});
  ASSERT_TRUE(o.ok) << o.error;
  EXPECT_EQ(o.dests.txns, 2u);
}

TEST(FlagTableTest, HelpIsRecognizedAnywhere) {
  for (const char* arg : {"--help", "-h"}) {
    const Outcome o = Parse({"--txns=5", arg});
    ASSERT_TRUE(o.ok) << o.error;
    EXPECT_TRUE(o.help) << arg;
  }
}

TEST(FlagTableTest, ParseOrExitReturnsTheExitCode) {
  Dests d;
  std::vector<const char*> bad = {"tool", "--txns=12x"};
  EXPECT_EQ(MakeTable(&d).ParseOrExit(2, const_cast<char**>(bad.data())),
            2);
  EXPECT_EQ(d.txns, 6000u);  // a refused value stores nothing
  std::vector<const char*> help = {"tool", "--help"};
  EXPECT_EQ(MakeTable(&d).ParseOrExit(2, const_cast<char**>(help.data())),
            0);
  std::vector<const char*> run = {"tool", "--txns=7"};
  EXPECT_EQ(MakeTable(&d).ParseOrExit(2, const_cast<char**>(run.data())),
            std::nullopt);
  EXPECT_EQ(d.txns, 7u);
}

TEST(FlagTableTest, UsageNamesEveryFlagItsDefaultAndChoices) {
  Dests d;
  const std::string usage = MakeTable(&d).Usage();
  EXPECT_EQ(usage.rfind("usage: tool [flags] FILE\n", 0), 0u) << usage;
  for (const char* text :
       {"--json=FILE", "--csv", "--no-compilation", "--txns=N",
        "[default=6000]", "--workers=N", "(1..64)", "[default=1]",
        "--rtol=X", "[default=0.02]", "--max-regress=X", "--db=SIZE",
        "[default=10MB]", "--log-buffer=SIZE", "[default=64KB]",
        "--engine=NAME", "[default=voltdb]",
        "choices: shore-mt voltdb hyper", "--mode=NAME",
        "choices: serial free", "--engines=A,B,...", "[default=hyper]",
        "--metric-rtol=PREFIX=X", "--ignore=PREFIX", "(repeatable)"}) {
    EXPECT_NE(usage.find(text), std::string::npos) << text << "\n" << usage;
  }
  // Every line fits in 80 columns.
  for (size_t pos = 0; (pos = usage.find('\n', pos)) != std::string::npos;
       ++pos) {
    const size_t next = usage.find('\n', pos + 1);
    if (next == std::string::npos) break;
    EXPECT_LE(next - pos - 1, 80u) << usage.substr(pos + 1, next - pos - 1);
  }
}

TEST(ParseSizeTest, RejectsNonFiniteAndOverflowingSizes) {
  EXPECT_EQ(ParseSize("inf"), 0u);
  EXPECT_EQ(ParseSize("nan"), 0u);
  EXPECT_EQ(ParseSize("1e30GB"), 0u);
  EXPECT_EQ(ParseSize(" 5MB"), 0u);
  EXPECT_EQ(ParseSize(".5MB"), (1ULL << 20) / 2);
}

}  // namespace
}  // namespace imoltp::tools
