#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/report_json.h"
#include "tools/imoltp_cli.h"

namespace imoltp::tools {
namespace {

// ----------------------------------------------------------- ParseSize

TEST(ParseSizeTest, AcceptsSuffixedSizes) {
  EXPECT_EQ(ParseSize("10MB"), 10ULL << 20);
  EXPECT_EQ(ParseSize("1GB"), 1ULL << 30);
  EXPECT_EQ(ParseSize("512KB"), 512ULL << 10);
  EXPECT_EQ(ParseSize("100gb"), 100ULL << 30);  // case-insensitive
  EXPECT_EQ(ParseSize("2.5MB"), (5ULL << 20) / 2);
}

TEST(ParseSizeTest, BareNumberMeansMegabytes) {
  EXPECT_EQ(ParseSize("16"), 16ULL << 20);
}

TEST(ParseSizeTest, RejectsGarbage) {
  EXPECT_EQ(ParseSize("abc"), 0u);
  EXPECT_EQ(ParseSize(""), 0u);
  EXPECT_EQ(ParseSize(nullptr), 0u);
  EXPECT_EQ(ParseSize("0MB"), 0u);
  EXPECT_EQ(ParseSize("-5MB"), 0u);
  EXPECT_EQ(ParseSize("10XB"), 0u);
  EXPECT_EQ(ParseSize("10MBextra"), 0u);
  EXPECT_EQ(ParseSize("MB"), 0u);
}

// ----------------------------------------------------- ParseCommandLine

std::pair<bool, std::string> Parse(std::vector<const char*> args,
                                   Flags* flags) {
  args.insert(args.begin(), "imoltp_run");
  std::string error;
  const bool ok =
      ParseCommandLine(static_cast<int>(args.size()),
                       const_cast<char* const*>(args.data()), flags,
                       &error);
  return {ok, error};
}

TEST(ParseCommandLineTest, ParsesFullFlagSet) {
  Flags flags;
  auto [ok, error] = Parse(
      {"--engine=hyper", "--workload=tpcc", "--db=1GB", "--rows=10",
       "--warehouses=8", "--workers=4", "--txns=500", "--warmup=100",
       "--index=btree", "--no-compilation", "--seed=9", "--csv-header",
       "--json=out.json"},
      &flags);
  EXPECT_TRUE(ok) << error;
  EXPECT_EQ(flags.engine, "hyper");
  EXPECT_EQ(flags.workload, "tpcc");
  EXPECT_EQ(flags.db_bytes, 1ULL << 30);
  EXPECT_EQ(flags.rows, 10);
  EXPECT_EQ(flags.warehouses, 8);
  EXPECT_EQ(flags.workers, 4);
  EXPECT_EQ(flags.txns, 500u);
  EXPECT_EQ(flags.warmup, 100u);
  EXPECT_EQ(flags.index, "btree");
  EXPECT_FALSE(flags.compilation);
  EXPECT_EQ(flags.seed, 9u);
  EXPECT_TRUE(flags.csv);
  EXPECT_TRUE(flags.csv_header);
  EXPECT_EQ(flags.json_path, "out.json");
}

TEST(ParseCommandLineTest, UnknownFlagFails) {
  Flags flags;
  auto [ok, error] = Parse({"--frobnicate=yes"}, &flags);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("--frobnicate"), std::string::npos);
}

TEST(ParseCommandLineTest, BadSizeFails) {
  Flags flags;
  auto [ok, error] = Parse({"--db=abc"}, &flags);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("--db"), std::string::npos);
}

TEST(ParseCommandLineTest, NonNumericWorkersFails) {
  Flags flags;
  auto [ok, error] = Parse({"--workers=lots"}, &flags);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("--workers"), std::string::npos);
}

TEST(ParseCommandLineTest, EmptyJsonPathFails) {
  Flags flags;
  auto [ok, error] = Parse({"--json="}, &flags);
  EXPECT_FALSE(ok);
}

TEST(ParseCommandLineTest, ParsesSamplingFlags) {
  Flags flags;
  auto [ok, error] =
      Parse({"--sample-every=5000", "--timeline-out=run.json"}, &flags);
  EXPECT_TRUE(ok) << error;
  EXPECT_EQ(flags.sample_every, 5000u);
  EXPECT_EQ(flags.timeline_out, "run.json");
}

TEST(ParseCommandLineTest, RejectsBadSampleEvery) {
  // Zero means "off" and is spelled by omitting the flag; a malformed
  // period must not silently disable sampling.
  for (const char* arg :
       {"--sample-every=0", "--sample-every=abc", "--sample-every=",
        "--sample-every=5k"}) {
    Flags flags;
    auto [ok, error] = Parse({arg}, &flags);
    EXPECT_FALSE(ok) << arg;
    EXPECT_NE(error.find("--sample-every"), std::string::npos) << arg;
  }
}

TEST(ParseCommandLineTest, RefusesMalformedAndOutOfRangeValues) {
  // Each would otherwise run a different experiment than the one asked
  // for: a count of 0 or 12, a wrapped seed, a default index, or a
  // worker count no other tool accepts.
  struct Case {
    const char* arg;
    const char* want;
  };
  for (const Case& c :
       {Case{"--txns=abc", "--txns"}, Case{"--txns=12x", "--txns"},
        Case{"--warmup=-1", "--warmup"}, Case{"--seed=-1", "--seed"},
        Case{"--workers=0", "--workers"},
        Case{"--workers=65", "out of range 1..64"},
        Case{"--warehouses=4097", "out of range 1..4096"},
        Case{"--engine=typo", "choices: shore-mt dbms-d voltdb hyper"},
        Case{"--workload=tpce", "choices: micro"},
        Case{"--index=bogus", "choices: hash btree"},
        Case{"--mode=bogus", "choices: serial free"},
        Case{"--chaos-points=no.such=0.5", "unknown fault point"},
        Case{"--csv=yes", "--csv takes no value"}}) {
    Flags flags;
    auto [ok, error] = Parse({c.arg}, &flags);
    EXPECT_FALSE(ok) << c.arg;
    EXPECT_NE(error.find(c.want), std::string::npos)
        << c.arg << ": " << error;
  }
}

TEST(ParseCommandLineTest, KeepsTheAliases) {
  Flags flags;
  auto [ok, error] = Parse({"--mode=deterministic", "--list"}, &flags);
  ASSERT_TRUE(ok) << error;
  EXPECT_EQ(flags.mode, "serial");
  EXPECT_TRUE(flags.help);
  for (const char* help : {"--help", "-h"}) {
    Flags other;
    ASSERT_TRUE(Parse({help}, &other).first) << help;
    EXPECT_TRUE(other.help) << help;
  }
}

TEST(ParseCommandLineTest, EmptyTimelineOutFails) {
  Flags flags;
  auto [ok, error] = Parse({"--timeline-out="}, &flags);
  EXPECT_FALSE(ok);
}

TEST(BuildExperimentTest, SamplerPeriodFollowsFlags) {
  // Explicit period wins; a timeline request defaults the period on;
  // neither leaves sampling off.
  struct Case {
    uint64_t sample_every;
    const char* timeline_out;
    uint64_t want;
  };
  for (const Case& c : {Case{5000, "t.json", 5000},
                        Case{0, "t.json", 20000},
                        Case{5000, "", 5000},
                        Case{0, "", 0}}) {
    Flags flags;
    flags.sample_every = c.sample_every;
    flags.timeline_out = c.timeline_out;
    core::ExperimentConfig cfg;
    std::unique_ptr<core::Workload> workload;
    std::string error;
    ASSERT_TRUE(BuildExperiment(flags, &cfg, &workload, &error))
        << error;
    EXPECT_EQ(cfg.sampler.every_cycles, c.want)
        << "sample_every=" << c.sample_every << " timeline_out='"
        << c.timeline_out << "'";
  }
}

TEST(BuildExperimentTest, ModeDefaultsToSerialAndKeepsTheOldAlias) {
  std::unique_ptr<core::Workload> workload;
  std::string error;
  Flags flags;
  core::ExperimentConfig cfg;
  cfg.parallel_mode = core::ParallelMode::kFree;
  ASSERT_TRUE(BuildExperiment(flags, &cfg, &workload, &error)) << error;
  EXPECT_EQ(cfg.parallel_mode, core::ParallelMode::kSerial);

  // Scripts written against the removed threaded replay of kSerial
  // still run, as kSerial.
  flags.mode = "deterministic";
  cfg.parallel_mode = core::ParallelMode::kFree;
  ASSERT_TRUE(BuildExperiment(flags, &cfg, &workload, &error)) << error;
  EXPECT_STREQ(core::ParallelModeName(cfg.parallel_mode), "serial");

  flags.mode = "bogus";
  EXPECT_FALSE(BuildExperiment(flags, &cfg, &workload, &error));
  EXPECT_NE(error.find("(choices: serial free)"), std::string::npos)
      << error;
}

TEST(ParseEngineTest, AllFiveEnginesParse) {
  engine::EngineKind kind;
  for (const char* name :
       {"shore-mt", "dbms-d", "voltdb", "hyper", "dbms-m"}) {
    EXPECT_TRUE(ParseEngine(name, &kind)) << name;
  }
  EXPECT_FALSE(ParseEngine("oracle", &kind));
}

// ----------------------------------------------- CSV <-> JSON parity

std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> cells;
  size_t start = 0;
  while (true) {
    const size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      cells.push_back(line.substr(start));
      break;
    }
    cells.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return cells;
}

// Every CSV column must exist in the JSON report at its mapped path
// with the same value — this is the test that keeps the two output
// formats from silently drifting apart.
TEST(CsvJsonParityTest, EveryCsvFieldHasAMatchingJsonPath) {
  Flags flags;
  flags.engine = "voltdb";
  flags.workload = "micro";
  flags.db_bytes = 10ULL << 20;
  flags.rows = 3;
  flags.workers = 2;

  mcsim::WindowReport report;
  report.num_workers = 2;
  report.ipc = 1.2345;
  report.instructions_per_txn = 4567.8;
  report.cycles_per_txn = 9876.5;
  for (int i = 0; i < 6; ++i) {
    report.stalls_per_kinstr.stalls[i] = 10.0 * (i + 1) + 0.25;
  }

  obs::RunInfo info;
  info.engine = flags.engine;
  info.workload = flags.workload;
  info.db_bytes = flags.db_bytes;
  info.rows = flags.rows;
  info.workers = flags.workers;
  const std::string json =
      obs::RunReportToJson(info, report, mcsim::CycleModelParams{},
                           /*latency=*/nullptr, /*spans=*/nullptr);
  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  const std::vector<std::string> header = SplitCsv(CsvHeader());
  const std::vector<std::string> row = SplitCsv(CsvRow(flags, report));
  ASSERT_EQ(header.size(), static_cast<size_t>(kNumCsvFields));
  ASSERT_EQ(row.size(), static_cast<size_t>(kNumCsvFields));

  for (int i = 0; i < kNumCsvFields; ++i) {
    SCOPED_TRACE(kCsvFields[i].name);
    EXPECT_EQ(header[i], kCsvFields[i].name);
    const obs::JsonValue* node =
        doc.value().FindPath(kCsvFields[i].json_path);
    ASSERT_NE(node, nullptr)
        << "CSV column " << kCsvFields[i].name
        << " has no JSON counterpart at " << kCsvFields[i].json_path;
    if (node->is_string()) {
      EXPECT_EQ(row[i], node->string);
    } else {
      ASSERT_TRUE(node->is_number());
      const double csv_value = std::strtod(row[i].c_str(), nullptr);
      // CSV rounds to fixed decimals; 0.5 absolute covers every format.
      EXPECT_NEAR(csv_value, node->number, 0.5);
    }
  }
}

}  // namespace
}  // namespace imoltp::tools
