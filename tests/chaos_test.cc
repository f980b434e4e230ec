// End-to-end robustness acceptance tests: seeded crash → recover →
// verify cycles hold the workload invariants on every engine, the fault
// schedule (and everything downstream) is bit-identical across
// same-seed runs in deterministic mode, and retry-with-backoff strictly
// lifts the committed-transaction count under an injected lock-conflict
// storm. See docs/robustness.md.

#include <gtest/gtest.h>

#include <string>

#include "fault/chaos.h"

namespace imoltp::fault {
namespace {

using engine::EngineKind;

constexpr EngineKind kAllEngines[] = {
    EngineKind::kShoreMt, EngineKind::kDbmsD, EngineKind::kVoltDb,
    EngineKind::kHyPer, EngineKind::kDbmsM};

/// Small scales keep one cycle in CI-friendly time while still
/// committing enough transactions for a mid-run crash to be
/// interesting.
ChaosOptions FastOptions(EngineKind kind, const std::string& workload) {
  ChaosOptions opt;
  opt.engine = kind;
  opt.workload = workload;
  opt.cycles = 1;
  opt.workers = 2;
  opt.warmup_txns = 20;
  opt.measure_txns = 150;
  opt.seed = 11;
  return opt;
}

std::string Violations(const InvariantReport& rep) {
  std::string all;
  for (const std::string& v : rep.violations) all += v + "\n";
  return all;
}

class ChaosEngineTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ChaosEngineTest, TpcbSurvivesMidCommitCrash) {
  ChaosOptions opt = FastOptions(GetParam(), "tpcb");
  opt.cycles = 2;
  opt.points.push_back({kCrashMidCommit, {0.0, 90}});
  const auto result = RunChaos(opt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok);
  ASSERT_EQ(result->cycles.size(), 2u);
  for (const ChaosCycleResult& c : result->cycles) {
    EXPECT_EQ(c.crash_point, kCrashMidCommit) << "cycle " << c.cycle;
    EXPECT_TRUE(c.recovered.ok)
        << "cycle " << c.cycle << ":\n" << Violations(c.recovered);
  }
}

TEST_P(ChaosEngineTest, TpccSurvivesPostCommitCrashAndTornTail) {
  ChaosOptions opt = FastOptions(GetParam(), "tpcc");
  opt.points.push_back({kCrashPostCommit, {0.0, 120}});
  opt.points.push_back({kLogTruncateTail, {0.0, 1}});
  const auto result = RunChaos(opt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok);
  ASSERT_EQ(result->cycles.size(), 1u);
  const ChaosCycleResult& c = result->cycles[0];
  EXPECT_EQ(c.crash_point, kCrashPostCommit);
  EXPECT_TRUE(c.recovered.ok) << Violations(c.recovered);
}

TEST_P(ChaosEngineTest, FaultFreeCycleAuditsLiveAndRecovered) {
  // No points armed: the run completes, and both the live database and
  // the log-recovered one must pass the invariant audit.
  const auto result = RunChaos(FastOptions(GetParam(), "tpcb"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok);
  const ChaosCycleResult& c = result->cycles[0];
  EXPECT_TRUE(c.crash_point.empty());
  EXPECT_TRUE(c.recovered.ok) << Violations(c.recovered);
  ASSERT_TRUE(c.live_checked);
  EXPECT_TRUE(c.live.ok) << Violations(c.live);
  EXPECT_GT(c.committed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ChaosEngineTest, ::testing::ValuesIn(kAllEngines),
    [](const ::testing::TestParamInfo<EngineKind>& i) {
      std::string n = engine::EngineKindName(i.param);
      for (char& c : n) {
        if (c == '-' || c == ' ') c = '_';
      }
      return n;
    });

TEST(ChaosDeterminismTest, SameSeedSameFingerprint) {
  // The acceptance bar: two campaigns with identical options in
  // kSerial mode match bit for bit — same crash schedule, same
  // surviving log, same invariant checksums, same fingerprints.
  ChaosOptions opt = FastOptions(EngineKind::kShoreMt, "tpcb");
  opt.cycles = 2;
  opt.points.push_back({kCrashMidCommit, {0.0, 110}});
  opt.points.push_back({kLogTruncateTail, {0.0, 1}});
  const auto a = RunChaos(opt);
  const auto b = RunChaos(opt);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(a->ok);
  EXPECT_EQ(a->fingerprint, b->fingerprint);
  ASSERT_EQ(a->cycles.size(), b->cycles.size());
  for (size_t i = 0; i < a->cycles.size(); ++i) {
    EXPECT_EQ(a->cycles[i].fingerprint, b->cycles[i].fingerprint);
    EXPECT_EQ(a->cycles[i].committed, b->cycles[i].committed);
    EXPECT_EQ(a->cycles[i].crash_point, b->cycles[i].crash_point);
    EXPECT_EQ(a->cycles[i].dropped_records,
              b->cycles[i].dropped_records);
  }
}

TEST(ChaosRecoveryTest, NoCheckpointCountsRecordsActuallyRedone) {
  // Without checkpoints recovery REDOes the whole log, but only the
  // committed transactions' data records: commit markers are not
  // redone. A crash-free, abort-free cycle logs one commit record per
  // transaction the options asked for, so everything else in the log
  // is a committed data record.
  const ChaosOptions opt = FastOptions(EngineKind::kShoreMt, "tpcb");
  const auto result = RunChaos(opt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ChaosCycleResult& c = result->cycles[0];
  ASSERT_TRUE(c.crash_point.empty());
  ASSERT_EQ(c.breakdown.total, 0u);
  EXPECT_FALSE(c.recovery.used_checkpoint);
  const uint64_t commit_records =
      static_cast<uint64_t>(opt.workers) *
      (opt.warmup_txns + opt.measure_txns);
  EXPECT_LT(c.recovery.replayed_records, c.log_records);
  EXPECT_EQ(c.recovery.replayed_records, c.log_records - commit_records);
}

TEST(ChaosRetryTest, RetryLiftsCommitsUnderConflictStorm) {
  // An injected lock-conflict storm aborts a third of acquisitions.
  // Without retry those transactions are lost; with bounded-backoff
  // retry most recover, so the committed count must strictly exceed
  // the no-retry baseline (the ctest-enforced acceptance criterion).
  ChaosOptions base = FastOptions(EngineKind::kShoreMt, "tpcb");
  base.seed = 5;
  base.points.push_back({kLockConflict, {0.3, 0}});

  const auto no_retry = RunChaos(base);
  ASSERT_TRUE(no_retry.ok()) << no_retry.status().ToString();
  EXPECT_TRUE(no_retry->ok);

  ChaosOptions with_retry = base;
  with_retry.retry.max_attempts = 4;
  with_retry.retry.backoff_cycles = 500;
  const auto retried = RunChaos(with_retry);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE(retried->ok);

  const ChaosCycleResult& plain = no_retry->cycles[0];
  const ChaosCycleResult& lifted = retried->cycles[0];
  EXPECT_GT(lifted.committed, plain.committed)
      << "retry/backoff must strictly beat the no-retry baseline";
  EXPECT_GT(lifted.retry.retries, 0u);
  EXPECT_GT(lifted.retry.retry_successes, 0u);
  EXPECT_EQ(plain.retry.retries, 0u);
  // The storm's aborts are classified as injected faults, not real
  // lock conflicts (the injector, not a second holder, caused them).
  EXPECT_GT(plain.breakdown.injected_fault, 0u);
}

TEST(ChaosOptionsTest, RejectsBadOptions) {
  ChaosOptions opt;
  opt.workload = "micro";
  EXPECT_FALSE(RunChaos(opt).ok());

  opt = ChaosOptions();
  opt.cycles = 0;
  EXPECT_FALSE(RunChaos(opt).ok());

  opt = ChaosOptions();
  opt.workload = "tpcc";
  opt.workers = 3;
  opt.tpcc_warehouses = 4;  // not divisible by workers
  EXPECT_FALSE(RunChaos(opt).ok());
}

TEST(ChaosJsonTest, ReportSerializes) {
  ChaosOptions opt = FastOptions(EngineKind::kVoltDb, "tpcb");
  opt.points.push_back({kCrashMidCommit, {0.0, 70}});
  const auto result = RunChaos(opt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string json = ChaosReportToJson(opt, *result);
  EXPECT_NE(json.find("\"schema\":\"imoltp.chaos.v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\""), std::string::npos);
  EXPECT_NE(json.find("\"crash_point\""), std::string::npos);
  EXPECT_NE(json.find("crash.mid_commit"), std::string::npos);
  // v2: checkpoint/recovery accounting is present even when
  // checkpointing is off (zeros), so consumers see a stable shape.
  EXPECT_NE(json.find("\"invariant_only\""), std::string::npos);
  EXPECT_NE(json.find("\"checkpoint\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery\""), std::string::npos);
  EXPECT_NE(json.find("\"replayed_records\""), std::string::npos);
}

}  // namespace
}  // namespace imoltp::fault
