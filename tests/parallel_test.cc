// Parallel experiment execution: the per-core work split of kSerial,
// the mode-independence of a single worker, and the accounting
// invariants of free-running mode (docs/parallel_execution.md).

#include <gtest/gtest.h>

#include <string>

#include "core/experiment.h"
#include "core/microbench.h"
#include "core/tpcc.h"

namespace imoltp::core {
namespace {

using engine::EngineKind;

ExperimentConfig ParallelConfig(EngineKind kind, ParallelMode mode) {
  ExperimentConfig cfg;
  cfg.engine = kind;
  cfg.num_workers = 4;
  cfg.warmup_txns = 100;
  cfg.measure_txns = 300;
  cfg.seed = 11;
  cfg.parallel_mode = mode;
  return cfg;
}

MicroConfig SmallMicro() {
  MicroConfig mcfg;
  mcfg.nominal_bytes = 4ULL << 20;
  mcfg.num_partitions = 4;
  return mcfg;
}

TEST(ParallelModeTest, SerialGivesEveryCoreItsShare) {
  MicroConfig mcfg = SmallMicro();
  MicroBenchmark wl(mcfg);
  ExperimentConfig cfg =
      ParallelConfig(EngineKind::kVoltDb, ParallelMode::kSerial);
  auto runner = ExperimentRunner::Create(cfg, &wl);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  ASSERT_TRUE((*runner)->Run(&wl).ok());

  // Every simulated core ran exactly its per-worker share.
  mcsim::MachineSim* machine = (*runner)->machine();
  ASSERT_EQ(machine->num_cores(), 4);
  for (int c = 0; c < machine->num_cores(); ++c) {
    EXPECT_EQ(machine->core(c).counters().transactions,
              cfg.warmup_txns + cfg.measure_txns)
        << "core " << c;
  }
  EXPECT_EQ((*runner)->latency_histogram().count(),
            cfg.measure_txns * static_cast<uint64_t>(cfg.num_workers));
}

TEST(ParallelModeTest, SingleWorkerIgnoresMode) {
  // One worker has nothing to parallelize: all modes take the serial
  // path and must agree bit-for-bit on retired work.
  MicroConfig mcfg;
  mcfg.nominal_bytes = 1ULL << 20;
  MicroBenchmark wl1(mcfg), wl2(mcfg);
  ExperimentConfig cfg =
      ParallelConfig(EngineKind::kHyPer, ParallelMode::kFree);
  cfg.num_workers = 1;
  const auto free_run = RunExperiment(cfg, &wl1);
  ASSERT_TRUE(free_run.ok());
  cfg.parallel_mode = ParallelMode::kSerial;
  const auto serial = RunExperiment(cfg, &wl2);
  ASSERT_TRUE(serial.ok());
  EXPECT_DOUBLE_EQ(free_run->instructions, serial->instructions);
  EXPECT_DOUBLE_EQ(free_run->transactions, serial->transactions);
}

TEST(ParallelModeTest, FreeHyPerTpccRegistersModulesInsideTheWindow) {
  // HyPer compiles each TPC-C procedure on first dispatch, so with a
  // two-transaction warm-up most compiled modules register inside the
  // measured phase, from whichever worker draws the procedure first,
  // while the other workers read the registry size around every
  // transaction. Under TSan (scripts/tsan.sh) this is the race check
  // for that read.
  core::TpccConfig tcfg;
  tcfg.warehouses = 4;
  tcfg.orders_per_district = 40;
  tcfg.num_partitions = 4;
  core::TpccBenchmark wl(tcfg);
  ExperimentConfig cfg = ParallelConfig(EngineKind::kHyPer,
                                        ParallelMode::kFree);
  cfg.warmup_txns = 2;
  cfg.measure_txns = 100;
  int modules_after_warmup = 0;
  cfg.hooks.post_warmup = [&](mcsim::MachineSim* machine) {
    modules_after_warmup = machine->modules().size();
    return Status::Ok();
  };
  auto runner = ExperimentRunner::Create(cfg, &wl);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  const auto report = (*runner)->Run(&wl);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const mcsim::ModuleRegistry& modules = (*runner)->machine()->modules();
  ASSERT_GT(modules.size(), modules_after_warmup);
  // A module registered mid-window is charged from a zero start: its
  // cycles reach the module×txn-type matrix.
  for (int m = modules_after_warmup; m < modules.size(); ++m) {
    const std::string& name = modules.info(m).name;
    double cycles = 0.0;
    for (const mcsim::TxnTypeShare& row : report->txn_module_matrix) {
      for (const mcsim::ModuleShare& share : row.modules) {
        if (share.name == name) cycles += share.cycles;
      }
    }
    EXPECT_GT(cycles, 0.0) << name;
  }
  EXPECT_EQ((*runner)->latency_histogram().count(),
            cfg.measure_txns * static_cast<uint64_t>(cfg.num_workers));
}

// Free-running mode gives up the deterministic interleaving but not the
// accounting: every transaction issued must land somewhere. These also
// serve as the TSan stress targets (scripts/tsan.sh).
class FreeModeStressTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(FreeModeStressTest, ConservesTransactionAccounting) {
  const EngineKind kind = GetParam();
  MicroConfig mcfg = SmallMicro();
  mcfg.read_write = true;  // exercise locks / version chains
  MicroBenchmark wl(mcfg);
  ExperimentConfig cfg = ParallelConfig(kind, ParallelMode::kFree);
  auto runner = ExperimentRunner::Create(cfg, &wl);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  const auto report = (*runner)->Run(&wl);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const uint64_t workers = static_cast<uint64_t>(cfg.num_workers);
  // One latency sample per measured transaction, commit or abort.
  EXPECT_EQ((*runner)->latency_histogram().count(),
            cfg.measure_txns * workers);
  // Every issued transaction retired on some core.
  EXPECT_EQ((*runner)->machine()->TotalCounters().transactions,
            (cfg.warmup_txns + cfg.measure_txns) * workers);
  // Aborts were counted, not lost: commits + aborts == issued.
  EXPECT_LE((*runner)->aborts(),
            (cfg.warmup_txns + cfg.measure_txns) * workers);
  EXPECT_DOUBLE_EQ(report->transactions,
                   static_cast<double>(cfg.measure_txns));
  EXPECT_GT(report->ipc, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, FreeModeStressTest,
    ::testing::Values(EngineKind::kShoreMt, EngineKind::kDbmsD,
                      EngineKind::kVoltDb, EngineKind::kHyPer,
                      EngineKind::kDbmsM),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      switch (info.param) {
        case EngineKind::kShoreMt: return "ShoreMt";
        case EngineKind::kDbmsD: return "DbmsD";
        case EngineKind::kVoltDb: return "VoltDb";
        case EngineKind::kHyPer: return "HyPer";
        case EngineKind::kDbmsM: return "DbmsM";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace imoltp::core
