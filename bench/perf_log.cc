// Log-layer micro-benchmarks (google-benchmark): host cost of
// txn::LogManager::Append for the three record shapes TPC-B produces,
// and the heap bytes the stable log retains per record.
//
//   build/bench/perf_log --benchmark_filter=BM_LogAppend
//
// ns per record is the benchmark time; `retained_B` is the heap growth
// (glibc mallinfo2: in-use arena bytes plus mmapped blocks) of one
// fresh log after kRetainRecords appends, divided by that count.

#include <benchmark/benchmark.h>

#include <malloc.h>

#include <cstdint>
#include <memory>

#include "mcsim/machine.h"
#include "txn/log_manager.h"

namespace imoltp::txn {
namespace {

enum class Shape { kUpdate, kInsert, kCommit };

// Same order as one worker's log in a tpcb-hyper run (160,000 records).
constexpr uint64_t kRetainRecords = 100000;

// TPC-B shapes: an 8-byte balance column, a 48-byte history row with
// an 8-byte key, a bare commit.
uint64_t AppendOne(LogManager* log, mcsim::CoreSim* core, Shape shape,
                   uint64_t i) {
  static const uint8_t kRow[48] = {1};
  switch (shape) {
    case Shape::kUpdate:
      return log->LogUpdate(core, i, 2, i, 1, &i, sizeof(i));
    case Shape::kInsert:
      return log->Append(core, LogOp::kInsert, i, 3, i, -1, kRow,
                         sizeof(kRow), &i, sizeof(i));
    case Shape::kCommit:
      return log->LogCommit(core, i);
  }
  return 0;
}

size_t HeapBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

double RetainedBytesPerRecord(Shape shape) {
  mcsim::MachineSim machine{mcsim::MachineConfig{}};
  auto log = std::make_unique<LogManager>();
  const size_t before = HeapBytes();
  for (uint64_t i = 0; i < kRetainRecords; ++i) {
    AppendOne(log.get(), &machine.core(0), shape, i);
  }
  return static_cast<double>(HeapBytes() - before) / kRetainRecords;
}

void BM_LogAppend(benchmark::State& state, Shape shape) {
  mcsim::MachineSim machine{mcsim::MachineConfig{}};
  mcsim::CoreSim* core = &machine.core(0);
  LogManager log;
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t lsn = AppendOne(&log, core, shape, i);
    benchmark::DoNotOptimize(lsn);
    if (++i % kRetainRecords == 0) {
      // Keep the retained log bounded, outside the timed region.
      state.PauseTiming();
      log.Truncate(lsn + 1);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["retained_B"] = RetainedBytesPerRecord(shape);
}
BENCHMARK_CAPTURE(BM_LogAppend, update, Shape::kUpdate);
BENCHMARK_CAPTURE(BM_LogAppend, insert, Shape::kInsert);
BENCHMARK_CAPTURE(BM_LogAppend, commit, Shape::kCommit);

}  // namespace
}  // namespace imoltp::txn

BENCHMARK_MAIN();
