#ifndef IMOLTP_PERFBENCH_LAYERS_H_
#define IMOLTP_PERFBENCH_LAYERS_H_

// Timing decorators for the benchmark's traced pass A. They time calls
// into each library layer from outside, through public interfaces only:
//
//   TimedWorkload   core::Workload    RunTransaction, the generators
//                                     handed out by Tables()
//   TimedEngine     engine::Engine    Execute
//   TimedTxnContext engine::TxnContext  index verbs (Probe, Scan,
//                                     ScanSecondary) and storage verbs
//                                     (Read, Update, Insert, Delete)
//
// Every decorator forwards to the object it wraps and allocates nothing
// on the heap, so a decorated run performs the same allocations as an
// undecorated one and (with ASLR off) simulates the same addresses.

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/workload.h"
#include "engine/engine.h"
#include "obs/histogram.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median cost of timing an empty interval with NowNs(): subtracted from
/// every sampled duration so sampled estimates do not charge the clock.
int64_t TimerOverheadNs();

/// Host-time accumulators of one decorated run. Nanosecond totals are
/// exact sums of timed calls except `rowgen_ns`, which is sampled.
struct LayerTimes {
  // core: workload generators during populate (sampled estimate).
  int64_t rowgen_ns = 0;
  uint64_t rowgen_calls = 0;
  uint64_t rowgen_sampled = 0;
  int64_t rowgen_sampled_ns = 0;

  // core: RunTransaction calls, and the harness gaps between
  // consecutive calls of one phase (warm-up or measurement).
  int64_t txn_ns = 0;
  uint64_t txns = 0;
  int64_t harness_ns = 0;
  imoltp::obs::LatencyHistogram measured_txn_ns;  // measured window only

  // engine: Execute calls (body included).
  int64_t execute_ns = 0;
  uint64_t execute_calls = 0;

  // index verbs.
  int64_t probe_ns = 0;
  uint64_t probes = 0;
  int64_t scan_ns = 0;
  uint64_t scans = 0;
  uint64_t scanned_rows = 0;

  // storage verbs.
  int64_t read_ns = 0;
  uint64_t reads = 0;
  int64_t write_ns = 0;
  uint64_t writes = 0;
};

/// Wraps the TxnContext an engine hands to a procedure body.
class TimedTxnContext final : public imoltp::engine::TxnContext {
 public:
  TimedTxnContext(imoltp::engine::TxnContext* inner, LayerTimes* times)
      : inner_(inner), times_(times) {}

  imoltp::Status Probe(int table, const imoltp::index::Key& key,
                       imoltp::storage::RowId* row) override;
  imoltp::Status Read(int table, imoltp::storage::RowId row,
                      uint8_t* out) override;
  imoltp::Status Update(int table, imoltp::storage::RowId row,
                        uint32_t column, const void* value) override;
  imoltp::Status Insert(int table, const uint8_t* row,
                        const imoltp::index::Key& key,
                        imoltp::storage::RowId* out_row) override;
  imoltp::Status Delete(int table, imoltp::storage::RowId row,
                        const imoltp::index::Key& key) override;
  imoltp::Status Scan(int table, const imoltp::index::Key& from,
                      uint64_t limit,
                      std::vector<imoltp::storage::RowId>* rows) override;
  imoltp::Status ScanSecondary(
      int table, int secondary, const imoltp::index::Key& from,
      uint64_t limit, std::vector<imoltp::storage::RowId>* rows) override;
  imoltp::mcsim::CoreSim* core() override { return inner_->core(); }

 private:
  imoltp::engine::TxnContext* inner_;
  LayerTimes* times_;
};

/// Wraps an engine: times Execute and hands the body a TimedTxnContext.
/// Every other call forwards unchanged.
class TimedEngine final : public imoltp::engine::Engine {
 public:
  explicit TimedEngine(LayerTimes* times) : times_(times) {}

  void Bind(imoltp::engine::Engine* inner) { inner_ = inner; }

  imoltp::engine::EngineKind kind() const override { return inner_->kind(); }
  imoltp::Status CreateDatabase(
      const std::vector<imoltp::engine::TableDef>& defs) override {
    return inner_->CreateDatabase(defs);
  }
  imoltp::Status Execute(
      int worker, const imoltp::engine::TxnRequest& request,
      const std::function<imoltp::Status(imoltp::engine::TxnContext&)>&
          body) override;
  imoltp::mcsim::MachineSim* machine() override { return inner_->machine(); }
  imoltp::obs::SpanCollector* span_collector() override {
    return inner_->span_collector();
  }
  std::vector<imoltp::txn::LogRecord> StableLog() const override {
    return inner_->StableLog();
  }
  std::vector<imoltp::txn::LogRecord> FlushedLog() const override {
    return inner_->FlushedLog();
  }
  imoltp::Status Replay(
      const std::vector<imoltp::txn::LogRecord>& log) override {
    return inner_->Replay(log);
  }
  void CheckpointTick(int worker) override { inner_->CheckpointTick(worker); }
  imoltp::Status Recover(
      const std::vector<imoltp::txn::CheckpointImage>& device,
      const std::vector<imoltp::txn::LogRecord>& log,
      uint64_t log_truncation_lsn,
      imoltp::txn::RecoveryStats* stats) override {
    return inner_->Recover(device, log, log_truncation_lsn, stats);
  }
  const imoltp::txn::CheckpointManager* checkpoints() const override {
    return inner_->checkpoints();
  }
  uint64_t LogTruncationLsn() const override {
    return inner_->LogTruncationLsn();
  }
  uint64_t AppendedLogRecords() const override {
    return inner_->AppendedLogRecords();
  }

 private:
  LayerTimes* times_;
  imoltp::engine::Engine* inner_ = nullptr;
};

/// Wraps a workload: times RunTransaction (passing the engine through a
/// TimedEngine) and, while populating, the row and key generators its
/// Tables() hands to the engine. One TimedWorkload may be populating at
/// a time: the generator hooks are process-wide function pointers.
class TimedWorkload final : public imoltp::core::Workload {
 public:
  TimedWorkload(imoltp::core::Workload* inner, LayerTimes* times)
      : inner_(inner), times_(times), engine_(times) {}
  ~TimedWorkload() override;

  TimedWorkload(const TimedWorkload&) = delete;
  TimedWorkload& operator=(const TimedWorkload&) = delete;

  const char* name() const override { return inner_->name(); }
  std::vector<imoltp::engine::TableDef> Tables() const override;
  imoltp::Status RunTransaction(imoltp::engine::Engine* engine, int worker,
                                imoltp::Rng* rng) override;
  int NumTransactionTypes() const override {
    return inner_->NumTransactionTypes();
  }
  const char* TransactionTypeName(int type) const override {
    return inner_->TransactionTypeName(type);
  }
  int LastTransactionType(int worker) const override {
    return inner_->LastTransactionType(worker);
  }

  /// Brackets the populate inside ExperimentRunner::Create: generator
  /// calls are timed only in between.
  void BeginPopulate();
  void EndPopulate();

  /// Marks the warm-up → measurement boundary (call from the
  /// post_warmup hook): the gap across it is not harness-loop time, and
  /// per-transaction host times are kept from here on.
  void BeginMeasurement();

 private:
  imoltp::core::Workload* inner_;
  LayerTimes* times_;
  TimedEngine engine_;
  int64_t last_exit_ns_ = 0;
  bool measuring_ = false;
};

}  // namespace perfbench

#endif  // IMOLTP_PERFBENCH_LAYERS_H_
