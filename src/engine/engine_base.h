#ifndef IMOLTP_ENGINE_ENGINE_BASE_H_
#define IMOLTP_ENGINE_ENGINE_BASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/engine.h"
#include "engine/profiles.h"
#include "storage/buffer_pool.h"
#include "storage/disk_heap_file.h"
#include "txn/checkpoint.h"
#include "txn/log_manager.h"

namespace imoltp::engine {

/// Shared machinery for the engine archetypes: table slices (one per
/// partition for the partitioned engines, one total otherwise), bulk
/// population, code-region instantiation, and per-worker logging.
class EngineBase : public Engine {
 public:
  EngineBase(mcsim::MachineSim* machine, const EngineOptions& options);
  ~EngineBase() override = default;

  mcsim::MachineSim* machine() override { return machine_; }
  obs::SpanCollector* span_collector() override { return &spans_; }

  Status CreateDatabase(const std::vector<TableDef>& defs) override;
  std::vector<txn::LogRecord> StableLog() const override;
  std::vector<txn::LogRecord> FlushedLog() const override;
  void CheckpointTick(int worker) override;
  Status Recover(const std::vector<txn::CheckpointImage>& device,
                 const std::vector<txn::LogRecord>& log,
                 uint64_t log_truncation_lsn,
                 txn::RecoveryStats* stats) override;
  const txn::CheckpointManager* checkpoints() const override {
    return ckpt_.get();
  }
  uint64_t LogTruncationLsn() const override;
  uint64_t AppendedLogRecords() const override;

 protected:
  /// One partition's share of one table. In-memory engines fill `mem`;
  /// disk engines fill `disk` (always a single slice).
  struct Slice {
    std::unique_ptr<storage::Table> mem;
    std::unique_ptr<storage::DiskHeapFile> disk;
    std::unique_ptr<index::Index> primary;
    std::vector<std::unique_ptr<index::Index>> secondaries;
    uint64_t first_global_row = 0;
    uint64_t num_initial_rows = 0;
    /// Disk engines: initial global row r → heap RowId.
    std::vector<storage::RowId> rowid_of;
    /// Post-population index mutations (checkpoint key journal;
    /// indexes expose no key iteration, so checkpoints carry this to
    /// rebuild keys whose inserts were truncated out of the log).
    /// Heap-allocated mutex keeps Slice movable; only used when
    /// checkpointing is enabled.
    std::vector<txn::CheckpointJournalEntry> journal;
    std::unique_ptr<std::mutex> journal_mu;
  };

  struct TableRt {
    TableDef def;
    std::vector<Slice> slices;
  };

  /// How many slices this engine splits tables into (partitioned
  /// engines: one per worker; others: 1).
  virtual int num_slices() const { return 1; }

  /// True for the disk-based archetypes (rows in slotted pages behind
  /// the buffer pool).
  virtual bool disk_based() const { return false; }

  /// Hook: engines may pre-create code regions after the database is
  /// loaded (compiled engines create per-transaction-type regions lazily
  /// in Execute instead).
  virtual void OnDatabaseReady() {}

  mcsim::CodeRegion DefineRegion(const RegionSpec& spec);

  /// Streams all index paths and rows once after population (steady-state
  /// cache warm-up; see CreateDatabase).
  void WarmCaches();

  void Exec(mcsim::CoreSim* core, const mcsim::CodeRegion& region) const {
    core->ExecuteRegion(region);
  }

  index::IndexKind PrimaryIndexKind(const TableDef& def) const;

  /// Default key derivation for initial rows when TableDef::key_of is
  /// unset: the global row id, encoded per key width.
  static index::Key DefaultKeyOf(const storage::Schema& schema,
                                 storage::RowId r, uint64_t seed);
  static index::Key KeyForRow(const TableDef& def, storage::RowId r);

  /// Per-engine default index kind.
  virtual index::IndexKind default_index_kind(
      const TableDef& def) const = 0;

  /// Storage-agnostic row operations on a slice (disk heap or memory
  /// table), used by recovery replay and the engines' undo paths.
  bool SliceRead(mcsim::CoreSim* core, Slice& slice, storage::RowId row,
                 uint8_t* out);
  bool SliceWriteColumn(mcsim::CoreSim* core, Slice& slice,
                        storage::RowId row, uint32_t column,
                        const void* value, const storage::Schema& schema);
  void SliceWriteRow(mcsim::CoreSim* core, Slice& slice,
                     storage::RowId row, const uint8_t* image,
                     const storage::Schema& schema);
  storage::RowId SliceAppend(mcsim::CoreSim* core, Slice& slice,
                             const uint8_t* row);
  bool SliceDelete(mcsim::CoreSim* core, Slice& slice,
                   storage::RowId row);
  /// Recovery placement: puts `image` at exactly `row` (RowIds in log
  /// records and checkpoint pages are physical positions; replayed rows
  /// must land where the live run put them). `present == false`
  /// restores the row as deleted/absent.
  void SliceRestore(mcsim::CoreSim* core, Slice& slice,
                    storage::RowId row, const uint8_t* image,
                    bool present);

  /// Per-transaction undo record (before-images / structural inverses)
  /// for engines that modify state in place before commit.
  struct UndoEntry {
    enum class Kind { kColumnImage, kInsertedRow, kDeletedRow };
    Kind kind;
    int table;
    int slice;
    storage::RowId row;
    uint32_t column = 0;
    std::vector<uint8_t> image;  // before-image (column or full row)
    index::Key key;
  };

  /// Rolls a failed transaction back: applies `undo` in reverse order.
  /// When fuzzy checkpointing is on and the engine logs physically,
  /// pass the worker's log + txn id: every undo action then emits a
  /// redo-only compensation record (CLR) so recovery can repair
  /// checkpoint pages that captured the aborted transaction's writes.
  void ApplyUndo(mcsim::CoreSim* core, std::vector<UndoEntry>& undo,
                 txn::LogManager* log = nullptr, uint64_t txn_id = 0);

  /// Journaled primary-index mutation (records a checkpoint journal
  /// entry when checkpointing is enabled).
  Status PrimaryInsert(mcsim::CoreSim* core, Slice& slice,
                       const index::Key& key, storage::RowId rid);
  bool PrimaryRemove(mcsim::CoreSim* core, Slice& slice,
                     const index::Key& key);

  /// Secondary-index maintenance from a row image (journaled).
  void InsertSecondaries(mcsim::CoreSim* core, TableRt& rt, Slice& slice,
                         const uint8_t* row, storage::RowId rid);
  void RemoveSecondaries(mcsim::CoreSim* core, TableRt& rt, Slice& slice,
                         const uint8_t* row);

  /// True while checkpointing is active: engines attach before-images
  /// to their physical log records (recovery needs them to roll back
  /// losers whose writes a fuzzy checkpoint captured).
  bool ckpt_logging() const { return ckpt_ != nullptr; }

  /// False for engines whose log carries no physical records (VoltDB
  /// command logging): CLRs and loser undo do not apply.
  virtual bool logs_physical() const { return true; }

  /// False for engines that stage updates privately until commit
  /// (MVCC): a loser's kUpdate never reached the table, so recovery
  /// must not write its before-image (it would clobber committed
  /// values).
  virtual bool updates_in_place() const { return true; }

  /// Fault-point helpers over options_.fault_injector (null ⇒ never).
  bool FaultFires(const char* point) {
    return options_.fault_injector != nullptr &&
           options_.fault_injector->Fires(point);
  }
  /// Crash-class point: latches crash_pending on the injector so the
  /// experiment loop halts. The engine returns Aborted — a crashed
  /// process does no further work in this transaction.
  bool FaultCrash(const char* point) {
    return options_.fault_injector != nullptr &&
           options_.fault_injector->FireCrash(point);
  }

  mcsim::MachineSim* machine_;
  EngineOptions options_;
  obs::SpanCollector spans_;
  std::vector<TableRt> tables_;
  std::unique_ptr<storage::BufferPool> bufferpool_;  // disk engines
  std::vector<std::unique_ptr<txn::LogManager>> logs_;  // per worker
  uint32_t next_file_id_ = 1;

  /// Checkpoint state (null when options_.checkpoint.enabled is false).
  std::unique_ptr<txn::CheckpointManager> ckpt_;
  /// Journaling starts once population is done: CreateDatabase's bulk
  /// index fill is regenerable and never journaled.
  bool journal_enabled_ = false;

 private:
  void JournalPrimary(Slice& slice, bool insert, const index::Key& key,
                      storage::RowId rid);
  void JournalSecondary(Slice& slice, int16_t target, bool insert,
                        const index::Key& key, storage::RowId rid);

  /// Capture worker `w`'s share of the pending checkpoint
  /// (partitioned engines: every table's slice w, atomically at a
  /// transaction boundary).
  void CapturePartition(int worker, txn::CheckpointImage* pending);
  /// Capture up to policy.pages_per_step pages of the fuzzy capture
  /// plan (non-partitioned engines, worker 0 ticks).
  void CaptureStep(mcsim::CoreSim* core, txn::CheckpointImage* pending);
  void CaptureSliceMeta(mcsim::CoreSim* core, int table, int slice_idx,
                        txn::CheckpointSliceImage* out);
  txn::CheckpointPage CapturePage(mcsim::CoreSim* core, int table,
                                  int slice_idx, uint64_t page_no);
  void BeginCheckpoint(int worker);
  void FinishCheckpoint(int worker);

  /// Restores one captured page onto the (freshly created) database.
  void RestorePage(mcsim::CoreSim* core, const txn::CheckpointPage& page,
                   txn::RecoveryStats* stats);

  /// ARIES REDO: applies committed transactions' records plus all CLRs
  /// in LSN order. Shared by full replay and checkpoint recovery;
  /// counts applied records into `stats` when given. Caller brackets
  /// with SetEnabled(false/true).
  Status RedoPass(const std::vector<txn::LogRecord>& log,
                  txn::RecoveryStats* stats);

  std::mutex ckpt_mu_;  // manager + capture plan + ticks
  uint64_t ticks_ = 0;  // worker-0 transaction ticks (cadence driver)
  /// Partitioned capture: which partitions contributed to the pending
  /// checkpoint.
  std::vector<uint8_t> slice_captured_;
  /// Fuzzy capture plan (non-partitioned): pages still to copy.
  struct CaptureUnit {
    int table;
    uint64_t page_no;
  };
  std::vector<CaptureUnit> capture_plan_;
  size_t capture_next_ = 0;
  /// Last completed checkpoint's truncation anchor. Workers truncate
  /// their own logs to it on their next tick — a worker's log is only
  /// ever touched from its own thread.
  std::atomic<uint64_t> truncate_anchor_{0};
};

}  // namespace imoltp::engine

#endif  // IMOLTP_ENGINE_ENGINE_BASE_H_
