#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "fault/fault_injector.h"

#include "mcsim/machine.h"
#include "txn/lock_manager.h"
#include "txn/log_manager.h"
#include "txn/mvcc.h"
#include "txn/partition.h"

namespace imoltp::txn {
namespace {

mcsim::MachineConfig NoTlb() {
  mcsim::MachineConfig c;
  c.model_tlb = false;
  return c;
}

class TxnTest : public ::testing::Test {
 protected:
  TxnTest() : machine_(NoTlb()), core_(&machine_.core(0)) {}
  mcsim::MachineSim machine_;
  mcsim::CoreSim* core_;
};

// ---------------------------------------------------------------------------
// LockManager
// ---------------------------------------------------------------------------

using LockTest = TxnTest;

TEST_F(LockTest, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(core_, 2, 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Holds(1, 100));
  EXPECT_TRUE(lm.Holds(2, 100));
}

TEST_F(LockTest, ExclusiveConflictsWithShared) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(core_, 2, 100, LockMode::kExclusive).IsAborted());
}

TEST_F(LockTest, SharedConflictsWithExclusive) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(core_, 2, 100, LockMode::kShared).IsAborted());
}

TEST_F(LockTest, ReacquisitionIsIdempotent) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kShared).ok());
  EXPECT_EQ(lm.ActiveLocks(), 1u);
}

TEST_F(LockTest, SoleHolderCanUpgrade) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kExclusive).ok());
  // Now exclusive: another shared must conflict.
  EXPECT_TRUE(lm.Acquire(core_, 2, 100, LockMode::kShared).IsAborted());
}

TEST_F(LockTest, UpgradeWithOtherSharersFails) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(core_, 2, 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kExclusive).IsAborted());
}

TEST_F(LockTest, ReleaseAllFreesEverything) {
  LockManager lm;
  for (uint64_t obj = 0; obj < 20; ++obj) {
    ASSERT_TRUE(lm.Acquire(core_, 1, obj, LockMode::kExclusive).ok());
  }
  EXPECT_EQ(lm.ActiveLocks(), 20u);
  lm.ReleaseAll(core_, 1);
  EXPECT_EQ(lm.ActiveLocks(), 0u);
  EXPECT_TRUE(lm.Acquire(core_, 2, 5, LockMode::kExclusive).ok());
}

TEST_F(LockTest, ReleasePreservesOtherHoldersLocks) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(core_, 2, 100, LockMode::kShared).ok());
  lm.ReleaseAll(core_, 1);
  EXPECT_FALSE(lm.Holds(1, 100));
  EXPECT_TRUE(lm.Holds(2, 100));
  EXPECT_EQ(lm.ActiveLocks(), 1u);
}

TEST_F(LockTest, DistinctObjectsDoNotConflict) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(core_, 2, 101, LockMode::kExclusive).ok());
}

TEST_F(LockTest, ManyObjectsAcrossBuckets) {
  LockManager lm(16);  // tiny table: force chains
  for (uint64_t obj = 0; obj < 500; ++obj) {
    ASSERT_TRUE(lm.Acquire(core_, 1, obj * 7919, LockMode::kShared).ok());
  }
  EXPECT_EQ(lm.ActiveLocks(), 500u);
  EXPECT_TRUE(lm.Holds(1, 499 * 7919));
  lm.ReleaseAll(core_, 1);
  EXPECT_EQ(lm.ActiveLocks(), 0u);
}

// ---------------------------------------------------------------------------
// MvccManager
// ---------------------------------------------------------------------------

using MvccTest = TxnTest;

std::vector<uint8_t> Image(uint8_t fill) {
  return std::vector<uint8_t>(16, fill);
}

TEST_F(MvccTest, CommitReturnsStagedWrites) {
  MvccManager mvcc;
  const uint64_t t = mvcc.Begin(core_);
  auto next = Image(2);
  auto prior = Image(1);
  ASSERT_TRUE(mvcc.StageWrite(core_, t, 0, 5, next.data(), 16,
                              prior.data())
                  .ok());
  std::vector<MvccManager::StagedWrite> installs;
  ASSERT_TRUE(mvcc.Commit(core_, t, &installs).ok());
  ASSERT_EQ(installs.size(), 1u);
  EXPECT_EQ(installs[0].table_id, 0u);
  EXPECT_EQ(installs[0].row, 5u);
  EXPECT_EQ(installs[0].data, next);
}

TEST_F(MvccTest, WriteWriteConflictAborts) {
  MvccManager mvcc;
  const uint64_t t1 = mvcc.Begin(core_);
  const uint64_t t2 = mvcc.Begin(core_);
  auto img = Image(1);
  ASSERT_TRUE(
      mvcc.StageWrite(core_, t1, 0, 5, img.data(), 16, img.data()).ok());
  EXPECT_TRUE(mvcc.StageWrite(core_, t2, 0, 5, img.data(), 16, img.data())
                  .IsAborted());
}

TEST_F(MvccTest, AbortClearsPendingMarker) {
  MvccManager mvcc;
  const uint64_t t1 = mvcc.Begin(core_);
  auto img = Image(1);
  ASSERT_TRUE(
      mvcc.StageWrite(core_, t1, 0, 5, img.data(), 16, img.data()).ok());
  mvcc.Abort(core_, t1);
  const uint64_t t2 = mvcc.Begin(core_);
  EXPECT_TRUE(
      mvcc.StageWrite(core_, t2, 0, 5, img.data(), 16, img.data()).ok());
}

TEST_F(MvccTest, ReaderValidationFailsWhenVersionMoves) {
  MvccManager mvcc;
  const uint64_t reader = mvcc.Begin(core_);
  std::vector<uint8_t> image;
  mvcc.Read(core_, reader, 0, 5, &image);  // observes version ts 0

  const uint64_t writer = mvcc.Begin(core_);
  auto next = Image(2);
  auto prior = Image(1);
  ASSERT_TRUE(mvcc.StageWrite(core_, writer, 0, 5, next.data(), 16,
                              prior.data())
                  .ok());
  std::vector<MvccManager::StagedWrite> installs;
  ASSERT_TRUE(mvcc.Commit(core_, writer, &installs).ok());

  EXPECT_TRUE(mvcc.Commit(core_, reader, &installs).IsAborted());
}

TEST_F(MvccTest, SnapshotReaderSeesOldImage) {
  MvccManager mvcc;
  const uint64_t reader = mvcc.Begin(core_);  // snapshot before write

  const uint64_t writer = mvcc.Begin(core_);
  auto next = Image(2);
  auto prior = Image(1);
  ASSERT_TRUE(mvcc.StageWrite(core_, writer, 0, 5, next.data(), 16,
                              prior.data())
                  .ok());
  std::vector<MvccManager::StagedWrite> installs;
  ASSERT_TRUE(mvcc.Commit(core_, writer, &installs).ok());

  std::vector<uint8_t> image;
  ASSERT_TRUE(mvcc.Read(core_, reader, 0, 5, &image));
  EXPECT_EQ(image.size(), 16u);  // served from the version chain
  EXPECT_EQ(image[0], 1);        // the prior image
}

TEST_F(MvccTest, FreshReaderSeesTableContent) {
  MvccManager mvcc;
  const uint64_t writer = mvcc.Begin(core_);
  auto next = Image(2);
  auto prior = Image(1);
  ASSERT_TRUE(mvcc.StageWrite(core_, writer, 0, 5, next.data(), 16,
                              prior.data())
                  .ok());
  std::vector<MvccManager::StagedWrite> installs;
  ASSERT_TRUE(mvcc.Commit(core_, writer, &installs).ok());

  const uint64_t reader = mvcc.Begin(core_);  // snapshot after commit
  std::vector<uint8_t> image;
  EXPECT_FALSE(mvcc.Read(core_, reader, 0, 5, &image));
}

TEST_F(MvccTest, ReadOnlyTransactionCommits) {
  MvccManager mvcc;
  const uint64_t t = mvcc.Begin(core_);
  std::vector<uint8_t> image;
  mvcc.Read(core_, t, 0, 1, &image);
  mvcc.Read(core_, t, 0, 2, &image);
  std::vector<MvccManager::StagedWrite> installs;
  EXPECT_TRUE(mvcc.Commit(core_, t, &installs).ok());
  EXPECT_TRUE(installs.empty());
}

TEST_F(MvccTest, TimestampsAdvanceOnCommitOnly) {
  MvccManager mvcc;
  const uint64_t c0 = mvcc.clock();
  const uint64_t t = mvcc.Begin(core_);
  EXPECT_EQ(mvcc.clock(), c0);
  auto img = Image(1);
  ASSERT_TRUE(
      mvcc.StageWrite(core_, t, 0, 1, img.data(), 16, img.data()).ok());
  std::vector<MvccManager::StagedWrite> installs;
  ASSERT_TRUE(mvcc.Commit(core_, t, &installs).ok());
  EXPECT_EQ(mvcc.clock(), c0 + 1);
}

// ---------------------------------------------------------------------------
// LogManager
// ---------------------------------------------------------------------------

using LogTest = TxnTest;

TEST_F(LogTest, CountsRecordsAndBytes) {
  LogManager log;
  const uint8_t payload[32] = {0};
  log.LogUpdate(core_, 1, 0, 100, 1, payload, 32);
  log.LogCommit(core_, 1);
  EXPECT_EQ(log.records(), 2u);
  EXPECT_EQ(log.bytes_logged(), (32u + 32u) + 32u);
}

TEST_F(LogTest, BufferWrapsViaAsynchronousFlush) {
  LogManager log(1024);
  const uint8_t payload[100] = {0};
  for (int i = 0; i < 50; ++i) {
    log.LogUpdate(core_, 1, 0, i, 1, payload, 100);
  }
  EXPECT_GT(log.flushes(), 0u);
  EXPECT_EQ(log.records(), 50u);
}

TEST_F(LogTest, SequentialWritesHaveGoodLocality) {
  LogManager log(1 << 20);
  const uint8_t payload[28] = {0};
  for (int i = 0; i < 100; ++i) {
    log.LogUpdate(core_, 1, 0, i, 1, payload, 28);
  }
  // 100 records of 64 aligned bytes occupy 100 sequential lines; the
  // compulsory-miss count is bounded by that footprint.
  EXPECT_LE(core_->counters().misses.l1d, 101u);
}

TEST_F(LogTest, StableLogRetainsRecordsInLsnOrder) {
  LogManager log;
  const uint8_t payload[8] = {7};
  const uint8_t key[8] = {9};
  log.Append(core_, LogOp::kInsert, 42, 3, 17, -1, payload, 8, key, 8,
             1);
  log.LogCommit(core_, 42);
  const auto& records = log.stable_log();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_LT(records[0].lsn, records[1].lsn);
  EXPECT_EQ(records[0].op, LogOp::kInsert);
  EXPECT_EQ(records[0].txn_id, 42u);
  EXPECT_EQ(records[0].table, 3);
  EXPECT_EQ(records[0].row, 17u);
  EXPECT_EQ(records[0].slice, 1);
  EXPECT_EQ(records[0].payload.size(), 8u);
  EXPECT_EQ(records[0].key.size(), 8u);
  EXPECT_EQ(records[1].op, LogOp::kCommit);
}

TEST_F(LogTest, TruncateDropsRetainedRecords) {
  LogManager log;
  log.LogCommit(core_, 1);
  const uint64_t anchor = log.LogCommit(core_, 2);
  log.LogCommit(core_, 3);
  log.Truncate(anchor);
  ASSERT_EQ(log.stable_log().size(), 2u);
  EXPECT_EQ(log.stable_log()[0].lsn, anchor);
  EXPECT_EQ(log.truncated_records(), 1u);
  EXPECT_EQ(log.appended_records(), 3u);
}

TEST_F(LogTest, TruncateRecordsPositionEvenWhenLogDrainsEmpty) {
  // A fully truncated log must not look like a never-written log:
  // recovery needs the anchor LSN to know replay legitimately starts
  // past 0.
  LogManager log;
  log.LogCommit(core_, 1);
  const uint64_t last = log.LogCommit(core_, 2);
  log.Truncate(last + 1);
  EXPECT_TRUE(log.stable_log().empty());
  EXPECT_EQ(log.truncation_lsn(), last + 1);
  EXPECT_EQ(log.truncated_records(), 2u);
  // Double truncation to an older anchor is a no-op and must not move
  // the recorded position backwards.
  log.Truncate(last);
  EXPECT_EQ(log.truncation_lsn(), last + 1);
}

// Differential test of the stable-log device: seeded random sequences
// of appends (every LogOp; records larger than a device block and than
// the ring; torn records; CLRs; before-images), force mode, FlushAll,
// ring wraps and truncation at random LSNs, checked after every step
// against a plain vector-of-records model of the log.
class LogModel {
 public:
  explicit LogModel(uint32_t ring_bytes) : capacity_(ring_bytes) {}

  void Append(const LogRecord& rec, uint32_t ring_payload,
              uint32_t ring_key, uint32_t ring_before) {
    const uint32_t bytes = 32 + ring_payload + ring_key + ring_before;
    const uint32_t aligned = (bytes + 7) & ~7u;
    while (aligned + 8 > capacity_) capacity_ *= 2;
    if (offset_ + aligned + 8 > capacity_) {
      offset_ = 0;
      ++flushes_;
      flushed_ = records_.size();
    }
    offset_ += aligned;
    bytes_logged_ += bytes;
    records_.push_back(rec);
    if (force_) flushed_ = records_.size();
  }

  void FlushAll() {
    if (flushed_ == records_.size()) return;
    flushed_ = records_.size();
    ++flushes_;
  }

  void Truncate(uint64_t upto_lsn) {
    size_t drop = 0;
    while (drop < records_.size() && records_[drop].lsn < upto_lsn) ++drop;
    records_.erase(records_.begin(),
                   records_.begin() + static_cast<ptrdiff_t>(drop));
    truncated_ += drop;
    flushed_ = flushed_ > drop ? flushed_ - drop : 0;
    truncation_lsn_ = std::max(truncation_lsn_, upto_lsn);
  }

  void set_force(bool on) { force_ = on; }

  void ExpectMatches(const LogManager& log) const {
    EXPECT_EQ(log.records(), records_.size());
    EXPECT_EQ(log.flushed_records(), flushed_);
    EXPECT_EQ(log.appended_records(), records_.size() + truncated_);
    EXPECT_EQ(log.truncated_records(), truncated_);
    EXPECT_EQ(log.truncation_lsn(), truncation_lsn_);
    EXPECT_EQ(log.flushes(), flushes_);
    EXPECT_EQ(log.bytes_logged(), bytes_logged_);
    EXPECT_EQ(log.capacity(), capacity_);
    ExpectSame(log.stable_log(), records_.size());
    ExpectSame(log.flushed_log(), flushed_);
  }

  const std::vector<LogRecord>& records() const { return records_; }

 private:
  void ExpectSame(const std::vector<LogRecord>& got, size_t n) const {
    ASSERT_EQ(got.size(), n);
    for (size_t i = 0; i < n; ++i) {
      const LogRecord& a = got[i];
      const LogRecord& b = records_[i];
      SCOPED_TRACE(i);
      EXPECT_EQ(a.lsn, b.lsn);
      EXPECT_EQ(a.txn_id, b.txn_id);
      EXPECT_EQ(a.op, b.op);
      EXPECT_EQ(a.table, b.table);
      EXPECT_EQ(a.column, b.column);
      EXPECT_EQ(a.slice, b.slice);
      EXPECT_EQ(a.row, b.row);
      EXPECT_EQ(a.torn, b.torn);
      EXPECT_EQ(a.clr, b.clr);
      EXPECT_EQ(a.payload, b.payload);
      EXPECT_EQ(a.key, b.key);
      EXPECT_EQ(a.before, b.before);
    }
  }

  uint32_t capacity_;
  uint32_t offset_ = 0;
  uint64_t bytes_logged_ = 0;
  uint64_t flushes_ = 0;
  uint64_t flushed_ = 0;
  uint64_t truncated_ = 0;
  uint64_t truncation_lsn_ = 0;
  bool force_ = false;
  std::vector<LogRecord> records_;
};

std::vector<uint8_t> RandomBytes(Rng* rng, uint32_t n) {
  std::vector<uint8_t> v(n);
  for (uint8_t& b : v) b = static_cast<uint8_t>(rng->Next());
  return v;
}

// Mostly small fields, sometimes larger than the 4 KiB ring, rarely
// larger than a device block.
uint32_t RandomFieldBytes(Rng* rng) {
  const uint64_t r = rng->Uniform(1000);
  if (r < 3) {
    return LogManager::kDeviceBlockBytes + 1 +
           static_cast<uint32_t>(rng->Uniform(4096));
  }
  if (r < 40) return 4096 + static_cast<uint32_t>(rng->Uniform(8192));
  if (r < 400) return 0;
  return static_cast<uint32_t>(rng->Uniform(97));
}

TEST_F(LogTest, DeviceMatchesVectorModel) {
  constexpr uint32_t kRing = 4096;
  constexpr uint64_t kTornSeed = 77;
  const fault::FaultPointConfig torn{0.05, 0};
  // What the sequences reached, so they cannot silently go soft.
  uint64_t block_sized = 0, torn_records = 0, flushes = 0, grown = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    LogManager log(kRing);
    LogModel model(kRing);
    // Twin injectors: the model asks its own copy, hit for hit.
    fault::FaultInjector inj(kTornSeed + seed);
    fault::FaultInjector model_inj(kTornSeed + seed);
    inj.Arm(fault::kLogTornRecord, torn);
    model_inj.Arm(fault::kLogTornRecord, torn);
    log.set_fault_injector(&inj);
    uint64_t last_lsn = 0;
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(step);
      const uint64_t action = rng.Uniform(100);
      if (action < 80) {
        LogRecord rec;
        rec.op = static_cast<LogOp>(
            rng.Uniform(static_cast<uint64_t>(LogOp::kCheckpointEnd) + 1));
        rec.txn_id = rng.Next();
        rec.table = static_cast<int16_t>(rng.Range(0, 40)) - 1;
        rec.column = static_cast<int16_t>(rng.Range(0, 20)) - 1;
        rec.slice = static_cast<int16_t>(rng.Uniform(8));
        rec.row = rng.Next();
        rec.clr = rng.Uniform(4) == 0;
        rec.payload = RandomBytes(&rng, RandomFieldBytes(&rng));
        rec.key = RandomBytes(&rng, RandomFieldBytes(&rng));
        rec.before = RandomBytes(&rng, RandomFieldBytes(&rng));
        // A null pointer with a length: the ring counts the bytes, the
        // device stores none.
        const bool null_payload = rng.Uniform(20) == 0;
        const uint32_t ring_payload =
            null_payload ? 8 : static_cast<uint32_t>(rec.payload.size());
        if (null_payload) rec.payload.clear();
        rec.torn = model_inj.Fires(fault::kLogTornRecord);
        rec.lsn = log.Append(
            core_, rec.op, rec.txn_id, rec.table, rec.row, rec.column,
            null_payload ? nullptr : rec.payload.data(), ring_payload,
            rec.key.data(), static_cast<uint32_t>(rec.key.size()),
            rec.slice, rec.before.data(),
            static_cast<uint32_t>(rec.before.size()), rec.clr);
        ASSERT_GT(rec.lsn, last_lsn);
        last_lsn = rec.lsn;
        if (rec.payload.size() + rec.key.size() + rec.before.size() >
            LogManager::kDeviceBlockBytes) {
          ++block_sized;
        }
        torn_records += rec.torn ? 1 : 0;
        model.Append(rec, ring_payload,
                     static_cast<uint32_t>(rec.key.size()),
                     static_cast<uint32_t>(rec.before.size()));
      } else if (action < 85) {
        log.FlushAll();
        model.FlushAll();
      } else if (action < 90) {
        const bool on = rng.Uniform(2) == 0;
        log.set_force(on);
        model.set_force(on);
      } else {
        // Truncate below the first record, at a retained record, or
        // past the end.
        const auto& recs = model.records();
        uint64_t upto = 0;
        const uint64_t kind = rng.Uniform(4);
        if (kind == 0 || recs.empty()) {
          upto = last_lsn + 1 + rng.Uniform(3);
        } else if (kind == 1) {
          upto = recs.front().lsn - rng.Uniform(2);
        } else {
          upto = recs[rng.Uniform(recs.size())].lsn;
        }
        log.Truncate(upto);
        model.Truncate(upto);
      }
      model.ExpectMatches(log);
      if (::testing::Test::HasFailure()) return;
    }
    flushes += log.flushes();
    grown += log.capacity() > kRing ? 1 : 0;
  }
  EXPECT_GT(block_sized, 0u);
  EXPECT_GT(torn_records, 0u);
  EXPECT_GT(flushes, 0u);
  EXPECT_GT(grown, 0u);
}

// ---------------------------------------------------------------------------
// PartitionManager
// ---------------------------------------------------------------------------

using PartitionTest = TxnTest;

TEST_F(PartitionTest, RangePartitioningCoversKeySpace) {
  PartitionManager pm(4);
  EXPECT_EQ(pm.PartitionOf(0, 1000), 0);
  EXPECT_EQ(pm.PartitionOf(999, 1000), 3);
  EXPECT_EQ(pm.PartitionOf(250, 1000), 1);
  EXPECT_EQ(pm.PartitionOf(500, 1000), 2);
}

TEST_F(PartitionTest, SinglePartitionChecksOwnership) {
  PartitionManager pm(2);
  EXPECT_TRUE(pm.EnterSinglePartition(core_, 0, 0).ok());
  EXPECT_TRUE(pm.EnterSinglePartition(core_, 1, 0).IsAborted());
}

TEST_F(PartitionTest, MultiPartitionClaimAndRelease) {
  PartitionManager pm(4);
  ASSERT_TRUE(pm.EnterMultiPartition(core_, 0, {0, 1, 2}).ok());
  EXPECT_TRUE(pm.EnterMultiPartition(core_, 3, {2, 3}).IsAborted());
  pm.ReleaseMultiPartition(core_, 0);
  EXPECT_TRUE(pm.EnterMultiPartition(core_, 3, {2, 3}).ok());
}

TEST_F(PartitionTest, FailedClaimReleasesPartialAcquisitions) {
  PartitionManager pm(4);
  ASSERT_TRUE(pm.EnterMultiPartition(core_, 0, {2}).ok());
  // Worker 1 claims {1, 2}: 2 is taken, so 1 must not stay claimed.
  ASSERT_TRUE(pm.EnterMultiPartition(core_, 1, {1, 2}).IsAborted());
  EXPECT_TRUE(pm.EnterMultiPartition(core_, 3, {1}).ok());
}

}  // namespace
}  // namespace imoltp::txn
