// Secondary-index tests: maintenance on insert/delete, prefix scans,
// rollback, recovery replay, and the TPC-C by-last-name access paths.

#include <gtest/gtest.h>

#include "core/tpcc.h"
#include "engine/engine.h"
#include "mcsim/machine.h"

namespace imoltp::engine {
namespace {

mcsim::MachineConfig NoTlb() {
  mcsim::MachineConfig c;
  c.model_tlb = false;
  return c;
}

// Table: (key Long, group Long, filler String). Secondary: group|key.
index::Key GroupSecondary(const storage::Schema& schema,
                          const uint8_t* row) {
  const uint64_t key = static_cast<uint64_t>(schema.GetLong(row, 0));
  const uint64_t group = static_cast<uint64_t>(schema.GetLong(row, 1));
  return index::Key::FromUint64((group << 32) | key);
}

void GroupedGenerator(const storage::Schema& schema, storage::RowId r,
                      uint64_t seed, uint8_t* out) {
  (void)seed;
  schema.SetLong(out, 0, static_cast<int64_t>(r));
  schema.SetLong(out, 1, static_cast<int64_t>(r % 10));  // group
  std::memset(schema.ColumnPtr(out, 2), 'x', storage::kStringBytes);
}

TableDef GroupedTable(uint64_t rows) {
  TableDef def;
  def.name = "grouped";
  def.schema = storage::Schema({storage::ColumnType::kLong,
                                storage::ColumnType::kLong,
                                storage::ColumnType::kString});
  def.initial_rows = rows;
  def.generator = GroupedGenerator;
  def.secondaries.push_back({"by-group", GroupSecondary});
  return def;
}

constexpr EngineKind kAllEngines[] = {
    EngineKind::kShoreMt, EngineKind::kDbmsD, EngineKind::kVoltDb,
    EngineKind::kHyPer, EngineKind::kDbmsM};

class SecondaryIndexTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  SecondaryIndexTest()
      : machine_(NoTlb()),
        engine_(CreateEngine(GetParam(), &machine_, EngineOptions())) {
    EXPECT_TRUE(engine_->CreateDatabase({GroupedTable(1000)}).ok());
  }

  Status Run(const std::function<Status(TxnContext&)>& body) {
    TxnRequest req;
    req.key_space = 1000;
    return engine_->Execute(0, req, body);
  }

  /// Scans group 7's members and returns their primary keys.
  std::vector<int64_t> Group7() {
    std::vector<int64_t> keys;
    EXPECT_TRUE(Run([&](TxnContext& ctx) {
                  std::vector<storage::RowId> rows;
                  Status s = ctx.ScanSecondary(
                      0, 0, index::Key::FromUint64(7ULL << 32), 200,
                      &rows);
                  if (!s.ok()) return s;
                  const storage::Schema& schema = GroupedTable(0).schema;
                  uint8_t row[160];
                  for (storage::RowId r : rows) {
                    s = ctx.Read(0, r, row);
                    if (!s.ok()) return s;
                    if (schema.GetLong(row, 1) != 7) break;  // past group
                    keys.push_back(schema.GetLong(row, 0));
                  }
                  return Status::Ok();
                }).ok());
    return keys;
  }

  mcsim::MachineSim machine_;
  std::unique_ptr<Engine> engine_;
};

TEST_P(SecondaryIndexTest, PrefixScanFindsAllGroupMembers) {
  const std::vector<int64_t> keys = Group7();
  ASSERT_EQ(keys.size(), 100u);  // 1000 rows, 10 groups
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i] % 10, 7);
    if (i > 0) EXPECT_LT(keys[i - 1], keys[i]);  // ordered by key
  }
}

TEST_P(SecondaryIndexTest, InsertMaintainsSecondary) {
  const storage::Schema schema = GroupedTable(0).schema;
  uint8_t row[160];
  schema.SetLong(row, 0, 5007);
  schema.SetLong(row, 1, 7);
  std::memset(schema.ColumnPtr(row, 2), 'x', storage::kStringBytes);
  ASSERT_TRUE(Run([&](TxnContext& ctx) {
                return ctx.Insert(0, row,
                                  index::Key::FromUint64(5007));
              }).ok());
  const std::vector<int64_t> keys = Group7();
  EXPECT_EQ(keys.size(), 101u);
  EXPECT_EQ(keys.back(), 5007);
}

TEST_P(SecondaryIndexTest, DeleteMaintainsSecondary) {
  ASSERT_TRUE(Run([&](TxnContext& ctx) {
                storage::RowId rid;
                Status s =
                    ctx.Probe(0, index::Key::FromUint64(17), &rid);
                if (!s.ok()) return s;
                return ctx.Delete(0, rid, index::Key::FromUint64(17));
              }).ok());
  const std::vector<int64_t> keys = Group7();
  EXPECT_EQ(keys.size(), 99u);
  for (int64_t k : keys) EXPECT_NE(k, 17);
}

TEST_P(SecondaryIndexTest, AbortedInsertLeavesSecondaryClean) {
  const storage::Schema schema = GroupedTable(0).schema;
  uint8_t row[160];
  schema.SetLong(row, 0, 6007);
  schema.SetLong(row, 1, 7);
  std::memset(schema.ColumnPtr(row, 2), 'x', storage::kStringBytes);
  const Status s = Run([&](TxnContext& ctx) {
    Status st = ctx.Insert(0, row, index::Key::FromUint64(6007));
    if (!st.ok()) return st;
    storage::RowId rid;
    return ctx.Probe(0, index::Key::FromUint64(99999999), &rid);  // fail
  });
  ASSERT_FALSE(s.ok());
  const std::vector<int64_t> keys = Group7();
  EXPECT_EQ(keys.size(), 100u);
  for (int64_t k : keys) EXPECT_NE(k, 6007);
}

TEST_P(SecondaryIndexTest, OutOfRangeSecondaryIdRejected) {
  const Status s = Run([&](TxnContext& ctx) {
    std::vector<storage::RowId> rows;
    return ctx.ScanSecondary(0, 3, index::Key::FromUint64(0), 1, &rows);
  });
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, SecondaryIndexTest, ::testing::ValuesIn(kAllEngines),
    [](const ::testing::TestParamInfo<EngineKind>& i) {
      std::string n = EngineKindName(i.param);
      for (char& c : n) {
        if (c == '-' || c == ' ') c = '_';
      }
      return n;
    });

TEST(SecondaryRecoveryTest, ReplayRebuildsSecondaries) {
  mcsim::MachineSim m(NoTlb());
  auto engine = CreateEngine(EngineKind::kHyPer, &m, EngineOptions());
  ASSERT_TRUE(engine->CreateDatabase({GroupedTable(100)}).ok());

  const storage::Schema schema = GroupedTable(0).schema;
  uint8_t row[160];
  schema.SetLong(row, 0, 907);
  schema.SetLong(row, 1, 7);
  std::memset(schema.ColumnPtr(row, 2), 'x', storage::kStringBytes);
  TxnRequest req;
  req.key_space = 100;
  ASSERT_TRUE(engine
                  ->Execute(0, req,
                            [&](TxnContext& ctx) {
                              return ctx.Insert(
                                  0, row, index::Key::FromUint64(907));
                            })
                  .ok());

  mcsim::MachineSim fresh(NoTlb());
  auto recovered = CreateEngine(EngineKind::kHyPer, &fresh,
                                EngineOptions());
  ASSERT_TRUE(recovered->CreateDatabase({GroupedTable(100)}).ok());
  ASSERT_TRUE(recovered
                  ->Recover({}, engine->StableLog(),
                            /*log_truncation_lsn=*/0, nullptr)
                  .ok());

  std::vector<storage::RowId> rows;
  ASSERT_TRUE(recovered
                  ->Execute(0, req,
                            [&](TxnContext& ctx) {
                              return ctx.ScanSecondary(
                                  0, 0,
                                  index::Key::FromUint64(
                                      (7ULL << 32) | 907),
                                  1, &rows);
                            })
                  .ok());
  ASSERT_EQ(rows.size(), 1u);
}

TEST(TpccSecondaryTest, CustomerNameKeysRoundTrip) {
  using core::TpccBenchmark;
  const uint64_t key = TpccBenchmark::CustomerNameKey(3, 9, 123, 2123);
  EXPECT_EQ(TpccBenchmark::LastNameBucket(2123), 123u);
  // Prefix ordering: same (w,d,bucket) sorts adjacent, below next bucket.
  EXPECT_LT(key, TpccBenchmark::CustomerNameKey(3, 9, 124, 0));
  EXPECT_GT(key, TpccBenchmark::CustomerNameKey(3, 9, 123, 0));
}

TEST(TpccSecondaryTest, OrderCustomerKeysSortByOrderId) {
  using core::TpccBenchmark;
  EXPECT_LT(TpccBenchmark::OrderCustomerKey(1, 2, 55, 10),
            TpccBenchmark::OrderCustomerKey(1, 2, 55, 11));
  EXPECT_LT(TpccBenchmark::OrderCustomerKey(1, 2, 55, 999999),
            TpccBenchmark::OrderCustomerKey(1, 2, 56, 0));
}

}  // namespace
}  // namespace imoltp::engine
