#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "mcsim/machine.h"
#include "storage/buffer_pool.h"
#include "storage/disk_heap_file.h"
#include "storage/slotted_page.h"
#include "storage/table.h"

namespace imoltp::storage {
namespace {

mcsim::MachineConfig NoTlb() {
  mcsim::MachineConfig c;
  c.model_tlb = false;
  return c;
}

// ---------------------------------------------------------------------------
// SlottedPage
// ---------------------------------------------------------------------------

TEST(SlottedPageTest, InsertAndGetRoundTrip) {
  std::vector<uint8_t> page(8192);
  SlottedPage::Format(page.data(), 8192);
  const uint8_t rec[] = {1, 2, 3, 4};
  const uint16_t slot = SlottedPage::Insert(page.data(), rec, 4);
  ASSERT_NE(slot, SlottedPage::kInvalidSlot);
  uint16_t len = 0;
  const uint8_t* got = SlottedPage::Get(page.data(), slot, &len);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(len, 4);
  EXPECT_EQ(0, std::memcmp(got, rec, 4));
}

TEST(SlottedPageTest, RecordsDoNotOverlap) {
  std::vector<uint8_t> page(8192);
  SlottedPage::Format(page.data(), 8192);
  uint8_t rec[16];
  for (int i = 0; i < 100; ++i) {
    std::memset(rec, i, sizeof(rec));
    ASSERT_NE(SlottedPage::Insert(page.data(), rec, 16),
              SlottedPage::kInvalidSlot);
  }
  for (uint16_t s = 0; s < 100; ++s) {
    const uint8_t* got = SlottedPage::Get(page.data(), s);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got[0], static_cast<uint8_t>(s));
    EXPECT_EQ(got[15], static_cast<uint8_t>(s));
  }
}

TEST(SlottedPageTest, DeleteFreesSlotAndGetReturnsNull) {
  std::vector<uint8_t> page(8192);
  SlottedPage::Format(page.data(), 8192);
  const uint8_t rec[8] = {42};
  const uint16_t slot = SlottedPage::Insert(page.data(), rec, 8);
  EXPECT_TRUE(SlottedPage::Delete(page.data(), slot));
  EXPECT_EQ(SlottedPage::Get(page.data(), slot), nullptr);
  EXPECT_FALSE(SlottedPage::Delete(page.data(), slot));  // double delete
}

TEST(SlottedPageTest, FreedSlotIsReused) {
  std::vector<uint8_t> page(8192);
  SlottedPage::Format(page.data(), 8192);
  const uint8_t a[8] = {1};
  const uint8_t b[8] = {2};
  const uint16_t slot = SlottedPage::Insert(page.data(), a, 8);
  SlottedPage::Insert(page.data(), a, 8);
  SlottedPage::Delete(page.data(), slot);
  const uint16_t reused = SlottedPage::Insert(page.data(), b, 8);
  EXPECT_EQ(reused, slot);
  EXPECT_EQ(SlottedPage::Get(page.data(), reused)[0], 2);
  EXPECT_EQ(SlottedPage::NumSlots(page.data()), 2);
}

TEST(SlottedPageTest, FullPageRejectsInsert) {
  std::vector<uint8_t> page(256);
  SlottedPage::Format(page.data(), 256);
  const uint8_t rec[64] = {0};
  int inserted = 0;
  while (SlottedPage::Insert(page.data(), rec, 64) !=
         SlottedPage::kInvalidSlot) {
    ++inserted;
    ASSERT_LT(inserted, 10);
  }
  EXPECT_GE(inserted, 2);
  EXPECT_LT(SlottedPage::FreeBytes(page.data()), 64 + 4);
}

TEST(SlottedPageTest, FreeBytesDecreasesWithInserts) {
  std::vector<uint8_t> page(8192);
  SlottedPage::Format(page.data(), 8192);
  const uint16_t before = SlottedPage::FreeBytes(page.data());
  const uint8_t rec[32] = {0};
  SlottedPage::Insert(page.data(), rec, 32);
  EXPECT_EQ(SlottedPage::FreeBytes(page.data()), before - 32 - 4);
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : machine_(NoTlb()), core_(&machine_.core(0)) {}
  mcsim::MachineSim machine_;
  mcsim::CoreSim* core_;
};

TEST_F(BufferPoolTest, NewPageComesUpZeroFilled) {
  BufferPool pool(8, 8192);
  uint8_t* page = pool.FixPage(core_, 1);
  ASSERT_NE(page, nullptr);
  for (int i = 0; i < 8192; ++i) ASSERT_EQ(page[i], 0);
  pool.UnfixPage(core_, 1, false);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST_F(BufferPoolTest, FirstFixIsZeroFilledInAFrameEvictedDirty) {
  BufferPool pool(1, 8192);
  uint8_t* page = pool.FixPage(core_, 1);
  ASSERT_NE(page, nullptr);
  std::memset(page, 0x5A, 8192);
  pool.UnfixPage(core_, 1, /*dirty=*/true);
  // The only frame now holds page 1's bytes; page 2 evicts it and must
  // still come up as a fresh, all-zero page.
  page = pool.FixPage(core_, 2);
  ASSERT_NE(page, nullptr);
  EXPECT_FALSE(pool.IsResident(1));
  EXPECT_EQ(pool.stats().dirty_writebacks, 1u);
  for (int i = 0; i < 8192; ++i) ASSERT_EQ(page[i], 0) << "byte " << i;
  pool.UnfixPage(core_, 2, false);
}

TEST_F(BufferPoolTest, RefixHits) {
  BufferPool pool(8, 8192);
  pool.UnfixPage(core_, 1, false);  // unknown page: no-op
  pool.FixPage(core_, 7);
  pool.UnfixPage(core_, 7, false);
  pool.FixPage(core_, 7);
  pool.UnfixPage(core_, 7, false);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST_F(BufferPoolTest, DirtyPageSurvivesEviction) {
  BufferPool pool(2, 8192);
  uint8_t* page = pool.FixPage(core_, 100);
  page[0] = 0xAB;
  page[8191] = 0xCD;
  pool.UnfixPage(core_, 100, /*dirty=*/true);
  // Evict by filling the pool with other pages.
  for (PageId p = 0; p < 4; ++p) {
    pool.FixPage(core_, p);
    pool.UnfixPage(core_, p, false);
  }
  EXPECT_FALSE(pool.IsResident(100));
  page = pool.FixPage(core_, 100);
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page[0], 0xAB);
  EXPECT_EQ(page[8191], 0xCD);
  EXPECT_GE(pool.stats().dirty_writebacks, 1u);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(2, 8192);
  uint8_t* a = pool.FixPage(core_, 1);  // stays pinned
  ASSERT_NE(a, nullptr);
  for (PageId p = 10; p < 14; ++p) {
    uint8_t* page = pool.FixPage(core_, p);
    ASSERT_NE(page, nullptr);
    pool.UnfixPage(core_, p, false);
  }
  EXPECT_TRUE(pool.IsResident(1));
}

TEST_F(BufferPoolTest, AllPinnedReturnsNull) {
  BufferPool pool(2, 8192);
  ASSERT_NE(pool.FixPage(core_, 1), nullptr);
  ASSERT_NE(pool.FixPage(core_, 2), nullptr);
  EXPECT_EQ(pool.FixPage(core_, 3), nullptr);
}

TEST_F(BufferPoolTest, ManyPagesChurnKeepsDataIntact) {
  BufferPool pool(16, 8192);
  Rng rng(7);
  std::map<PageId, uint8_t> expected;
  for (int step = 0; step < 2000; ++step) {
    const PageId p = rng.Uniform(64);
    uint8_t* page = pool.FixPage(core_, p);
    ASSERT_NE(page, nullptr);
    auto it = expected.find(p);
    if (it != expected.end()) {
      ASSERT_EQ(page[17], it->second) << "page " << p;
    }
    const uint8_t v = static_cast<uint8_t>(rng.Next());
    page[17] = v;
    expected[p] = v;
    pool.UnfixPage(core_, p, /*dirty=*/true);
  }
  EXPECT_GT(pool.stats().evictions, 0u);
}

TEST_F(BufferPoolTest, TracesPageTableAndFrameTouches) {
  BufferPool pool(8, 8192);
  const uint64_t before = core_->counters().data_accesses;
  pool.FixPage(core_, 5);
  pool.UnfixPage(core_, 5, false);
  EXPECT_GT(core_->counters().data_accesses, before);
}

// ---------------------------------------------------------------------------
// DiskHeapFile
// ---------------------------------------------------------------------------

class DiskHeapFileTest : public ::testing::Test {
 protected:
  DiskHeapFileTest()
      : machine_(NoTlb()),
        core_(&machine_.core(0)),
        pool_(256, 8192),
        file_("t", &pool_, 1, TwoLongColumns()) {}

  std::vector<uint8_t> Row(int64_t key, int64_t value) {
    std::vector<uint8_t> row(file_.schema().row_bytes());
    file_.schema().SetLong(row.data(), 0, key);
    file_.schema().SetLong(row.data(), 1, value);
    return row;
  }

  mcsim::MachineSim machine_;
  mcsim::CoreSim* core_;
  BufferPool pool_;
  DiskHeapFile file_;
};

TEST_F(DiskHeapFileTest, AppendReadRoundTrip) {
  const RowId rid = file_.Append(core_, Row(7, 49).data());
  ASSERT_NE(rid, kInvalidRow);
  std::vector<uint8_t> out(16);
  ASSERT_TRUE(file_.ReadRow(core_, rid, out.data()));
  EXPECT_EQ(file_.schema().GetLong(out.data(), 0), 7);
  EXPECT_EQ(file_.schema().GetLong(out.data(), 1), 49);
}

TEST_F(DiskHeapFileTest, RowsSpanMultiplePages) {
  std::vector<RowId> rids;
  for (int64_t i = 0; i < 2000; ++i) {
    rids.push_back(file_.Append(core_, Row(i, i * i).data()));
  }
  EXPECT_GT(DiskHeapFile::PageNo(rids.back()), 0u);
  std::vector<uint8_t> out(16);
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(file_.ReadRow(core_, rids[i], out.data()));
    ASSERT_EQ(file_.schema().GetLong(out.data(), 0), i);
  }
}

TEST_F(DiskHeapFileTest, WriteColumnInPlace) {
  const RowId rid = file_.Append(core_, Row(1, 2).data());
  const int64_t v = 999;
  ASSERT_TRUE(file_.WriteColumn(core_, rid, 1, &v));
  std::vector<uint8_t> out(16);
  ASSERT_TRUE(file_.ReadRow(core_, rid, out.data()));
  EXPECT_EQ(file_.schema().GetLong(out.data(), 1), 999);
  EXPECT_EQ(file_.schema().GetLong(out.data(), 0), 1);  // untouched
}

TEST_F(DiskHeapFileTest, DeleteThenReadFails) {
  const RowId rid = file_.Append(core_, Row(1, 2).data());
  ASSERT_TRUE(file_.Delete(core_, rid));
  std::vector<uint8_t> out(16);
  EXPECT_FALSE(file_.ReadRow(core_, rid, out.data()));
  EXPECT_FALSE(file_.Delete(core_, rid));
  EXPECT_EQ(file_.num_rows(), 0u);
}

TEST_F(DiskHeapFileTest, DeletedSpaceIsReused) {
  std::vector<RowId> rids;
  for (int64_t i = 0; i < 300; ++i) {
    rids.push_back(file_.Append(core_, Row(i, i).data()));
  }
  const uint64_t pages_before = pool_.num_pages();
  ASSERT_TRUE(file_.Delete(core_, rids[0]));
  const RowId rid = file_.Append(core_, Row(777, 777).data());
  EXPECT_EQ(rid, rids[0]);  // same page, same slot
  EXPECT_EQ(pool_.num_pages(), pages_before);
}

// ---------------------------------------------------------------------------
// Table (heap + sparse)
// ---------------------------------------------------------------------------

class TableModeTest : public ::testing::TestWithParam<bool> {
 protected:
  TableModeTest() : machine_(NoTlb()), core_(&machine_.core(0)) {}

  std::unique_ptr<Table> Make(uint64_t rows) {
    TableOptions opts;
    opts.row_stride = 64;
    // Sparse mode: force by shrinking the resident budget.
    if (GetParam()) opts.max_resident_bytes = 1;
    return CreateTable("t", TwoLongColumns(), rows, opts);
  }

  mcsim::MachineSim machine_;
  mcsim::CoreSim* core_;
};

TEST_P(TableModeTest, GeneratedRowsAreDeterministic) {
  auto t = Make(1000);
  std::vector<uint8_t> a(16), b(16);
  ASSERT_TRUE(t->ReadRow(core_, 123, a.data()));
  ASSERT_TRUE(t->ReadRow(core_, 123, b.data()));
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), 16));
  EXPECT_EQ(t->schema().GetLong(a.data(), 0), 123);  // key column == id
}

TEST_P(TableModeTest, WriteColumnPersists) {
  auto t = Make(100);
  const int64_t v = -42;
  t->WriteColumn(core_, 5, 1, &v);
  std::vector<uint8_t> row(16);
  ASSERT_TRUE(t->ReadRow(core_, 5, row.data()));
  EXPECT_EQ(t->schema().GetLong(row.data(), 1), -42);
  EXPECT_EQ(t->schema().GetLong(row.data(), 0), 5);
}

TEST_P(TableModeTest, AppendExtendsTable) {
  auto t = Make(10);
  std::vector<uint8_t> row(16);
  t->schema().SetLong(row.data(), 0, 777);
  t->schema().SetLong(row.data(), 1, 888);
  const RowId rid = t->Append(core_, row.data());
  EXPECT_EQ(rid, 10u);
  EXPECT_EQ(t->num_rows(), 11u);
  std::vector<uint8_t> out(16);
  ASSERT_TRUE(t->ReadRow(core_, rid, out.data()));
  EXPECT_EQ(t->schema().GetLong(out.data(), 0), 777);
}

TEST_P(TableModeTest, DeleteHidesRow) {
  auto t = Make(10);
  ASSERT_TRUE(t->Delete(core_, 3));
  std::vector<uint8_t> out(16);
  EXPECT_FALSE(t->ReadRow(core_, 3, out.data()));
  EXPECT_FALSE(t->Delete(core_, 3));
  EXPECT_TRUE(t->ReadRow(core_, 4, out.data()));
}

TEST_P(TableModeTest, RowAddressesAreStriddenAndDistinct) {
  auto t = Make(100);
  EXPECT_EQ(t->RowAddress(1) - t->RowAddress(0), 64u);
  EXPECT_EQ(t->RowAddress(99) - t->RowAddress(98), 64u);
}

TEST_P(TableModeTest, OutOfRangeRowFails) {
  auto t = Make(10);
  std::vector<uint8_t> out(16);
  EXPECT_FALSE(t->ReadRow(core_, 10, out.data()));
}

TEST_P(TableModeTest, GeneratorRowOffsetShiftsContent) {
  TableOptions opts;
  opts.row_stride = 64;
  opts.generator_row_offset = 500;
  if (GetParam()) opts.max_resident_bytes = 1;
  auto t = CreateTable("t", TwoLongColumns(), 10, opts);
  std::vector<uint8_t> row(16);
  ASSERT_TRUE(t->ReadRow(core_, 0, row.data()));
  EXPECT_EQ(t->schema().GetLong(row.data(), 0), 500);
}

INSTANTIATE_TEST_SUITE_P(HeapAndSparse, TableModeTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Sparse" : "Heap";
                         });

// ---------------------------------------------------------------------------
// Row-store interface: the three Table implementations the engines reach
// through one `rows` member (heap and sparse memory tables, and the disk
// heap file over a small buffer pool).
// ---------------------------------------------------------------------------

enum class Store { kHeap, kSparse, kDisk };

class RowStoreTest : public ::testing::TestWithParam<Store> {
 protected:
  RowStoreTest()
      : machine_(NoTlb()), core_(&machine_.core(0)), pool_(16, 8192) {}

  /// A table holding `n` generated rows, populated as CreateDatabase
  /// populates each store: memory tables generate the rows in place, the
  /// heap file has them appended and then starts clean. ids_[i] is
  /// generated row i's RowId.
  std::unique_ptr<Table> Make(uint64_t n) {
    ids_.clear();
    if (GetParam() == Store::kDisk) {
      auto file =
          std::make_unique<DiskHeapFile>("t", &pool_, 1, TwoLongColumns());
      std::vector<uint8_t> row(file->schema().row_bytes());
      for (uint64_t i = 0; i < n; ++i) {
        DefaultRowGenerator(file->schema(), i, 0x1234, row.data());
        ids_.push_back(file->Append(core_, row.data()));
      }
      file->MarkClean();
      return file;
    }
    TableOptions opts;
    opts.row_stride = 64;
    if (GetParam() == Store::kSparse) opts.max_resident_bytes = 1;
    for (uint64_t i = 0; i < n; ++i) ids_.push_back(i);
    return CreateTable("t", TwoLongColumns(), n, opts);
  }

  static std::vector<uint8_t> Row(const Table& t, int64_t key,
                                  int64_t value) {
    std::vector<uint8_t> row(t.schema().row_bytes());
    t.schema().SetLong(row.data(), 0, key);
    t.schema().SetLong(row.data(), 1, value);
    return row;
  }

  /// Column `col` of `row`, or nullopt when the row reads as absent.
  std::optional<int64_t> Column(Table& t, RowId row, uint32_t col) {
    std::vector<uint8_t> out(t.schema().row_bytes());
    if (!t.ReadRow(core_, row, out.data())) return std::nullopt;
    return t.schema().GetLong(out.data(), col);
  }

  mcsim::MachineSim machine_;
  mcsim::CoreSim* core_;
  BufferPool pool_;
  std::vector<RowId> ids_;
};

TEST_P(RowStoreTest, AppendThenReadRowRoundTrips) {
  auto t = Make(8);
  EXPECT_EQ(Column(*t, ids_[3], 0), 3);  // generated row, key == id
  const RowId rid = t->Append(core_, Row(*t, 777, 888).data());
  ASSERT_NE(rid, kInvalidRow);
  EXPECT_EQ(std::count(ids_.begin(), ids_.end(), rid), 0);
  EXPECT_EQ(Column(*t, rid, 0), 777);
  EXPECT_EQ(Column(*t, rid, 1), 888);
}

TEST_P(RowStoreTest, WriteColumnPersistsAndRefusesAbsentRows) {
  auto t = Make(8);
  const int64_t v = -42;
  EXPECT_TRUE(t->WriteColumn(core_, ids_[5], 1, &v));
  EXPECT_EQ(Column(*t, ids_[5], 1), -42);
  EXPECT_EQ(Column(*t, ids_[5], 0), 5);  // other columns untouched
  ASSERT_TRUE(t->Delete(core_, ids_[6]));
  EXPECT_FALSE(t->WriteColumn(core_, ids_[6], 1, &v));
  EXPECT_EQ(Column(*t, ids_[6], 1), std::nullopt);
}

TEST_P(RowStoreTest, DeleteHidesRowAndSecondDeleteFails) {
  auto t = Make(8);
  ASSERT_TRUE(t->Delete(core_, ids_[3]));
  EXPECT_EQ(Column(*t, ids_[3], 0), std::nullopt);
  EXPECT_FALSE(t->Delete(core_, ids_[3]));
  EXPECT_EQ(Column(*t, ids_[4], 0), 4);
}

TEST_P(RowStoreTest, RestoreRowLandsAtTheExactRowId) {
  auto t = Make(8);
  const std::vector<uint8_t> image = Row(*t, 555, 1);
  // Over a live row, over a deleted one, and as absent.
  t->RestoreRow(core_, ids_[2], image.data(), /*present=*/true);
  EXPECT_EQ(Column(*t, ids_[2], 0), 555);
  ASSERT_TRUE(t->Delete(core_, ids_[4]));
  t->RestoreRow(core_, ids_[4], image.data(), /*present=*/true);
  EXPECT_EQ(Column(*t, ids_[4], 0), 555);
  t->RestoreRow(core_, ids_[5], image.data(), /*present=*/false);
  EXPECT_EQ(Column(*t, ids_[5], 0), std::nullopt);
  EXPECT_EQ(Column(*t, ids_[6], 0), 6);
  // Past the end (memory: beyond the rid space; heap file: a slot of a
  // page never written): the row lands there, the gap stays absent.
  const RowId past = GetParam() == Store::kDisk
                         ? ((DiskHeapFile::PageNo(ids_.back()) + 2) << 16) | 3
                         : ids_.back() + 3;
  t->RestoreRow(core_, past, image.data(), /*present=*/true);
  EXPECT_EQ(Column(*t, past, 1), 1);
  EXPECT_EQ(Column(*t, past - 1, 0), std::nullopt);
}

TEST_P(RowStoreTest, DirtyPagesListTheRowsACheckpointCaptures) {
  auto t = Make(8);
  EXPECT_TRUE(t->DirtyPages().empty());  // population starts clean
  const int64_t v = 9;
  ASSERT_TRUE(t->WriteColumn(core_, ids_[5], 1, &v));
  const std::vector<uint64_t> pages = t->DirtyPages();
  ASSERT_EQ(pages.size(), 1u);
  // All eight rows share the one page. Only the heap file reads its page
  // (the slot directory) to list them.
  const uint64_t before = core_->counters().data_accesses;
  EXPECT_EQ(t->CheckpointPageRows(core_, pages[0]), ids_);
  EXPECT_EQ(core_->counters().data_accesses > before,
            GetParam() == Store::kDisk);
}

INSTANTIATE_TEST_SUITE_P(AllStores, RowStoreTest,
                         ::testing::Values(Store::kHeap, Store::kSparse,
                                           Store::kDisk),
                         [](const ::testing::TestParamInfo<Store>& info) {
                           switch (info.param) {
                             case Store::kHeap:
                               return "Heap";
                             case Store::kSparse:
                               return "Sparse";
                             case Store::kDisk:
                               return "Disk";
                           }
                           return "";
                         });

TEST(TableFactoryTest, PicksSparseAboveResidentBudget) {
  TableOptions opts;
  opts.row_stride = 1 << 20;  // 1MB per row
  opts.max_resident_bytes = 4 << 20;
  auto t = CreateTable("big", TwoLongColumns(), 1000, opts);
  // A sparse table spreads rows over the synthetic address range
  // [2^44, 2^46); real heap mappings live above it on x86-64 Linux.
  EXPECT_GE(t->RowAddress(0), 1ULL << 44);
  EXPECT_LT(t->RowAddress(0), 1ULL << 46);
}

TEST(TableFactoryTest, PicksHeapWithinBudget) {
  TableOptions opts;
  opts.row_stride = 64;
  auto t = CreateTable("small", TwoLongColumns(), 1000, opts);
  const uint64_t addr = t->RowAddress(0);
  // Real memory: outside the synthetic sparse range.
  EXPECT_TRUE(addr < (1ULL << 44) || addr >= (1ULL << 46));
}

TEST(TableTest, StringSchemaGeneratesUniqueEarlyDivergingKeys) {
  // String keys carry the row id in their leading bytes (comparisons
  // early-exit) and are unique across rows.
  TableOptions opts;
  auto t = CreateTable("s", TwoStringColumns(), 100, opts);
  std::vector<uint8_t> a(100), b(100);
  mcsim::MachineSim machine(NoTlb());
  ASSERT_TRUE(t->ReadRow(&machine.core(0), 7, a.data()));
  ASSERT_TRUE(t->ReadRow(&machine.core(0), 70, b.data()));
  EXPECT_NE(0, std::memcmp(a.data(), b.data(), kStringBytes));
  EXPECT_EQ(a[0], '7');
  EXPECT_EQ(b[0], '7');
  EXPECT_EQ(b[1], '0');
  EXPECT_EQ(a[1], 'a');
}

}  // namespace
}  // namespace imoltp::storage
