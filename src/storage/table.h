#ifndef IMOLTP_STORAGE_TABLE_H_
#define IMOLTP_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "mcsim/core.h"
#include "storage/schema.h"

namespace imoltp::storage {

using RowId = uint64_t;
inline constexpr RowId kInvalidRow = UINT64_MAX;

/// Row storage: the one interface every engine reaches its rows through.
/// Three implementations, chosen per engine when the database is
/// created:
///
///   - HeapTable: rows materialized in real memory (segmented arena).
///     Used whenever the configured footprint is feasible to allocate.
///   - SparseTable: rows spread over a *nominal* address space with
///     deterministic value generation and a write overlay; used for the
///     paper's 10GB/100GB configurations (see DESIGN.md, Substitutions).
///   - DiskHeapFile (storage/disk_heap_file.h): slotted pages behind a
///     BufferPool, the disk-based archetypes' row storage.
///
/// Every accessor takes the worker's CoreSim so the touched cache lines
/// flow through the simulated hierarchy. Tables are engine-neutral; the
/// engines add their own access-path overheads (versioning, locking)
/// on top.
class Table {
 public:
  virtual ~Table() = default;

  const Schema& schema() const { return schema_; }
  const std::string& name() const { return name_; }

  /// Memory tables: the size of the RowId space, deleted rows included.
  /// Heap file: live rows.
  virtual uint64_t num_rows() const = 0;

  /// Address of the row in the (possibly nominal) data address space.
  virtual uint64_t RowAddress(RowId row) const = 0;

  /// Copies the full row into `out` (schema().row_bytes() bytes) and
  /// traces the read. Returns false for a deleted/absent row.
  virtual bool ReadRow(mcsim::CoreSim* core, RowId row, uint8_t* out) = 0;

  /// Overwrites one column in place and traces the write. Returns false
  /// for a deleted/absent row.
  virtual bool WriteColumn(mcsim::CoreSim* core, RowId row, uint32_t col,
                           const void* value) = 0;

  /// Overwrites every column of `row` from the full row `image`, one
  /// WriteColumn per column (whole-row REDO and UNDO).
  void WriteRow(mcsim::CoreSim* core, RowId row, const uint8_t* image) {
    for (uint32_t c = 0; c < schema_.num_columns(); ++c) {
      WriteColumn(core, row, c, schema_.ColumnPtr(image, c));
    }
  }

  /// Appends a row; returns its RowId (kInvalidRow if there is no room).
  /// Traces the write.
  virtual RowId Append(mcsim::CoreSim* core, const uint8_t* row) = 0;

  /// Marks a row deleted. Returns false if it was absent already.
  virtual bool Delete(mcsim::CoreSim* core, RowId row) = 0;

  /// Checkpoint page granularity for in-memory tables: 64 consecutive
  /// RowIds per logical page (≈ a few KB of row data, the same order of
  /// magnitude as a disk page).
  static constexpr uint64_t kRowsPerCheckpointPage = 64;

  /// Logical page a RowId belongs to for checkpoint capture.
  static uint64_t CheckpointPageOf(RowId row) {
    return row / kRowsPerCheckpointPage;
  }

  /// Sorted checkpoint pages mutated since creation (initial population
  /// is clean — recovery regenerates it deterministically, so a fuzzy
  /// checkpoint only needs the pages that diverged). Never reset:
  /// checkpoints are self-contained.
  virtual std::vector<uint64_t> DirtyPages() const = 0;

  /// The RowIds a checkpoint captures for page `page_no`, in order.
  /// Memory tables: the page's kRowsPerCheckpointPage-row group, clipped
  /// to the RowId space (no simulated access).
  virtual std::vector<RowId> CheckpointPageRows(mcsim::CoreSim* core,
                                                uint64_t page_no);

  /// Places a row image at exactly `row` during recovery (RowIds in log
  /// records and checkpoint pages are the positions the live run
  /// assigned); `present == false` restores the row as deleted. Memory
  /// tables grow the rid space if needed; rows allocated only to bridge
  /// a rid gap stay absent until explicitly restored, so lost-tail
  /// inserts never resurface as garbage.
  virtual void RestoreRow(mcsim::CoreSim* core, RowId row,
                          const uint8_t* image, bool present) = 0;

 protected:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  std::string name_;
  Schema schema_;
};

/// Deterministic initial-row generator: fills a row buffer for RowId.
/// Sparse tables call it on demand; heap tables call it at creation.
using RowGenerator = void (*)(const Schema& schema, RowId row, uint64_t seed,
                              uint8_t* out);

/// Default generator: column 0 = row id (Long) or decimal string of the
/// row id (String); other columns derived from a seeded hash.
void DefaultRowGenerator(const Schema& schema, RowId row, uint64_t seed,
                         uint8_t* out);

/// Options controlling table placement.
struct TableOptions {
  /// Bytes of address space each row occupies (>= schema row bytes).
  /// Dense OLTP pages have per-row overhead (slot headers, padding);
  /// sparse tables use this to spread rows over the nominal size.
  uint32_t row_stride = 0;  // 0: derived from schema (+8 header bytes)

  /// If the full footprint (num_rows * stride) exceeds this, a
  /// SparseTable is used instead of a HeapTable.
  uint64_t max_resident_bytes = 256ULL << 20;

  /// Seed for deterministic sparse-row generation.
  uint64_t generator_seed = 0x1234;

  /// Generator for initial rows.
  RowGenerator generator = nullptr;  // nullptr: DefaultRowGenerator

  /// Added to the local RowId before calling the generator, so one
  /// logical table split across partition slices generates globally
  /// consistent rows.
  uint64_t generator_row_offset = 0;
};

/// Factory: picks HeapTable or SparseTable by footprint (see DESIGN.md).
std::unique_ptr<Table> CreateTable(std::string name, Schema schema,
                                   uint64_t initial_rows,
                                   const TableOptions& options);

}  // namespace imoltp::storage

#endif  // IMOLTP_STORAGE_TABLE_H_
