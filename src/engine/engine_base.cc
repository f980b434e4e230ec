#include "engine/engine_base.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

namespace imoltp::engine {

EngineBase::EngineBase(mcsim::MachineSim* machine,
                       const EngineOptions& options)
    : machine_(machine),
      options_(options),
      spans_(&machine->config().cycle, machine->num_cores()) {
  logs_.reserve(machine_->num_cores());
  for (int i = 0; i < machine_->num_cores(); ++i) {
    logs_.push_back(
        std::make_unique<txn::LogManager>(options_.log_buffer_bytes));
    logs_.back()->set_fault_injector(options_.fault_injector);
  }
  if (options_.checkpoint.enabled) {
    ckpt_ = std::make_unique<txn::CheckpointManager>(options_.checkpoint);
  }
}

mcsim::CodeRegion EngineBase::DefineRegion(const RegionSpec& spec) {
  const mcsim::ModuleId module =
      machine_->modules().Intern(spec.module, spec.engine_side);
  return machine_->code_space().Define(
      module, spec.total_bytes, spec.touched_bytes, spec.instructions,
      spec.mispredicts_per_kinstr, spec.cpi);
}

index::Key EngineBase::DefaultKeyOf(const storage::Schema& schema,
                                    storage::RowId r, uint64_t seed) {
  (void)seed;
  if (schema.num_columns() > 0 &&
      schema.column_type(0) == storage::ColumnType::kString) {
    // String tables key on the generated column-0 contents.
    uint8_t buf[256];
    storage::DefaultRowGenerator(schema, r, seed, buf);
    return index::Key::FromBytes(buf, storage::kStringBytes);
  }
  return index::Key::FromUint64(r);
}

index::Key EngineBase::KeyForRow(const TableDef& def, storage::RowId r) {
  if (def.key_of != nullptr) return def.key_of(def.schema, r, def.seed);
  return DefaultKeyOf(def.schema, r, def.seed);
}

index::IndexKind EngineBase::PrimaryIndexKind(const TableDef& def) const {
  index::IndexKind kind = default_index_kind(def);
  if (def.needs_ordered_index && kind == index::IndexKind::kHash) {
    kind = index::IndexKind::kBTreeCc;  // DBMS M's ordered alternative
  }
  return kind;
}

Status EngineBase::CreateDatabase(const std::vector<TableDef>& defs) {
  // Populate with simulation off: the paper attaches the profiler only
  // after loading and warm-up (Section 3, "Measurements").
  machine_->SetEnabled(false);
  mcsim::CoreSim* core = &machine_->core(0);

  if (disk_based() && bufferpool_ == nullptr) {
    bufferpool_ = std::make_unique<storage::BufferPool>(
        options_.bufferpool_frames, 8192);
  }

  const int slices = num_slices();
  tables_.clear();
  tables_.reserve(defs.size());

  for (const TableDef& def : defs) {
    TableRt rt;
    rt.def = def;
    rt.slices.resize(slices);
    for (int p = 0; p < slices; ++p) {
      Slice& slice = rt.slices[p];
      uint64_t lo = def.initial_rows * p / slices;
      uint64_t hi = def.initial_rows * (p + 1) / slices;
      if (def.replicated) {  // full copy on every partition
        lo = 0;
        hi = def.initial_rows;
      }
      slice.first_global_row = lo;
      slice.num_initial_rows = hi - lo;
      if (!def.no_primary_index) {
        slice.primary =
            index::CreateIndex(PrimaryIndexKind(def), def.key_bytes);
      }
      // Secondary indexes are ordered: promote a hash default.
      index::IndexKind sec_kind = default_index_kind(def);
      if (sec_kind == index::IndexKind::kHash) {
        sec_kind = index::IndexKind::kBTreeCc;
      }
      for (size_t i = 0; i < def.secondaries.size(); ++i) {
        slice.secondaries.push_back(index::CreateIndex(sec_kind, 8));
      }

      if (disk_based()) {
        slice.disk = std::make_unique<storage::DiskHeapFile>(
            bufferpool_.get(), next_file_id_++, def.schema);
        slice.rowid_of.reserve(slice.num_initial_rows);
        std::vector<uint8_t> buf(def.schema.row_bytes());
        const storage::RowGenerator gen =
            def.generator ? def.generator : storage::DefaultRowGenerator;
        for (uint64_t r = lo; r < hi; ++r) {
          gen(def.schema, r, def.seed, buf.data());
          const storage::RowId rid = slice.disk->Append(core, buf.data());
          if (rid == storage::kInvalidRow) {
            return Status::ResourceExhausted("buffer pool full");
          }
          slice.rowid_of.push_back(rid);
          if (slice.primary != nullptr) {
            const Status s =
                slice.primary->Insert(core, KeyForRow(def, r), rid);
            if (!s.ok()) return s;
          }
          InsertSecondaries(core, rt, slice, buf.data(), rid);
        }
      } else {
        storage::TableOptions topts;
        topts.generator = def.generator;
        topts.generator_seed = def.seed;
        topts.generator_row_offset = lo;
        if (def.nominal_bytes > 0 && def.initial_rows > 0) {
          topts.row_stride = static_cast<uint32_t>(
              def.nominal_bytes / def.initial_rows);
        }
        slice.mem = storage::CreateTable(def.name, def.schema,
                                         slice.num_initial_rows, topts);
        std::vector<uint8_t> buf(def.schema.row_bytes());
        const storage::RowGenerator gen =
            def.generator ? def.generator : storage::DefaultRowGenerator;
        for (uint64_t r = lo; r < hi; ++r) {
          if (slice.primary != nullptr) {
            const Status s =
                slice.primary->Insert(core, KeyForRow(def, r), r - lo);
            if (!s.ok()) return s;
          }
          if (!slice.secondaries.empty()) {
            gen(def.schema, r, def.seed, buf.data());
            InsertSecondaries(core, rt, slice, buf.data(), r - lo);
          }
        }
      }
    }
    tables_.push_back(std::move(rt));
  }

  if (ckpt_ != nullptr) {
    for (TableRt& rt : tables_) {
      for (Slice& slice : rt.slices) {
        slice.journal_mu = std::make_unique<std::mutex>();
        // Initial population is regenerable (CreateDatabase rebuilds
        // it deterministically): checkpoints only carry pages that
        // diverged from it.
        if (slice.disk != nullptr) slice.disk->MarkClean();
      }
    }
    if (num_slices() == 1) {
      // WAL rule for fuzzy capture: worker 0's capture thread can
      // snapshot any worker's in-place effects, and only a worker's
      // own thread may touch its log — so the log device runs
      // synchronously (see LogManager::set_force).
      for (auto& log : logs_) log->set_force(true);
    }
    journal_enabled_ = true;
  }

  machine_->SetEnabled(true);
  WarmCaches();
  OnDatabaseReady();
  return Status::Ok();
}

void EngineBase::WarmCaches() {
  // Stream every index path and row through the hierarchy once — the
  // paper runs the benchmark for 60 seconds before attaching VTune, long
  // enough for the steady-state cache contents to form. Databases that
  // fit in the LLC end up resident; larger ones end with the tail of the
  // scan resident, which random probes then evict either way.
  for (TableRt& rt : tables_) {
    for (size_t p = 0; p < rt.slices.size(); ++p) {
      Slice& slice = rt.slices[p];
      mcsim::CoreSim* core =
          &machine_->core(static_cast<int>(p) % machine_->num_cores());
      std::vector<uint8_t> buf(rt.def.schema.row_bytes());
      if (slice.primary == nullptr) continue;
      for (uint64_t r = slice.first_global_row;
           r < slice.first_global_row + slice.num_initial_rows; ++r) {
        uint64_t value = 0;
        if (!slice.primary->Lookup(core, KeyForRow(rt.def, r), &value)) {
          continue;
        }
        if (slice.mem != nullptr) {
          slice.mem->ReadRow(core, value, buf.data());
        } else {
          slice.disk->Read(core, value, buf.data());
        }
      }
    }
  }
}

}  // namespace imoltp::engine

// ---------------------------------------------------------------------------
// Storage-agnostic row helpers (disk heap file vs in-memory table).
// ---------------------------------------------------------------------------

namespace imoltp::engine {

bool EngineBase::SliceRead(mcsim::CoreSim* core, Slice& slice,
                           storage::RowId row, uint8_t* out) {
  return slice.disk ? slice.disk->Read(core, row, out)
                    : slice.mem->ReadRow(core, row, out);
}

bool EngineBase::SliceWriteColumn(mcsim::CoreSim* core, Slice& slice,
                                  storage::RowId row, uint32_t column,
                                  const void* value,
                                  const storage::Schema& schema) {
  (void)schema;
  if (slice.disk) {
    return slice.disk->WriteColumn(core, row, column, value);
  }
  slice.mem->WriteColumn(core, row, column, value);
  return true;
}

void EngineBase::SliceWriteRow(mcsim::CoreSim* core, Slice& slice,
                               storage::RowId row, const uint8_t* image,
                               const storage::Schema& schema) {
  for (uint32_t c = 0; c < schema.num_columns(); ++c) {
    SliceWriteColumn(core, slice, row, c, schema.ColumnPtr(image, c),
                     schema);
  }
}

storage::RowId EngineBase::SliceAppend(mcsim::CoreSim* core, Slice& slice,
                                       const uint8_t* row) {
  return slice.disk ? slice.disk->Append(core, row)
                    : slice.mem->Append(core, row);
}

bool EngineBase::SliceDelete(mcsim::CoreSim* core, Slice& slice,
                             storage::RowId row) {
  return slice.disk ? slice.disk->Delete(core, row)
                    : slice.mem->Delete(core, row);
}

void EngineBase::SliceRestore(mcsim::CoreSim* core, Slice& slice,
                              storage::RowId row, const uint8_t* image,
                              bool present) {
  if (slice.disk != nullptr) {
    if (present) {
      slice.disk->Restore(core, row, image);
    } else {
      slice.disk->Delete(core, row);
    }
    return;
  }
  slice.mem->RestoreRow(core, row, image, present);
}

void EngineBase::JournalPrimary(Slice& slice, bool insert,
                                const index::Key& key,
                                storage::RowId rid) {
  if (!journal_enabled_ || slice.journal_mu == nullptr) return;
  txn::CheckpointJournalEntry e;
  e.target = -1;
  e.insert = insert;
  e.key = key;
  e.rid = rid;
  std::lock_guard<std::mutex> lock(*slice.journal_mu);
  slice.journal.push_back(e);
}

void EngineBase::JournalSecondary(Slice& slice, int16_t target,
                                  bool insert, const index::Key& key,
                                  storage::RowId rid) {
  if (!journal_enabled_ || slice.journal_mu == nullptr) return;
  txn::CheckpointJournalEntry e;
  e.target = target;
  e.insert = insert;
  e.key = key;
  e.rid = rid;
  std::lock_guard<std::mutex> lock(*slice.journal_mu);
  slice.journal.push_back(e);
}

Status EngineBase::PrimaryInsert(mcsim::CoreSim* core, Slice& slice,
                                 const index::Key& key,
                                 storage::RowId rid) {
  const Status s = slice.primary->Insert(core, key, rid);
  if (s.ok()) JournalPrimary(slice, /*insert=*/true, key, rid);
  return s;
}

bool EngineBase::PrimaryRemove(mcsim::CoreSim* core, Slice& slice,
                               const index::Key& key) {
  const bool ok = slice.primary->Remove(core, key);
  if (ok) JournalPrimary(slice, /*insert=*/false, key, 0);
  return ok;
}

void EngineBase::InsertSecondaries(mcsim::CoreSim* core, TableRt& rt,
                                   Slice& slice, const uint8_t* row,
                                   storage::RowId rid) {
  for (size_t i = 0; i < slice.secondaries.size(); ++i) {
    const index::Key key =
        rt.def.secondaries[i].key_of(rt.def.schema, row);
    slice.secondaries[i]->Insert(core, key, rid);
    JournalSecondary(slice, static_cast<int16_t>(i), /*insert=*/true,
                     key, rid);
  }
}

void EngineBase::RemoveSecondaries(mcsim::CoreSim* core, TableRt& rt,
                                   Slice& slice, const uint8_t* row) {
  for (size_t i = 0; i < slice.secondaries.size(); ++i) {
    const index::Key key =
        rt.def.secondaries[i].key_of(rt.def.schema, row);
    slice.secondaries[i]->Remove(core, key);
    JournalSecondary(slice, static_cast<int16_t>(i), /*insert=*/false,
                     key, 0);
  }
}

void EngineBase::ApplyUndo(mcsim::CoreSim* core,
                           std::vector<UndoEntry>& undo,
                           txn::LogManager* log, uint64_t txn_id) {
  // CLRs: redo-only compensation records, emitted when a checkpoint
  // may have captured the transaction's in-place writes. Recovery
  // replays them unconditionally, repeating this rollback.
  const bool clr =
      log != nullptr && ckpt_logging() && logs_physical();
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    UndoEntry& u = *it;
    TableRt& rt = tables_[u.table];
    Slice& slice = rt.slices[u.slice];
    const int16_t slice16 = static_cast<int16_t>(u.slice);
    switch (u.kind) {
      case UndoEntry::Kind::kColumnImage:
        SliceWriteColumn(core, slice, u.row, u.column, u.image.data(),
                         rt.def.schema);
        if (clr) {
          log->Append(core, txn::LogOp::kUpdate, txn_id,
                      static_cast<int16_t>(u.table), u.row,
                      static_cast<int16_t>(u.column), u.image.data(),
                      static_cast<uint32_t>(u.image.size()), nullptr, 0,
                      slice16, nullptr, 0, /*clr=*/true);
        }
        break;
      case UndoEntry::Kind::kInsertedRow:
        if (slice.primary != nullptr) PrimaryRemove(core, slice, u.key);
        if (!u.image.empty()) {
          RemoveSecondaries(core, rt, slice, u.image.data());
        }
        SliceDelete(core, slice, u.row);
        if (clr) {
          log->Append(core, txn::LogOp::kDelete, txn_id,
                      static_cast<int16_t>(u.table), u.row, -1, nullptr,
                      0, u.key.data(), u.key.size(), slice16,
                      u.image.data(),
                      static_cast<uint32_t>(u.image.size()),
                      /*clr=*/true);
        }
        break;
      case UndoEntry::Kind::kDeletedRow: {
        // Resurrect the row (possibly at a fresh slot) and re-index it.
        const storage::RowId rid =
            SliceAppend(core, slice, u.image.data());
        if (slice.primary != nullptr) {
          PrimaryInsert(core, slice, u.key, rid);
        }
        InsertSecondaries(core, rt, slice, u.image.data(), rid);
        if (clr) {
          log->Append(core, txn::LogOp::kInsert, txn_id,
                      static_cast<int16_t>(u.table), rid, -1,
                      u.image.data(),
                      static_cast<uint32_t>(u.image.size()),
                      u.key.data(), u.key.size(), slice16, nullptr, 0,
                      /*clr=*/true);
        }
        break;
      }
    }
  }
  undo.clear();
}

// ---------------------------------------------------------------------------
// Recovery: merged stable log + REDO replay.
// ---------------------------------------------------------------------------

uint64_t EngineBase::LogTruncationLsn() const {
  uint64_t lsn = 0;
  for (const auto& log : logs_) {
    lsn = std::max(lsn, log->truncation_lsn());
  }
  return lsn;
}

uint64_t EngineBase::AppendedLogRecords() const {
  uint64_t n = 0;
  for (const auto& log : logs_) n += log->appended_records();
  return n;
}

std::vector<txn::LogRecord> EngineBase::StableLog() const {
  std::vector<txn::LogRecord> merged;
  for (const auto& log : logs_) {
    const auto& records = log->stable_log();
    merged.insert(merged.end(), records.begin(), records.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const txn::LogRecord& a, const txn::LogRecord& b) {
              return a.lsn < b.lsn;
            });
  return merged;
}

std::vector<txn::LogRecord> EngineBase::FlushedLog() const {
  std::vector<txn::LogRecord> merged;
  for (const auto& log : logs_) {
    const auto& records = log->stable_log();
    merged.insert(merged.end(), records.begin(),
                  records.begin() +
                      static_cast<std::ptrdiff_t>(log->flushed_records()));
  }
  std::sort(merged.begin(), merged.end(),
            [](const txn::LogRecord& a, const txn::LogRecord& b) {
              return a.lsn < b.lsn;
            });
  return merged;
}

Status EngineBase::RedoPass(const std::vector<txn::LogRecord>& log,
                            txn::RecoveryStats* stats) {
  // A torn record (bad checksum on the device) ends the usable log:
  // recovery scans forward and stops at the first record that fails
  // verification, exactly like a real ARIES analysis pass.
  size_t usable = log.size();
  for (size_t i = 0; i < log.size(); ++i) {
    if (log[i].torn) {
      usable = i;
      break;
    }
  }

  // Analysis pass: which transactions committed?
  std::unordered_set<uint64_t> committed;
  for (size_t i = 0; i < usable; ++i) {
    if (log[i].op == txn::LogOp::kCommit) committed.insert(log[i].txn_id);
  }

  // REDO pass, in LSN order, committed transactions only. Recovery runs
  // outside any measurement window (the caller disabled the machine).
  mcsim::CoreSim* core = &machine_->core(0);
  Status result = Status::Ok();
  for (size_t i = 0; i < usable; ++i) {
    const txn::LogRecord& rec = log[i];
    if (rec.op == txn::LogOp::kCommit || rec.op == txn::LogOp::kAbort ||
        rec.op == txn::LogOp::kCommand ||
        rec.op == txn::LogOp::kCheckpointBegin ||
        rec.op == txn::LogOp::kCheckpointEnd) {
      continue;  // kCommand is logical; physical REDO cannot replay it
    }
    // CLRs replay unconditionally: they repeat a rollback that already
    // happened (checkpoint-enabled logs only).
    if (!rec.clr && committed.count(rec.txn_id) == 0) continue;
    if (rec.table < 0 ||
        rec.table >= static_cast<int16_t>(tables_.size())) {
      result = Status::Internal("log record references unknown table");
      break;
    }
    if (stats != nullptr) ++stats->replayed_records;
    TableRt& rt = tables_[rec.table];
    const int slice_idx =
        rec.slice >= 0 &&
                rec.slice < static_cast<int16_t>(rt.slices.size())
            ? rec.slice
            : 0;
    Slice& slice = rt.slices[slice_idx];
    switch (rec.op) {
      case txn::LogOp::kUpdate:
        if (rec.column >= 0) {
          SliceWriteColumn(core, slice, rec.row, rec.column,
                           rec.payload.data(), rt.def.schema);
        } else {
          SliceWriteRow(core, slice, rec.row, rec.payload.data(),
                        rt.def.schema);
        }
        break;
      case txn::LogOp::kInsert: {
        // Placement replay: the record's RowId is the physical position
        // the live run assigned; later records reference it, so the
        // replayed row must land exactly there.
        SliceRestore(core, slice, rec.row, rec.payload.data(),
                     /*present=*/true);
        if (slice.primary != nullptr && !rec.key.empty()) {
          const index::Key k = index::Key::FromBytes(
              rec.key.data(), static_cast<uint32_t>(rec.key.size()));
          slice.primary->Remove(core, k);  // idempotent re-replay
          const Status s = slice.primary->Insert(core, k, rec.row);
          if (!s.ok()) {
            result = s;
          } else {
            JournalPrimary(slice, /*insert=*/true, k, rec.row);
          }
        }
        InsertSecondaries(core, rt, slice, rec.payload.data(), rec.row);
        break;
      }
      case txn::LogOp::kDelete: {
        if (!slice.secondaries.empty()) {
          // Prefer the logged before-image (checkpoint-enabled logs);
          // fall back to the current row contents.
          if (rec.before.size() >= rt.def.schema.row_bytes()) {
            RemoveSecondaries(core, rt, slice, rec.before.data());
          } else {
            std::vector<uint8_t> image(rt.def.schema.row_bytes());
            if (SliceRead(core, slice, rec.row, image.data())) {
              RemoveSecondaries(core, rt, slice, image.data());
            }
          }
        }
        if (slice.primary != nullptr && !rec.key.empty()) {
          const index::Key k = index::Key::FromBytes(
              rec.key.data(), static_cast<uint32_t>(rec.key.size()));
          if (slice.primary->Remove(core, k)) {
            JournalPrimary(slice, /*insert=*/false, k, 0);
          }
        }
        SliceDelete(core, slice, rec.row);
        break;
      }
      default:
        break;
    }
    if (!result.ok()) break;
  }
  return result;
}

}  // namespace imoltp::engine
