#include "txn/log_manager.h"

#include <algorithm>

namespace imoltp::txn {

uint64_t LogManager::Append(mcsim::CoreSim* core, LogOp op,
                            uint64_t txn_id, int16_t table, uint64_t row,
                            int16_t column, const void* payload,
                            uint32_t payload_bytes, const void* key,
                            uint32_t key_bytes, int16_t slice,
                            const void* before, uint32_t before_bytes,
                            bool clr) {
  const uint32_t record_bytes =
      kHeaderBytes + payload_bytes + key_bytes + before_bytes;
  Reserve(record_bytes);

  // Critical-path work: format the record into the sequential buffer.
  uint8_t* dst = buffer_.get() + offset_;
  std::memcpy(dst, &txn_id, 8);
  std::memcpy(dst + 8, &row, 8);
  std::memcpy(dst + 16, &payload_bytes, 4);
  std::memcpy(dst + 20, &key_bytes, 4);
  std::memcpy(dst + 24, &table, 2);
  std::memcpy(dst + 26, &column, 2);
  dst[28] = static_cast<uint8_t>(op);
  if (payload != nullptr && payload_bytes > 0) {
    std::memcpy(dst + kHeaderBytes, payload, payload_bytes);
  }
  if (key != nullptr && key_bytes > 0) {
    std::memcpy(dst + kHeaderBytes + payload_bytes, key, key_bytes);
  }
  if (before != nullptr && before_bytes > 0) {
    std::memcpy(dst + kHeaderBytes + payload_bytes + key_bytes, before,
                before_bytes);
  }
  core->Write(reinterpret_cast<uint64_t>(dst), record_bytes);
  core->Retire(18 + (payload_bytes + key_bytes + before_bytes) / 16);
  offset_ += Align8(record_bytes);
  bytes_logged_ += record_bytes;

  // Durable side (the simulated log device). A null pointer stores no
  // bytes whatever its length.
  DeviceHeader h{};
  // A torn write is the device's tail: it crashes the run (the process
  // halts after this transaction), so nothing logged after it can reach
  // a checkpoint page that recovery, stopping at the torn record, would
  // then fail to redo or undo.
  if (fault_ != nullptr && fault_->FireCrash(fault::kLogTornRecord)) {
    h.flags |= DeviceHeader::kTorn;
  }
  if (clr) h.flags |= DeviceHeader::kClr;
  h.lsn = NextLsn();
  h.txn_id = txn_id;
  h.row = row;
  h.payload_bytes = payload != nullptr ? payload_bytes : 0;
  h.key_bytes = key != nullptr ? key_bytes : 0;
  h.before_bytes = before != nullptr ? before_bytes : 0;
  h.table = table;
  h.column = column;
  h.slice = slice;
  h.op = static_cast<uint8_t>(op);
  uint8_t* rec = DeviceAlloc(h.StoredBytes());
  std::memcpy(rec, &h, sizeof(h));
  uint8_t* body = rec + sizeof(h);
  if (h.payload_bytes > 0) std::memcpy(body, payload, h.payload_bytes);
  body += h.payload_bytes;
  if (h.key_bytes > 0) std::memcpy(body, key, h.key_bytes);
  body += h.key_bytes;
  if (h.before_bytes > 0) std::memcpy(body, before, h.before_bytes);
  ++records_;
  if (force_) flushed_records_ = records_;
  return h.lsn;
}

uint8_t* LogManager::DeviceAlloc(uint32_t bytes) {
  if (device_.empty() ||
      device_.back().capacity - device_.back().used < bytes) {
    const uint32_t capacity = std::max(bytes, kDeviceBlockBytes);
    device_.push_back(DeviceBlock{
        std::make_unique_for_overwrite<uint8_t[]>(capacity), capacity, 0});
  }
  DeviceBlock& block = device_.back();
  uint8_t* p = block.bytes.get() + block.used;
  block.used += bytes;
  return p;
}

void LogManager::Truncate(uint64_t upto_lsn) {
  uint64_t drop = 0;
  while (drop < records_) {
    const DeviceBlock& front = device_.front();
    DeviceHeader h;
    std::memcpy(&h, front.bytes.get() + device_head_, sizeof(h));
    if (h.lsn >= upto_lsn) break;
    ++drop;
    device_head_ += h.StoredBytes();
    if (device_head_ == front.used) {  // emptied: free it
      device_.pop_front();
      device_head_ = 0;
    }
  }
  records_ -= drop;
  truncated_records_ += drop;
  flushed_records_ = flushed_records_ > drop ? flushed_records_ - drop : 0;
  if (upto_lsn > truncation_lsn_) truncation_lsn_ = upto_lsn;
}

std::vector<LogRecord> LogManager::Decode(uint64_t count) const {
  std::vector<LogRecord> out;
  out.reserve(count);
  size_t block = 0;
  uint32_t offset = device_head_;
  for (uint64_t i = 0; i < count; ++i) {
    if (offset == device_[block].used) {
      ++block;
      offset = 0;
    }
    const uint8_t* rec = device_[block].bytes.get() + offset;
    DeviceHeader h;
    std::memcpy(&h, rec, sizeof(h));
    offset += h.StoredBytes();
    LogRecord& r = out.emplace_back();
    r.lsn = h.lsn;
    r.txn_id = h.txn_id;
    r.op = static_cast<LogOp>(h.op);
    r.table = h.table;
    r.column = h.column;
    r.slice = h.slice;
    r.row = h.row;
    r.torn = (h.flags & DeviceHeader::kTorn) != 0;
    r.clr = (h.flags & DeviceHeader::kClr) != 0;
    const uint8_t* body = rec + sizeof(h);
    r.payload.assign(body, body + h.payload_bytes);
    body += h.payload_bytes;
    r.key.assign(body, body + h.key_bytes);
    body += h.key_bytes;
    r.before.assign(body, body + h.before_bytes);
  }
  return out;
}

}  // namespace imoltp::txn
