#include "layers.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace perfbench {

using imoltp::Status;
using imoltp::engine::KeyOfRow;
using imoltp::engine::SecondaryKeyOf;
using imoltp::engine::TableDef;
using imoltp::index::Key;
using imoltp::storage::RowGenerator;
using imoltp::storage::RowId;
using imoltp::storage::Schema;

int64_t TimerOverheadNs() {
  static const int64_t overhead = [] {
    std::array<int64_t, 1001> gaps{};
    for (int64_t& g : gaps) {
      const int64_t t0 = NowNs();
      g = NowNs() - t0;
    }
    std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2,
                     gaps.end());
    return gaps[gaps.size() / 2];
  }();
  return overhead;
}

namespace {

// Generator hooks. The engine stores plain function pointers, so each
// table (and each secondary index) gets its own trampoline slot that
// forwards to the workload's original generator.
constexpr int kMaxHooks = 32;
// One generator call in this many is timed; populate makes millions of
// sub-microsecond calls and timing each would double their cost.
constexpr uint64_t kGenSampleEvery = 16;

struct GeneratorHooks {
  std::array<RowGenerator, kMaxHooks> row{};
  std::array<KeyOfRow, kMaxHooks> key{};
  std::array<SecondaryKeyOf, kMaxHooks> secondary{};
  LayerTimes* populating = nullptr;  // null: forward untimed
};
GeneratorHooks g_hooks;

/// Times one generator call if it falls on the sampling grid.
class GenSample {
 public:
  GenSample() : times_(g_hooks.populating) {
    if (times_ != nullptr && times_->rowgen_calls++ % kGenSampleEvery == 0) {
      start_ = NowNs();
    } else {
      times_ = nullptr;
    }
  }
  ~GenSample() {
    if (times_ == nullptr) return;
    times_->rowgen_sampled_ns +=
        std::max<int64_t>(0, NowNs() - start_ - TimerOverheadNs());
    ++times_->rowgen_sampled;
  }
  GenSample(const GenSample&) = delete;
  GenSample& operator=(const GenSample&) = delete;

 private:
  LayerTimes* times_;
  int64_t start_ = 0;
};

template <size_t I>
void HookedRow(const Schema& schema, RowId row, uint64_t seed,
               uint8_t* out) {
  GenSample sample;
  g_hooks.row[I](schema, row, seed, out);
}

template <size_t I>
Key HookedKey(const Schema& schema, RowId row, uint64_t seed) {
  GenSample sample;
  return g_hooks.key[I](schema, row, seed);
}

template <size_t I>
Key HookedSecondary(const Schema& schema, const uint8_t* row) {
  GenSample sample;
  return g_hooks.secondary[I](schema, row);
}

template <size_t... I>
constexpr auto MakeTrampolines(std::index_sequence<I...>) {
  struct Table {
    std::array<RowGenerator, kMaxHooks> row;
    std::array<KeyOfRow, kMaxHooks> key;
    std::array<SecondaryKeyOf, kMaxHooks> secondary;
  };
  return Table{{&HookedRow<I>...}, {&HookedKey<I>...},
               {&HookedSecondary<I>...}};
}
constexpr auto kTrampolines =
    MakeTrampolines(std::make_index_sequence<kMaxHooks>{});

int TakeSlot(int* next) {
  if (*next >= kMaxHooks) {
    std::fprintf(stderr, "perfbench: more than %d generator hooks\n",
                 kMaxHooks);
    std::abort();
  }
  return (*next)++;
}

/// Adds one call of `fn` to `*ns` / `*calls`.
template <typename Fn>
Status TimeCall(int64_t* ns, uint64_t* calls, Fn&& fn) {
  const int64_t t0 = NowNs();
  Status s = fn();
  *ns += NowNs() - t0;
  ++*calls;
  return s;
}

}  // namespace

Status TimedTxnContext::Probe(int table, const Key& key, RowId* row) {
  return TimeCall(&times_->probe_ns, &times_->probes,
                  [&] { return inner_->Probe(table, key, row); });
}

Status TimedTxnContext::Read(int table, RowId row, uint8_t* out) {
  return TimeCall(&times_->read_ns, &times_->reads,
                  [&] { return inner_->Read(table, row, out); });
}

Status TimedTxnContext::Update(int table, RowId row, uint32_t column,
                               const void* value) {
  return TimeCall(&times_->write_ns, &times_->writes, [&] {
    return inner_->Update(table, row, column, value);
  });
}

Status TimedTxnContext::Insert(int table, const uint8_t* row,
                               const Key& key, RowId* out_row) {
  return TimeCall(&times_->write_ns, &times_->writes, [&] {
    return inner_->Insert(table, row, key, out_row);
  });
}

Status TimedTxnContext::Delete(int table, RowId row, const Key& key) {
  return TimeCall(&times_->write_ns, &times_->writes,
                  [&] { return inner_->Delete(table, row, key); });
}

Status TimedTxnContext::Scan(int table, const Key& from, uint64_t limit,
                             std::vector<RowId>* rows) {
  const size_t before = rows->size();
  const Status s = TimeCall(&times_->scan_ns, &times_->scans, [&] {
    return inner_->Scan(table, from, limit, rows);
  });
  times_->scanned_rows += rows->size() - std::min(before, rows->size());
  return s;
}

Status TimedTxnContext::ScanSecondary(int table, int secondary,
                                      const Key& from, uint64_t limit,
                                      std::vector<RowId>* rows) {
  const size_t before = rows->size();
  const Status s = TimeCall(&times_->scan_ns, &times_->scans, [&] {
    return inner_->ScanSecondary(table, secondary, from, limit, rows);
  });
  times_->scanned_rows += rows->size() - std::min(before, rows->size());
  return s;
}

Status TimedEngine::Execute(
    int worker, const imoltp::engine::TxnRequest& request,
    const std::function<Status(imoltp::engine::TxnContext&)>& body) {
  // Two captured pointers fit std::function's inline buffer, so the
  // wrapper allocates nothing.
  LayerTimes* times = times_;
  return TimeCall(&times_->execute_ns, &times_->execute_calls, [&] {
    return inner_->Execute(
        worker, request,
        [&body, times](imoltp::engine::TxnContext& ctx) {
          TimedTxnContext timed(&ctx, times);
          return body(timed);
        });
  });
}

TimedWorkload::~TimedWorkload() { EndPopulate(); }

std::vector<TableDef> TimedWorkload::Tables() const {
  std::vector<TableDef> defs = inner_->Tables();
  int next = 0;
  for (TableDef& def : defs) {
    const int row_slot = TakeSlot(&next);
    g_hooks.row[row_slot] = def.generator != nullptr
                                ? def.generator
                                : imoltp::storage::DefaultRowGenerator;
    def.generator = kTrampolines.row[row_slot];
    if (def.key_of != nullptr) {
      g_hooks.key[row_slot] = def.key_of;
      def.key_of = kTrampolines.key[row_slot];
    }
    for (imoltp::engine::SecondaryIndexDef& sec : def.secondaries) {
      const int slot = TakeSlot(&next);
      g_hooks.secondary[slot] = sec.key_of;
      sec.key_of = kTrampolines.secondary[slot];
    }
  }
  return defs;
}

Status TimedWorkload::RunTransaction(imoltp::engine::Engine* engine,
                                     int worker, imoltp::Rng* rng) {
  engine_.Bind(engine);
  const int64_t enter = NowNs();
  if (last_exit_ns_ != 0) times_->harness_ns += enter - last_exit_ns_;
  const Status s = inner_->RunTransaction(&engine_, worker, rng);
  const int64_t exit = NowNs();
  times_->txn_ns += exit - enter;
  ++times_->txns;
  if (measuring_) {
    times_->measured_txn_ns.Add(static_cast<double>(exit - enter));
  }
  last_exit_ns_ = exit;
  return s;
}

void TimedWorkload::BeginPopulate() {
  TimerOverheadNs();  // calibrate outside the timed region
  g_hooks.populating = times_;
}

void TimedWorkload::EndPopulate() {
  if (g_hooks.populating != times_) return;
  g_hooks.populating = nullptr;
  if (times_->rowgen_sampled > 0) {
    times_->rowgen_ns = static_cast<int64_t>(
        static_cast<double>(times_->rowgen_sampled_ns) *
        static_cast<double>(times_->rowgen_calls) /
        static_cast<double>(times_->rowgen_sampled));
  }
}

void TimedWorkload::BeginMeasurement() {
  last_exit_ns_ = 0;
  measuring_ = true;
}

}  // namespace perfbench
