#include "dist/node.h"

namespace imoltp::dist {

namespace {

uint64_t SimulatedRefs(const mcsim::MachineSim& machine) {
  const mcsim::CoreCounters total = machine.TotalCounters();
  return total.code_line_fetches + total.data_accesses;
}

}  // namespace

Node::Node(const NodeConfig& config) : config_(config) {
  core::TpccConfig tc;
  tc.warehouses = config_.warehouses;
  tc.orders_per_district = config_.orders_per_district;
  tc.num_partitions = config_.workers;
  bench_ = std::make_unique<core::TpccBenchmark>(tc);
}

Node::~Node() = default;

Status Node::Create() {
  mcsim::MachineConfig mc = config_.machine_config;
  mc.num_cores = config_.workers;
  machine_ = std::make_unique<mcsim::MachineSim>(mc);

  engine::EngineOptions opts = config_.engine_options;
  opts.num_partitions = config_.workers;
  engine_ = engine::CreateEngine(config_.engine_kind, machine_.get(), opts);

  const Status s = engine_->CreateDatabase(bench_->Tables());
  if (!s.ok()) return s;
  alive_ = true;
  return Status::Ok();
}

void Node::BeginWindow() {
  if (!alive_) return;
  profiler_ = std::make_unique<mcsim::Profiler>(machine_.get());
  std::vector<int> cores(static_cast<size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) cores[static_cast<size_t>(i)] = i;
  profiler_->BeginWindow(cores);
  window_start_refs_ = SimulatedRefs(*machine_);
  window_open_ = true;
  has_window_ = false;
}

void Node::EndWindow() {
  if (!window_open_) return;
  window_ = profiler_->EndWindow();
  window_refs_ = SimulatedRefs(*machine_) - window_start_refs_;
  profiler_.reset();
  window_open_ = false;
  has_window_ = true;
}

void Node::Kill(uint64_t round) {
  if (!alive_) return;
  // Close an open measurement window first: the partial profile of a
  // node that died mid-window is still a valid (and interesting)
  // report, and the profiler must not outlive the machine.
  EndWindow();
  saved_log_ = engine_->StableLog();
  engine_.reset();
  machine_.reset();
  alive_ = false;
  ever_died_ = true;
  death_round_ = round;
}

Status Node::Recover() {
  if (alive_) return Status::Ok();
  const Status s = Create();
  if (!s.ok()) return s;
  return engine_->Recover(/*device=*/{}, saved_log_,
                          /*log_truncation_lsn=*/0, nullptr);
}

std::vector<txn::LogRecord> Node::DurableLog() const {
  if (engine_ != nullptr) return engine_->StableLog();
  return saved_log_;
}

}  // namespace imoltp::dist
