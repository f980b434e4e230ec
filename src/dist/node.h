#ifndef IMOLTP_DIST_NODE_H_
#define IMOLTP_DIST_NODE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tpcc.h"
#include "engine/engine.h"
#include "mcsim/machine.h"
#include "mcsim/profiler.h"
#include "txn/log_manager.h"

namespace imoltp::dist {

/// Configuration of one cluster node. Nodes are symmetric: each owns a
/// contiguous block of `warehouses` warehouses (node-local ids
/// 0..warehouses-1; the cluster's OwnershipMap translates global ids)
/// and runs its own engine instance on its own simulated machine with
/// one worker core per intra-node partition.
struct NodeConfig {
  int node_id = 0;
  int warehouses = 2;          // local warehouses (divisible by workers)
  int workers = 2;             // worker cores == intra-node partitions
  int orders_per_district = 200;
  engine::EngineKind engine_kind = engine::EngineKind::kHyPer;
  engine::EngineOptions engine_options;   // num_partitions overridden
  mcsim::MachineConfig machine_config;    // num_cores overridden
};

/// Per-node transaction accounting, mutated by the cluster driver.
/// Everything here is outcome-derived and deterministic — it feeds the
/// cluster fingerprint; cycle-valued metrics live in the WindowReport
/// instead.
struct NodeStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t single_home = 0;      // committed single-home txns homed here
  uint64_t multi_home = 0;       // committed multi-home txns homed here
  uint64_t fragments = 0;        // fragments executed here (any origin)
  uint64_t stall_cycles = 0;     // network wait charged to this node
};

/// One node of the simulated cluster: a full engine + machine + local
/// TPC-C instance, plus the crash/recovery lifecycle the `node.death`
/// fault point exercises. Killing a node destroys its machine and
/// engine (volatile state is gone) but keeps the durable log it had
/// written; Recover() rebuilds the node from that log, exactly the
/// chaos-harness recovery contract (src/fault/chaos.cc) lifted to node
/// granularity.
class Node {
 public:
  explicit Node(const NodeConfig& config);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Builds machine + engine and bulk-populates the local warehouses.
  Status Create();

  /// Opens / closes the measurement window on all worker cores. The
  /// window survives Kill(): killing a measuring node closes its
  /// window first so the partial report is kept.
  void BeginWindow();
  void EndWindow();

  /// Simulated fail-stop: snapshots the durable log, then drops engine
  /// and machine. The node stops generating and executing.
  void Kill(uint64_t round);

  /// Rebuilds a killed node: fresh machine + engine, re-populated
  /// initial database, REDO of the saved durable log.
  Status Recover();

  bool alive() const { return alive_; }
  bool ever_died() const { return ever_died_; }
  uint64_t death_round() const { return death_round_; }

  int node_id() const { return config_.node_id; }
  const NodeConfig& config() const { return config_; }

  engine::Engine* engine() { return engine_.get(); }
  mcsim::MachineSim* machine() { return machine_.get(); }
  core::TpccBenchmark* bench() { return bench_.get(); }

  NodeStats& stats() { return stats_; }
  const NodeStats& stats() const { return stats_; }

  /// The measurement window's report: the profiler's if the node is
  /// alive and measured normally, the stashed partial one if the node
  /// was killed mid-window. Valid after EndWindow().
  const mcsim::WindowReport& window() const { return window_; }
  bool has_window() const { return has_window_; }

  /// Simulated references (code-line fetches + data accesses) the
  /// node's cores made in the measurement window — up to its death for
  /// a node killed mid-window. Valid after EndWindow().
  uint64_t window_refs() const { return window_refs_; }

  /// Home worker core of node-local warehouse `local_w` (same formula
  /// the single-node TPC-C harness uses to route warehouses to
  /// partitions).
  int WorkerFor(uint64_t local_w) const {
    return static_cast<int>(local_w *
                            static_cast<uint64_t>(config_.workers) /
                            static_cast<uint64_t>(config_.warehouses));
  }

  /// Durable log for fingerprints / recovery checks: the engine's live
  /// stable log while alive, the death-time snapshot after Kill().
  std::vector<txn::LogRecord> DurableLog() const;

 private:
  NodeConfig config_;
  std::unique_ptr<mcsim::MachineSim> machine_;
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<core::TpccBenchmark> bench_;  // survives recovery:
  // its history-id counter must stay monotonic across the crash or
  // post-recovery Payments would collide with replayed history rows.
  std::unique_ptr<mcsim::Profiler> profiler_;
  NodeStats stats_;
  mcsim::WindowReport window_;
  uint64_t window_start_refs_ = 0;
  uint64_t window_refs_ = 0;
  bool window_open_ = false;
  bool has_window_ = false;
  bool alive_ = false;
  bool ever_died_ = false;
  uint64_t death_round_ = 0;
  std::vector<txn::LogRecord> saved_log_;
};

}  // namespace imoltp::dist

#endif  // IMOLTP_DIST_NODE_H_
