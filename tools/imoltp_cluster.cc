// imoltp_cluster — drives the sharded scale-out layer (src/dist): N
// nodes, each a full engine + simulated machine owning a block of
// TPC-C warehouses, joined by an in-process message fabric with
// SLOG-style deterministic ordering (per-node sequencers, a global
// orderer for multi-home transactions).
//
//   imoltp_cluster run   [flags]          one cluster run -> JSON
//   imoltp_cluster sweep [flags]          throughput vs %-multi-home
//                                         (0/10/50/100 by default)
//
// `imoltp_cluster --help` lists every flag with its default and
// choices. Node-death recovery REDOes the dead node's physical log;
// voltdb's command log is not physically replayable, so chaos runs
// should keep a physical-logging engine (see docs/distributed.md).
// Tracing has zero observer effect: fingerprints are bit-identical
// with --trace-sample off, on or sampled.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "dist/cluster.h"
#include "dist/cluster_json.h"
#include "dist/cluster_timeline.h"
#include "tools/imoltp_cli.h"

namespace {

using imoltp::Status;
using imoltp::dist::Cluster;
using imoltp::dist::ClusterConfig;
using imoltp::dist::ClusterSweepToJson;
using imoltp::dist::SweepPoint;

/// Everything one command line sets, bound to the flag table.
struct ClusterArgs {
  ClusterConfig cfg;
  std::string engine_name = "hyper";
  std::string json_path = "-";
  std::vector<int> pcts = {0, 10, 50, 100};
  std::string timeline_path;
  bool print_fingerprint = false;
  bool trace_flag_set = false;
};

int WriteOut(const std::string& path, const std::string& doc) {
  if (path == "-" || path.empty()) {
    std::fwrite(doc.data(), 1, doc.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return 0;
}

imoltp::tools::FlagTable ClusterTable(ClusterArgs* a) {
  using imoltp::tools::kMaxCount;
  using imoltp::tools::kMaxWarehouses;
  using imoltp::tools::kMaxWorkers;
  using imoltp::tools::ParseUnsigned;
  using imoltp::tools::Split;
  ClusterConfig& cfg = a->cfg;
  imoltp::tools::FlagTable t("imoltp_cluster", "run|sweep [flags]");
  t.Int("nodes", &cfg.nodes, 1, 64, "cluster size");
  t.Int("warehouses-per-node", &cfg.warehouses_per_node, 1, kMaxWarehouses,
        "TPC-C warehouses per node (divisible by --workers-per-node)");
  t.Int("workers-per-node", &cfg.workers_per_node, 1, kMaxWorkers,
        "worker cores == partitions per node");
  t.Int("orders-per-district", &cfg.orders_per_district, 1, kMaxCount,
        "initial orders per district");
  t.Choice("engine", &a->engine_name,
           imoltp::engine::EngineKindChoices(), "engine on every node");
  t.Unsigned("txns", &cfg.txns_per_node,
             "measured transactions generated per node");
  t.Unsigned("warmup", &cfg.warmup_per_node,
             "warm-up transactions per node");
  t.Int("multi-home-pct", &cfg.multi_home_pct, 0, 100,
        "% of NewOrder/Payment that cross nodes (run only)");
  t.Int("batch", &cfg.batch_per_round, 1, 1 << 16,
        "transactions per node per scheduling round");
  t.Unsigned("net-latency", &cfg.net.latency_cycles,
             "one-way message latency, cycles");
  t.Unsigned("seed", &cfg.seed, "cluster seed");
  t.String("json", &a->json_path, "FILE", "write the report (- = stdout)");
  t.Bool("fingerprint", &a->print_fingerprint,
         "also print \"fingerprint: <hex>\" on stderr");
  t.Custom("chaos-node-death", "PROB[@NTH]",
           "arm node.death (@5 = the 5th (node,round) check)",
           [&cfg](const std::string& v, std::string* why) {
             // Same PROB[@NTH] grammar as --chaos-points values.
             std::vector<
                 std::pair<std::string, imoltp::fault::FaultPointConfig>>
                 parsed;
             if (!imoltp::tools::ParseChaosPoints(
                     std::string(imoltp::fault::kNodeDeath) + "=" + v,
                     &parsed, why)) {
               return false;
             }
             cfg.chaos.enabled = true;
             cfg.chaos.probability = parsed[0].second.probability;
             cfg.chaos.nth_hit = parsed[0].second.nth_hit;
             return true;
           });
  t.Bool("no-recover", &cfg.chaos.recover,
         "leave dead nodes dead (skips the cross-node audits)", false);
  t.Custom("sweep-pcts", "A,B,...", "sweep series of --multi-home-pct",
           [a](const std::string& v, std::string* why) {
             a->pcts.clear();
             for (const std::string& entry : Split(v, ',')) {
               uint64_t pct = 0;
               if (!ParseUnsigned(entry, &pct) || pct > 100) {
                 return *why = "bad entry " + entry + " (want 0..100)",
                        false;
               }
               a->pcts.push_back(static_cast<int>(pct));
             }
             if (a->pcts.empty()) return *why = "no percentages", false;
             return true;
           })
      .default_text = "0,10,50,100";
  t.Custom("trace-sample", "N|1/N",
           "trace one in N transactions (1 = all, 0 = off)",
           [a](const std::string& v, std::string* why) {
             uint64_t sample = 0;
             if (!ParseUnsigned(v.compare(0, 2, "1/") == 0 ? v.substr(2) : v,
                                &sample)) {
               return *why = "want N or 1/N, e.g. 1, 4, 1/16; 0 = off",
                      false;
             }
             a->cfg.trace.enabled = sample > 0;
             a->cfg.trace.sample = sample;
             a->trace_flag_set = true;
             return true;
           })
      .default_text = "0";
  t.Unsigned("trace-ring", &cfg.trace.ring_capacity,
             "full trace records kept for the timeline and p99 "
             "composition",
             1, 1 << 24);
  t.String("timeline-out", &a->timeline_path, "FILE",
           "write the whole-cluster Perfetto timeline (run only; implies "
           "--trace-sample=1 unless given)");
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc < 2 ? "" : argv[1];
  ClusterArgs args;
  imoltp::tools::FlagTable table = ClusterTable(&args);
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    std::fputs(table.Usage().c_str(), stdout);
    return 0;
  }
  if (cmd != "run" && cmd != "sweep") {
    return imoltp::tools::UsageError(
        table.program(),
        (cmd.empty() ? "missing subcommand" : "unknown subcommand: " + cmd) +
            " (choices: run sweep)");
  }
  if (const auto rc = table.ParseOrExit(argc - 1, argv + 1)) return *rc;
  ClusterConfig& cfg = args.cfg;

  // A requested timeline needs traces to draw; default to tracing
  // everything unless the user dialed the sample themselves.
  if (!args.timeline_path.empty() && !args.trace_flag_set) {
    cfg.trace.enabled = true;
    cfg.trace.sample = 1;
  }
  imoltp::engine::ParseEngineKind(args.engine_name, &cfg.engine_kind);
  if (cfg.warehouses_per_node % cfg.workers_per_node != 0) {
    return imoltp::tools::UsageError(
        table.program(),
        "--warehouses-per-node must be divisible by --workers-per-node");
  }
  if (cmd == "sweep" && !args.timeline_path.empty()) {
    return imoltp::tools::UsageError(
        table.program(), "--timeline-out only applies to `run`");
  }

  if (cmd == "run") {
    Cluster cluster(cfg);
    Status s = cluster.Create();
    if (!s.ok()) {
      std::fprintf(stderr, "%s: create: %s\n", argv[0],
                   s.message().c_str());
      return 1;
    }
    s = cluster.Run();
    if (!s.ok()) {
      std::fprintf(stderr, "%s: run: %s\n", argv[0],
                   s.message().c_str());
      return 1;
    }
    if (args.print_fingerprint) {
      std::fprintf(stderr, "fingerprint: %016llx\n",
                   static_cast<unsigned long long>(
                       cluster.result().fingerprint));
    }
    if (!cluster.result().invariants.ok) {
      for (const std::string& v :
           cluster.result().invariants.violations) {
        std::fprintf(stderr, "invariant violation: %s\n", v.c_str());
      }
    }
    if (!args.timeline_path.empty()) {
      const int rc = WriteOut(
          args.timeline_path, imoltp::dist::ClusterTimelineToJson(cluster));
      if (rc != 0) return rc;
    }
    const int rc = WriteOut(args.json_path,
                            imoltp::dist::ClusterReportToJson(&cluster));
    if (rc != 0) return rc;
    return cluster.result().invariants.ok ? 0 : 1;
  }

  // sweep: one full cluster per percentage, everything else fixed.
  std::vector<SweepPoint> points;
  bool all_ok = true;
  for (int pct : args.pcts) {
    ClusterConfig point_cfg = cfg;
    point_cfg.multi_home_pct = pct;
    Cluster cluster(point_cfg);
    Status s = cluster.Create();
    if (s.ok()) s = cluster.Run();
    if (!s.ok()) {
      std::fprintf(stderr, "%s: sweep pct=%d: %s\n", argv[0], pct,
                   s.message().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "pct=%3d committed=%llu multi_home=%llu msgs=%llu "
                 "thpt=%.2f/Mcyc\n",
                 pct,
                 static_cast<unsigned long long>(
                     cluster.result().committed),
                 static_cast<unsigned long long>(
                     cluster.result().multi_home),
                 static_cast<unsigned long long>(
                     cluster.result().net.messages),
                 cluster.result().throughput_per_mcycle);
    all_ok = all_ok && cluster.result().invariants.ok;
    SweepPoint point;
    point.multi_home_pct = pct;
    point.result = cluster.result();
    if (cluster.tracer().enabled()) {
      point.traced = cluster.tracer().traced();
      point.orphaned = cluster.tracer().orphaned();
      point.p99_critical_cycles =
          cluster.tracer().critical_multi_home().p99();
      point.p99_net_order_share =
          cluster.tracer().TailComposition().net_order_share;
    }
    points.push_back(std::move(point));
  }
  const int rc =
      WriteOut(args.json_path, ClusterSweepToJson(cfg, points));
  if (rc != 0) return rc;
  return all_ok ? 0 : 1;
}
