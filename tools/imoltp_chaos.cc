// imoltp_chaos — seeded crash → recover → verify campaigns. Each cycle
// runs a workload with armed fault points, rebuilds a fresh engine from
// whatever stable log survived, and audits the workload's consistency
// invariants (TPC-B balance conservation, TPC-C YTD and order-line
// conservation) on the recovered database. See docs/robustness.md.
//
//   imoltp_chaos --engine=hyper --workload=tpcb
//       --chaos-points=crash.mid_commit=@120 --cycles=3
//   imoltp_chaos --engine=dbms-m --workload=tpcc
//       --chaos-points=crash.post_commit=@400,log.torn_record=0.01
//       --json=-
//
// `imoltp_chaos --help` lists every flag with its default and choices.
//
// Exit codes: 0 = all invariants held in every cycle, 1 = a violation
// (details on stderr), 2 = usage or harness error.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "fault/chaos.h"
#include "obs/report_json.h"
#include "tools/imoltp_cli.h"

using namespace imoltp;

int main(int argc, char** argv) {
  fault::ChaosOptions opt;
  std::string engine_name = "voltdb";
  std::string mode = "serial";
  uint64_t checkpoint_every = 0;
  uint64_t log_buffer = opt.log_buffer_bytes;
  std::string json_path;

  tools::FlagTable t("imoltp_chaos");
  t.Choice("engine", &engine_name, engine::EngineKindChoices(),
           "engine archetype");
  t.Choice("workload", &opt.workload, "tpcb tpcc", "audited benchmark");
  t.Int("cycles", &opt.cycles, 1, tools::kMaxCount,
        "crash-recover-verify cycles");
  t.Int("workers", &opt.workers, 1, tools::kMaxWorkers,
        "worker threads == partitions");
  t.Unsigned("txns", &opt.measure_txns, "measured transactions per worker");
  t.Unsigned("warmup", &opt.warmup_txns, "warm-up transactions per worker");
  t.Unsigned("seed", &opt.seed, "campaign seed (injector + workload)");
  t.Choice("mode", &mode, core::ParallelModeChoices(), "host threading",
           tools::kModeAliases);
  tools::FlagTable::Flag& points = t.Custom(
      "chaos-points", "NAME=PROB[@NTH],...", "fault points to arm",
      [&opt](const std::string& v, std::string* why) {
        return tools::ParseChaosPoints(v, &opt.points, why);
      });
  points.choices = tools::FaultPointChoices();
  points.repeatable = true;
  t.Int("retry", &opt.retry.max_attempts, 1, tools::kMaxCount,
        "attempts per transaction (1 = no retry)");
  t.Unsigned("retry-backoff", &opt.retry.backoff_cycles,
             "cycles before the first retry, doubling per attempt");
  t.Int("retry-cap", &opt.retry.max_inflight_retries, 1, tools::kMaxCount,
        "in-flight-retry admission cap");
  t.Size("db", &opt.tpcb_nominal_bytes, "tpcb nominal size");
  t.Int("warehouses", &opt.tpcc_warehouses, 1, tools::kMaxWarehouses,
        "tpcc scale");
  t.Int("orders", &opt.tpcc_orders_per_district, 1, tools::kMaxCount,
        "tpcc initial orders per district");
  t.Size("log-buffer", &log_buffer, "per-worker WAL ring", 1ULL << 30);
  t.Unsigned("checkpoint-every", &checkpoint_every,
             "fuzzy checkpoint every N worker-0 transaction ticks", 1,
             tools::kMaxCount);
  t.Int("checkpoint-pages", &opt.checkpoint.pages_per_step, 1,
        tools::kMaxCount, "fuzzy capture rate, pages per tick");
  t.Int("checkpoint-retain", &opt.checkpoint.retain, 1, tools::kMaxCount,
        "complete checkpoints kept on the device");
  t.Bool("invariant-only", &opt.invariant_only,
         "drop the fingerprint gate (free-mode runs are not "
         "bit-reproducible); invariants are still audited every cycle");
  t.String("json", &json_path, "FILE", "campaign report (- = stdout)");
  if (const auto rc = t.ParseOrExit(argc, argv)) return *rc;

  tools::ParseEngine(engine_name, &opt.engine);
  core::ParseParallelMode(mode, &opt.mode);
  opt.log_buffer_bytes = static_cast<uint32_t>(log_buffer);
  if (checkpoint_every > 0) {
    opt.checkpoint.enabled = true;
    opt.checkpoint.every_n_ticks = checkpoint_every;
  }

  std::fprintf(stderr, "chaos: %s / %s, %d cycle(s), seed %llu\n",
               engine_name.c_str(), opt.workload.c_str(), opt.cycles,
               static_cast<unsigned long long>(opt.seed));

  const auto result = fault::RunChaos(opt);
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 result.status().ToString().c_str());
    return 2;
  }
  const fault::ChaosReport& report = *result;

  for (const fault::ChaosCycleResult& c : report.cycles) {
    std::fprintf(
        stderr,
        "cycle %d: committed %llu, aborts %llu%s%s, log %llu records"
        "%s, recovered %s%s\n",
        c.cycle, static_cast<unsigned long long>(c.committed),
        static_cast<unsigned long long>(c.breakdown.total),
        c.crash_point.empty() ? "" : ", crash at ",
        c.crash_point.c_str(),
        static_cast<unsigned long long>(c.log_records),
        c.dropped_records != 0 ? " (tail truncated)" : "",
        c.recovered.ok ? "consistent" : "INCONSISTENT",
        c.live_checked ? (c.live.ok ? ", live consistent"
                                    : ", live INCONSISTENT")
                       : "");
    if (c.checkpoints_completed > 0 || c.recovery.used_checkpoint) {
      std::fprintf(
          stderr,
          "  checkpoints %llu (torn pages injected %llu), truncated "
          "%llu of %llu appended records\n"
          "  recovery: %s, restored %llu page(s), journal %llu, "
          "replayed %llu, undone %llu\n",
          static_cast<unsigned long long>(c.checkpoints_completed),
          static_cast<unsigned long long>(c.torn_pages_injected),
          static_cast<unsigned long long>(c.truncated_records),
          static_cast<unsigned long long>(c.appended_records),
          c.recovery.used_checkpoint ? "from checkpoint" : "full replay",
          static_cast<unsigned long long>(c.recovery.restored_pages),
          static_cast<unsigned long long>(c.recovery.journal_entries),
          static_cast<unsigned long long>(c.recovery.replayed_records),
          static_cast<unsigned long long>(c.recovery.undone_records));
    }
    for (const std::string& v : c.recovered.violations) {
      std::fprintf(stderr, "  recovered: %s\n", v.c_str());
    }
    if (c.live_checked) {
      for (const std::string& v : c.live.violations) {
        std::fprintf(stderr, "  live: %s\n", v.c_str());
      }
    }
  }

  if (!json_path.empty()) {
    const std::string json = fault::ChaosReportToJson(opt, report);
    const Status s = obs::WriteJsonFile(json_path, json);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[0], s.ToString().c_str());
      return 2;
    }
    if (json_path != "-") {
      std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    }
  }

  if (!report.ok) {
    std::fprintf(stderr, "chaos: invariant violations detected\n");
    return 1;
  }
  if (opt.invariant_only) {
    // Free-running interleavings are not bit-reproducible; the
    // fingerprint is reported but carries no cross-run contract.
    std::fprintf(stderr, "chaos: all invariants held (invariant-only)\n");
  } else {
    std::fprintf(stderr,
                 "chaos: all invariants held (fingerprint %016llx)\n",
                 static_cast<unsigned long long>(report.fingerprint));
  }
  return 0;
}
