// imoltp_run — command-line experiment driver. Runs any (engine,
// workload, configuration) cell of the paper's design space and prints
// the human-readable tables, one machine-readable CSV row, or a full
// schema-versioned JSON report (see docs/OBSERVABILITY.md).
//
//   imoltp_run --engine=hyper --workload=micro --db=100GB --rows=10
//   imoltp_run --engine=dbms-m --workload=tpcc --warehouses=8 --csv
//   imoltp_run --engine=voltdb --workload=tpcc --json=report.json
//   imoltp_run --engine=voltdb --trace-out=run.trace
//   imoltp_run --sample-every=20000 --timeline-out=run.trace.json
//
// `imoltp_run --help` lists every flag with its default and choices.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "fault/fault_injector.h"
#include "obs/report_json.h"
#include "obs/timeline.h"
#include "tools/imoltp_cli.h"
#include "trace/writer.h"

using namespace imoltp;

int main(int argc, char** argv) {
  tools::Flags flags;
  std::string error;
  if (!tools::ParseCommandLine(argc, argv, &flags, &error)) {
    return tools::UsageError("imoltp_run", error);
  }
  if (flags.help) {
    std::fputs(tools::RunUsage("imoltp_run", "[flags]").c_str(), stdout);
    return 0;
  }

  core::ExperimentConfig cfg;
  std::unique_ptr<core::Workload> workload;
  if (!tools::BuildExperiment(flags, &cfg, &workload, &error)) {
    return tools::UsageError("imoltp_run", error);
  }

  // Fault injection: arm the seeded injector before the engine exists
  // so every LogManager and lock table picks it up at construction.
  const bool chaos_on =
      flags.chaos_seed != 0 || !flags.chaos_points.empty();
  const uint64_t fault_seed =
      flags.chaos_seed != 0 ? flags.chaos_seed : flags.seed;
  fault::FaultInjector injector(fault_seed);
  if (chaos_on) {
    std::vector<std::pair<std::string, fault::FaultPointConfig>> points;
    if (!tools::ParseChaosPoints(flags.chaos_points, &points, &error)) {
      return tools::UsageError("imoltp_run", error);
    }
    for (const auto& [name, point] : points) injector.Arm(name, point);
    cfg.engine_options.fault_injector = &injector;
  }

  std::fprintf(stderr, "running %s / %s ...\n", flags.engine.c_str(),
               flags.workload.c_str());

  // When recording, the writer must attach before the database is
  // populated: cache warm-up runs with simulation on, and a replay only
  // reproduces the live counters if those events are in the trace.
  trace::TraceWriter writer;
  if (!flags.trace_out.empty()) {
    trace::TraceWriter::Options topts;
    topts.engine = flags.engine;
    topts.workload = flags.workload;
    topts.seed = flags.seed;
    topts.warmup_txns = flags.warmup;
    topts.measure_txns = flags.txns;
    topts.db_bytes = flags.db_bytes;
    topts.rows = flags.rows;
    topts.warehouses = flags.warehouses;
    cfg.hooks.pre_populate = [&writer, &flags,
                              topts](mcsim::MachineSim* machine) {
      const Status s = writer.Open(flags.trace_out, *machine, topts);
      if (!s.ok()) return s;
      machine->SetTraceSink(&writer);
      return Status::Ok();
    };
  }
  auto created = core::ExperimentRunner::Create(cfg, workload.get());
  if (!created.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 created.status().ToString().c_str());
    return 1;
  }
  core::ExperimentRunner& runner = **created;
  if (!flags.trace_out.empty()) runner.set_trace_sink(&writer);

  // Timeline capture: every effective lifecycle span also logs its
  // interval, one lane per worker core.
  obs::TimelineRecorder recorder(flags.workers);
  if (!flags.timeline_out.empty()) {
    runner.engine()->span_collector()->set_recorder(&recorder);
  }

  const auto run = runner.Run(workload.get());
  if (!run.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 run.status().ToString().c_str());
    return 1;
  }
  const mcsim::WindowReport r = *run;

  if (!flags.trace_out.empty()) {
    runner.set_trace_sink(nullptr);
    const Status s = writer.Finish();
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[0], s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "recorded trace %s (%llu events) to %s\n",
                 writer.trace_id().c_str(),
                 static_cast<unsigned long long>(writer.events_written()),
                 flags.trace_out.c_str());
  }

  if (chaos_on && injector.crash_pending()) {
    std::fprintf(stderr, "injected crash at %s halted the run\n",
                 injector.crash_point().c_str());
  }

  {
    const obs::HostPerf& hp = runner.host_perf();
    std::fprintf(stderr,
                 "host: measure %.2fs, %.3g simulated refs/sec, "
                 "%.3g instr/sec, peak RSS %.1f MB\n",
                 hp.measure_seconds, hp.refs_per_second,
                 hp.instructions_per_second,
                 static_cast<double>(hp.peak_rss_bytes) / (1024.0 * 1024.0));
  }

  if (!flags.timeline_out.empty()) {
    runner.engine()->span_collector()->set_recorder(nullptr);
    obs::TimelineOptions topts;
    topts.engine = flags.engine;
    topts.workload = flags.workload;
    const std::string timeline = obs::TimelineToJson(topts, r, &recorder);
    const Status s = obs::WriteJsonFile(flags.timeline_out, timeline);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[0], s.ToString().c_str());
      return 1;
    }
    if (flags.timeline_out != "-") {
      std::fprintf(stderr, "wrote timeline %s\n",
                   flags.timeline_out.c_str());
    }
  }

  if (!flags.json_path.empty()) {
    obs::RunInfo info;
    tools::FillRunInfo(flags, &info);
    info.aborts = runner.aborts();
    info.trace_file_id = writer.trace_id();
    info.replayed = false;
    obs::RobustnessInfo robustness;
    robustness.aborts = runner.abort_breakdown();
    robustness.committed = runner.committed();
    robustness.retry_max_attempts = cfg.retry.max_attempts;
    robustness.retries = runner.retry_stats().retries;
    robustness.retry_successes = runner.retry_stats().retry_successes;
    robustness.retry_rejections = runner.retry_stats().retry_rejections;
    robustness.faults_enabled = chaos_on;
    robustness.fault_seed = chaos_on ? fault_seed : 0;
    robustness.crash_point = injector.crash_point();
    robustness.fault_points = injector.Stats();
    obs::RecoveryInfo recovery;
    const txn::CheckpointManager* cm = runner.engine()->checkpoints();
    if (cm != nullptr) {
      recovery.checkpoint_enabled = true;
      recovery.checkpoint_every_n_ticks = cm->policy().every_n_ticks;
      recovery.checkpoint_pages_per_step = cm->policy().pages_per_step;
      recovery.checkpoint_retain = cm->policy().retain;
      recovery.checkpoint = cm->stats();
      recovery.log_truncation_lsn = runner.engine()->LogTruncationLsn();
      recovery.appended_log_records =
          runner.engine()->AppendedLogRecords();
    }
    const std::string json = obs::RunReportToJson(
        info, r, runner.machine()->config().cycle,
        &runner.latency_histogram(), &runner.spans(), &robustness,
        &runner.host_perf(), cm != nullptr ? &recovery : nullptr);
    const Status s = obs::WriteJsonFile(flags.json_path, json);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[0], s.ToString().c_str());
      return 1;
    }
    if (flags.json_path != "-") {
      std::fprintf(stderr, "wrote %s\n", flags.json_path.c_str());
    }
  }

  if (flags.csv) {
    if (flags.csv_header) {
      std::printf("%s\n", tools::CsvHeader().c_str());
    }
    std::printf("%s\n", tools::CsvRow(flags, r).c_str());
    return 0;
  }

  if (flags.json_path.empty()) {
    const std::string label = flags.engine + " / " + flags.workload;
    core::ReportRow row{label, r};
    core::PrintIpc("Result", {row});
    core::PrintStallsPerKInstr("Result", {row});
    core::PrintStallsPerTxn("Result", {row});
    core::PrintCycleAccounting("Result", {row});
  }
  return 0;
}
