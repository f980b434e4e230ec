// imoltp_trace — record / replay / sweep driver for the binary trace
// subsystem (docs/tracing.md). A recorded trace captures one live run's
// simulated reference stream; replays re-simulate it through arbitrary
// machine configurations without re-running the engine.
//
//   imoltp_trace record --engine=voltdb --trace-out=run.trace
//   imoltp_trace info run.trace
//   imoltp_trace replay run.trace --config=llc=2MB,pf=off --json=-
//   imoltp_trace sweep run.trace --cell=no-pf:pf=off --threads=8
//
// Subcommands (`imoltp_trace --help` lists each one's flags):
//   record   run one live experiment (same flags as imoltp_run) and
//            write its reference stream to --trace-out=FILE
//   info     print the trace header and validate the whole stream
//   replay   re-simulate one trace, optionally through an overridden
//            machine configuration
//   sweep    fan one trace across N configs on N threads (default: an
//            8-cell cache/prefetcher ablation grid)
//
// Config spec: comma-separated key=value overrides applied to the
// recorded configuration. Keys: l1i l1d l2 llc (sizes), l2_assoc
// llc_assoc, line, pf=on|off, pfdeg=N, tlb=on|off, base_cpi,
// cpi_floor, clock. "recorded" replays the header config.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "obs/report_json.h"
#include "tools/imoltp_cli.h"
#include "trace/reader.h"
#include "trace/record.h"
#include "trace/replay.h"

using namespace imoltp;

namespace {

constexpr const char* kRecordArgs = "[imoltp_run flags] --trace-out=FILE";

tools::FlagTable InfoTable() {
  return tools::FlagTable("imoltp_trace info", "FILE", 1);
}

struct ReplayArgs {
  std::string spec;
  std::string json_path;
};

tools::FlagTable ReplayTable(ReplayArgs* args) {
  tools::FlagTable t("imoltp_trace replay", "FILE [flags]", 1);
  t.String("config", &args->spec, "SPEC",
           "key=value,... overrides of the recorded machine");
  t.String("json", &args->json_path, "FILE",
           "write the JSON report (- = stdout)");
  return t;
}

struct SweepArgs {
  std::vector<std::pair<std::string, std::string>> specs;  // label, spec
  int threads = std::max(1u, std::thread::hardware_concurrency());
};

tools::FlagTable SweepTable(SweepArgs* args) {
  tools::FlagTable t("imoltp_trace sweep", "FILE [flags]", 1);
  t.Custom("cell", "LABEL:SPEC",
           "add one cell (default: the ablation grid)",
           [args](const std::string& cell, std::string* why) {
             const size_t colon = cell.find(':');
             if (colon == std::string::npos || colon == 0) {
               return *why = "want LABEL:SPEC", false;
             }
             args->specs.emplace_back(cell.substr(0, colon),
                                      cell.substr(colon + 1));
             return true;
           })
      .repeatable = true;
  t.Int("threads", &args->threads, 1, 1024, "replay threads");
  return t;
}

std::string Usage() {
  ReplayArgs replay;
  SweepArgs sweep;
  return tools::RunUsage("imoltp_trace record", kRecordArgs) +
         InfoTable().Usage() + ReplayTable(&replay).Usage() +
         SweepTable(&sweep).Usage();
}

obs::RunInfo ReplayRunInfo(const trace::ReplayResult& result) {
  const trace::TraceMeta& meta = result.meta;
  obs::RunInfo info;
  info.engine = meta.engine;
  info.workload = meta.workload;
  info.db_bytes = meta.db_bytes;
  info.rows = meta.rows;
  info.warehouses = meta.warehouses;
  info.workers = meta.num_workers;
  info.warmup_txns = meta.warmup_txns;
  info.measure_txns = meta.measure_txns;
  info.seed = meta.seed;
  info.trace_file_id = meta.trace_id;
  info.replayed = true;
  return info;
}

int CmdRecord(const char* argv0, int argc, char** argv) {
  constexpr const char* kProgram = "imoltp_trace record";
  tools::Flags flags;
  std::string error;
  if (!tools::ParseCommandLine(argc, argv, &flags, &error)) {
    return tools::UsageError(kProgram, error);
  }
  if (flags.help) {
    std::fputs(tools::RunUsage(kProgram, kRecordArgs).c_str(), stdout);
    return 0;
  }
  if (flags.trace_out.empty()) {
    return tools::UsageError(kProgram, "record needs --trace-out=FILE");
  }
  core::ExperimentConfig cfg;
  std::unique_ptr<core::Workload> workload;
  if (!tools::BuildExperiment(flags, &cfg, &workload, &error)) {
    return tools::UsageError(kProgram, error);
  }

  std::fprintf(stderr, "recording %s / %s ...\n", flags.engine.c_str(),
               flags.workload.c_str());
  trace::RecordResult result;
  const Status s = trace::RecordExperiment(
      cfg, workload.get(), flags.trace_out, flags.db_bytes, flags.rows,
      flags.warehouses, &result);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv0, s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "recorded trace %s (%llu events) to %s\n",
               result.trace_id.c_str(),
               static_cast<unsigned long long>(result.events),
               flags.trace_out.c_str());

  if (!flags.json_path.empty()) {
    obs::RunInfo info;
    tools::FillRunInfo(flags, &info);
    info.aborts = result.aborts;
    info.trace_file_id = result.trace_id;
    info.replayed = false;
    const std::string json = obs::RunReportToJson(
        info, result.window, cfg.machine_config.cycle, nullptr, nullptr);
    const Status js = obs::WriteJsonFile(flags.json_path, json);
    if (!js.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv0, js.ToString().c_str());
      return 1;
    }
  }

  const std::string label = flags.engine + " / " + flags.workload;
  core::ReportRow row{label, result.window};
  core::PrintIpc("Recorded run", {row});
  return 0;
}

int CmdInfo(const char* argv0, int argc, char** argv) {
  tools::FlagTable table = InfoTable();
  if (const auto rc = table.ParseOrExit(argc, argv)) return *rc;
  if (table.positional().size() != 1) {
    return tools::UsageError(table.program(), "info needs a FILE");
  }
  trace::TraceReader reader;
  Status s = reader.Open(table.positional()[0]);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv0, s.ToString().c_str());
    return 1;
  }
  const trace::TraceMeta& meta = reader.meta();
  const mcsim::MachineConfig& mc = meta.recorded_config;
  std::printf("trace_id:      %s\n", meta.trace_id.c_str());
  std::printf("engine:        %s\n", meta.engine.c_str());
  std::printf("workload:      %s\n", meta.workload.c_str());
  std::printf("workers:       %d\n", meta.num_workers);
  std::printf("seed:          %llu\n",
              static_cast<unsigned long long>(meta.seed));
  std::printf("warmup_txns:   %llu  (per worker)\n",
              static_cast<unsigned long long>(meta.warmup_txns));
  std::printf("measure_txns:  %llu  (per worker)\n",
              static_cast<unsigned long long>(meta.measure_txns));
  std::printf("db_bytes:      %llu\n",
              static_cast<unsigned long long>(meta.db_bytes));
  std::printf("modules:       %zu\n", meta.modules.size());
  std::printf("machine:       L1I %lluKB  L1D %lluKB  L2 %lluKB  "
              "LLC %lluMB  pf=%s(%u)  tlb=%s\n",
              static_cast<unsigned long long>(mc.l1i.size_bytes >> 10),
              static_cast<unsigned long long>(mc.l1d.size_bytes >> 10),
              static_cast<unsigned long long>(mc.l2.size_bytes >> 10),
              static_cast<unsigned long long>(mc.llc.size_bytes >> 20),
              mc.model_prefetcher ? "on" : "off", mc.prefetch_degree,
              mc.model_tlb ? "on" : "off");

  // Decode the whole stream: validates every block CRC and record, and
  // yields the event/region counts the header does not store.
  trace::TraceEvent ev;
  bool done = false;
  while (true) {
    s = reader.Next(&ev, &done);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv0, s.ToString().c_str());
      return 1;
    }
    if (done) break;
  }
  std::printf("events:        %llu\n",
              static_cast<unsigned long long>(reader.events_decoded()));
  std::printf("code regions:  %zu\n", reader.regions().size());
  std::printf("stream:        OK (all blocks CRC-verified)\n");
  return 0;
}

int CmdReplay(const char* argv0, int argc, char** argv) {
  ReplayArgs args;
  tools::FlagTable table = ReplayTable(&args);
  if (const auto rc = table.ParseOrExit(argc, argv)) return *rc;
  if (table.positional().empty()) {
    return tools::UsageError(table.program(), "replay needs a FILE");
  }
  const std::string& path = table.positional()[0];

  trace::TraceReader reader;
  Status s = reader.Open(path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv0, s.ToString().c_str());
    return 1;
  }
  mcsim::MachineConfig config = reader.meta().recorded_config;
  s = trace::ApplyConfigSpec(args.spec, &config);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv0, s.ToString().c_str());
    return 2;
  }

  trace::ReplayResult result;
  s = trace::ReplayTrace(path, config, &result);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv0, s.ToString().c_str());
    return 1;
  }
  if (!result.has_window) {
    std::fprintf(stderr, "%s: trace has no measurement window\n", argv0);
    return 1;
  }

  if (!args.json_path.empty()) {
    const std::string json = obs::RunReportToJson(
        ReplayRunInfo(result), result.window, config.cycle, nullptr,
        nullptr);
    s = obs::WriteJsonFile(args.json_path, json);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv0, s.ToString().c_str());
      return 1;
    }
    return 0;
  }

  const std::string label = result.meta.engine + " / " +
                            result.meta.workload + " (replay" +
                            (args.spec.empty() ? "" : ", " + args.spec) +
                            ")";
  core::ReportRow row{label, result.window};
  core::PrintIpc("Replay", {row});
  core::PrintStallsPerKInstr("Replay", {row});
  core::PrintStallsPerTxn("Replay", {row});
  core::PrintCycleAccounting("Replay", {row});
  return 0;
}

int CmdSweep(const char* argv0, int argc, char** argv) {
  SweepArgs args;
  tools::FlagTable table = SweepTable(&args);
  if (const auto rc = table.ParseOrExit(argc, argv)) return *rc;
  if (table.positional().empty()) {
    return tools::UsageError(table.program(), "sweep needs a FILE");
  }
  const std::string& path = table.positional()[0];
  if (args.specs.empty()) {
    args.specs = {{"recorded", ""},         {"no-pf", "pf=off"},
                  {"no-tlb", "tlb=off"},    {"llc-2MB", "llc=2MB"},
                  {"llc-8MB", "llc=8MB"},   {"llc-32MB", "llc=32MB"},
                  {"l1d-16KB", "l1d=16KB"}, {"l1i-16KB", "l1i=16KB"}};
  }

  trace::TraceReader reader;
  Status s = reader.Open(path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv0, s.ToString().c_str());
    return 1;
  }
  std::vector<trace::SweepCell> cells;
  for (const auto& [label, spec] : args.specs) {
    trace::SweepCell cell;
    cell.label = label;
    cell.config = reader.meta().recorded_config;
    s = trace::ApplyConfigSpec(spec, &cell.config);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: cell %s: %s\n", argv0, label.c_str(),
                   s.ToString().c_str());
      return 2;
    }
    cells.push_back(std::move(cell));
  }

  std::fprintf(stderr, "sweeping %zu configs over %s on %d threads ...\n",
               cells.size(), path.c_str(), args.threads);
  trace::RunSweep(path, &cells, args.threads);

  std::printf("%-12s %8s %12s %12s %10s %10s\n", "cell", "ipc",
              "instr/txn", "cycles/txn", "i-stall/kI", "d-stall/kI");
  int failures = 0;
  for (const trace::SweepCell& cell : cells) {
    if (!cell.status.ok()) {
      std::printf("%-12s FAILED: %s\n", cell.label.c_str(),
                  cell.status.ToString().c_str());
      ++failures;
      continue;
    }
    const mcsim::WindowReport& r = cell.result.window;
    std::printf("%-12s %8.4f %12.1f %12.1f %10.2f %10.2f\n",
                cell.label.c_str(), r.ipc, r.instructions_per_txn,
                r.cycles_per_txn,
                r.stalls_per_kinstr.instruction_total(),
                r.stalls_per_kinstr.data_total());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc < 2 ? "" : argv[1];
  if (cmd == "record") return CmdRecord(argv[0], argc - 1, argv + 1);
  if (cmd == "info") return CmdInfo(argv[0], argc - 1, argv + 1);
  if (cmd == "replay") return CmdReplay(argv[0], argc - 1, argv + 1);
  if (cmd == "sweep") return CmdSweep(argv[0], argc - 1, argv + 1);
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    std::fputs(Usage().c_str(), stdout);
    return 0;
  }
  return tools::UsageError(
      "imoltp_trace",
      (cmd.empty() ? "missing subcommand" : "unknown subcommand: " + cmd) +
          " (choices: record info replay sweep)");
}
