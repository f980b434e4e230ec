#ifndef IMOLTP_TOOLS_IMOLTP_CLI_H_
#define IMOLTP_TOOLS_IMOLTP_CLI_H_

// Command-line surface of imoltp_run, extracted into a header so the
// unit tests can drive flag parsing and CSV emission directly instead
// of exec'ing the binary and scraping stdout.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/microbench.h"
#include "core/tpcb.h"
#include "core/tpcc.h"
#include "engine/engine.h"
#include "fault/fault_injector.h"
#include "mcsim/profiler.h"
#include "obs/report_json.h"
#include "tools/flags.h"

namespace imoltp::tools {

struct Flags {
  std::string engine = "voltdb";
  std::string workload = "micro";
  uint64_t db_bytes = 10ULL << 20;
  int rows = 1;
  int warehouses = 4;
  int workers = 1;
  uint64_t txns = 6000;
  uint64_t warmup = 2000;
  std::string index = "hash";
  bool compilation = true;
  uint64_t seed = 42;
  std::string mode = "serial";  // core::ParallelModeChoices()
  bool csv = false;
  bool csv_header = false;
  bool help = false;  // --help, -h or --list: print usage, exit 0
  std::string json_path;   // --json=FILE; "-" = stdout; empty = off
  std::string trace_out;   // --trace-out=FILE; empty = no capture

  // Time-resolved profiling (docs/OBSERVABILITY.md): sample the worker
  // cores' counters every N retire cycles (0 = off) and/or write a
  // Perfetto-loadable timeline. --timeline-out with no --sample-every
  // picks a default period so the timeline has counter tracks, and
  // turns per-module sampling on so those tracks include one per code
  // module; --sample-modules forces it for plain --json runs too.
  uint64_t sample_every = 0;   // --sample-every=N retire cycles
  std::string timeline_out;    // --timeline-out=FILE; empty = off
  bool sample_modules = false; // --sample-modules

  // Abort retry policy (docs/robustness.md). 1 attempt = no retry.
  int retry_attempts = 1;
  uint64_t retry_backoff = 0;  // simulated cycles before first retry
  int retry_cap = 4;           // in-flight-retry admission cap

  // Fault injection: a non-zero --chaos-seed (or any --chaos-points)
  // arms the injector. Points format: NAME=PROB, NAME=PROB@NTH, or
  // NAME=@NTH, comma-separated (e.g.
  // "lock.conflict=0.05,crash.mid_commit=@200").
  uint64_t chaos_seed = 0;
  std::string chaos_points;

  // Fuzzy checkpointing (docs/robustness.md): a non-zero
  // --checkpoint-every enables it; the other two tune the capture rate
  // and the retention depth of the simulated checkpoint device.
  uint64_t checkpoint_every = 0;  // worker-0 transaction ticks; 0 = off
  int checkpoint_pages = 0;       // pages captured per tick (0 = default)
  int checkpoint_retain = 0;      // complete checkpoints kept (0 = default)
};

/// Parses a --chaos-points spec into (point, config) pairs. Returns
/// false with `error` set on a malformed entry or unknown point name.
inline bool ParseChaosPoints(
    const std::string& spec,
    std::vector<std::pair<std::string, fault::FaultPointConfig>>* out,
    std::string* error) {
  for (const std::string& entry : Split(spec, ',')) {
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      *error = "bad fault point entry (want NAME=PROB[@NTH]): " + entry;
      return false;
    }
    const std::string name = entry.substr(0, eq);
    if (!fault::IsKnownFaultPoint(name)) {
      *error = "unknown fault point: " + name;
      return false;
    }
    std::string rest = entry.substr(eq + 1);
    fault::FaultPointConfig cfg;
    const size_t at = rest.find('@');
    if (at != std::string::npos) {
      if (!ParseUnsigned(rest.substr(at + 1), &cfg.nth_hit) ||
          cfg.nth_hit == 0) {
        *error = "bad @NTH in fault point entry: " + entry;
        return false;
      }
      rest = rest.substr(0, at);
    }
    if (!rest.empty()) {
      if (!ParseReal(rest, &cfg.probability) || cfg.probability > 1) {
        *error = "bad probability in fault point entry: " + entry;
        return false;
      }
    }
    if (cfg.probability == 0 && cfg.nth_hit == 0) {
      *error = "fault point entry arms nothing: " + entry;
      return false;
    }
    out->push_back({name, cfg});
  }
  return true;
}

inline bool ParseEngine(const std::string& s, engine::EngineKind* out) {
  return engine::ParseEngineKind(s, out);
}

/// Ranges the experiment tools share: one per concept, whichever tool
/// takes the flag.
inline constexpr int kMaxWorkers = 64;
inline constexpr int kMaxWarehouses = 4096;
inline constexpr int kMaxCount = 1 << 20;  // rows, retries, cycles, ...

/// The mode spelling kept from before kDeterministic folded into
/// kSerial.
inline const FlagAliases kModeAliases = {{"deterministic", "serial"}};

/// The fault-point names, space-separated, for --help and errors.
inline std::string FaultPointChoices() {
  std::string out;
  for (const char* p : fault::kAllFaultPoints) {
    out += (out.empty() ? "" : " ") + std::string(p);
  }
  return out;
}

/// imoltp_run's flags, bound to `flags` (imoltp_trace record takes the
/// same ones under its own `program` name).
inline FlagTable RunFlagTable(Flags* flags,
                              std::string program = "imoltp_run",
                              std::string args = "[flags]") {
  FlagTable t(std::move(program), std::move(args));
  t.Choice("engine", &flags->engine, engine::EngineKindChoices(),
           "engine archetype");
  t.Choice("workload", &flags->workload, core::WorkloadChoices(),
           "benchmark");
  t.Size("db", &flags->db_bytes, "nominal database size (micro, tpcb)");
  t.Int("rows", &flags->rows, 1, kMaxCount, "micro: rows per transaction");
  t.Int("warehouses", &flags->warehouses, 1, kMaxWarehouses,
        "tpcc: warehouses");
  t.Int("workers", &flags->workers, 1, kMaxWorkers,
        "worker threads == partitions");
  t.Unsigned("txns", &flags->txns, "measured transactions per worker");
  t.Unsigned("warmup", &flags->warmup, "warm-up transactions per worker");
  t.Choice("index", &flags->index, "hash btree", "DBMS M index");
  t.Bool("no-compilation", &flags->compilation,
         "disable DBMS M transaction compilation", false);
  t.Choice("mode", &flags->mode, core::ParallelModeChoices(),
           "host threading (docs/parallel_execution.md)", kModeAliases);
  t.Unsigned("seed", &flags->seed, "workload seed");
  t.Bool("csv", &flags->csv, "print one CSV row");
  t.Custom("csv-header", "", "--csv, preceded by the header row",
           [flags](const std::string&, std::string*) {
             flags->csv = flags->csv_header = true;
             return true;
           });
  t.String("json", &flags->json_path, "FILE",
           "write the JSON report (- = stdout)");
  t.String("trace-out", &flags->trace_out, "FILE",
           "record the simulated reference stream (docs/tracing.md)");
  t.Unsigned("sample-every", &flags->sample_every,
             "sample worker-core counters every N retire cycles of the "
             "measurement window",
             1);
  t.String("timeline-out", &flags->timeline_out, "FILE",
           "write a Perfetto timeline (implies --sample-modules)");
  t.Bool("sample-modules", &flags->sample_modules,
         "also sample per-module cycles");
  t.Int("retry", &flags->retry_attempts, 1, kMaxCount,
        "attempts per transaction (1 = no retry)");
  t.Unsigned("retry-backoff", &flags->retry_backoff,
             "cycles before the first retry, doubling per attempt");
  t.Int("retry-cap", &flags->retry_cap, 1, kMaxCount,
        "in-flight-retry admission cap");
  t.Unsigned("chaos-seed", &flags->chaos_seed,
             "arm the fault injector with this seed", 1);
  t.Custom("chaos-points", "NAME=PROB[@NTH],...", "fault points to arm",
           [flags](const std::string& v, std::string* why) {
             std::vector<std::pair<std::string, fault::FaultPointConfig>>
                 parsed;
             if (!ParseChaosPoints(v, &parsed, why)) return false;
             flags->chaos_points = v;
             return true;
           })
      .choices = FaultPointChoices();
  t.Unsigned("checkpoint-every", &flags->checkpoint_every,
             "fuzzy checkpoint every N worker-0 transaction ticks", 1,
             kMaxCount);
  t.Int("checkpoint-pages", &flags->checkpoint_pages, 1, kMaxCount,
        "fuzzy capture rate, pages per tick");
  t.Int("checkpoint-retain", &flags->checkpoint_retain, 1, kMaxCount,
        "complete checkpoints kept on the device");
  t.Bool("list", &flags->help, "same as --help");
  return t;
}

/// Parses argv into `flags`. On failure returns false and sets `error`
/// to a one-line description naming the flag (unknown flag, malformed
/// or out-of-range value, unknown choice). `--help` (also `-h`,
/// `--list`) sets flags->help and parsing continues.
inline bool ParseCommandLine(int argc, char* const* argv, Flags* flags,
                             std::string* error) {
  FlagTable table = RunFlagTable(flags);
  if (!table.Parse(argc, argv, error)) return false;
  flags->help = flags->help || table.help();
  return true;
}

/// imoltp_run's generated usage, under `program`'s name.
inline std::string RunUsage(std::string program, std::string args) {
  Flags defaults;
  return RunFlagTable(&defaults, std::move(program), std::move(args))
      .Usage();
}

/// Builds the ExperimentConfig and Workload one flag set describes —
/// the construction logic shared by imoltp_run and imoltp_trace.
/// Returns false with `error` set for an unknown engine or workload.
inline bool BuildExperiment(const Flags& flags,
                            core::ExperimentConfig* cfg,
                            std::unique_ptr<core::Workload>* workload,
                            std::string* error) {
  engine::EngineKind kind;
  if (!ParseEngine(flags.engine, &kind)) {
    *error = "unknown engine: " + flags.engine +
             " (choices: " + engine::EngineKindChoices() + ")";
    return false;
  }
  cfg->engine = kind;
  cfg->num_workers = flags.workers;
  cfg->measure_txns = flags.txns;
  cfg->warmup_txns = flags.warmup;
  cfg->seed = flags.seed;
  if (!core::ParseParallelMode(flags.mode, &cfg->parallel_mode)) {
    *error = "unknown mode: " + flags.mode +
             " (choices: " + core::ParallelModeChoices() + ")";
    return false;
  }
  cfg->retry.max_attempts = flags.retry_attempts;
  cfg->retry.backoff_cycles = flags.retry_backoff;
  cfg->retry.max_inflight_retries = flags.retry_cap;
  cfg->sampler.every_cycles = flags.sample_every;
  // A timeline without counter samples is only half a timeline, and
  // --sample-modules without a sample period would sample nothing:
  // both default to a period that yields a few hundred buckets for
  // typical runs. Timelines include the per-module tracks render wants.
  if ((!flags.timeline_out.empty() || flags.sample_modules) &&
      flags.sample_every == 0) {
    cfg->sampler.every_cycles = 20000;
  }
  cfg->sampler.per_module =
      flags.sample_modules || !flags.timeline_out.empty();
  if (flags.checkpoint_every > 0) {
    cfg->engine_options.checkpoint.enabled = true;
    cfg->engine_options.checkpoint.every_n_ticks = flags.checkpoint_every;
    if (flags.checkpoint_pages > 0) {
      cfg->engine_options.checkpoint.pages_per_step =
          flags.checkpoint_pages;
    }
    if (flags.checkpoint_retain > 0) {
      cfg->engine_options.checkpoint.retain = flags.checkpoint_retain;
    }
  }
  cfg->engine_options.compilation = flags.compilation;
  cfg->engine_options.dbms_m_index = flags.index == "btree"
                                         ? index::IndexKind::kBTreeCc
                                         : index::IndexKind::kHash;

  core::WorkloadKind wkind;
  if (!core::ParseWorkload(flags.workload, &wkind)) {
    *error = "unknown workload: " + flags.workload +
             " (choices: " + core::WorkloadChoices() + ")";
    return false;
  }
  switch (wkind) {
    case core::WorkloadKind::kMicro:
    case core::WorkloadKind::kMicroRw:
    case core::WorkloadKind::kMicroString: {
      core::MicroConfig mcfg;
      mcfg.nominal_bytes = flags.db_bytes;
      mcfg.rows_per_txn = flags.rows;
      mcfg.read_write = wkind == core::WorkloadKind::kMicroRw;
      mcfg.string_columns = wkind == core::WorkloadKind::kMicroString;
      mcfg.num_partitions = flags.workers;
      *workload = std::make_unique<core::MicroBenchmark>(mcfg);
      break;
    }
    case core::WorkloadKind::kTpcb: {
      core::TpcbConfig tcfg;
      tcfg.nominal_bytes = flags.db_bytes;
      tcfg.num_partitions = flags.workers;
      *workload = std::make_unique<core::TpcbBenchmark>(tcfg);
      break;
    }
    case core::WorkloadKind::kTpcc: {
      core::TpccConfig tcfg;
      tcfg.warehouses = flags.warehouses;
      tcfg.num_partitions = flags.workers;
      *workload = std::make_unique<core::TpccBenchmark>(tcfg);
      break;
    }
  }
  return true;
}

/// The meta half of a JSON report's RunInfo, filled from flags (the
/// live-run half — aborts, trace provenance — is the caller's).
inline void FillRunInfo(const Flags& flags, obs::RunInfo* info) {
  info->engine = flags.engine;
  info->workload = flags.workload;
  info->db_bytes = flags.db_bytes;
  info->rows = flags.rows;
  info->warehouses = flags.warehouses;
  info->workers = flags.workers;
  info->warmup_txns = flags.warmup;
  info->measure_txns = flags.txns;
  info->seed = flags.seed;
}

/// One CSV column and the dotted path of the same value in the JSON
/// report — the field-parity test walks this table to prove the two
/// output formats never drift apart.
struct CsvField {
  const char* name;
  const char* json_path;
};

inline constexpr CsvField kCsvFields[] = {
    {"engine", "meta.engine"},
    {"workload", "meta.workload"},
    {"db_bytes", "meta.db_bytes"},
    {"rows", "meta.rows"},
    {"workers", "meta.workers"},
    {"ipc", "window.ipc"},
    {"instr_per_txn", "window.instructions_per_txn"},
    {"cycles_per_txn", "window.cycles_per_txn"},
    {"l1i_kI", "window.stalls_per_kinstr.L1I"},
    {"l2i_kI", "window.stalls_per_kinstr.L2I"},
    {"llci_kI", "window.stalls_per_kinstr.LLC I"},
    {"l1d_kI", "window.stalls_per_kinstr.L1D"},
    {"l2d_kI", "window.stalls_per_kinstr.L2D"},
    {"llcd_kI", "window.stalls_per_kinstr.LLC D"},
};

inline constexpr int kNumCsvFields =
    static_cast<int>(sizeof(kCsvFields) / sizeof(kCsvFields[0]));

inline std::string CsvHeader() {
  std::string out;
  for (int i = 0; i < kNumCsvFields; ++i) {
    if (i > 0) out += ',';
    out += kCsvFields[i].name;
  }
  return out;
}

/// One CSV row matching CsvHeader() column for column.
inline std::string CsvRow(const Flags& flags,
                          const mcsim::WindowReport& r) {
  const auto& k = r.stalls_per_kinstr.stalls;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s,%s,%llu,%d,%d,%.4f,%.1f,%.1f,%.2f,%.2f,%.2f,%.2f,"
                "%.2f,%.2f",
                flags.engine.c_str(), flags.workload.c_str(),
                static_cast<unsigned long long>(flags.db_bytes),
                flags.rows, flags.workers, r.ipc, r.instructions_per_txn,
                r.cycles_per_txn, k[0], k[1], k[2], k[3], k[4], k[5]);
  return buf;
}

}  // namespace imoltp::tools

#endif  // IMOLTP_TOOLS_IMOLTP_CLI_H_
