// imoltp_perfbench: one benchmark process. It runs one seeded workload
// through the library's public API, serially on one host thread, and
// prints one JSON object on stdout. run.py launches it (with ASLR off)
// and turns its output into the benchmark's metrics.
//
//   imoltp_perfbench run       --workload W --seed N
//       Untraced run: ExperimentRunner::Create + Run, as every CLI does.
//   imoltp_perfbench decorated --workload W --seed N
//       Traced pass A: the same run through the timing decorators of
//       layers.h, with raw per-layer host times.
//   imoltp_perfbench record    --workload W --seed N --trace-file PATH
//       Traced passes B and C: record the run with trace::TraceWriter,
//       then decode and replay the trace with per-verb timing. The
//       trace file is removed afterwards.
//
// Exit codes: 0 result printed (checks may still have failed; see
// "violations"), 1 library error, 2 usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/personality.h>

#include "core/experiment.h"
#include "core/microbench.h"
#include "core/tpcb.h"
#include "core/tpcc.h"
#include "fault/fingerprint.h"
#include "fault/invariants.h"
#include "layers.h"
#include "obs/host_metrics.h"
#include "obs/json.h"
#include "replay_timer.h"
#include "trace/replay.h"
#include "trace/writer.h"

namespace perfbench {
namespace {

using imoltp::Status;
namespace core = imoltp::core;
namespace engine = imoltp::engine;
namespace fault = imoltp::fault;
namespace mcsim = imoltp::mcsim;
namespace obs = imoltp::obs;

/// The benchmark's workloads. Transaction counts are per worker and
/// fixed, so a seed determines every simulated counter of a run.
struct Spec {
  const char* name;
  engine::EngineKind engine;
  int workers;
  uint64_t warmup_txns;
  uint64_t measure_txns;
};

constexpr Spec kSpecs[] = {
    {"tpcc-shoremt", engine::EngineKind::kShoreMt, 4, 200, 600},
    {"tpcb-hyper", engine::EngineKind::kHyPer, 4, 2000, 30000},
    {"probe-hyper", engine::EngineKind::kHyPer, 1, 20000, 400000},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// A workload instance plus the conservation audit that fits it.
struct Bench {
  std::unique_ptr<core::Workload> workload;
  std::function<fault::InvariantReport(engine::Engine*)> audit;
};

Bench MakeBench(const Spec& spec) {
  Bench bench;
  const std::string name = spec.name;
  if (name == "tpcc-shoremt") {
    core::TpccConfig config;
    config.warehouses = 4;
    config.num_partitions = spec.workers;
    bench.workload = std::make_unique<core::TpccBenchmark>(config);
    bench.audit = [config, workers = spec.workers](engine::Engine* e) {
      return fault::CheckTpccInvariants(e, config, workers);
    };
  } else if (name == "tpcb-hyper") {
    core::TpcbConfig config;
    config.nominal_bytes = 10ULL << 20;
    config.num_partitions = spec.workers;
    auto tpcb = std::make_unique<core::TpcbBenchmark>(config);
    const core::TpcbBenchmark* raw = tpcb.get();
    bench.audit = [raw, workers = spec.workers](engine::Engine* e) {
      return fault::CheckTpcbInvariants(e, *raw, workers);
    };
    bench.workload = std::move(tpcb);
  } else {
    core::MicroConfig config;
    config.nominal_bytes = 10ULL << 30;
    config.rows_per_txn = 1;
    config.num_partitions = spec.workers;
    bench.workload = std::make_unique<core::MicroBenchmark>(config);
  }
  return bench;
}

core::ExperimentConfig MakeConfig(const Spec& spec, uint64_t seed) {
  core::ExperimentConfig config;
  config.engine = spec.engine;
  config.num_workers = spec.workers;
  config.warmup_txns = spec.warmup_txns;
  config.measure_txns = spec.measure_txns;
  config.seed = seed;
  config.parallel_mode = core::ParallelMode::kSerial;
  return config;
}

/// FNV-1a digest of every simulated counter of the measurement window,
/// cycle accumulators by bit pattern.
uint64_t WindowDigest(const std::vector<mcsim::CoreCounters>& deltas) {
  using fault::FnvMix;
  auto mix_double = [](uint64_t h, double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return FnvMix(h, bits);
  };
  auto mix_misses = [](uint64_t h, const mcsim::LevelMisses& m) {
    for (uint64_t v : {m.l1i, m.l2i, m.llc_i, m.l1d, m.l2d, m.llc_d}) {
      h = FnvMix(h, v);
    }
    return h;
  };
  uint64_t h = fault::kFnvOffset;
  for (const mcsim::CoreCounters& c : deltas) {
    for (uint64_t v : {c.instructions, c.mispredictions, c.transactions,
                       c.aborted_txns, c.code_line_fetches, c.data_accesses,
                       c.tlb_misses}) {
      h = FnvMix(h, v);
    }
    h = mix_double(h, c.base_cycles);
    h = mix_misses(h, c.misses);
    for (const mcsim::ModuleCounters& m : c.per_module) {
      h = FnvMix(h, m.instructions);
      h = FnvMix(h, m.mispredictions);
      h = FnvMix(h, m.tlb_misses);
      h = mix_double(h, m.base_cycles);
      h = mix_misses(h, m.misses);
    }
  }
  return h;
}

/// Everything one Create + Run reports, for every mode.
struct Outcome {
  double setup_s = 0.0;
  double run_s = 0.0;
  obs::HostPerf host;
  mcsim::WindowReport report;
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t total_txns = 0;  // warm-up + measurement attempts
  uint64_t log_records = 0;
  double lock_cycles = 0.0;
  double log_cycles = 0.0;
  uint64_t digest = 0;
  uint64_t peak_rss_bytes = 0;
  std::vector<mcsim::CoreCounters> final_counters;
  std::vector<std::string> violations;
};

/// Hooks the modes add to the common run.
struct RunHooks {
  TimedWorkload* timed = nullptr;  // pass A; wraps the bench's workload
  std::function<Status(mcsim::MachineSim*)> pre_populate;  // pass B
  mcsim::TraceSink* sink = nullptr;                         // pass B
};

Status RunOnce(const Spec& spec, uint64_t seed, const Bench& bench,
               const RunHooks& hooks, Outcome* out) {
  core::ExperimentConfig config = MakeConfig(spec, seed);
  // Every mode performs these allocations in the same order, so with
  // ASLR off the simulated (host) addresses of decorated and plain runs
  // coincide and their digests can be compared.
  std::vector<mcsim::CoreCounters> window_start;
  window_start.reserve(spec.workers);
  TimedWorkload* timed = hooks.timed;
  config.hooks.pre_populate = hooks.pre_populate;
  config.hooks.post_warmup = [&window_start, timed](mcsim::MachineSim* m) {
    for (int c = 0; c < m->num_cores(); ++c) {
      window_start.push_back(m->core(c).counters());
    }
    if (timed != nullptr) timed->BeginMeasurement();
    return Status::Ok();
  };
  core::Workload* workload =
      timed != nullptr ? static_cast<core::Workload*>(timed)
                       : bench.workload.get();

  if (timed != nullptr) timed->BeginPopulate();
  const double setup_start = obs::MonotonicSeconds();
  auto created = core::ExperimentRunner::Create(config, workload);
  out->setup_s = obs::MonotonicSeconds() - setup_start;
  if (timed != nullptr) timed->EndPopulate();
  if (!created.ok()) return created.status();
  core::ExperimentRunner& runner = **created;
  if (hooks.sink != nullptr) runner.set_trace_sink(hooks.sink);

  const double run_start = obs::MonotonicSeconds();
  auto report = runner.Run(workload);
  out->run_s = obs::MonotonicSeconds() - run_start;
  if (!report.ok()) return report.status();
  out->peak_rss_bytes = obs::PeakRssBytes();
  if (hooks.sink != nullptr) runner.set_trace_sink(nullptr);

  out->report = *report;
  out->host = runner.host_perf();
  out->attempted = static_cast<uint64_t>(spec.workers) * spec.measure_txns;
  out->total_txns = static_cast<uint64_t>(spec.workers) *
                    (spec.warmup_txns + spec.measure_txns);
  out->committed = runner.committed();
  out->aborted = report->aborts.total;
  out->log_records = runner.engine()->AppendedLogRecords();
  out->lock_cycles = runner.spans().stats(obs::SpanKind::kLockAcquire).cycles;
  out->log_cycles = runner.spans().stats(obs::SpanKind::kLogAppend).cycles;

  mcsim::MachineSim* machine = runner.machine();
  std::vector<mcsim::CoreCounters> deltas;
  for (int c = 0; c < machine->num_cores(); ++c) {
    out->final_counters.push_back(machine->core(c).counters());
    deltas.push_back(machine->core(c).counters() -
                     window_start.at(static_cast<size_t>(c)));
  }
  out->digest = WindowDigest(deltas);

  if (out->committed + out->aborted != out->attempted) {
    out->violations.push_back("committed + aborted != attempted");
  }
  if (bench.audit) {
    const fault::InvariantReport audit = bench.audit(runner.engine());
    for (const std::string& v : audit.violations) {
      out->violations.push_back("invariant: " + v);
    }
  }
  return Status::Ok();
}

void WriteOutcome(const Outcome& o, obs::JsonWriter* w) {
  const mcsim::WindowReport& r = o.report;
  const double instructions = r.instructions * r.num_workers;
  auto per_kinstr = [&](double misses) {
    return instructions > 0 ? misses * 1000.0 / instructions : 0.0;
  };
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(o.digest));
  w->KeyValue("setup_s", o.setup_s);
  w->KeyValue("run_s", o.run_s);
  w->KeyValue("sim_refs", o.host.simulated_refs);
  w->KeyValue("sim_refs_per_s", o.host.refs_per_second);
  w->KeyValue("peak_rss_mb", static_cast<double>(o.peak_rss_bytes) / 1e6);
  w->KeyValue("attempted", o.attempted);
  w->KeyValue("committed", o.committed);
  w->KeyValue("aborted", o.aborted);
  w->KeyValue("total_txns", o.total_txns);
  w->KeyValue("log_records", o.log_records);
  w->KeyValue("lock_cycles", o.lock_cycles);
  w->KeyValue("log_cycles", o.log_cycles);
  w->KeyValue("instructions_per_txn", r.instructions_per_txn);
  w->KeyValue("ipc", r.ipc);
  w->KeyValue("l1i_mpki", per_kinstr(static_cast<double>(r.misses.l1i)));
  w->KeyValue("l1d_mpki", per_kinstr(static_cast<double>(r.misses.l1d)));
  w->KeyValue("l2_mpki",
              per_kinstr(static_cast<double>(r.misses.l2i + r.misses.l2d)));
  w->KeyValue("llc_mpki", per_kinstr(static_cast<double>(r.misses.llc_i +
                                                         r.misses.llc_d)));
  w->KeyValue("tlb_mpki", per_kinstr(r.tlb_misses * r.num_workers));
  w->KeyValue("digest", digest);
  w->Key("violations");
  w->BeginArray();
  for (const std::string& v : o.violations) w->Value(v);
  w->EndArray();
}

void WriteLayers(const LayerTimes& t, obs::JsonWriter* w) {
  auto seconds = [](int64_t ns) { return static_cast<double>(ns) * 1e-9; };
  w->Key("layers");
  w->BeginObject();
  w->KeyValue("rowgen_s", seconds(t.rowgen_ns));
  w->KeyValue("txn_s", seconds(t.txn_ns));
  w->KeyValue("txns", t.txns);
  w->KeyValue("harness_s", seconds(t.harness_ns));
  w->KeyValue("txn_p50_us", t.measured_txn_ns.p50() * 1e-3);
  w->KeyValue("txn_p99_us", t.measured_txn_ns.p99() * 1e-3);
  w->KeyValue("execute_s", seconds(t.execute_ns));
  w->KeyValue("execute_calls", t.execute_calls);
  w->KeyValue("probe_s", seconds(t.probe_ns));
  w->KeyValue("probes", t.probes);
  w->KeyValue("scan_s", seconds(t.scan_ns));
  w->KeyValue("scans", t.scans);
  w->KeyValue("scanned_rows", t.scanned_rows);
  w->KeyValue("read_s", seconds(t.read_ns));
  w->KeyValue("reads", t.reads);
  w->KeyValue("write_s", seconds(t.write_ns));
  w->KeyValue("writes", t.writes);
  w->EndObject();
}

/// Passes B and C: record, then replay with timing and compare.
Status RecordAndReplay(const Spec& spec, uint64_t seed, const Bench& bench,
                       const std::string& path, obs::JsonWriter* w) {
  imoltp::trace::TraceWriter writer;
  imoltp::trace::TraceWriter::Options options;
  options.engine = engine::EngineKindName(spec.engine);
  options.workload = spec.name;
  options.seed = seed;
  options.warmup_txns = spec.warmup_txns;
  options.measure_txns = spec.measure_txns;
  RunHooks hooks;
  hooks.pre_populate = [&](mcsim::MachineSim* machine) {
    Status s = writer.Open(path, *machine, options);
    if (!s.ok()) return s;
    machine->SetTraceSink(&writer);
    return Status::Ok();
  };
  hooks.sink = &writer;
  Outcome live;
  Status s = RunOnce(spec, seed, bench, hooks, &live);
  if (s.ok()) s = writer.Finish();
  ReplayTimes replay;
  if (s.ok()) s = TimeReplay(path, &replay);
  std::remove(path.c_str());
  if (!s.ok()) return s;

  bool identical = replay.counters.size() == live.final_counters.size();
  for (size_t c = 0; identical && c < replay.counters.size(); ++c) {
    identical = imoltp::trace::CountersIdentical(replay.counters[c],
                                                 live.final_counters[c]);
  }
  if (!identical) {
    live.violations.push_back("replayed counters differ from the live run");
  }
  WriteOutcome(live, w);
  w->Key("replay");
  w->BeginObject();
  w->KeyValue("decode_s", replay.decode_s);
  w->KeyValue("replay_s", replay.replay_s);
  w->KeyValue("ifetch_s", replay.ifetch_s);
  w->KeyValue("read_s", replay.read_s);
  w->KeyValue("write_s", replay.write_s);
  w->KeyValue("events", replay.events);
  w->KeyValue("trace_bytes", replay.trace_bytes);
  w->KeyValue("refs", replay.refs);
  w->EndObject();
  return Status::Ok();
}

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: imoltp_perfbench run|decorated|record "
               "--workload NAME --seed N [--trace-file PATH]\nworkloads:",
               error);
  for (const Spec& spec : kSpecs) std::fprintf(stderr, " %s", spec.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage("missing mode");
  const std::string mode = argv[1];
  std::string workload;
  std::string trace_file;
  std::string seed_arg;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed_arg = argv[i + 1];
    } else if (flag == "--trace-file") {
      trace_file = argv[i + 1];
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 0) return Usage("flags take one value each");
  const Spec* spec = FindSpec(workload);
  if (spec == nullptr) return Usage(("unknown workload: " + workload).c_str());
  char* end = nullptr;
  const uint64_t seed = std::strtoull(seed_arg.c_str(), &end, 10);
  if (seed_arg.empty() || *end != '\0') return Usage("bad --seed");
  TimerOverheadNs();
  // Every mode builds the same objects in the same order (see RunOnce).
  const Bench bench = MakeBench(*spec);

  obs::JsonWriter w;
  w.BeginObject();
  w.KeyValue("mode", mode);
  w.KeyValue("workload", spec->name);
  w.KeyValue("seed", seed);
  // The cache simulator hashes host addresses: only with ASLR off do
  // two processes simulate the same misses.
  w.KeyValue("aslr_off",
             (personality(0xffffffff) & ADDR_NO_RANDOMIZE) != 0);
  Status s;
  if (mode == "run") {
    Outcome o;
    s = RunOnce(*spec, seed, bench, RunHooks{}, &o);
    if (s.ok()) WriteOutcome(o, &w);
  } else if (mode == "decorated") {
    LayerTimes times;
    TimedWorkload timed(bench.workload.get(), &times);
    RunHooks hooks;
    hooks.timed = &timed;
    Outcome o;
    s = RunOnce(*spec, seed, bench, hooks, &o);
    if (s.ok()) {
      WriteOutcome(o, &w);
      WriteLayers(times, &w);
    }
  } else if (mode == "record") {
    if (trace_file.empty()) return Usage("record needs --trace-file");
    s = RecordAndReplay(*spec, seed, bench, trace_file, &w);
  } else {
    return Usage(("unknown mode: " + mode).c_str());
  }
  if (!s.ok()) {
    std::fprintf(stderr, "imoltp_perfbench: %s\n", s.ToString().c_str());
    return 1;
  }
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
