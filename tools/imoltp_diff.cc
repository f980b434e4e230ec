// imoltp_diff — compares two JSON reports produced by
// `imoltp_run --json` (or the bench exporters) and exits non-zero when
// any metric drifts beyond its tolerance. The regression harness runs
// a fixed-seed experiment and diffs it against a checked-in golden
// report (scripts/check_regression.sh).
//
//   imoltp_diff baseline.json candidate.json
//   imoltp_diff --rtol=0.05 --metric-rtol=spans=0.2 a.json b.json
//   imoltp_diff --json a.json b.json   # machine-readable verdict
//
// `imoltp_diff --help` lists every flag with its default. Explicit
// --metric-rtol and --ignore rules take precedence over the built-in
// ones below.
//
// Exit codes: 0 = within tolerance, 1 = drift (offending metrics are
// printed), 2 = usage or parse error.
//
// Built-in per-metric rules (longest matching prefix wins):
//   meta, schema_version          exact — different run configurations
//                                 are incomparable, not "drifted"
//   meta.trace                    ignored — trace provenance names the
//                                 file, not the run configuration
//   window.misses                 rtol 0.05, atol 128 (ASLR perturbs
//                                 cold-miss counts)
//   window.stalls                 rtol 0.10, atol 0.5
//   window.cycle_accounting       rtol 0.05, atol 1000 (derives from
//                                 the jittery miss counts)
//   latency_cycles                rtol 0.10
//   spans                         rtol 0.10, atol 500
//   latency_cycles.bins           ignored — counts hop between adjacent
//                                 log-spaced bins on tiny shifts
//   robustness                    exact — commit/abort/retry/fault
//                                 counters are deterministic under the
//                                 serial mode; free-mode runs need
//                                 an explicit --metric-rtol=robustness=X
//   timeseries.sample_every       exact — different sampling periods
//                                 produce incomparable bucket grids
//   timeseries.convergence        ignored — an advisory warm-up verdict,
//                                 not a metric (its boolean flips on
//                                 noise exactly at the tolerance edge)
//   timeseries                    rtol 0.10, atol 2.0 — bucket-wise;
//                                 per-bucket miss-derived values are
//                                 noisier than whole-window averages
//   window.txn_module_breakdown   rtol 0.05, atol 1000 (per-type module
//                                 cycles inherit the miss-count jitter)
//   host                          ignored — host-side wall-clock /
//                                 throughput / RSS measure the simulator
//                                 process, never deterministic (use
//                                 imoltp_compare for trajectories)
//   cluster                       exact — cluster outcome counts, net
//                                 accounting, fingerprint, invariants
//                                 are bit-identical per seed
//   cluster.windows,
//   cluster.*throughput/cycles    tolerant — per-node window reports
//                                 and throughput carry cycle-model
//                                 (ASLR-jittered) values
//   cluster.tracing.*.cycles,
//   cluster.tracing.p99_*         tolerant — trace stage/critical-path
//                                 percentiles and the p99 composition
//                                 shares are cycle-model values; trace
//                                 counts stay exact under `cluster`
//   sweep / sweep.perf            exact series, tolerant perf (same
//                                 split for sweep documents)
//   everything else               default rtol (0.02)
//
// When either report has meta.trace.replayed == true, latency_cycles,
// spans, robustness, timeseries, and window.txn_module_breakdown are
// ignored entirely: a replay re-simulates the recorded reference stream
// without the engine, so it has no per-transaction latency histogram,
// lifecycle spans, abort/retry accounting, sampled series, or per-type
// attribution, and their absence is not drift.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/report_json.h"
#include "tools/flags.h"

using imoltp::obs::JsonValue;
using imoltp::obs::ParseJson;

namespace {

struct ToleranceRule {
  std::string prefix;  // dotted-path prefix; "" matches everything
  double rtol;         // negative = ignore subtree
  double atol = 0.0;   // absolute floor for small-magnitude metrics
};

struct Options {
  double default_rtol = 0.02;
  std::vector<ToleranceRule> user_rules;  // from flags, highest priority
  std::string baseline_path;
  std::string candidate_path;
  bool json_output = false;
};

/// One metric beyond tolerance: the dotted path and what differed.
struct Failure {
  std::string path;
  std::string detail;
};

// The cache simulator hashes real heap addresses, so ASLR perturbs
// cold-miss counts slightly between otherwise identical runs; the
// absolute floors keep near-zero counters (a handful of L2I misses)
// from tripping a purely relative check.
const ToleranceRule kBuiltinRules[] = {
    {"schema_version", 0.0, 0.0},
    {"meta", 0.0, 0.0},
    // Trace provenance (schema v2) identifies the file, not the run:
    // a recorded baseline and its replay must still compare clean.
    {"meta.trace", -1.0, 0.0},
    {"window.misses", 0.05, 128.0},
    {"window.stalls", 0.10, 0.5},
    {"window.cycle_accounting", 0.05, 1000.0},
    {"latency_cycles.bins", -1.0, 0.0},
    {"latency_cycles", 0.10, 0.0},
    {"spans", 0.10, 500.0},
    // Schema v3: serial-mode runs must match these exactly; any
    // change in commit counts, abort causes, retry traffic, or the
    // fault schedule is a real behavioral regression, not jitter.
    {"robustness", 0.0, 0.0},
    // Schema v4: the sampled time-series compares bucket-wise. Bucket
    // boundaries and retired-work counts are deterministic, but the
    // per-bucket miss-derived values (model_cycles, ipc, stalls) are
    // noisier than whole-window averages — fewer events average the
    // placement jitter out. The convergence verdict is advisory.
    {"timeseries.sample_every", 0.0, 0.0},
    {"timeseries.convergence", -1.0, 0.0},
    {"timeseries", 0.10, 2.0},
    {"window.txn_module_breakdown", 0.05, 1000.0},
    // Schema v5: host-side metrics (wall-clock, refs/sec, RSS) measure
    // the simulator process, not the simulated machine — never
    // deterministic, never comparable. Use imoltp_compare for host
    // throughput trajectories.
    {"host", -1.0, 0.0},
    // Schema v7: checkpoint / recovery accounting. Capture cadence,
    // truncation counts, and replay/undo totals are deterministic in
    // serial mode — any drift is a real behavioral change.
    {"recovery", 0.0, 0.0},
    // Schema v6: cluster documents. Outcome counts, fingerprints,
    // network accounting, and invariants are deterministic (same-seed
    // cluster runs are bit-identical) — exact. The per-node window
    // reports and throughput derive from the cycle model's
    // address-hashed miss counts, so they inherit the usual ASLR
    // jitter; they live under distinct key prefixes precisely so these
    // rules can hold everything else exact.
    {"cluster", 0.0, 0.0},
    {"cluster.windows", 0.10, 1000.0},
    {"cluster.max_window_cycles", 0.10, 0.0},
    {"cluster.throughput_per_mcycle", 0.10, 0.0},
    // Schema v8: distributed tracing. Trace COUNTS (traced, committed,
    // orphaned, stage counts, ring drops) stay under the exact
    // `cluster` rule above — they are part of the same-seed determinism
    // contract. Only the cycle-valued subtrees are tolerant: stage and
    // critical-path percentiles inherit the cycle model's ASLR jitter,
    // and the p99 composition shares are ratios of them (atol 0.05 on
    // a 0..1 share ≈ the windows rule's 1000-cycle floor).
    {"cluster.tracing.stages.cycles", 0.10, 2000.0},
    {"cluster.tracing.critical_path.cycles", 0.10, 2000.0},
    {"cluster.tracing.p99_composition", 0.10, 0.05},
    {"cluster.tracing.p99_net_order_share", 0.10, 0.05},
    {"sweep", 0.0, 0.0},
    {"sweep.perf", 0.10, 100.0},
};

bool PrefixMatches(const std::string& path, const std::string& prefix) {
  return prefix.empty() || path.compare(0, prefix.size(), prefix) == 0;
}

/// Longest matching user rule wins; then longest built-in; then the
/// default. Returns {rtol, atol}; negative rtol = ignore.
ToleranceRule RuleFor(const std::string& path, const Options& opts) {
  const ToleranceRule* best = nullptr;
  for (const ToleranceRule& r : opts.user_rules) {
    if (PrefixMatches(path, r.prefix) &&
        (best == nullptr || r.prefix.size() > best->prefix.size())) {
      best = &r;
    }
  }
  if (best != nullptr) return *best;
  for (const ToleranceRule& r : kBuiltinRules) {
    if (PrefixMatches(path, r.prefix) &&
        (best == nullptr || r.prefix.size() > best->prefix.size())) {
      best = &r;
    }
  }
  return best != nullptr ? *best
                         : ToleranceRule{"", opts.default_rtol, 0.0};
}

const char* TypeName(JsonValue::Type t) {
  switch (t) {
    case JsonValue::Type::kNull: return "null";
    case JsonValue::Type::kBool: return "bool";
    case JsonValue::Type::kNumber: return "number";
    case JsonValue::Type::kString: return "string";
    case JsonValue::Type::kArray: return "array";
    case JsonValue::Type::kObject: return "object";
  }
  return "?";
}

void Fail(std::vector<Failure>* failures, const std::string& path,
          const std::string& what) {
  failures->push_back(
      Failure{path.empty() ? std::string("<root>") : path, what});
}

std::string Join(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

void Compare(const JsonValue& a, const JsonValue& b,
             const std::string& path, const Options& opts,
             std::vector<Failure>* failures) {
  const ToleranceRule rule = RuleFor(path, opts);
  const double rtol = rule.rtol;
  if (rtol < 0) return;  // ignored subtree

  if (a.type != b.type) {
    Fail(failures, path,
         std::string("type mismatch (") + TypeName(a.type) + " vs " +
             TypeName(b.type) + ")");
    return;
  }
  switch (a.type) {
    case JsonValue::Type::kNull:
      return;
    case JsonValue::Type::kBool:
      if (a.boolean != b.boolean) {
        Fail(failures, path,
             std::string("bool mismatch (") +
                 (a.boolean ? "true" : "false") + " vs " +
                 (b.boolean ? "true" : "false") + ")");
      }
      return;
    case JsonValue::Type::kString:
      if (a.string != b.string) {
        Fail(failures, path,
             "\"" + a.string + "\" vs \"" + b.string + "\"");
      }
      return;
    case JsonValue::Type::kNumber: {
      const double diff = std::fabs(a.number - b.number);
      const double scale =
          std::fmax(std::fabs(a.number), std::fabs(b.number));
      const bool ok =
          rtol == 0.0 && rule.atol == 0.0
              ? a.number == b.number
              : diff <= rtol * scale + rule.atol + 1e-12;
      if (!ok) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%.6g vs %.6g (rel %.4f > rtol %.4f, atol %g)",
                      a.number, b.number,
                      scale > 0 ? diff / scale : 0.0, rtol, rule.atol);
        Fail(failures, path, buf);
      }
      return;
    }
    case JsonValue::Type::kArray: {
      if (a.array.size() != b.array.size()) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "array size %zu vs %zu",
                      a.array.size(), b.array.size());
        Fail(failures, path, buf);
        return;
      }
      for (size_t i = 0; i < a.array.size(); ++i) {
        char idx[24];
        std::snprintf(idx, sizeof(idx), "[%zu]", i);
        Compare(a.array[i], b.array[i], path + idx, opts, failures);
      }
      return;
    }
    case JsonValue::Type::kObject: {
      for (const auto& [key, av] : a.object) {
        const JsonValue* bv = b.Find(key);
        if (bv == nullptr) {
          if (RuleFor(Join(path, key), opts).rtol >= 0) {
            Fail(failures, Join(path, key), "missing in candidate");
          }
          continue;
        }
        Compare(av, *bv, Join(path, key), opts, failures);
      }
      for (const auto& [key, bv] : b.object) {
        (void)bv;
        if (a.Find(key) == nullptr &&
            RuleFor(Join(path, key), opts).rtol >= 0) {
          Fail(failures, Join(path, key), "missing in baseline");
        }
      }
      return;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  imoltp::tools::FlagTable t("imoltp_diff",
                             "[flags] baseline.json candidate.json", 2);
  t.Real("rtol", &opts.default_rtol, "default relative tolerance",
         /*allow_zero=*/true);
  t.Custom("metric-rtol", "PREFIX=X",
           "relative tolerance for metrics whose dotted path starts with "
           "PREFIX",
           [&opts](const std::string& spec, std::string* why) {
             const size_t eq = spec.rfind('=');
             double rtol = 0;
             if (eq == std::string::npos || eq == 0 ||
                 !imoltp::tools::ParseReal(spec.substr(eq + 1), &rtol)) {
               return *why = "want PREFIX=X with X >= 0", false;
             }
             opts.user_rules.push_back({spec.substr(0, eq), rtol});
             return true;
           })
      .repeatable = true;
  t.Custom("ignore", "PREFIX", "skip metrics under PREFIX",
           [&opts](const std::string& prefix, std::string*) {
             opts.user_rules.push_back({prefix, -1.0});
             return true;
           })
      .repeatable = true;
  t.Bool("json", &opts.json_output,
         "print the verdict as one JSON object on stdout: {verdict, "
         "baseline, candidate, failures:[{path, detail}]}");
  if (const auto rc = t.ParseOrExit(argc, argv)) return *rc;
  if (t.positional().size() != 2) {
    return imoltp::tools::UsageError(
        t.program(), "need a baseline and a candidate report");
  }
  opts.baseline_path = t.positional()[0];
  opts.candidate_path = t.positional()[1];

  std::string base_text, cand_text, error;
  if (!imoltp::tools::ReadFile(opts.baseline_path, &base_text, &error) ||
      !imoltp::tools::ReadFile(opts.candidate_path, &cand_text, &error)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    return 2;
  }
  auto base = ParseJson(base_text);
  if (!base.ok()) {
    std::fprintf(stderr, "%s: %s: %s\n", argv[0],
                 opts.baseline_path.c_str(),
                 base.status().ToString().c_str());
    return 2;
  }
  auto cand = ParseJson(cand_text);
  if (!cand.ok()) {
    std::fprintf(stderr, "%s: %s: %s\n", argv[0],
                 opts.candidate_path.c_str(),
                 cand.status().ToString().c_str());
    return 2;
  }

  // Incomparable schemas are a usage error, not a metric drift.
  const JsonValue* bv = base.value().Find("schema_version");
  const JsonValue* cv = cand.value().Find("schema_version");
  if (bv != nullptr && cv != nullptr && bv->is_number() &&
      cv->is_number() && bv->number != cv->number) {
    std::fprintf(stderr,
                 "%s: schema_version mismatch (%.0f vs %.0f); reports "
                 "are not comparable\n",
                 argv[0], bv->number, cv->number);
    return 2;
  }

  // Replayed reports (imoltp_trace replay --json) carry the window
  // metrics but no engine-side sections; don't flag those as missing.
  // Appended after the flag rules so an explicit --metric-rtol/--ignore
  // of the same prefix still wins.
  const auto is_replayed = [](const JsonValue& doc) {
    const JsonValue* meta = doc.Find("meta");
    const JsonValue* trace = meta != nullptr ? meta->Find("trace") : nullptr;
    const JsonValue* rep =
        trace != nullptr ? trace->Find("replayed") : nullptr;
    return rep != nullptr && rep->type == JsonValue::Type::kBool &&
           rep->boolean;
  };
  if (is_replayed(base.value()) || is_replayed(cand.value())) {
    opts.user_rules.push_back({"latency_cycles", -1.0, 0.0});
    opts.user_rules.push_back({"spans", -1.0, 0.0});
    opts.user_rules.push_back({"robustness", -1.0, 0.0});
    opts.user_rules.push_back({"timeseries", -1.0, 0.0});
    opts.user_rules.push_back({"window.txn_module_breakdown", -1.0, 0.0});
  }

  std::vector<Failure> failures;
  Compare(base.value(), cand.value(), "", opts, &failures);

  if (opts.json_output) {
    imoltp::obs::JsonWriter w;
    w.BeginObject();
    w.KeyValue("verdict", failures.empty() ? "ok" : "drift");
    w.KeyValue("baseline", opts.baseline_path);
    w.KeyValue("candidate", opts.candidate_path);
    w.KeyValue("default_rtol", opts.default_rtol);
    w.KeyValue("failure_count",
               static_cast<uint64_t>(failures.size()));
    w.Key("failures");
    w.BeginArray();
    for (const Failure& f : failures) {
      w.BeginObject();
      w.KeyValue("path", f.path);
      w.KeyValue("detail", f.detail);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return failures.empty() ? 0 : 1;
  }

  if (failures.empty()) {
    std::printf("OK: %s and %s match within tolerance\n",
                opts.baseline_path.c_str(), opts.candidate_path.c_str());
    return 0;
  }
  for (const Failure& f : failures) {
    std::fprintf(stderr, "DRIFT %s: %s\n", f.path.c_str(),
                 f.detail.c_str());
  }
  std::fprintf(stderr, "%zu metric(s) drifted beyond tolerance\n",
               failures.size());
  return 1;
}
