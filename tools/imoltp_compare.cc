// imoltp_compare — diffs benchmark-trajectory points. Takes two or
// more JSON documents — BENCH_*.json matrices from imoltp_bench,
// timing-only matrices from scripts/run_all_bench.sh, or single-run
// reports from `imoltp_run --json` — renders cross-engine throughput
// and stall-breakdown tables, and exits non-zero when any later
// document regresses beyond tolerance against the FIRST (the
// baseline).
//
//   imoltp_compare BENCH_baseline.json BENCH_pr42.json
//   imoltp_compare --max-regress=0.5 BENCH_baseline.json bench_times.json
//   imoltp_compare baseline_report.json candidate_report.json
//
// Tolerance rules (see obs/bench_json.h):
//   * simulated metrics (ipc, instructions/txn) — symmetric relative
//     drift check; a change in either direction means the modeled
//     behavior changed (--ipc-rtol, default 0.05)
//   * host speed — one-sided: candidate refs/sec below
//     baseline*(1-max_regress) fails; wall-clock is the fallback for
//     timing-only cells (--max-regress, default 0.15, so a >15%
//     slowdown fails and a >20% slowdown certainly does)
//   * cells present in the baseline but absent from a candidate fail
//     unless --allow-missing (reduced CI sweeps vs a full baseline); a
//     candidate that pairs no cell at all always fails
//
// Exit codes: 0 = within tolerance, 1 = regression/drift, 2 = usage or
// parse error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "mcsim/counters.h"
#include "obs/bench_json.h"
#include "obs/json.h"

using namespace imoltp;
using obs::BenchCell;
using obs::BenchMatrix;

namespace {

int Usage(const char* argv0, const std::string& error) {
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv0, error.c_str());
  }
  std::fprintf(stderr,
               "usage: %s [--ipc-rtol=X] [--max-regress=X] "
               "[--allow-missing]\n"
               "          baseline.json candidate.json...\n",
               argv0);
  return 2;
}

bool ReadFile(const std::string& path, std::string* out,
              std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) *error = "read error on " + path;
  return ok;
}

double NumberAt(const obs::JsonValue& root,
                std::initializer_list<const char*> path) {
  const obs::JsonValue* v = &root;
  for (const char* key : path) {
    if (!v->is_object()) return 0.0;
    v = v->Find(key);
    if (v == nullptr) return 0.0;
  }
  return v->is_number() ? v->number : 0.0;
}

std::string StringAt(const obs::JsonValue& root,
                     std::initializer_list<const char*> path) {
  const obs::JsonValue* v = &root;
  for (const char* key : path) {
    if (!v->is_object()) return "";
    v = v->Find(key);
    if (v == nullptr) return "";
  }
  return v->is_string() ? v->string : "";
}

/// Lifts a single `imoltp_run --json` report into a one-cell matrix so
/// run reports and bench matrices compare through the same machinery.
BenchMatrix MatrixFromRunReport(const obs::JsonValue& root,
                                const std::string& path) {
  BenchMatrix m;
  m.label = path;
  BenchCell c;
  c.engine = StringAt(root, {"meta", "engine"});
  c.workload = StringAt(root, {"meta", "workload"});
  c.workers = static_cast<int>(NumberAt(root, {"meta", "workers"}));
  c.mode = StringAt(root, {"host", "parallel_mode"});
  if (c.mode.empty()) c.mode = "run";
  c.id = c.engine + "/" + c.workload + "/" + c.mode + "/w" +
         std::to_string(c.workers);
  c.warmup_txns =
      static_cast<uint64_t>(NumberAt(root, {"meta", "warmup_txns"}));
  c.measure_txns =
      static_cast<uint64_t>(NumberAt(root, {"meta", "measure_txns"}));
  c.seed = static_cast<uint64_t>(NumberAt(root, {"meta", "seed"}));
  c.ipc = NumberAt(root, {"window", "ipc"});
  c.instructions_per_txn =
      NumberAt(root, {"window", "instructions_per_txn"});
  c.cycles_per_txn = NumberAt(root, {"window", "cycles_per_txn"});
  if (const obs::JsonValue* window = root.Find("window")) {
    if (const obs::JsonValue* stalls =
            window->Find("stalls_per_kinstr")) {
      for (int i = 0; i < 6; ++i) {
        const obs::JsonValue* v =
            stalls->Find(mcsim::StallBreakdown::kNames[i]);
        c.stalls_per_kinstr[i] =
            v != nullptr && v->is_number() ? v->number : 0.0;
      }
    }
  }
  c.wall_seconds = NumberAt(root, {"host", "phase_seconds", "measure"});
  c.total_wall_seconds = NumberAt(root, {"host", "phase_seconds", "total"});
  c.simulated_refs = static_cast<uint64_t>(
      NumberAt(root, {"host", "measure", "simulated_refs"}));
  c.refs_per_sec = NumberAt(root, {"host", "measure", "refs_per_sec"});
  c.instructions_per_sec =
      NumberAt(root, {"host", "measure", "instructions_per_sec"});
  c.peak_rss_bytes =
      static_cast<uint64_t>(NumberAt(root, {"host", "peak_rss_bytes"}));
  m.cells.push_back(std::move(c));
  return m;
}

bool LoadMatrix(const std::string& path, BenchMatrix* out,
                std::string* error) {
  std::string text;
  if (!ReadFile(path, &text, error)) return false;
  auto parsed = obs::ParseJson(text);
  if (!parsed.ok()) {
    *error = path + ": " + parsed.status().ToString();
    return false;
  }
  const obs::JsonValue& root = *parsed;
  if (root.is_object() && root.Find("bench_schema_version") != nullptr) {
    auto matrix = obs::ParseBenchMatrix(text);
    if (!matrix.ok()) {
      *error = path + ": " + matrix.status().ToString();
      return false;
    }
    *out = std::move(*matrix);
    if (out->label.empty()) out->label = path;
    return true;
  }
  if (root.is_object() && root.Find("schema_version") != nullptr &&
      root.Find("window") != nullptr) {
    *out = MatrixFromRunReport(root, path);
    return true;
  }
  *error = path + ": neither a bench matrix nor a run report";
  return false;
}

/// Short column label: the matrix label, clipped.
std::string ColumnLabel(const BenchMatrix& m, size_t index) {
  std::string label = m.label.empty()
                          ? ("#" + std::to_string(index))
                          : m.label;
  if (label.size() > 12) label = label.substr(0, 12);
  return label;
}

void PrintThroughputTable(const std::vector<BenchMatrix>& matrices) {
  std::printf("\n== Throughput (simulated IPC | host refs/sec) ==\n");
  std::printf("%-34s", "cell");
  for (size_t i = 0; i < matrices.size(); ++i) {
    std::printf(" %8s.ipc %11s.r/s", ColumnLabel(matrices[i], i).c_str(),
                ColumnLabel(matrices[i], i).c_str());
  }
  std::printf("\n");
  for (const BenchCell& base : matrices[0].cells) {
    std::printf("%-34s", base.id.c_str());
    for (const BenchMatrix& m : matrices) {
      const BenchCell* c = nullptr;
      for (const BenchCell& x : m.cells) {
        if (x.id == base.id) {
          c = &x;
          break;
        }
      }
      if (c == nullptr) {
        std::printf(" %12s %15s", "-", "-");
      } else if (c->refs_per_sec > 0) {
        std::printf(" %12.4f %15.4g", c->ipc, c->refs_per_sec);
      } else {
        // Timing-only cell (run_all_bench.sh): wall-clock stands in.
        std::printf(" %12.4f %13.3fs", c->ipc, c->wall_seconds);
      }
    }
    std::printf("\n");
  }
}

void PrintStallTable(const std::vector<BenchMatrix>& matrices) {
  std::printf("\n== Stall cycles per 1000 instructions ==\n");
  std::printf("%-34s %-12s", "cell", "matrix");
  for (int i = 0; i < 6; ++i) {
    std::printf(" %8s", mcsim::StallBreakdown::kNames[i]);
  }
  std::printf("\n");
  for (const BenchCell& base : matrices[0].cells) {
    bool any = false;
    for (double s : base.stalls_per_kinstr) any = any || s > 0;
    if (!any) continue;  // timing-only cells carry no stall profile
    for (size_t i = 0; i < matrices.size(); ++i) {
      const BenchCell* c = nullptr;
      for (const BenchCell& x : matrices[i].cells) {
        if (x.id == base.id) {
          c = &x;
          break;
        }
      }
      if (c == nullptr) continue;
      std::printf("%-34s %-12s", i == 0 ? base.id.c_str() : "",
                  ColumnLabel(matrices[i], i).c_str());
      for (double s : c->stalls_per_kinstr) std::printf(" %8.2f", s);
      std::printf("\n");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchCompareOptions options;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--ipc-rtol=")) {
      options.ipc_rtol = std::atof(v);
      if (options.ipc_rtol <= 0) {
        return Usage(argv[0], std::string("bad --ipc-rtol: ") + v);
      }
    } else if (const char* v = value("--max-regress=")) {
      options.max_regress = std::atof(v);
      if (options.max_regress <= 0) {
        return Usage(argv[0], std::string("bad --max-regress: ") + v);
      }
    } else if (arg == "--allow-missing") {
      options.allow_missing = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0], "");
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      return Usage(argv[0], "unknown flag: " + arg);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() < 2) {
    return Usage(argv[0], "need a baseline and at least one candidate");
  }

  std::vector<BenchMatrix> matrices;
  std::string error;
  for (const std::string& path : paths) {
    BenchMatrix m;
    if (!LoadMatrix(path, &m, &error)) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
      return 2;
    }
    matrices.push_back(std::move(m));
  }

  PrintThroughputTable(matrices);
  PrintStallTable(matrices);

  int total_failures = 0;
  for (size_t i = 1; i < matrices.size(); ++i) {
    const auto failures =
        obs::CompareBenchMatrices(matrices[0], matrices[i], options);
    if (failures.empty()) continue;
    total_failures += static_cast<int>(failures.size());
    std::printf("\n== %s vs %s: %zu failure(s) ==\n",
                paths[0].c_str(), paths[i].c_str(), failures.size());
    for (const auto& f : failures) {
      std::printf("  %-34s %-20s %s\n", f.cell.c_str(),
                  f.metric.c_str(), f.detail.c_str());
    }
  }
  if (total_failures == 0) {
    std::printf("\nOK: %zu candidate(s) within tolerance of %s\n",
                matrices.size() - 1, paths[0].c_str());
    return 0;
  }
  return 1;
}
