#ifndef IMOLTP_MCSIM_CODE_REGION_H_
#define IMOLTP_MCSIM_CODE_REGION_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "mcsim/config.h"
#include "mcsim/counters.h"

namespace imoltp::mcsim {

/// Descriptive metadata for one code module. `inside_engine` marks the
/// storage-manager/OLTP-engine side of the split the paper draws in its
/// Figure 7 breakdown (engine vs everything around it).
struct ModuleInfo {
  std::string name;
  bool inside_engine = false;
};

/// Registry of code modules for one simulated machine/engine pairing.
/// Capacity is bounded by kMaxModules — CoreCounters::per_module is a
/// fixed array of that many slots, so an unbounded registry would
/// mis-index or drop counters. Overflow registrations are clamped to
/// kNoModule (attributed to "<none>") with a one-time warning.
class ModuleRegistry {
 public:
  ModuleRegistry() {
    modules_.push_back({"<none>", false});  // kNoModule
  }

  /// Thread-safe: engines define code regions lazily (e.g. HyPer compiles
  /// a transaction on first dispatch), which in free-running parallel
  /// mode can happen from any worker thread.
  ModuleId Register(std::string name, bool inside_engine) {
    std::lock_guard<std::mutex> guard(mu_);
    return Append(std::move(name), inside_engine);
  }

  /// Like Register, but returns the existing id when `name` is already
  /// registered, so a module whose code spans several regions (Shore-MT's
  /// begin and commit paths) is counted, and reported, under one key.
  /// Register stays positional: trace replay re-registers a recorded
  /// module list by index.
  ModuleId Intern(std::string name, bool inside_engine) {
    std::lock_guard<std::mutex> guard(mu_);
    for (size_t id = 1; id < modules_.size(); ++id) {
      if (modules_[id].name == name) return static_cast<ModuleId>(id);
    }
    return Append(std::move(name), inside_engine);
  }

  const ModuleInfo& info(ModuleId id) const { return modules_[id]; }
  /// Safe to call while another thread registers: the experiment
  /// harness reads it around every measured transaction, and in
  /// free-running mode a worker may register a module meanwhile. Every
  /// id below the returned count is registered.
  int size() const { return size_.load(std::memory_order_acquire); }

 private:
  ModuleId Append(std::string name, bool inside_engine) {
    if (static_cast<int>(modules_.size()) >= kMaxModules) {
      if (!overflowed_) {
        overflowed_ = true;
        std::fprintf(stderr,
                     "ModuleRegistry: module limit (%d) reached; \"%s\" "
                     "and later registrations fold into <none>\n",
                     kMaxModules, name.c_str());
      }
      return kNoModule;
    }
    modules_.push_back({std::move(name), inside_engine});
    size_.store(static_cast<int>(modules_.size()), std::memory_order_release);
    return static_cast<ModuleId>(modules_.size() - 1);
  }

  std::mutex mu_;
  std::vector<ModuleInfo> modules_;
  std::atomic<int> size_{1};
  bool overflowed_ = false;
};

/// A synthetic code range standing for one compiled code module. The
/// instruction-footprint model is documented in DESIGN.md:
///
///   - Executing the region fetches `touched_lines` consecutive i-cache
///     lines from it and retires `instructions` instructions.
///   - If `total_lines > touched_lines`, each execution starts at a
///     caller-chosen (typically pseudo-random) window inside the region —
///     the model of branchy legacy code whose dynamic path varies between
///     invocations and therefore exhibits poor temporal i-cache locality.
///   - `mispredicts_per_kinstr` feeds the branch term of the cycle model;
///     legacy, branch-heavy code has a higher rate than compiled
///     straight-line code.
struct CodeRegion {
  ModuleId module = kNoModule;
  uint64_t base_line = 0;
  uint32_t total_lines = 0;
  uint32_t touched_lines = 0;
  uint32_t instructions = 0;
  double mispredicts_per_kinstr = 0.0;
  /// Inherent cycles-per-instruction of this code with warm caches
  /// (0 = the machine default). Compiled straight-line code ~0.45;
  /// branchy legacy engine code ~0.9-1.0.
  double cpi = 0.0;
};

/// Allocates non-overlapping synthetic code address ranges. Code lives at
/// line addresses far above anything a real heap pointer shifts down to,
/// so code and data never alias in the simulated caches.
class CodeSpace {
 public:
  /// Defines a region of `total_bytes` of code, of which `touched_bytes`
  /// are fetched per execution, retiring `instructions` instructions.
  /// Thread-safe (lazy region definition can race in free-running mode).
  CodeRegion Define(ModuleId module, uint32_t total_bytes,
                    uint32_t touched_bytes, uint32_t instructions,
                    double mispredicts_per_kinstr, double cpi = 0.0) {
    std::lock_guard<std::mutex> guard(mu_);
    CodeRegion r;
    r.module = module;
    r.cpi = cpi;
    r.total_lines = LinesFor(total_bytes);
    r.touched_lines = LinesFor(touched_bytes);
    if (r.touched_lines > r.total_lines) r.touched_lines = r.total_lines;
    r.instructions = instructions;
    r.mispredicts_per_kinstr = mispredicts_per_kinstr;
    r.base_line = next_line_;
    // Pad between regions so that distinct modules never share a line.
    next_line_ += r.total_lines + 8;
    return r;
  }

  uint64_t lines_allocated() const { return next_line_ - kCodeBaseLine; }

 private:
  static constexpr uint64_t kCodeBaseLine = 1ULL << 40;
  static uint32_t LinesFor(uint32_t bytes) {
    return (bytes + kLineBytes - 1) / kLineBytes;
  }

  std::mutex mu_;
  uint64_t next_line_ = kCodeBaseLine;
};

}  // namespace imoltp::mcsim

#endif  // IMOLTP_MCSIM_CODE_REGION_H_
