#include "replay_timer.h"

#include <algorithm>
#include <memory>

#include "layers.h"
#include "mcsim/machine.h"
#include "mcsim/profiler.h"
#include "trace/reader.h"

namespace perfbench {

using imoltp::Status;
namespace trace = imoltp::trace;
namespace mcsim = imoltp::mcsim;

namespace {

// One verb call in this many is timed (per verb kind). A verb costs
// tens of nanoseconds, about what a clock read costs.
constexpr uint64_t kVerbSampleEvery = 32;

/// Sampled host-time estimate for one verb kind.
class VerbTimer {
 public:
  template <typename Fn>
  void Call(Fn&& fn) {
    if (calls_++ % kVerbSampleEvery != 0) {
      fn();
      return;
    }
    const int64_t t0 = NowNs();
    fn();
    sampled_ns_ += std::max<int64_t>(0, NowNs() - t0 - TimerOverheadNs());
    ++sampled_;
  }

  double Seconds() const {
    if (sampled_ == 0) return 0.0;
    return static_cast<double>(sampled_ns_) * 1e-9 *
           static_cast<double>(calls_) / static_cast<double>(sampled_);
  }

 private:
  uint64_t calls_ = 0;
  uint64_t sampled_ = 0;
  int64_t sampled_ns_ = 0;
};

}  // namespace

Status TimeReplay(const std::string& path, ReplayTimes* out) {
  std::shared_ptr<const std::string> image;
  Status s = trace::LoadTraceFile(path, &image);
  if (!s.ok()) return s;
  out->trace_bytes = image->size();
  TimerOverheadNs();  // calibrate before any timed region

  trace::TraceEvent ev;
  bool done = false;
  {
    trace::TraceReader reader;
    s = reader.OpenBuffer(image);
    if (!s.ok()) return s;
    const int64_t t0 = NowNs();
    while (true) {
      s = reader.Next(&ev, &done);
      if (!s.ok()) return s;
      if (done) break;
    }
    out->decode_s = static_cast<double>(NowNs() - t0) * 1e-9;
  }

  trace::TraceReader reader;
  s = reader.OpenBuffer(image);
  if (!s.ok()) return s;
  mcsim::MachineConfig config = reader.meta().recorded_config;
  config.num_cores = reader.meta().num_workers;
  mcsim::MachineSim machine(config);
  size_t modules_registered = 0;
  auto sync_modules = [&] {
    const std::vector<mcsim::ModuleInfo>& mods = reader.modules();
    for (; modules_registered < mods.size(); ++modules_registered) {
      machine.modules().Register(mods[modules_registered].name,
                                 mods[modules_registered].inside_engine);
    }
  };
  sync_modules();
  mcsim::Profiler profiler(&machine);
  std::vector<int> cores;
  for (int c = 0; c < machine.num_cores(); ++c) cores.push_back(c);

  VerbTimer ifetch, read, write;
  const int64_t t0 = NowNs();
  while (true) {
    s = reader.Next(&ev, &done);
    if (!s.ok()) return s;
    if (done) break;
    sync_modules();
    mcsim::CoreSim& core = machine.core(ev.core);
    switch (ev.op) {
      case trace::kOpSetModule:
        core.SetModule(ev.module);
        break;
      case trace::kOpExecRegion:
        ifetch.Call([&] {
          core.ExecuteRegionAt(reader.regions()[ev.region], ev.start_line);
        });
        break;
      case trace::kOpLoad:
        read.Call([&] { core.Read(ev.addr, ev.size); });
        break;
      case trace::kOpStore:
        write.Call([&] { core.Write(ev.addr, ev.size); });
        break;
      case trace::kOpRetire:
        core.Retire(ev.n);
        break;
      case trace::kOpMispredict:
        core.Mispredict(ev.n);
        break;
      case trace::kOpTxnBegin:
        core.BeginTransaction();
        break;
      case trace::kOpWindowBegin:
        if (profiler.window_open()) {
          return Status::InvalidArgument("nested window in trace");
        }
        profiler.BeginWindow(cores);
        break;
      case trace::kOpWindowEnd:
        if (!profiler.window_open()) {
          return Status::InvalidArgument("window end without begin");
        }
        profiler.EndWindow();
        break;
      default:
        return Status::InvalidArgument("unexpected opcode in trace");
    }
    ++out->events;
  }
  out->replay_s = static_cast<double>(NowNs() - t0) * 1e-9;
  out->ifetch_s = ifetch.Seconds();
  out->read_s = read.Seconds();
  out->write_s = write.Seconds();
  for (int c = 0; c < machine.num_cores(); ++c) {
    const mcsim::CoreCounters& counters = machine.core(c).counters();
    out->refs += counters.code_line_fetches + counters.data_accesses;
    out->counters.push_back(counters);
  }
  return Status::Ok();
}

}  // namespace perfbench
