#ifndef IMOLTP_PERFBENCH_REPLAY_TIMER_H_
#define IMOLTP_PERFBENCH_REPLAY_TIMER_H_

// Pass C of the traced run: host time of the simulator (mcsim) and of
// the trace decoder, measured by replaying a recorded trace through the
// public CoreSim verbs.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "mcsim/counters.h"

namespace perfbench {

struct ReplayTimes {
  double decode_s = 0.0;  // decode-only TraceReader pass
  double replay_s = 0.0;  // decode + CoreSim verbs, whole trace

  // Host time inside the CoreSim verbs, estimated from a sample of the
  // calls. The write path includes coherence invalidations.
  double ifetch_s = 0.0;  // ExecuteRegionAt
  double read_s = 0.0;    // Read
  double write_s = 0.0;   // Write

  uint64_t events = 0;
  uint64_t trace_bytes = 0;
  /// Simulated references (code-line fetches + data accesses) over the
  /// whole trace, warm-up included.
  uint64_t refs = 0;
  /// Final per-core counters of the replay machine, for the
  /// bit-identity check against the live run.
  std::vector<imoltp::mcsim::CoreCounters> counters;
};

/// Decodes `path` once without simulating, then replays it under its
/// recorded machine configuration, mirroring trace::ReplayTrace.
imoltp::Status TimeReplay(const std::string& path, ReplayTimes* out);

}  // namespace perfbench

#endif  // IMOLTP_PERFBENCH_REPLAY_TIMER_H_
