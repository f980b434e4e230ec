// obs::IntervalPeakRss (declared in obs/host_metrics.h). A translation
// unit of its own, so that only the binaries that call it link it and
// its libc imports: with host pointers as simulated addresses, a
// binary's layout reaches its simulated counters (ROADMAP item 1).

#include <cinttypes>
#include <cstdio>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "obs/host_metrics.h"

namespace imoltp::obs {

IntervalPeakRss::IntervalPeakRss() : reset_(false) {
#if defined(__GLIBC__)
  // Hand memory that earlier intervals freed back to the kernel first,
  // or the restarted mark would still count it.
  malloc_trim(0);
#endif
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    const bool written = std::fputs("5", f) >= 0;
    reset_ = std::fclose(f) == 0 && written;
  }
#endif
}

uint64_t IntervalPeakRss::PeakBytes() const {
#if defined(__linux__)
  if (!reset_) return PeakRssBytes();
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    uint64_t kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %" SCNu64, &kib) == 1;
    }
    std::fclose(f);
    if (found) return kib * 1024;
  }
#endif
  return PeakRssBytes();
}

}  // namespace imoltp::obs
