// Layout-independent exactness gate for the machine model.
//
// Live engine runs feed the simulator host heap addresses, so their
// counters move whenever any host object changes size. This test instead
// drives a 4-core MachineSim with a seeded synthetic reference stream
// that holds no host pointers, hashes every simulated counter, and pins
// the hash. A change to the simulator that claims "counters unchanged"
// must keep these digests; a change that moves them on purpose must say
// so and record the new constants.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mcsim/machine.h"

namespace imoltp::mcsim {
namespace {

constexpr int kCores = 4;
constexpr int kSteps = 60000;

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(const LevelMisses& m) {
    Add(m.l1i);
    Add(m.l2i);
    Add(m.llc_i);
    Add(m.l1d);
    Add(m.l2d);
    Add(m.llc_d);
  }
  void Add(const ModuleCounters& c) {
    Add(c.instructions);
    Add(c.mispredictions);
    Add(c.tlb_misses);
    Add(c.base_cycles);
    Add(c.misses);
  }
  void Add(const CoreCounters& c) {
    Add(c.instructions);
    Add(c.mispredictions);
    Add(c.transactions);
    Add(c.aborted_txns);
    Add(c.code_line_fetches);
    Add(c.data_accesses);
    Add(c.tlb_misses);
    Add(c.base_cycles);
    Add(c.misses);
    for (const ModuleCounters& m : c.per_module) Add(m);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

MachineConfig StreamConfig(bool prefetcher) {
  MachineConfig c;
  c.num_cores = kCores;
  c.model_tlb = true;
  c.model_prefetcher = prefetcher;
  // A smaller LLC so the stream below exercises its evictions too.
  c.llc.size_bytes = 2 << 20;
  return c;
}

// Code regions of the synthetic engine: windowed (total > touched) and
// straight-line ones, spread over several modules.
struct Program {
  std::vector<ModuleId> modules;
  std::vector<CodeRegion> regions;
};

Program DefineProgram(MachineSim* m) {
  Program p;
  for (int i = 0; i < 6; ++i) {
    p.modules.push_back(
        m->modules().Register("mod" + std::to_string(i), i % 2 == 0));
  }
  CodeSpace& code = m->code_space();
  p.regions.push_back(code.Define(p.modules[0], 64 << 10, 4 << 10, 900,
                                  8.0, 0.9));
  p.regions.push_back(code.Define(p.modules[1], 2 << 10, 2 << 10, 300,
                                  1.0, 0.45));
  p.regions.push_back(code.Define(p.modules[2], 24 << 10, 1 << 10, 200,
                                  3.5));
  p.regions.push_back(code.Define(p.modules[3], 640, 640, 80, 0.0));
  p.regions.push_back(code.Define(p.modules[4], 128 << 10, 6 << 10,
                                  1500, 12.0, 1.0));
  return p;
}

// Drives every core verb from every core. Data addresses are synthetic:
// a large cold range, a small hot range shared by all cores (so writes
// invalidate siblings), and ascending runs (so the prefetcher fires).
void RunStream(MachineSim* m, const Program& p, uint64_t seed) {
  Rng rng(seed);
  constexpr uint64_t kColdBytes = 64ULL << 20;
  constexpr uint64_t kHotBase = 1ULL << 32;
  constexpr uint64_t kHotBytes = 256 << 10;
  for (int step = 0; step < kSteps; ++step) {
    CoreSim& core = m->core(static_cast<int>(rng.Uniform(kCores)));
    ScopedModule scope(&core,
                       p.modules[rng.Uniform(p.modules.size())]);
    const uint64_t op = rng.Uniform(12);
    const uint32_t size = static_cast<uint32_t>(rng.Range(1, 300));
    if (op < 3) {
      core.ExecuteRegion(p.regions[rng.Uniform(p.regions.size())]);
    } else if (op < 5) {
      core.Read(rng.Uniform(kColdBytes), size);
    } else if (op < 7) {
      core.Read(kHotBase + rng.Uniform(kHotBytes), size);
    } else if (op < 9) {
      core.Write(kHotBase + rng.Uniform(kHotBytes), size);
    } else if (op == 9) {
      core.Write(rng.Uniform(kColdBytes), size);
    } else if (op == 10) {
      const uint64_t base = rng.Uniform(kColdBytes) & ~63ULL;
      const int run = static_cast<int>(rng.Range(2, 24));
      for (int k = 0; k < run; ++k) core.Read(base + 64ULL * k, 8);
    } else {
      core.BeginTransaction();
      core.Retire(rng.Range(1, 400));
      core.Mispredict(rng.Uniform(3));
      core.Stall(static_cast<double>(rng.Uniform(50)) * 0.5);
      if (rng.Uniform(8) == 0) core.CountAbort();
    }
  }
}

uint64_t MachineDigest(MachineSim& m) {
  Digest d;
  for (int i = 0; i < m.num_cores(); ++i) {
    CoreSim& core = m.core(i);
    d.Add(core.counters());
    d.Add(core.prefetches_issued());
    for (Cache* c : {&core.l1i(), &core.l1d(), &core.l2()}) {
      d.Add(c->hits());
      d.Add(c->misses());
    }
  }
  d.Add(m.llc().hits());
  d.Add(m.llc().misses());
  return d.value();
}

uint64_t FreshDigest(bool prefetcher, uint64_t seed) {
  MachineSim m(StreamConfig(prefetcher));
  const Program p = DefineProgram(&m);
  RunStream(&m, p, seed);
  return MachineDigest(m);
}

// Recorded from the simulator before the caches dropped their atomic
// counters; every later change must reproduce them bit for bit.
constexpr uint64_t kDigestPrefetchOff = 12030615188658319943ULL;
constexpr uint64_t kDigestPrefetchOn = 8521915018692092331ULL;

TEST(SimDigestTest, SyntheticStreamMatchesRecordedDigest) {
  EXPECT_EQ(FreshDigest(/*prefetcher=*/false, 101), kDigestPrefetchOff);
  EXPECT_EQ(FreshDigest(/*prefetcher=*/true, 101), kDigestPrefetchOn);
}

TEST(SimDigestTest, StreamExercisesEveryPath) {
  MachineSim m(StreamConfig(/*prefetcher=*/true));
  const Program p = DefineProgram(&m);
  RunStream(&m, p, 101);
  const CoreCounters total = m.TotalCounters();
  EXPECT_GT(total.misses.l1i, 0u);
  EXPECT_GT(total.misses.llc_i, 0u);
  EXPECT_GT(total.misses.llc_d, 0u);
  EXPECT_GT(total.tlb_misses, 0u);
  EXPECT_GT(total.mispredictions, 0u);
  // More lines than the LLC holds went through it, so it evicted.
  EXPECT_GT(m.llc().misses(), m.llc().num_sets() * m.llc().associativity());
  for (int i = 0; i < kCores; ++i) {
    EXPECT_GT(m.core(i).prefetches_issued(), 0u) << "core " << i;
    EXPECT_GT(m.core(i).counters().transactions, 0u) << "core " << i;
  }
}

TEST(SimDigestTest, ResetMachineReplaysLikeFreshMachine) {
  for (bool prefetcher : {false, true}) {
    MachineSim m(StreamConfig(prefetcher));
    const Program p = DefineProgram(&m);
    RunStream(&m, p, 7);
    m.Reset();
    RunStream(&m, p, 101);
    EXPECT_EQ(MachineDigest(m), FreshDigest(prefetcher, 101))
        << "prefetcher " << prefetcher;
  }
}

}  // namespace
}  // namespace imoltp::mcsim
