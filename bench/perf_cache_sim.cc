// Library micro-benchmarks (google-benchmark): raw throughput of the
// simulation substrate itself. These measure the REPRODUCTION's code,
// not the paper's systems — they bound how fast the figure benches run.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.h"
#include "mcsim/machine.h"

namespace imoltp::mcsim {
namespace {

void BM_CacheAccessHit(benchmark::State& state) {
  Cache cache(CacheConfig{32 * 1024, 64, 8});
  for (uint64_t i = 0; i < 512; ++i) cache.Access(i);
  uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(line));
    line = (line + 1) & 511;
  }
}
BENCHMARK(BM_CacheAccessHit);

void BM_CacheAccessMissStream(benchmark::State& state) {
  Cache cache(CacheConfig{32 * 1024, 64, 8});
  uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(line));
    line += 513;  // never reuses a set-resident line
  }
}
BENCHMARK(BM_CacheAccessMissStream);

void BM_HierarchyDataRead(benchmark::State& state) {
  MachineConfig cfg;
  cfg.model_tlb = state.range(0) != 0;
  MachineSim machine(cfg);
  Rng rng(1);
  for (auto _ : state) {
    machine.core(0).Read(rng.Next() & ((1ULL << 30) - 1), 8);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyDataRead)->Arg(0)->Arg(1);

// Writes on a 4-core machine: every write line probes the three
// siblings' private caches (MachineSim::InvalidateOthers). Each core in
// turn writes into a 1 MB range all cores share, so probes find and
// invalidate sibling copies.
void BM_HierarchyDataWrite4Core(benchmark::State& state) {
  MachineConfig cfg;
  cfg.num_cores = 4;
  MachineSim machine(cfg);
  Rng rng(1);
  int core = 0;
  for (auto _ : state) {
    machine.core(core).Write(rng.Next() & ((1ULL << 20) - 1), 8);
    core = (core + 1) & 3;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyDataWrite4Core);

// The shared LLC in concurrent mode (free-running execution): every
// Access takes its shard's mutex. Threads share one cache.
void BM_LlcConcurrentAccess(benchmark::State& state) {
  static std::unique_ptr<Cache> llc;
  if (state.thread_index() == 0) {
    llc = std::make_unique<Cache>(MachineConfig().llc);
    llc->set_concurrent(true);
  }
  Rng rng(state.thread_index() + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(llc->Access(rng.Next() & ((1ULL << 18) - 1)));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) llc.reset();
}
BENCHMARK(BM_LlcConcurrentAccess)->Threads(1)->Threads(4);

void BM_RegionExecution(benchmark::State& state) {
  MachineSim machine;
  CodeRegion region = machine.code_space().Define(
      kNoModule, static_cast<uint32_t>(state.range(0)),
      static_cast<uint32_t>(state.range(0)), 1000, 5.0);
  for (auto _ : state) {
    machine.core(0).ExecuteRegion(region);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegionExecution)->Arg(2 << 10)->Arg(16 << 10)->Arg(64 << 10);

}  // namespace
}  // namespace imoltp::mcsim

BENCHMARK_MAIN();
