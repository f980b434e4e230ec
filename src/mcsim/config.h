#ifndef IMOLTP_MCSIM_CONFIG_H_
#define IMOLTP_MCSIM_CONFIG_H_

#include <cstdint>

namespace imoltp::mcsim {

/// Bytes per cache line. Data accesses split at this size, code regions
/// are laid out in lines of it, and page numbers derive from it, so every
/// cache level of a machine uses it (trace::ApplyConfigSpec rejects any
/// other line size).
inline constexpr uint32_t kLineBytes = 64;
inline constexpr int kLineShift = 6;
static_assert(kLineBytes == 1u << kLineShift);

/// Geometry of one cache level.
struct CacheConfig {
  uint64_t size_bytes = 0;
  uint32_t line_bytes = kLineBytes;
  uint32_t associativity = 8;
};

/// Parameters of the cycle model.
///
/// Reported stall cycles follow the paper's convention exactly: the number
/// of misses from each level multiplied by the per-level miss penalty in
/// Table 1 (L1 miss 8 cycles, L2 miss 19, LLC miss 167), drawn
/// side-by-side. Total simulated cycles (the denominator of IPC)
/// additionally model what raw penalties under-count on an out-of-order
/// core: frontend resteer/refill amplification for instruction misses, an
/// overlap discount for data misses (memory-level parallelism), and branch
/// mispredictions.
struct CycleModelParams {
  /// Cycles per instruction with no cache misses, for code outside any
  /// code region (index/storage substrate work, which is compact,
  /// pointer-chasing code). The paper's no-miss loop retires IPC 3 on
  /// this machine (Section 4.1.1). Code regions carry their own CPI:
  /// compiled straight-line code sustains ~0.45, decades-old branchy
  /// engine code ~0.9-1.0 (low inherent ILP).
  double base_cpi = 1.0 / 3.0;

  /// Lower bound applied to every code region's inherent CPI (0 = none).
  /// Models narrower/in-order cores that cannot reach the ILP the
  /// region's code exposes (see bench/extension_energy).
  double cpi_floor = 0.0;

  /// Table 1 miss penalties (cycles).
  double l1_miss_penalty = 8.0;
  double l2_miss_penalty = 19.0;
  double llc_miss_penalty = 167.0;

  /// An L1I miss costs more than the raw refill latency: the frontend
  /// resteers, the decode pipeline refills, and the DSB is flushed.
  double frontend_amplification = 3.0;

  /// Effective-cost multipliers per data-miss penalty. Below 1.0 the
  /// out-of-order window hides part of the latency (L1/L2 misses).
  ///
  /// LLC misses are different: their effective cost depends on DENSITY.
  /// An isolated miss amid thousands of instructions overlaps with
  /// useful work (cost near the raw penalty); dense dependent chains —
  /// compiled code pointer-chasing random rows — serialize completely
  /// and add TLB walks, NUMA-remote hops, and queueing that the averaged
  /// Table 1 penalty omits. The model ramps the multiplier with observed
  /// miss density (misses per k-instruction) between `llc_amp_floor`
  /// and `data_amp_llc` (see EffectiveLlcAmp in counters.h). This is
  /// what lets HyPer be the FASTEST system on TPC-B (sparse misses,
  /// Figure 8) and the SLOWEST on the 100GB micro-benchmark (dense
  /// chains, Figure 1) — the paper's own crossover. The paper likewise
  /// notes that side-by-side miss x penalty accounting cannot reproduce
  /// measured IPC exactly (Section 3, "Measurements").
  double data_amp_l1 = 0.55;
  double data_amp_l2 = 0.65;
  double data_amp_llc = 4.5;   // at/above llc_density_hi misses per kI
  double llc_amp_floor = 1.3;  // at/below llc_density_lo misses per kI
  double llc_density_lo = 0.3;
  double llc_density_hi = 2.5;

  /// Branch misprediction flush penalty (cycles).
  double mispredict_penalty = 17.0;

  /// dTLB miss cost beyond the page-walker's own memory accesses
  /// (which flow through the simulated hierarchy; see CoreSim).
  double tlb_walk_cycles = 7.0;
};

/// Table 1 of the paper: Intel Xeon E5-2640 v2 (Ivy Bridge).
struct MachineConfig {
  int num_cores = 1;
  double clock_ghz = 2.0;
  int issue_width = 4;
  CacheConfig l1i{32 * 1024, 64, 8};
  CacheConfig l1d{32 * 1024, 64, 8};
  CacheConfig l2{256 * 1024, 64, 8};
  CacheConfig llc{20 * 1024 * 1024, 64, 20};

  /// dTLB model (Ivy Bridge: 64-entry L1 dTLB, 512-entry STLB). Entry
  /// counts are expressed through the Cache geometry (one "line" per
  /// page entry). On a full miss the hardware walker's PTE load goes
  /// through the data hierarchy — for a 100GB working set the page
  /// table itself falls out of the LLC, which is part of why random
  /// probes at that scale cost far more than one memory access.
  bool model_tlb = true;
  CacheConfig dtlb{64 * 64, 64, 4};
  CacheConfig stlb{512 * 64, 64, 4};
  uint32_t page_bytes = 4096;

  /// Optional L2 stream prefetcher: on an L1D miss that continues an
  /// ascending line sequence, the next `prefetch_degree` lines are
  /// pulled into L2/LLC. Off by default — the calibrated cycle model
  /// folds the production prefetchers' effect into its effective
  /// penalties; turn this on to study prefetching explicitly
  /// (bench/ablation_prefetcher).
  bool model_prefetcher = false;
  uint32_t prefetch_degree = 2;

  CycleModelParams cycle;
};

}  // namespace imoltp::mcsim

#endif  // IMOLTP_MCSIM_CONFIG_H_
