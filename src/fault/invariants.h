#ifndef IMOLTP_FAULT_INVARIANTS_H_
#define IMOLTP_FAULT_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/tpcb.h"
#include "core/tpcc.h"
#include "engine/engine.h"

namespace imoltp::obs {
class JsonWriter;
}  // namespace imoltp::obs

namespace imoltp::fault {

/// Result of one workload-level consistency audit. The audit runs as
/// read-only transactions through the engine's own Execute path (so it
/// respects partition routing and concurrency control); `checksums` is a
/// stable numeric digest of what the audit observed, fed into the chaos
/// fingerprint for same-seed determinism checks.
struct InvariantReport {
  bool ok = true;
  std::vector<std::string> violations;
  std::vector<int64_t> checksums;

  void Violate(std::string what) {
    ok = false;
    violations.push_back(std::move(what));
  }
};

/// Writes `rep` as one JSON object: {"ok", "violations", "checksums"}.
void InvariantsToJson(obs::JsonWriter& w, const InvariantReport& rep);

/// printf into a std::string (audit violation messages; at most 255
/// characters).
std::string Sprintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// TPC-B money conservation. Every AccountUpdate adds the same delta to
/// one branch, one teller of that branch, and one account of that
/// branch, so for every branch b:
///
///   Δbalance(b) == Σ Δbalance(tellers of b) == Σ Δbalance(accounts of b)
///
/// Initial balances are regenerated from the tables' deterministic row
/// generators, so the check needs no snapshot of the pre-run database.
/// `num_workers` must match the engine's partition count (the audit
/// visits each partition from its home worker).
InvariantReport CheckTpcbInvariants(engine::Engine* engine,
                                    const core::TpcbBenchmark& bench,
                                    int num_workers);

/// TPC-C conservation invariants (TPC-C clause 3.3 consistency
/// conditions, scaled to this implementation):
///
///   1. W_YTD == Σ D_YTD over the warehouse's districts (Payment adds
///      the same amount to both).
///   2. D_NEXT_O_ID >= orders_per_district (it only advances).
///   3. Order-line conservation: for every order id in
///      [orders_per_district, D_NEXT_O_ID) the Order row exists and
///      exactly O_OL_CNT order lines with its key prefix exist
///      (NewOrder inserts them atomically; Delivery never deletes them).
InvariantReport CheckTpccInvariants(engine::Engine* engine,
                                    const core::TpccConfig& config,
                                    int num_workers);

}  // namespace imoltp::fault

#endif  // IMOLTP_FAULT_INVARIANTS_H_
