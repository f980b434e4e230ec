#!/usr/bin/env bash
# Bench-pipeline smoke check: runs a tiny imoltp_bench sweep, asserts
# that the matrix self-compares clean through imoltp_compare (exit 0),
# that an injected refs/sec collapse, or a candidate whose cell ids
# pair with none of the baseline's, trips the gate (exit non-zero), and
# that a tpcc-cluster cell reports simulated refs/sec. Exercises the
# full trajectory loop — run, serialize, parse, tolerance rules — in a
# few seconds; CI and ctest both run it (docs/OBSERVABILITY.md,
# "Benchmark trajectories").
#
# usage: check_bench.sh IMOLTP_BENCH IMOLTP_COMPARE [OUT_DIR]
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 IMOLTP_BENCH IMOLTP_COMPARE [OUT_DIR]" >&2
  exit 2
fi

imoltp_bench=$1
imoltp_compare=$2
outdir=${3:-$(mktemp -d)}
mkdir -p "$outdir"

base="$outdir/BENCH_smoke.json"
"$imoltp_bench" --label=smoke --out="$base" \
                --engines=voltdb,hyper --workloads=tpcb \
                --modes=serial --workers=2 \
                --txns=300 --warmup=50 --seed=11 >/dev/null

# 1. A matrix must always be within tolerance of itself.
"$imoltp_compare" "$base" "$base" >/dev/null
echo "self-compare: OK"

# 2. A collapsed host throughput must fail the gate. The matrix is
# single-line JSON, so a textual substitution is exact.
regressed="$outdir/BENCH_smoke_regressed.json"
sed -E 's/"refs_per_sec":[0-9.eE+-]+/"refs_per_sec":1.0/g' \
    "$base" > "$regressed"
if "$imoltp_compare" "$base" "$regressed" >/dev/null; then
  echo "error: injected refs/sec regression was not detected" >&2
  exit 1
fi
echo "injected regression: detected (as it must be)"

# 3. A candidate that pairs no cell compared nothing, so it must fail
# even under --allow-missing (drifted ids would otherwise pass).
renamed="$outdir/BENCH_smoke_renamed.json"
sed -E 's#"id":"([^"/]*)/([^"/]*)/serial/#"id":"\1/\2/renamed/#g' \
    "$base" > "$renamed"
rc=0
"$imoltp_compare" --allow-missing "$base" "$renamed" >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "error: a candidate with no paired cell exited $rc, want 1" >&2
  exit 1
fi
echo "unpaired candidate: rejected (as it must be)"

# 4. A tpcc-cluster cell carries the same host axis as single-node
# cells: simulated refs and refs/sec over its measured rounds.
cluster="$outdir/BENCH_cluster.json"
"$imoltp_bench" --label=cluster --out="$cluster" --engines=hyper \
                --workloads=tpcc-cluster --workers=2 --warehouses=2 \
                --txns=100 --warmup=20 --seed=11 >/dev/null 2>&1
python3 - "$cluster" <<'PY'
import json, sys
cells = json.load(open(sys.argv[1]))["cells"]
assert len(cells) == 1, cells
cell = cells[0]
assert cell["simulated_refs"] > 0, cell
assert cell["refs_per_sec"] > 0, cell
assert 0 < cell["wall_seconds"] <= cell["total_wall_seconds"], cell
PY
echo "cluster cell: simulated refs and refs/sec filled"
