#!/usr/bin/env bash
# Report reproducibility checks for imoltp_run's default mode (kSerial;
# docs/parallel_execution.md).
#
#   check_reproducible.sh selfdiff IMOLTP_RUN IMOLTP_DIFF OUT_DIR
#     Writes one multi-worker TPC-B report per engine and diffs each
#     against itself. A report that repeats a JSON key (two modules
#     under one name, say) fails to parse, so the diff exits 2.
#
#   check_reproducible.sh processes IMOLTP_RUN OUT_DIR
#     Runs each of two commands in four processes with ASLR off
#     (setarch -R) and requires every report to be byte-identical to the
#     first up to the `host` section, which is last and measures the
#     host, not the simulated machine. Four runs, not two: a mode whose
#     results hang on host thread placement can still agree by chance
#     in a single pair. The second command, HyPer TPC-C with a short
#     warm-up, registers compiled-procedure modules inside the measured
#     window, which the per-transaction module accounting must charge
#     from zero. Exits 77, which ctest reports as a skip, when
#     setarch -R cannot run on this host.
set -euo pipefail

usage() {
  echo "usage: $0 selfdiff IMOLTP_RUN IMOLTP_DIFF OUT_DIR" >&2
  echo "       $0 processes IMOLTP_RUN OUT_DIR" >&2
  exit 2
}

case "${1:-}" in
  selfdiff)
    [ "$#" -eq 4 ] || usage
    imoltp_run=$2
    imoltp_diff=$3
    outdir=$4
    mkdir -p "$outdir"
    for engine in shore-mt dbms-d voltdb hyper dbms-m; do
      report="$outdir/selfdiff-$engine.json"
      "$imoltp_run" --engine="$engine" --workload=tpcb --workers=2 \
                    --warmup=50 --txns=200 --seed=7 \
                    --json="$report" 2>/dev/null
      "$imoltp_diff" "$report" "$report" >/dev/null
      echo "$engine: report self-diffs clean"
    done
    ;;
  processes)
    [ "$#" -eq 3 ] || usage
    imoltp_run=$2
    outdir=$3
    mkdir -p "$outdir"
    if ! setarch -R true >/dev/null 2>&1; then
      echo "setarch -R is unusable here; skipping" >&2
      exit 77
    fi
    # NAME IMOLTP_RUN_FLAGS...: four same-seed processes, one report.
    same_in_four_processes() {
      local name=$1
      shift
      for run in 1 2 3 4; do
        local out="$outdir/$name-$run"
        setarch -R "$imoltp_run" "$@" --seed=7 --json="$out.json" \
          2>/dev/null
        local report
        report=$(<"$out.json")
        printf '%s' "${report%%\"host\":*}" > "$out.sim"
        if ! cmp "$outdir/$name-1.sim" "$out.sim"; then
          echo "error: $name: same-seed processes 1 and $run wrote" \
               "different reports" >&2
          exit 1
        fi
      done
      echo "$name: four processes, reports identical outside host"
    }
    same_in_four_processes dbms-m-tpcb --engine=dbms-m --workload=tpcb \
      --workers=4 --warmup=50 --txns=300
    same_in_four_processes hyper-tpcc --engine=hyper --workload=tpcc \
      --warehouses=2 --workers=2 --warmup=2 --txns=200
    ;;
  *)
    usage
    ;;
esac
