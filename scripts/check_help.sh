#!/usr/bin/env bash
# Command-line parity for the tools in tools/ and the figure binaries
# in bench/ (fig*). Every tool given on the command line must
#   - answer --help with its usage and exit 0, and
#   - refuse a malformed flag value before doing any work: exit 2, an
#     error that names the flag (and the valid values of a choice
#     flag), nothing on stdout, and no output file.
# Only malformed values are driven here; range limits such as
# --workers=65 are tested at the parser (tests/flags_test.cc,
# tests/run_cli_test.cc), so no run with a large worker count can start.
#
# usage: check_help.sh TOOL...
set -uo pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: $0 TOOL..." >&2
  exit 2
fi

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
out="$scratch/out"
failed=0

# refuse NAME WANT COMMAND...: COMMAND must exit 2, print nothing on
# stdout, leave $out unwritten, and print an error containing WANT.
refuse() {
  local name=$1 want=$2
  shift 2
  rm -f "$out"
  local err rc
  err=$("$@" 2>&1 >"$scratch/stdout")
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "error: $name ${*:2}: exited $rc, want 2" >&2
    failed=1
  elif [ -s "$scratch/stdout" ] || [ -e "$out" ]; then
    echo "error: $name ${*:2}: wrote output despite the error" >&2
    failed=1
  elif [[ "$err" != *"$want"* ]]; then
    echo "error: $name ${*:2}: error does not mention '$want': $err" >&2
    failed=1
  fi
}

for tool in "$@"; do
  name=$(basename "$tool")
  output=$("$tool" --help 2>&1)
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "error: $name --help exited $rc, want 0" >&2
    failed=1
  elif [[ "$output" != *usage:* ]]; then
    echo "error: $name --help printed no usage" >&2
    failed=1
  fi

  case "$name" in
    imoltp_run|imoltp_trace)
      if [ "$name" = imoltp_run ]; then
        run=("$tool" --db=1MB --warmup=10 --json="$out")
      else
        run=("$tool" record --db=1MB --warmup=10 --trace-out="$out")
        refuse "$name" --threads "$tool" sweep "$scratch/none.trace" \
          --threads=4x
      fi
      refuse "$name" --txns "${run[@]}" --txns=abc
      refuse "$name" --txns "${run[@]}" --txns=12x
      refuse "$name" --seed "${run[@]}" --seed=-1
      refuse "$name" --workers "${run[@]}" --workers=0
      refuse "$name" "choices: shore-mt" "${run[@]}" --engine=typo
      refuse "$name" "choices: hash btree" "${run[@]}" --index=bogus
      ;;
    imoltp_chaos)
      run=("$tool" --cycles=1 --warmup=1 --json="$out")
      refuse "$name" --txns "${run[@]}" --txns=abc
      refuse "$name" --txns "${run[@]}" --txns=5q
      refuse "$name" --seed "${run[@]}" --seed=-1
      refuse "$name" --workers "${run[@]}" --workers=0
      refuse "$name" "choices: shore-mt" "${run[@]}" --engine=typo
      ;;
    imoltp_cluster)
      run=("$tool" run --nodes=1 --warmup=1 --orders-per-district=1
           --json="$out")
      refuse "$name" --txns "${run[@]}" --txns=abc
      refuse "$name" --txns "${run[@]}" --txns=12x
      refuse "$name" --seed "${run[@]}" --seed=-1
      refuse "$name" --workers-per-node "${run[@]}" --workers-per-node=0
      refuse "$name" "choices: shore-mt" "${run[@]}" --engine=typo
      ;;
    imoltp_bench)
      run=("$tool" --workloads=tpcb --txns=10 --warmup=1 --out="$out")
      refuse "$name" --txns "${run[@]}" --txns=abc
      refuse "$name" --seed "${run[@]}" --seed=-1
      refuse "$name" --workers "${run[@]}" --workers=0
      refuse "$name" "choices: shore-mt" "${run[@]}" --engines=hyper,typo
      refuse "$name" --engines "${run[@]}" --engines=hyper,typo \
        --workers=2x
      ;;
    imoltp_diff)
      refuse "$name" --rtol "$tool" --rtol=abc a.json b.json
      ;;
    imoltp_compare)
      refuse "$name" --max-regress "$tool" --max-regress=x a.json b.json
      ;;
    imoltp_timeline)
      refuse "$name" "unknown flag: --txns" "$tool" info t.json --txns=abc
      ;;
    fig*)
      if [[ "$output" != *"choices: serial free"* ]]; then
        echo "error: $name --help lists no --mode choices" >&2
        failed=1
      fi
      refuse "$name" --txn-scale "$tool" --txn-scale=nan
      refuse "$name" --txn-scale "$tool" --txn-scale=0.5x
      refuse "$name" --txn-scale "$tool" --txn-scale=0
      refuse "$name" "choices: serial free" "$tool" --mode=typo
      ;;
    *)
      echo "error: no malformed-value case for $name" >&2
      failed=1
      ;;
  esac
  [ "$failed" -eq 0 ] && echo "$name: --help and malformed values OK"
done
exit "$failed"
