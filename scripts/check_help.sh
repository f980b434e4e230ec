#!/usr/bin/env bash
# --help parity: every command-line tool given on the command line must
# answer --help by printing its usage and exiting 0.
#
# usage: check_help.sh TOOL...
set -uo pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: $0 TOOL..." >&2
  exit 2
fi

failed=0
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
  else
    echo "$name: --help OK"
  fi
done
exit "$failed"
