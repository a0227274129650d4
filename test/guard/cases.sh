#!/bin/sh
# Exit-code cases for scripts/perf_guard.sh over fixture result files.
# current.json passes against baseline.json with every gate near its
# bound; each case below derives a variant of it with sed and checks
# the guard's exit code.
#
# Usage: cases.sh PERF_GUARD BASELINE_JSON CURRENT_JSON
set -eu

guard=$1
baseline=$2
current=$3
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failures=0

# expect WANT LABEL SED_SCRIPT: WANT is an exit code, or "nonzero"
expect() {
  sed "$3" "$current" > "$tmp/case.json"
  code=0
  sh "$guard" "$baseline" "$tmp/case.json" > "$tmp/out.txt" 2>&1 || code=$?
  if [ "$1" = nonzero ] && [ "$code" -ne 0 ]; then return; fi
  if [ "$1" != "$code" ]; then
    echo "FAIL $2: want exit $1, got $code" >&2
    cat "$tmp/out.txt" >&2
    failures=$((failures + 1))
  fi
}

# set_gate NAME VALUE: the sed script replacing gate NAME's value
set_gate() { echo "/\"name\": \"$1\"/s/\"value\": [0-9.]*/\"value\": $2/"; }

expect 0 "every gate within its bound" ''
expect 1 "sum_run_wall_clock_s over 2x the baseline" "$(set_gate sum_run_wall_clock_s 4.1)"
expect 1 "observe.overhead_x over 2.0" "$(set_gate observe.overhead_x 2.1)"
expect 1 "scaling wall ratio over 5.0" "$(set_gate scaling.n100_over_n10_wall_x 5.1)"
expect 1 "compiled speedup under 1.0" "$(set_gate throughput.compiled_speedup_x 0.9)"
expect 1 "updates_per_s under half the baseline" "$(set_gate throughput.updates_per_s 29000)"
expect nonzero "baseline gate missing" '/"name": "observe.overhead_x"/d'
expect nonzero "baseline figure missing" '/"figure": "Federation/d'
expect nonzero "baseline object missing" '/^  "scaling": {/,/^  },/d'
expect nonzero "schema mismatch" 's/"schema_version": 11/"schema_version": 10/'

if [ "$failures" -ne 0 ]; then
  echo "perf_guard cases: $failures failed" >&2
  exit 1
fi
