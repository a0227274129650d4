#!/bin/sh
# Determinism check for the parallel bench: `bench quick` with PAR=1 and
# PAR=N must emit identical results — same runs in the same order, same
# values, same report — differing only in measured timings (timing noise
# exists even between two sequential runs, so those fields are normalized
# to 0 before diffing).
#
# Usage: check_determinism.sh [BENCH_EXE] [PAR_N]
#
# Section presence and the bench's correctness claims are not checked
# here: the bench fails before writing its results when a claim breaks,
# and scripts/perf_guard.sh fails when a baseline section goes missing.
set -eu

exe=${1:-./_build/default/bench/main.exe}
par=${2:-4}

case $exe in
  /*) ;;
  *) exe=$(pwd)/$exe ;;
esac

if [ ! -x "$exe" ]; then
  echo "check_determinism: $exe not found (dune build bench/main.exe first)" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/seq" "$tmp/par"

( cd "$tmp/seq" && PAR=1 "$exe" quick > stdout.txt )
( cd "$tmp/par" && PAR="$par" "$exe" quick > stdout.txt )

# Keep everything from the "observe" object to the end of the file — the
# top-level section objects and the runs array; the "gates" table above
# it is all timing. Zero out the per-run and per-cell wall clocks (the
# second wall-clock sed reaches the scaling section's n10_wall_clock_s
# and friends), the observe overhead ratio and the throughput rates.
normalize() {
  sed -n '/"observe": {/,$p' "$1" \
    | sed 's/"wall_clock_s": [0-9.eE+-]*/"wall_clock_s": 0/' \
    | sed 's/_wall_clock_s": [0-9.eE+-]*/_wall_clock_s": 0/' \
    | sed 's/"overhead_x": [0-9.eE+-]*/"overhead_x": 0/' \
    | sed 's/"updates_per_s": [0-9.eE+-]*/"updates_per_s": 0/' \
    | sed 's/"interpreted_updates_per_s": [0-9.eE+-]*/"interpreted_updates_per_s": 0/' \
    | sed 's/"compiled_speedup_x": [0-9.eE+-]*/"compiled_speedup_x": 0/'
}

normalize "$tmp/seq/BENCH_results.json" > "$tmp/runs_seq"
normalize "$tmp/par/BENCH_results.json" > "$tmp/runs_par"

if ! diff -u "$tmp/runs_seq" "$tmp/runs_par" > "$tmp/runs.diff"; then
  echo "check_determinism: FAIL — runs arrays differ between PAR=1 and PAR=$par" >&2
  head -40 "$tmp/runs.diff" >&2
  exit 1
fi

# The human-readable report must match too, apart from the worker-count
# and total-wall-clock summary lines.
strip_summary() {
  grep -v '^workers:' "$1" | grep -v '^wrote [0-9]* runs' \
    | grep -v '^observe overhead' | grep -v '^throughput '
}

strip_summary "$tmp/seq/stdout.txt" > "$tmp/out_seq"
strip_summary "$tmp/par/stdout.txt" > "$tmp/out_par"

if ! diff -u "$tmp/out_seq" "$tmp/out_par" > "$tmp/out.diff"; then
  echo "check_determinism: FAIL — report output differs between PAR=1 and PAR=$par" >&2
  head -40 "$tmp/out.diff" >&2
  exit 1
fi

runs=$(grep -c '"figure"' "$tmp/seq/BENCH_results.json" || true)
echo "check_determinism: OK — $runs runs identical between PAR=1 and PAR=$par (modulo wall clocks)"
