#!/bin/sh
# Perf-regression guard: compares a bench result file against a baseline.
#
# Usage: perf_guard.sh BASELINE_JSON CURRENT_JSON
#
# Knows no field of BENCH_results.json (schema in EXPERIMENTS.md) beyond
# three generic rules:
#   - both files carry the same "schema_version";
#   - every top-level object, "gates" entry and run "figure" of the
#     baseline is also in the current file, so a bench section that
#     silently stopped running fails here;
#   - every entry { name, value, op, bound } of the current file's
#     "gates" table holds. A bound is absolute, or { "baseline_x": f }:
#     f times the baseline's value of the same gate.
# The bench writes one gate per line. Correctness claims are not gates:
# the bench fails before it writes the file when one breaks.
#
# Exit 0 when every gate holds, 1 when a gate is violated, 2 when the
# files cannot be compared (schema mismatch, a missing name).
set -eu

if [ $# -ne 2 ]; then
  echo "usage: perf_guard.sh BASELINE_JSON CURRENT_JSON" >&2
  exit 2
fi

exec awk '
function field(key,   s) {
  if (!match($0, "\"" key "\": *")) return ""
  s = substr($0, RSTART + RLENGTH)
  if (s ~ /^"/) { s = substr(s, 2); return substr(s, 1, index(s, "\"") - 1) }
  match(s, /^[-+0-9.eE]*/)
  return substr(s, 1, RLENGTH)
}
function note(name) {
  if ((f, name) in seen) return
  seen[f, name] = 1
  if (f == 1) names[++n] = name
}
FNR == 1 { f++ }
/^  "schema_version":/ { schema[f] = field("schema_version") }
/^  "[a-z_]*": \{/ { split($0, q, "\""); note("object " q[2]) }
/^  "gates": \[/ { in_gates = 1; next }
in_gates && /^  \]/ { in_gates = 0 }
in_gates {
  g = field("name"); note("gate " g); value[f, g] = field("value")
  if (f == 2) { gates[++m] = g; op[g] = field("op"); bound[g] = field("bound"); x[g] = field("baseline_x") }
}
/"figure": "/ { note("figure " field("figure")) }
END {
  if (schema[1] == "" || schema[1] != schema[2]) {
    printf "perf_guard: schema mismatch (baseline %s, current %s): regenerate the baseline with the current bench (dune exec bench/main.exe -- quick)\n", schema[1], schema[2] > "/dev/stderr"
    exit 2
  }
  for (i = 1; i <= n; i++)
    if (!((2, names[i]) in seen)) { printf "perf_guard: FAIL: current file lacks the baseline %s\n", names[i]; status = 2 }
  for (i = 1; i <= m; i++) {
    g = gates[i]; v = value[2, g] + 0; limit = bound[g] + 0; how = "absolute"
    if (x[g] != "") {
      if (!((1, g) in value)) { printf "perf_guard: FAIL: baseline lacks gate %s\n", g; status = 2; continue }
      limit = x[g] * value[1, g]; how = sprintf("%sx baseline %g", x[g], value[1, g])
    }
    if (op[g] == "<=") ok = v <= limit; else if (op[g] == ">=") ok = v >= limit
    else { printf "perf_guard: FAIL: gate %s has unknown op %s\n", g, op[g]; status = 2; continue }
    printf "perf_guard: %s = %g %s %g (%s): %s\n", g, v, op[g], limit, how, ok ? "ok" : "FAIL"
    if (!ok && !status) status = 1
  }
  print "perf_guard: " (status ? "FAIL" : "OK")
  exit status
}' "$1" "$2"
