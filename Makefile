# Convenience targets; `dune build` / `dune runtest` remain the source of
# truth (ROADMAP.md tier 1).

.PHONY: all build test bench bench-par bench-throughput perf smoke clean

all: build

build:
	dune build @all

test:
	dune runtest

# Full benchmark suite including the Bechamel wall-clock section.
# Sequential unless PAR is set in the environment.
bench:
	dune build bench/main.exe
	./_build/default/bench/main.exe

# Full benchmark fanned out over the domain pool: every core unless PAR
# overrides it (PAR=1 is the sequential path; the emitted runs array is
# identical either way, modulo per-run wall clocks).
bench-par:
	dune build bench/main.exe
	./_build/default/bench/main.exe $${PAR:+--par=$$PAR}

# Just the sustained-throughput section (compiled vs interpreted delta
# programs, schema v6), written to BENCH_throughput.json so the
# committed BENCH_results.json is not clobbered by a partial run.
bench-throughput:
	dune build bench/main.exe
	./_build/default/bench/main.exe throughput

# The end-to-end benchmark (perfbench/, see perfbench/LEDGER.md) on each
# of its workloads, untraced, 30 s per workload.
perf:
	for w in grow wide catalog; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 30 --trace 0 || exit 1; \
	done

# One-stop pre-commit gate: build everything, run the test suite
# sequentially (PAR=1) and over two worker domains (PAR=2), so the seed
# sweeps are exercised on both paths (--force: the second run must not
# be served from dune's cache), plus the fault-injection/reliability
# suites, the golden-trace suite pinning Engine.run's single- and
# multi-source output byte-for-byte, the §3.1 checkers and the
# staleness walk against their reference implementations, the query,
# plan-equiv and algorithms suites (the one-pass ECA compensation, the
# split-then-simplify order and the one-row literal evaluator against
# the old fold, the old order and the naive evaluator, plus the pinned
# worst-case ECA queries), and the engine, selfmaint and evolution
# suites, all explicitly, so a filtered or cached runtest can never
# silently skip them. Then check that the parallel bench is
# deterministic (PAR=1 and PAR=4 emit identical runs arrays and
# reports), run the quick benchmark, and let scripts/perf_guard.sh
# compare it with the committed BENCH_results.json baseline: every entry
# of the "gates" table must hold at its bound, and every top-level
# object, gate and run figure of the baseline must still be present.
# The baseline is copied aside first because the bench overwrites it in
# place.
smoke:
	dune build @all
	PAR=1 dune runtest --force
	PAR=2 dune runtest --force
	dune exec test/main.exe -- test faults
	dune exec test/main.exe -- test reliable
	dune exec test/main.exe -- test observe
	dune exec test/main.exe -- test golden
	dune exec test/main.exe -- test consistency
	dune exec test/main.exe -- test staleness
	dune exec test/main.exe -- test query
	dune exec test/main.exe -- test plan-equiv
	dune exec test/main.exe -- test algorithms
	dune exec test/main.exe -- test engine
	dune exec test/main.exe -- test selfmaint
	dune exec test/main.exe -- test evolution
	dune build bench/main.exe
	sh scripts/check_determinism.sh ./_build/default/bench/main.exe 4
	@if [ -f BENCH_results.json ]; then \
	  cp BENCH_results.json /tmp/BENCH_baseline.json; \
	else \
	  echo "smoke: no committed BENCH_results.json baseline; skipping guard"; \
	fi
	./_build/default/bench/main.exe quick > /dev/null
	@if [ -f /tmp/BENCH_baseline.json ]; then \
	  sh scripts/perf_guard.sh /tmp/BENCH_baseline.json BENCH_results.json; \
	  rm -f /tmp/BENCH_baseline.json; \
	fi

clean:
	dune clean
