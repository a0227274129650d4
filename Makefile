# Convenience targets; `dune build` / `dune runtest` remain the source of
# truth (ROADMAP.md tier 1).

.PHONY: all build test bench bench-par bench-throughput smoke clean

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

# One-stop pre-commit gate: build everything, run the test suite
# sequentially (PAR=1) and over two worker domains (PAR=2), so the seed
# sweeps are exercised on both paths (--force: the second run must not
# be served from dune's cache), plus the fault-injection/reliability
# suites, the golden-trace suite pinning Engine.run's single- and
# multi-source output byte-for-byte, and the engine, selfmaint and
# evolution suites, all explicitly, so a filtered or cached runtest can
# never silently skip them. Then check that the parallel bench is
# deterministic (PAR=1 and PAR=4 emit identical runs arrays), run the
# quick benchmark, and fail if its summed per-run wall clock regressed
# more than 2x against the committed BENCH_results.json baseline. The
# baseline is copied aside first because the bench overwrites it in
# place.
smoke:
	dune build @all
	PAR=1 dune runtest --force
	PAR=2 dune runtest --force
	dune exec test/main.exe -- test faults
	dune exec test/main.exe -- test reliable
	dune exec test/main.exe -- test observe
	dune exec test/main.exe -- test golden
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
