# Local entry points mirroring what CI runs (see .github/workflows/ci.yml).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint lint-json analysis-check bench-gate bench-smoke chaos check

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.analysis.lint src/repro

lint-json:
	$(PYTHON) -m repro.analysis.lint src/repro --format json

# The full preflight gate over every shipped example plan, one build and
# one preflight per plan: structure, schema-flow types, purity,
# parallel safety and cost (exits 1 on any error-severity finding or
# UNSAFE node), then the snapshot tests pinning the node→level and
# plan→cost certification maps and their byte-for-byte determinism.
analysis-check:
	$(PYTHON) -m repro.analysis check examples
	$(PYTHON) -m pytest tests/analysis/test_parallel_snapshot.py tests/analysis/test_cost_snapshot.py -q -p no:cacheprovider

# The perf ratchet: copy the committed BENCH_* baselines aside (so the
# fresh run cannot overwrite what it is compared against), re-run the
# ratcheted benchmark, and fail on any lower-is-better metric
# regressing past the tolerance.  The live gate runs at 50% rather
# than the CLI's 15% default: wall-clock minima on a shared runner
# still swing ~30% run-to-run even best-of-3, while a real algorithmic
# regression (losing blocking, an accidental n² stage) is a multi-x
# blow-up that 50% still catches.  The strict 15% contract is pinned
# machine-independently by tests/analysis/test_cost_ratchet.py over
# the committed fixture pair.  --check-baselines fails the gate on any
# committed baseline no bench_*.py can regenerate.  REP015 keeps every
# benchmark on the shared telemetry helpers the ratchet and
# calibration feed from.  bench_parallel.py is the parallel-executor
# baseline: sequential vs parallel=2/4 on the E7a workload through
# partitioned_resolve (speedup assertions are gated on the cores
# actually available; the determinism assertions — identical clusters
# and stable ids across backends — hold on any machine); its telemetry
# is schema-checked too.
bench-gate:
	rm -rf benchmarks/.ratchet
	mkdir -p benchmarks/.ratchet
	cp benchmarks/results/BENCH_*.json benchmarks/.ratchet/
	$(PYTHON) -m pytest benchmarks/bench_parallel.py benchmarks/bench_er_scale.py benchmarks/bench_e14_velocity.py -q -p no:cacheprovider
	$(PYTHON) -m repro.obs.report benchmarks/results/BENCH_parallel_er.telemetry.json --validate-only
	$(PYTHON) -m repro.analysis ratchet --baseline benchmarks/.ratchet --fresh benchmarks/results --tolerance 0.5 --check-baselines benchmarks
	$(PYTHON) -m repro.analysis.lint benchmarks --select REP015

# One small benchmark end to end, then schema-check the telemetry it
# emitted: catches drift between the benchmarks and the repro.obs schema.
# Then a one-second perfbench run of each workload, failing unless its
# last line reports "correct": true and no failed operation: every cold
# wrangle must reproduce the warm-up's digest, every velocity tick's
# merged view must equal its source's current rows, and a rerun with no
# new input must change nothing, so a memo cache (type inference,
# similarity, parsed pages, committed snapshots) that served a stale
# result fails here.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_e10_repair.py -q -p no:cacheprovider
	$(PYTHON) -m repro.obs.report benchmarks/results/E10-repair.telemetry.json --validate-only
	for workload in cold-e6 payg-refresh velocity-tick; do \
	  $(PYTHON) perfbench/run.py --workload $$workload --seconds 1 | tail -n 1 | \
	    $(PYTHON) -c 'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else "perfbench: %s" % r)' \
	    || exit 1; \
	done

# The chaos harness end to end: the resilience benchmark (seeded fault
# injection through a full Wrangler.run), its telemetry schema-checked,
# then REP013 over sources and tests — nothing outside repro.resilience
# may sleep on the real clock.
chaos:
	$(PYTHON) -m pytest benchmarks/bench_e11_resilience.py -q -p no:cacheprovider
	$(PYTHON) -m repro.obs.report benchmarks/results/E11-resilience.telemetry.json --validate-only
	$(PYTHON) -m repro.analysis.lint src/repro tests benchmarks --select REP013

check: test lint analysis-check bench-smoke bench-gate chaos
