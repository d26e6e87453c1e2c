PYTHON ?= python
export PYTHONPATH := src

.PHONY: test paper lint chaos chaos-smoke report \
	bench-json bench-gate run-smoke serve-smoke serve-gate \
	bench-sim sim-gate e2e-smoke e2e-pairs

test:
	$(PYTHON) -m pytest -x -q

## The paper's reproduction assertions (Fig 1-7, Thm 1/2/7/15/20,
## A1-A7 ...: 143 tests, ~3 s), timing loops disabled.
paper:
	$(PYTHON) -m pytest benchmarks --ignore=benchmarks/e2e \
		--benchmark-disable -q

## ruff (rules from pyproject.toml) when installed, stdlib fallback
## otherwise — see tools/lint.py.
lint:
	$(PYTHON) tools/lint.py

## Full chaos suite: every @pytest.mark.chaos schedule (still < 60 s).
chaos:
	$(PYTHON) -m pytest -q -m chaos

## A handful of schedules straight from the CLI, for quick eyeballing.
chaos-smoke:
	$(PYTHON) -m repro chaos --protocol msc --runs 5 --fault-seed 0
	$(PYTHON) -m repro chaos --protocol mlin --runs 5 --fault-seed 0

## One small RunSpec per registered protocol through `repro run`;
## spec/artifact JSON pairs land in run-smoke/ (CI uploads them).
run-smoke:
	$(PYTHON) tools/run_smoke.py

## Boot a real `repro serve` subprocess, drive one spec per protocol
## through the HTTP client, and assert cached resubmission.  Request
## log + artifacts land in serve-smoke/ (CI uploads them).
serve-smoke:
	$(PYTHON) tools/serve_smoke.py

report:
	$(PYTHON) -m repro report

## Benchmark artifacts -> repo root (BENCH_checkers.json,
## BENCH_serve.json).  Extra flags pass through BENCH_ARGS /
## SERVE_ARGS, e.g. `make bench-json BENCH_ARGS=--quick
## SERVE_ARGS=--quick`.
bench-json:
	$(PYTHON) -m benchmarks.bench_checkers $(BENCH_ARGS)
	$(PYTHON) -m benchmarks.bench_chaos
	$(PYTHON) -m benchmarks.bench_serve $(SERVE_ARGS)

## Regenerate the checker artifact to a scratch path and fail on a
## >2x median regression vs the committed BENCH_checkers.json.
bench-gate:
	$(PYTHON) -m benchmarks.bench_checkers bench-fresh.json $(BENCH_ARGS)
	$(PYTHON) tools/bench_gate.py bench-fresh.json

## Same gate for the serving daemon: fresh quick-profile load run vs
## the committed BENCH_serve.json (p50 latency and throughput).
serve-gate:
	$(PYTHON) -m benchmarks.bench_serve bench-serve-fresh.json --quick
	$(PYTHON) tools/bench_gate.py bench-serve-fresh.json \
		--baseline BENCH_serve.json

## Simulation hot-path benchmark -> BENCH_sim.json (kernel drain,
## protocol clusters, million-event workload).  SIM_ARGS passes
## through, e.g. `make bench-sim SIM_ARGS=--quick`.
bench-sim:
	$(PYTHON) -m benchmarks.bench_sim $(SIM_ARGS)

## Gate: fresh quick-profile sim run vs the committed BENCH_sim.json
## (fails on >2x events/sec collapse on any shared row).
sim-gate:
	$(PYTHON) -m benchmarks.bench_sim bench-sim-fresh.json --quick
	$(PYTHON) tools/bench_gate.py bench-sim-fresh.json \
		--baseline BENCH_sim.json

## Spec-to-verdict benchmark, one item per workload (differential
## gate, expected verdicts, seed-1 pins), then the benchmark's own
## self-test; ~40 s together.  Results land in .bench_e2e/.
e2e-smoke:
	$(PYTHON) -m benchmarks.e2e --smoke
	$(PYTHON) -m pytest benchmarks/e2e -q

## Perf-claim measurement: PAIRS alternated runs of one e2e workload on
## PARENT (a git revision, exported beside this tree) and on this tree,
## both compileall-ed; prints every run, medians, quartiles and wins
## per end-to-end metric.  Calls benchmarks/e2e/run.py unmodified.
PAIRS ?= 10
SEED ?= 1
e2e-pairs:
	$(PYTHON) tools/e2e_pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
		--seed $(SEED) --pairs $(PAIRS)
