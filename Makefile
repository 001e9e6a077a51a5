# Developer entry points.  Everything runs from the source tree
# (PYTHONPATH=src), no install required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast lint smoke chaos crashfuzz verify bench bench-quick bench-check bench-table perfbench-check

## label recorded with each 'make bench' entry in BENCH_substrate.json
BENCH_LABEL ?= dev

## the end-to-end benchmark's workloads (BENCHMARK.json)
PERFBENCH_WORKLOADS = sim_a3c_1024 tabular_rdm_durable tabular_ambs train_combo_a3c

## perfbench-check's runs, as workload:seed:trace — every workload on
## input set 0, untraced and traced; the two tabular workloads, whose
## runs do not rotate through input sets, also untraced on set 5
PERFBENCH_CHECKS = $(foreach w,$(PERFBENCH_WORKLOADS),$(w):0:0 $(w):0:1) \
	tabular_rdm_durable:5:0 tabular_ambs:5:0

## full tier-1 test suite
test:
	$(PYTHON) -m pytest -q

## quick inner-loop subset (everything not marked slow/chaos/verify)
test-fast:
	$(PYTHON) -m pytest -q -m fast

## correctness battery: verify-marked tests (50-arch differential
## acceptance, full gradient suite, resume fingerprints) plus the CLI
## battery, which appends its matrix to VERIFY_report.json
verify:
	$(PYTHON) -m pytest -q -m verify
	$(PYTHON) -m repro.verify all --output VERIFY_report.json

## static hygiene: import-cycle check over src/repro (stdlib, always
## runs), the ≤60-line function budget over the search-runtime seam
## modules, the census (every public name in src/ is read outside
## tests, or DESIGN.md says why it stays), byte-compile sanity, and
## ruff (skipped with a notice when the environment doesn't ship it —
## config lives in pyproject.toml)
lint:
	$(PYTHON) tools/check_imports.py
	$(PYTHON) tools/check_runtime_shape.py
	$(PYTHON) tools/check_census.py
	$(PYTHON) -m compileall -q src tools
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tools; \
	else \
		echo "lint: ruff not installed; skipped (cycle + compile checks ran)"; \
	fi

## substrate smoke check: lint gate + core NN/RL tests + one quick
## benchmark pass + the bench regression gate over BENCH_substrate.json
## + a bounded crash-point fuzzing pass (a3c/ambs/evolution on serial,
## and on process, where journal order differs from record order)
## + the end-to-end benchmark's own tests, whose install test resolves
## every repro entry point perfbench patches (a rename fails here, not
## in the benchmark run), and one run of each of its workloads, which
## must match the pinned fingerprints (perfbench-check)
smoke: lint bench-table perfbench-check
	$(PYTHON) -m pytest -q perfbench/tests
	$(PYTHON) -m repro.perf --help >/dev/null  # import sanity
	$(PYTHON) -c "import sys; from repro.perf import smoke; sys.exit(smoke([]))"
	$(PYTHON) tools/check_bench.py
	$(PYTHON) -m repro.search.chaos --profile crashpoint \
		--methods a3c,ambs,evolution --backends serial,process --points 1

## tabular-benchmark smoke: sweep a tiny capped Combo sub-space into a
## resumable arch→metrics table (repro.bench), re-enter it to prove the
## resume path, then replay seeded searches of every method family
## (a3c/rdm/ambs/evolution) against the table and print the
## exact-regret comparison (docs/benchmark.md)
bench-table:
	rm -rf .bench_table
	$(PYTHON) -m repro.bench sweep --problem combo --cap-ops 2 --cap 128 \
		--out .bench_table --backend thread --workers 2 --shard-size 64
	$(PYTHON) -m repro.bench sweep --problem combo --cap-ops 2 --cap 128 \
		--out .bench_table --backend thread --workers 2 --shard-size 64
	$(PYTHON) -m repro.bench info .bench_table
	$(PYTHON) -m repro.bench compare .bench_table \
		--methods a3c,rdm,ambs,evolution --runs 2 --minutes 10 \
		--agents 2 --workers 3 --population 8 --tournament 3

## fault-matrix smoke: seeded fault injection at several failure rates,
## bounded reward degradation, the numerical health-layer profile
## (NaN gradients, exploding updates, corrupt deltas under guard-mode
## recover), and the real-process supervision profile (SIGKILLed
## workers, crashing/hanging evals); then the chaos-, health- and
## proc-marked pytest suites
chaos:
	$(PYTHON) -m repro.search.chaos --profile all
	$(PYTHON) -m pytest -q -m "chaos or health or proc or crashfuzz"

## crash-point fuzzing: SIGKILL a journaled search subprocess at
## stratified journal records, resume from the write-ahead journal, and
## assert bit-identical fingerprints with zero re-evaluated
## architectures (docs/robustness.md); then the crashfuzz pytest tier
crashfuzz:
	$(PYTHON) -m repro.search.chaos --profile crashpoint
	$(PYTHON) -m pytest -q -m crashfuzz

## record substrate baselines into BENCH_substrate.json (labeled entry),
## then run the regression gate over the updated history
bench:
	$(PYTHON) benchmarks/bench_baseline.py --label "$(BENCH_LABEL)"
	$(PYTHON) tools/check_bench.py

## print timings without writing the JSON file
bench-quick:
	$(PYTHON) benchmarks/bench_baseline.py --quick --no-write

## one minimal run (--seconds 0: three repetitions) of every end-to-end
## workload, then one traced run (--trace 1), then the tabular workloads
## on a second input set (PERFBENCH_CHECKS); fails unless each last
## line reports "correct": true, i.e. every repetition's fingerprint,
## best reward and evaluation count matched perfbench/reference.json,
## and, traced, every expected layer fired with the same call counts in
## every repetition and the traced outcome equalled the untraced one
perfbench-check:
	@for check in $(PERFBENCH_CHECKS); do \
		set -- $$(echo $$check | tr ':' ' '); \
		last=$$($(PYTHON) perfbench/run.py --workload $$1 --seed $$2 \
			--seconds 0 --trace $$3 | tail -n 1); \
		echo "perfbench-check $$1 (seed $$2, trace $$3):" \
			"$$(printf '%s' "$$last" | cut -c 1-72)"; \
		case "$$last" in \
			'{"correct": true,'*) ;; \
			*) echo "perfbench-check: $$1 (seed $$2, trace $$3) does" \
				"not match perfbench/reference.json or its layers"; \
				exit 1 ;; \
		esac; \
	done

## fail when the latest BENCH_substrate.json entry regresses any tracked
## kernel by >15% vs. the best prior entry
bench-check:
	$(PYTHON) tools/check_bench.py
