PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Worker count for the parallel leg of `make regress` (1 = serial).
JOBS ?= 1

.PHONY: test bench-test trace-smoke fidelity tables bench regress regress-serve regress-vm regress-mix docs-lint serve-smoke

# Tier-1 verification: the full test suite; lists its ten slowest tests.
test:
	$(PYTHON) -m pytest -x -q --durations=10

# The benchmark harness's own tests (outside the root `testpaths`).
bench-test:
	$(PYTHON) -m pytest bench -q

# Observability smoke: run one embedded app with tracing enabled, validate
# the exported trace schema, and replay it as a stage-time table.
trace-smoke:
	$(PYTHON) -m pytest -q -m trace_smoke tests/test_cli.py

# Reproduction fidelity: compare the embedded-suite run (incl. the Table IV
# extrapolation factor) against the paper's published table values and write
# a machine-readable BENCH_fidelity_embedded.json report.
fidelity:
	$(PYTHON) -m repro fidelity --domain embedded --full --out BENCH_fidelity_embedded.json

tables:
	$(PYTHON) -m repro tables all

# The committed benchmarks: rewrite BENCH_vm.json, BENCH_mix.json and
# BENCH_serve.json with their defaults; exits 1 naming every false gate.
bench:
	$(PYTHON) -m repro bench

# Regression sentinel self-check: record the embedded suite twice in the
# run ledger, then gate the second run against the first cell-by-cell.
# Two back-to-back runs of an unchanged tree must never regress. With
# JOBS=N the second run is sharded over N workers, gating the parallel
# runner's determinism against the serial baseline (`jobs` is a volatile
# config key, so the two runs are comparable).
regress:
	$(PYTHON) -m repro analyze --domain embedded --ledger
	$(PYTHON) -m repro analyze --domain embedded --ledger --jobs $(JOBS)
	$(PYTHON) -m repro runs list
	$(PYTHON) -m repro regress --baseline latest~1

# Documentation lint: every module docstring names its paper anchor, all
# relative markdown links resolve, README links the architecture tour.
docs-lint:
	$(PYTHON) scripts/docs_lint.py

# Serve-plane smoke: start a real daemon subprocess, run a mixed-tenant
# request burst, assert the break-even p99 quantile is populated, and
# check SIGINT drains gracefully (exit 0, run closed).
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

# VM regression leg: record two vmprof runs of one app in the ledger and
# gate the second against the first — opcode/digram counts and the
# virtual clock must reproduce exactly (rel 1e-9) while the measured
# wall/sampler cells stay informational (declared measured by
# `vm_manifest_block`).
regress-vm:
	$(PYTHON) -m repro vmprof adpcm --ledger
	$(PYTHON) -m repro vmprof adpcm --ledger
	$(PYTHON) -m repro runs list --limit 5
	$(PYTHON) -m repro regress --baseline latest~1

# Mix regression leg: record two identical runs of the default grid
# (2 presets x 3 slot counts, LRU slot pool) in the ledger and gate the
# second against the first — every simulated cell (break-even, loads,
# reloads, evictions, store hits) is virtual-clock deterministic and must
# reproduce within rel 1e-9; only the grid wall time stays informational
# (declared measured by `mix_manifest_block`).
regress-mix:
	$(PYTHON) -m repro mix --events 60 --ledger
	$(PYTHON) -m repro mix --events 60 --ledger
	$(PYTHON) -m repro runs list --limit 5
	$(PYTHON) -m repro regress --baseline latest~1

# Serve regression leg: record two identical load-generation runs in the
# ledger, then gate the second against the first — the deterministic
# request counts must match exactly while the measured latency quantiles
# stay informational (declared measured by the load generator).
regress-serve:
	$(PYTHON) -m repro loadgen --requests 60 --rate 100 --ledger
	$(PYTHON) -m repro loadgen --requests 60 --rate 100 --ledger
	$(PYTHON) -m repro runs list --limit 5
	$(PYTHON) -m repro regress --baseline latest~1
