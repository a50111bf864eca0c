PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Worker count for the parallel leg of `make regress` (1 = serial).
JOBS ?= 1

.PHONY: test bench-test trace-smoke fidelity tables regress regress-serve regress-vm regress-mix docs-lint bench-parallel bench-vm bench-mix whatif-smoke serve-smoke bench-serve slo-smoke

# Tier-1 verification: the full test suite.
test:
	$(PYTHON) -m pytest -x -q

# The benchmark harness's own tests (outside the root `testpaths`).
bench-test:
	$(PYTHON) -m pytest bench -q

# Observability smoke: run one embedded app with tracing + metrics enabled,
# validate the exported trace schema, and replay it as a stage-time table.
trace-smoke:
	$(PYTHON) -m pytest -q -m trace_smoke tests/test_cli.py

# Reproduction fidelity: compare the embedded-suite run (incl. the Table IV
# extrapolation factor) against the paper's published table values and write
# a machine-readable BENCH_fidelity_embedded.json report.
fidelity:
	$(PYTHON) -m repro fidelity --domain embedded --full --out BENCH_fidelity_embedded.json

tables:
	$(PYTHON) -m repro tables all

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

# Critical-path / what-if smoke: record an fft run in the ledger, analyze
# its critical path (the Table III Bitgen-dominance line must render), then
# replay the Table IV grid from the trace and cross-check it cell-by-cell
# against the analytic model; writes the whatif_grid.json artifact. Done
# twice, then the second run is gated against the first, so the critpath
# and whatif blocks' declared tolerances are exercised.
whatif-smoke:
	$(PYTHON) -m repro analyze fft --ledger
	$(PYTHON) -m repro critpath latest
	$(PYTHON) -m repro whatif latest --grid
	$(PYTHON) -m repro analyze fft --ledger
	$(PYTHON) -m repro critpath latest
	$(PYTHON) -m repro whatif latest --grid --out whatif_grid.json
	$(PYTHON) -m repro regress --baseline latest~1

# Documentation lint: every module docstring names its paper anchor, all
# relative markdown links resolve, README links the architecture tour.
docs-lint:
	$(PYTHON) scripts/docs_lint.py

# Four-phase wall-time benchmark (serial/parallel x cold/warm cache);
# rewrites BENCH_parallel.json, the committed evidence.
bench-parallel:
	$(PYTHON) -m repro bench --domain embedded --out BENCH_parallel.json

# Serve-plane smoke: start a real daemon subprocess, run a mixed-tenant
# request burst, render `repro top`, assert the break-even p99 quantile is
# populated, and check SIGINT drains gracefully (exit 0, run closed).
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

# Serving benchmark: Poisson load (cold + warm phase over one schedule)
# against an embedded daemon; rewrites BENCH_serve.json, the committed
# evidence that the warm p95 break-even sits strictly below cold (exit 1
# otherwise).
bench-serve:
	$(PYTHON) -m repro loadgen --requests 200 --out BENCH_serve.json

# SLO smoke: record two loadgen runs, evaluate the stock error-budget
# objectives (must hold), breach a deliberately impossible break-even
# bound (must page into alerts.jsonl), and write the fleet trend report;
# leaves artifacts/slo_alerts.jsonl + artifacts/trend_report.json for CI
# artifact upload (the directory is gitignored).
slo-smoke:
	$(PYTHON) scripts/slo_smoke.py

# VM interpreter benchmark: run the embedded suite in alternating
# plain/sampled pairs (virtual clock must stay bit-identical; the sampler
# overhead is reported with its quartiles); rewrites BENCH_vm.json, the
# committed interpreter baseline.
bench-vm:
	$(PYTHON) -m repro bench-vm --out BENCH_vm.json

# VM regression leg: record two vmprof runs of one app in the ledger and
# gate the second against the first — opcode/digram counts and the
# virtual clock must reproduce exactly (rel 1e-9) while the measured
# wall/sampler cells stay informational until `--history` noise bands
# promote them (declared measured by `vm_manifest_block`).
regress-vm:
	$(PYTHON) -m repro vmprof adpcm --ledger
	$(PYTHON) -m repro vmprof adpcm --ledger
	$(PYTHON) -m repro runs list --limit 5
	$(PYTHON) -m repro regress --baseline latest~1 --history 5

# Fleet workload-mix benchmark: sweep eviction policy x slot capacity x
# mix entropy through the slot-contention simulator and rewrite
# BENCH_mix.json — the committed "Table IV for fleets". Exits non-zero
# if break-even-aware eviction does not beat LRU on the contended cell
# or the identical-seed determinism rerun drifts.
bench-mix:
	$(PYTHON) -m repro mix --out BENCH_mix.json

# Mix regression leg: record two identical mix runs in the ledger and
# gate the second against the first — every simulated cell (break-even,
# loads, reloads, evictions, store hits) is virtual-clock deterministic
# and must reproduce bit-identically (rel 1e-9); only the grid wall time
# stays informational (declared measured by `mix_manifest_block`).
regress-mix:
	$(PYTHON) -m repro mix --events 60 --out /dev/null --ledger
	$(PYTHON) -m repro mix --events 60 --out /dev/null --ledger
	$(PYTHON) -m repro runs list --limit 5
	$(PYTHON) -m repro regress --baseline latest~1

# Serve regression leg: record two identical load-generation runs in the
# ledger, then gate the second against the first — the deterministic
# request counts must match exactly while the measured latency quantiles
# stay informational (declared measured by the load generator).
regress-serve:
	$(PYTHON) -m repro loadgen --requests 60 --rate 100 --out /dev/null --ledger
	$(PYTHON) -m repro loadgen --requests 60 --rate 100 --out /dev/null --ledger
	$(PYTHON) -m repro runs list --limit 5
	$(PYTHON) -m repro regress --baseline latest~1
