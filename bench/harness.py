"""Orchestrates runs: one fresh worker process per run, timed from outside.

An untraced run starts :data:`~bench.registry.SETUP_SAMPLES` workers. All
but the last only set up (probes); the last also runs the timed window.
``setup_s`` is the median time from process start to ``ready``, and
``shutdown_s`` the median time from closing a worker's standard input to
its exit. A traced run starts one worker with every wrap point installed
and reports the per-layer metrics instead. Workers report raw clock
readings; the metrics are computed here, on the normalized clock of
:mod:`bench.hostspeed` (a suite worker's stop: scaled by its reference
process).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from bench import spans
from bench.hostspeed import (
    REFERENCE_PROCESS_S,
    SpeedSampler,
    pin_to_one_cpu,
    reference_process_times,
)
from bench.registry import (
    NOMINAL_REQUESTS,
    PIPELINE_LAYERS,
    SETUP_SAMPLES,
    Workload,
    expected_layers,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Seconds a worker may take to set up: a traced warm run builds its cache.
READY_TIMEOUT = 120.0
#: Seconds past the window a worker may take to finish its last round.
DONE_GRACE = 120.0
EXIT_TIMEOUT = 60.0


class RunError(RuntimeError):
    """A worker failed, timed out or produced no result."""


class Worker:
    """One ``python -m bench.worker`` process and its stdout lines."""

    def __init__(self, argv: list[str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "bench.worker", *argv],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=worker_env(),
        )
        self.lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.strip())
        self.lines.put(None)

    def wait_for(self, word: str, timeout: float) -> float:
        """Block until the worker prints *word*; returns the time it did."""
        deadline = time.perf_counter() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                self.kill()
                raise RunError(f"worker did not print {word!r} within {timeout:.0f} s") from None
            if line is None:
                code = self.proc.wait()
                raise RunError(f"worker exited with status {code} before {word!r}")
            if line == word:
                return time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """Close stdin and wait for exit; returns when each happened."""
        # Popen.wait(timeout=...) polls in steps of up to 50 ms, which would
        # quantize the measurement; block in waitpid and let a timer kill.
        timer = threading.Timer(EXIT_TIMEOUT, self.proc.kill)
        timer.start()
        t0 = time.perf_counter()
        self.proc.stdin.close()
        code = self.proc.wait()
        t1 = time.perf_counter()
        timer.cancel()
        if code != 0:
            raise RunError(f"worker exited with status {code}")
        return t0, t1

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()


def worker_env() -> dict:
    # A fixed hash seed keeps set and dict iteration, and so the timing of
    # code that depends on it, the same from run to run.
    return dict(os.environ, PYTHONHASHSEED="0")


def ensure_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise RunError(f"no program to measure: {SRC / 'repro'} is missing")


def fixture_dir() -> Path:
    """Where the warm-cache fixture of the current sources lives."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return OUT / "fixtures" / h.hexdigest()[:16]


def ensure_fixture() -> None:
    """Build the warm-cache fixture for these sources unless it exists.

    The fixture depends only on the program's sources, so it is built
    once per checkout, like a build product; warm runs copy it.
    """
    target = fixture_dir()
    if target.is_dir():
        return
    print(f"bench: building the warm-cache fixture {target.name}", file=sys.stderr)
    target.parent.mkdir(parents=True, exist_ok=True)
    done = subprocess.run(
        [sys.executable, "-m", "bench.worker", "--build-fixture", str(target)],
        cwd=ROOT, env=worker_env(), timeout=600,
    )
    if done.returncode != 0:
        raise RunError("building the warm-cache fixture failed")


def run_once(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run of *w*; returns its record (metrics, counts, errors).

    Every process of the run shares one CPU with the host-speed sampler,
    and every reported time but a suite worker's stop (:func:`stop_sample`)
    is read on the sampler's normalized clock.
    """
    ensure_program()
    if w.warm and not trace:
        ensure_fixture()
    cpu = pin_to_one_cpu()
    run_dir = OUT / "runs" / f"{time.time_ns()}-{w.name}-s{seed}{'-trace' if trace else ''}"
    argv = [
        "--workload", w.name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--run-dir", str(run_dir),
    ]
    started = time.time()
    setups, stops = [], []
    workers: list[Worker] = []
    try:
        with SpeedSampler(cpu) as sampler:
            for _ in range(0 if trace else SETUP_SAMPLES[w.kind] - 1):
                workers.append(Worker(argv + ["--probe"]))
                setups.append((workers[-1].started, workers[-1].wait_for("ready", READY_TIMEOUT)))
                # A serve probe kills its daemon rather than wait out its
                # drain, so only suite probes stop the way the run does.
                if w.kind == "suite":
                    stops.append(stop_sample(workers[-1], w))
                else:
                    workers[-1].stop()
                shutil.rmtree(run_dir, ignore_errors=True)
            workers.append(Worker(argv))
            setups.append((workers[-1].started, workers[-1].wait_for("ready", READY_TIMEOUT)))
            workers[-1].wait_for("done", seconds + DONE_GRACE)
            stops.append(stop_sample(workers[-1], w))
        result = json.loads((run_dir / "result.json").read_text())
        clock = sampler.clock()
        record = {
            "workload": w.name,
            "seed": seed,
            "trace": trace,
            "started": started,
            "seconds": seconds,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "errors": result["errors"],
            "info": run_info(result, clock),
        }
        if trace:
            record["spans"] = str(run_dir / "spans.jsonl")
            record["metrics"], record["layers"] = layer_metrics(w, result, clock, run_dir / "spans.jsonl")
        else:
            record["metrics"] = e2e_metrics(w, result, clock, setups, stops)
        return record
    finally:
        for worker in workers:
            if worker.proc.poll() is None:
                worker.kill()
        if not trace:
            shutil.rmtree(run_dir, ignore_errors=True)
        else:
            for leftover in ("cache", "store"):
                shutil.rmtree(run_dir / leftover, ignore_errors=True)


def stop_sample(worker: Worker, w: Workload) -> tuple[float, float, float | None]:
    """Stop *worker*; returns (start, end, scale) for :func:`stop_seconds`.

    A suite worker's stop is all CPU-bound teardown, so its scale is the
    reference process's fast time over its median time in six runs around
    the stop. A serve stop is mostly the daemon's idle drain wait, which
    the normalized clock reads at wall speed, so it has no scale.
    """
    if w.kind != "suite":
        return (*worker.stop(), None)
    before = reference_process_times()
    start, end = worker.stop()
    return start, end, REFERENCE_PROCESS_S / statistics.median(before + reference_process_times())


def stop_seconds(clock, sample: tuple[float, float, float | None]) -> float:
    start, end, scale = sample
    return clock.interval(start, end) if scale is None else (end - start) * scale


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def e2e_metrics(w: Workload, result: dict, clock, setups, stops) -> dict:
    latencies = [clock.interval(t0, t1) for _, t0, t1 in result["ops"]]
    if w.kind == "suite":
        # One pass over the apps: the sum of each app's median analysis time.
        per_app: dict[str, list[float]] = {}
        for (app, _, _), seconds in zip(result["ops"], latencies):
            per_app.setdefault(app, []).append(seconds)
        wall = sum(statistics.median(v) for v in per_app.values())
    else:
        # The time NOMINAL_REQUESTS take at the window's throughput.
        wall = NOMINAL_REQUESTS * clock.interval(*result["window"]) / len(latencies)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(clock.interval(a, b) for a, b in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_p99_ms": 1000.0 * percentile(latencies, 0.99),
        "shutdown_s": statistics.median(stop_seconds(clock, s) for s in stops),
    }


def run_info(result: dict, clock) -> dict:
    """What the human-readable report says about the window itself."""
    start, end = result["window"]
    info = {
        "window_s": end - start,
        "host_slowdown": clock.slowdown(start, end),
        "operations": len(result["ops"]),
    }
    if "rounds" in result:
        info["rounds"] = result["rounds"]
    if result.get("timing"):
        # Split each request's normalized latency by the daemon's own timing.
        queue, service, transport = [], [], []
        for (_, t0, t1), (wait_ms, service_ms) in zip(result["ops"], result["timing"]):
            scale = clock.interval(t0, t1) / (t1 - t0)
            queue.append(wait_ms * scale)
            service.append(service_ms * scale)
            transport.append(1000.0 * clock.interval(t0, t1) - (wait_ms + service_ms) * scale)
        info["serve.queue_wait_ms_p50"] = statistics.median(queue)
        info["serve.service_ms_p50"] = statistics.median(service)
        info["serve.transport_ms_p50"] = statistics.median(transport)
    return info


def layer_metrics(w: Workload, result: dict, clock, spans_file: Path):
    """Per-layer metrics of a traced run, and its layer table."""
    records = [json.loads(line) for line in spans_file.read_text().splitlines()]
    for r in records:
        r["start"], r["end"] = clock(r["start"]), clock(r["end"])
    processes = [[r for r in records if r["process"] == p] for p in ("worker", "daemon")]
    table = spans.merge_tables(spans.layer_table(p) for p in processes)
    setup = spans.merge_tables(
        spans.layer_table([r for r in p if str(r["op"]).startswith("setup")]) for p in processes
    )
    for layer, row in table.items():
        row["setup_s"] = setup.get(layer, {}).get("busy_s", 0.0)
    missing = [layer for layer in expected_layers(w) if layer not in table]
    if missing:
        raise RunError(f"wrap points for {missing} never fired on {w.name}")
    metrics = spans.per_layer_metrics(table, PIPELINE_LAYERS)
    start, end = clock(result["trace_start"]), clock(result["window"][1])
    metrics["traced_s"] = end - start
    metrics["unattributed_s"] = spans.unattributed(processes[0], start, end)
    raw = result["window"][1] - result["trace_start"]
    metrics["trace_overhead_pct"] = 100.0 * result["span_cost_s"] * len(records) / raw
    return metrics, table
