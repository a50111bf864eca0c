"""One run of one workload, in a fresh process.

    python -m bench.worker --workload NAME --seed N --seconds S --trace 0|1 --run-dir DIR [--probe]
    python -m bench.worker --build-fixture DIR

The orchestrator (:mod:`bench.harness`) times this process from outside:
the worker prints ``ready`` when its set-up is done, runs the timed window
(a ``--probe`` only sets up), writes ``result.json`` into the run
directory, prints ``done``, and exits when its standard input closes.
The result holds raw ``time.perf_counter()`` readings; the orchestrator
turns them into metrics on its normalized clock (:mod:`bench.hostspeed`).

The program is driven only through its public entry points: suite
operations call ``repro.experiments.runner.analyze_app`` (one app each),
the serve workload runs ``python -m repro serve`` through
:mod:`bench.daemon` and talks to it with ``ServeClient``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from bench import check, spans
from bench.harness import SRC, fixture_dir, worker_env
from bench.registry import (
    EMBEDDED_APPS,
    SERVE_CLIENTS,
    SERVE_MIN_REQUESTS,
    SERVE_MIX,
    SERVE_TENANTS,
    SERVE_WORKERS,
    VM_APPS,
    WRAP_POINTS,
    WrapPoint,
    workload,
)

#: Modules that import a wrapped function by name; loading them before
#: the wrappers go in lets :func:`bench.spans.install` rebind those names.
ENTRY_MODULES = ("repro.experiments.runner", "repro.serve.server", "repro.serve.protocol")

VM_POINT = WrapPoint("repro.vm.interpreter", "Interpreter.run", "vm")


def import_program() -> None:
    """Import the program under test from this checkout's ``src``, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"bench: imported repro from {repro.__file__}, not {SRC}")
    for name in ENTRY_MODULES + tuple(p.module for p in WRAP_POINTS):
        importlib.import_module(name)
    spans.resolve_all(WRAP_POINTS)


def ready() -> None:
    print("ready", flush=True)


class VmCapture:
    """Keeps the VM results of the current operation for the output check."""

    def __init__(self) -> None:
        self.results: list = []

    def wrap(self, fn, _layer):
        @functools.wraps(fn)
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.results.append(result)
            return result

        return captured


class Suite:
    """Operations of the suite workloads: one cold or warm app analysis."""

    def __init__(self, recorder: spans.Recorder | None) -> None:
        from repro.core.cache import PersistentBitstreamCache
        from repro.experiments import runner

        self.recorder = recorder
        self.expected = check.load_expected()
        self.capture = VmCapture()
        self.restore = spans.install([VM_POINT], self.capture.wrap)
        self._cache = PersistentBitstreamCache
        self._runner = runner

    def analyze(self, app: str, cache_root: Path, op: str, warm: bool | None):
        """Analyse *app* once; returns (start, end, mismatches).

        *warm* says whether every distinct candidate must come from the
        cache (True) or none may (False); None skips that check.
        """
        self.capture.results.clear()
        if self.recorder is not None:
            self.recorder.set_op(op)
        cache = self._cache(root=cache_root)
        gc.collect()
        start = time.perf_counter()
        analysis = self._runner.analyze_app(app, use_cache=False, bitstream_cache=cache)
        end = time.perf_counter()
        expected = self.expected[app]
        errors = check.mismatches(expected, check.app_record(analysis, self.capture.results))
        unique = sum(1 for c in expected["implemented"] if not c["shared"])
        hits = unique if warm else 0
        lookups = (hits, unique - hits + len(expected["failed"]))
        if warm is not None and (cache.hits, cache.misses) != lookups:
            errors.append(f"cache hits/misses {cache.hits}/{cache.misses}, expected {hits} hits")
        return start, end, errors

    def build_fixture(self, dest: Path) -> None:
        """Populate a bitstream cache with every embedded app's candidates."""
        for app in EMBEDDED_APPS:
            # Apps share candidates, so later apps hit what earlier ones stored.
            *_, errors = self.analyze(app, dest, f"setup:{app}", warm=None)
            if errors:
                raise SystemExit(f"bench: fixture build of {app} is wrong: {errors[:3]}")


def run_suite(w, seed: int, seconds: float, run_dir: Path, recorder, probe: bool) -> dict | None:
    """Whole rounds (a seeded order of the apps) until *seconds* have passed."""
    suite = Suite(recorder)
    cache = run_dir / "cache"
    if w.warm:
        if recorder is not None:
            suite.build_fixture(cache)  # traced runs time the population too
        else:
            shutil.copytree(fixture_dir(), cache)
    ready()
    if probe:
        return None
    rng = random.Random(f"{w.name}/{seed}")
    ops, errors = [], []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        order = list(w.apps)
        rng.shuffle(order)
        for app in order:
            attempted += 1
            root = cache if w.warm else run_dir / f"cache-{attempted}"
            try:
                t0, t1, wrong = suite.analyze(app, root, f"{rounds}:{app}", w.warm)
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                wrong = [traceback.format_exc(limit=3)]
            if not w.warm:
                shutil.rmtree(root, ignore_errors=True)
            if wrong:
                failed += 1
                errors += [f"{app}: {e}" for e in wrong[:3]]
            else:
                ops.append([app, t0, t1])
        rounds += 1
    end = time.perf_counter()
    suite.restore()
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "window": [start, end],
        "ops": ops,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# -- serve --------------------------------------------------------------------


class Daemon:
    """A ``repro serve`` daemon started through :mod:`bench.daemon`."""

    def __init__(self, store: Path, spans_file: Path | None) -> None:
        argv = [sys.executable, "-m", "bench.daemon"]
        if spans_file is not None:
            argv += ["--spans", str(spans_file)]
        argv += ["--", "serve", "--workers", str(SERVE_WORKERS), "--store", str(store)]
        self.proc = subprocess.Popen(
            argv, cwd=SRC.parent, stdout=subprocess.PIPE, text=True, env=worker_env()
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.kill()
            raise SystemExit(f"bench: daemon did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(status.split("VmHWM:", 1)[1].split()[0]) / 1024.0

    def stop(self) -> None:
        """SIGINT, the daemon's graceful drain, and wait for its exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def request_plan(seed: int, i: int) -> tuple[str, str]:
    """The i-th request's (tenant, app).

    Apps come in blocks holding each app as often as its load-generator
    weight, shuffled per block, so every run sends the same mix.
    """
    block = [app for app, weight in SERVE_MIX for _ in range(weight)]
    rng = random.Random(f"serve-warm/{seed}/{i // len(block)}")
    rng.shuffle(block)
    tenant = random.Random(f"serve-warm/{seed}/tenant/{i}").choice(SERVE_TENANTS)
    return tenant, block[i % len(block)]


def serve_errors(expected: dict, response: dict) -> list[str]:
    if response.get("status") != "ok":
        reason = response.get("error") or response.get("reason")
        return [f"status {response.get('status')!r}: {reason}"]
    return check.serve_mismatches(expected, response["result"])


def closed_loop(port: int, seed: int, seconds: float, expected: dict, recorder) -> dict:
    """SERVE_CLIENTS clients, each sending its next request when the last returns.

    Runs until *seconds* have passed and SERVE_MIN_REQUESTS were sent.
    """
    from repro.serve.protocol import ServeClient

    lock = threading.Lock()
    ops, timing, errors = [], [], []
    counter = iter(range(10**9))
    start = time.perf_counter()
    deadline = start + seconds

    def client() -> None:
        conn = ServeClient(port=port, timeout=120.0)
        while True:
            with lock:
                i = next(counter)
            if i >= SERVE_MIN_REQUESTS and time.perf_counter() >= deadline:
                return
            tenant, app = request_plan(seed, i)
            request_id = f"r{i:06d}"
            if recorder is not None:
                recorder.set_op(request_id)
            t0 = time.perf_counter()
            try:
                response = conn.specialize(tenant, app, request_id=request_id)
                wrong = serve_errors(expected[app], response)
            except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
                response, wrong = {}, [traceback.format_exc(limit=3)]
            t1 = time.perf_counter()
            with lock:
                if wrong:
                    errors.extend(f"{app}: {e}" for e in wrong[:3])
                else:
                    ops.append([app, t0, t1])
                    timing.append([response["timing"]["queue_wait_ms"], response["timing"]["service_ms"]])

    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    attempted = next(counter) - SERVE_CLIENTS  # each client drew one index it did not send
    return {
        "attempted": attempted,
        "failed": attempted - len(ops),
        "errors": errors,
        "window": [start, time.perf_counter()],
        "ops": ops,
        "timing": timing,
    }


def run_serve(w, seed: int, seconds: float, run_dir: Path, recorder, probe: bool):
    """Warm a daemon's store and app contexts, then run the closed loop.

    Returns (result, daemon); the daemon is still running unless the run
    was traced, in which case its spans are already merged into spans.jsonl.
    """
    from repro.serve.protocol import ServeClient

    expected = check.load_expected()
    source = run_dir / "cache"
    if recorder is not None:
        Suite(recorder).build_fixture(source)
    else:
        source = fixture_dir()
    store = run_dir / "store"
    for tenant in SERVE_TENANTS:
        shutil.copytree(source, store / "tenants" / tenant)
    spans_file = run_dir / "daemon-spans.json" if recorder is not None else None
    daemon = Daemon(store, spans_file)
    try:
        warmup = ServeClient(port=daemon.port, timeout=120.0)
        for app in w.apps:
            for tenant in SERVE_TENANTS:
                if recorder is not None:
                    recorder.set_op(f"setup:{tenant}:{app}")
                response = warmup.specialize(tenant, app, request_id=f"setup-{tenant}-{app}")
                wrong = serve_errors(expected[app], response)
                if wrong:
                    raise SystemExit(f"bench: warm-up request for {app} is wrong: {wrong[:3]}")
        ready()
        if probe:
            daemon.kill()
            return None, None
        result = closed_loop(daemon.port, seed, seconds, expected, recorder)
        result["peak_rss_mb"] = daemon.peak_rss_mb()
        if recorder is not None:
            daemon.stop()
            result["daemon_spans"] = json.loads(spans_file.read_text())["spans"]
    except BaseException:
        daemon.kill()
        raise
    return result, daemon


# -- entry point ----------------------------------------------------------------


def write_reference() -> None:
    """Rewrite bench/expected.json from cold analyses of every workload app."""
    import_program()
    from repro.experiments.runner import analyze_app

    capture = VmCapture()
    spans.install([VM_POINT], capture.wrap)
    records = {}
    for app in dict.fromkeys(EMBEDDED_APPS + VM_APPS):
        capture.results.clear()
        records[app] = check.app_record(analyze_app(app, use_cache=False), capture.results)
    text = json.dumps({"apps": records}, indent=1, sort_keys=True)
    check.EXPECTED_PATH.write_text(text + "\n", encoding="utf-8")


def write_spans(path: Path, worker_spans: list[dict], daemon_spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for process, records in (("worker", worker_spans), ("daemon", daemon_spans)):
            for record in records:
                fh.write(json.dumps({"process": process, **record}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=Path)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--build-fixture", type=Path)
    args = parser.parse_args(argv)

    import_program()
    if args.build_fixture is not None:
        tmp = args.build_fixture.with_name(args.build_fixture.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        Suite(None).build_fixture(tmp)
        tmp.rename(args.build_fixture)
        return 0

    w = workload(args.workload)
    args.run_dir.mkdir(parents=True, exist_ok=True)
    recorder = None
    trace_start = time.perf_counter()
    if args.trace:
        recorder = spans.Recorder()
        spans.install(WRAP_POINTS, recorder.wrap)
    daemon = None
    if w.kind == "serve":
        result, daemon = run_serve(w, args.seed, args.seconds, args.run_dir, recorder, args.probe)
    else:
        result = run_suite(w, args.seed, args.seconds, args.run_dir, recorder, args.probe)
    try:
        if result is not None:
            result["errors"] = result["errors"][:20]
            if recorder is not None:
                own = [s.as_dict() for s in recorder.spans]
                write_spans(args.run_dir / "spans.jsonl", own, result.pop("daemon_spans", []))
                result["trace_start"] = trace_start
                result["span_cost_s"] = spans.span_cost()
            (args.run_dir / "result.json").write_text(json.dumps(result))
            print("done", flush=True)
        sys.stdin.read()  # the orchestrator closes stdin to stop this process
    finally:
        if daemon is not None:
            daemon.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
