#!/usr/bin/env python
"""Serve-plane smoke test: daemon lifecycle end to end (CI gate).

Starts a real ``repro serve`` daemon as a subprocess, sends a mixed-tenant
request burst through the socket protocol, asserts that the stats report
a populated p99 break-even quantile (the serving-time headline of the
paper's Table IV cache argument), then delivers SIGINT and checks the
daemon drains gracefully — exit code 0 and an ``interrupted`` shutdown
banner, never a dangling run.

Run from the repository root: ``python scripts/serve_smoke.py``.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Subprocess environment with the in-tree package importable.
ENV = dict(os.environ)
ENV["PYTHONPATH"] = str(SRC) + (
    os.pathsep + ENV["PYTHONPATH"] if ENV.get("PYTHONPATH") else ""
)
BANNER = re.compile(r"serving on ([\d.]+):(\d+)")

#: (tenant, app) request burst: two tenants, repeated signatures so the
#: second acme/adpcm request must be a cache hit.
REQUESTS = [
    ("acme", "adpcm"),
    ("umbrella", "adpcm"),
    ("acme", "whetstone"),
    ("acme", "adpcm"),
]


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.10 compat
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro.serve.protocol import ServeClient

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--workers",
                "2",
                "--store",
                str(Path(tmp) / "store"),
                "--ledger",
                str(Path(tmp) / "ledger"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=REPO,
            env=ENV,
        )
        try:
            banner = proc.stdout.readline()
            match = BANNER.search(banner)
            if not match:
                proc.kill()
                fail(f"no 'serving on HOST:PORT' banner (got {banner!r})")
            host, port = match.group(1), int(match.group(2))
            print(f"serve-smoke: daemon up at {host}:{port}")

            client = ServeClient(host=host, port=port, timeout=300.0)
            if client.ping().get("status") != "ok":
                fail("ping failed")
            for tenant, app in REQUESTS:
                response = client.specialize(tenant, app)
                if response.get("status") != "ok":
                    fail(f"specialize({tenant}, {app}) -> {response}")
                result = response["result"]
                print(
                    f"serve-smoke: {tenant}/{app}: "
                    f"break-even {result['break_even_seconds']}s, "
                    f"{result['cache_hits']} cache hit(s)"
                )

            stats = client.stats().get("stats") or {}
            completed = (stats.get("requests") or {}).get("completed")
            if completed != len(REQUESTS):
                fail(f"expected {len(REQUESTS)} completed, got {completed}")
            p99 = ((stats.get("latency") or {}).get("break_even") or {}).get(
                "p99"
            )
            if p99 is None or p99 <= 0:
                fail(f"break-even p99 missing from stats (got {p99!r})")
            print(f"serve-smoke: break-even p99 = {p99:.0f}s")
            tenants = stats.get("tenants") or {}
            if set(tenants) != {"acme", "umbrella"}:
                fail(f"expected two tenant namespaces, got {sorted(tenants)}")
            if tenants["acme"]["hits"] < 1:
                fail("repeated acme/adpcm request did not hit the cache")

            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            fail(f"daemon exited {proc.returncode}:\n{out}")
        if "interrupted" not in out:
            fail(f"SIGINT drain did not report 'interrupted':\n{out}")
        manifests = list(Path(tmp, "ledger").glob("*/manifest.json"))
        if len(manifests) != 1:
            fail(f"expected one closed ledger run, found {len(manifests)}")
        print("serve-smoke: graceful SIGINT drain, ledger run closed")
    print("serve-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
