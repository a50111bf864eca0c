#!/usr/bin/env python
"""SLO / error-budget smoke test: the alerting loop end to end (CI gate).

Records two small load-generation runs in a scratch ledger, then drives
the serving-era objective machinery the way an operator would:

1. ``repro slo latest`` under the stock objectives must hold every error
   budget (the paper's Table IV puts the embedded suite's break-even
   within an hour of app runtime, inside the default bound);
2. ``repro slo latest --break-even-threshold 1e-6`` is a deliberately
   impossible objective: it must exit 1, print a BREACHED banner, and
   append a fast-burn *page* alert to the run's ``alerts.jsonl``;
3. ``repro runs trend`` must aggregate the fleet history into a per-cell
   trend report (the CI artifact);
4. ``repro anomaly`` must stay quiet — two comparable runs are far below
   the min-points floor, so nothing may flag.

The breach alerts and the trend report are written under the gitignored
``artifacts/`` directory (``artifacts/slo_alerts.jsonl`` /
``artifacts/trend_report.json``) so CI can upload them without dirtying
the working tree. Run from the repository root:
``python scripts/slo_smoke.py``. No third-party dependencies.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Gitignored drop zone for the CI artifacts (alerts + trend report).
ARTIFACTS = REPO / "artifacts"

#: Subprocess environment with the in-tree package importable.
ENV = dict(os.environ)
ENV["PYTHONPATH"] = str(SRC) + (
    os.pathsep + ENV["PYTHONPATH"] if ENV.get("PYTHONPATH") else ""
)

#: Every stock objective must show up in the evaluation table.
OBJECTIVES = (
    "break_even_p95",
    "queue_reject_rate",
    "dedup_efficiency",
    "error_rate",
)


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.10 compat
    print(f"slo-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def repro(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=ENV,
        timeout=600,
    )


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro.obs.ledger import RunLedger

    with tempfile.TemporaryDirectory(prefix="repro-slo-smoke-") as tmp:
        ledger_dir = str(Path(tmp) / "ledger")

        # Two recorded runs: enough history for a two-point trend series.
        for seed in ("0", "1"):
            result = repro(
                "loadgen",
                "--requests", "20",
                "--rate", "200",
                "--workers", "2",
                "--concurrency", "4",
                "--mix", "adpcm=1",
                "--seed", seed,
                "--store", str(Path(tmp) / f"store-{seed}"),
                "--ledger", ledger_dir,
            )
            if result.returncode != 0:
                fail(f"loadgen (seed {seed}) exited {result.returncode}:\n"
                     f"{result.stdout}{result.stderr}")
        print("slo-smoke: two loadgen runs recorded")

        # 1. Stock objectives hold: every budget intact, exit 0.
        ok = repro("slo", "latest", "--ledger", ledger_dir)
        if ok.returncode != 0:
            fail(f"healthy slo run exited {ok.returncode}:\n"
                 f"{ok.stdout}{ok.stderr}")
        missing = [name for name in OBJECTIVES if name not in ok.stdout]
        if missing:
            fail(f"objectives missing from report: {missing}\n{ok.stdout}")
        print(f"slo-smoke: {len(OBJECTIVES)} objectives evaluated, "
              "budgets intact")

        # 2. A deliberately impossible break-even bound must breach,
        #    page, and leave an alerts.jsonl trail in the run directory.
        breach = repro(
            "slo", "latest", "--ledger", ledger_dir,
            "--break-even-threshold", "1e-6",
        )
        if breach.returncode != 1:
            fail(f"breached slo run exited {breach.returncode} (want 1):\n"
                 f"{breach.stdout}{breach.stderr}")
        if "BREACHED" not in breach.stderr:
            fail(f"no BREACHED banner on stderr:\n{breach.stderr}")
        ledger = RunLedger(ledger_dir)
        alerts_path = ledger.run_dir(ledger.resolve("latest")) / "alerts.jsonl"
        if not alerts_path.is_file():
            fail(f"no alerts.jsonl at {alerts_path}")
        alerts = [
            json.loads(line)
            for line in alerts_path.read_text().splitlines()
            if line.strip()
        ]
        pages = [a for a in alerts if a.get("kind") == "fast_burn"]
        if not pages:
            fail(f"no fast_burn alert recorded (got {alerts})")
        if any(not a.get("run_id") for a in pages):
            fail(f"fast_burn alert missing run id correlation: {pages}")
        ARTIFACTS.mkdir(exist_ok=True)
        shutil.copy(alerts_path, ARTIFACTS / "slo_alerts.jsonl")
        print(f"slo-smoke: breach paged ({len(pages)} fast_burn alert(s) "
              "in alerts.jsonl)")

        # 3. Fleet trend report over the recorded history.
        ARTIFACTS.mkdir(exist_ok=True)
        trend_out = ARTIFACTS / "trend_report.json"
        trend = repro(
            "runs", "trend", "--ledger", ledger_dir,
            "--out", str(trend_out),
        )
        if trend.returncode != 0:
            fail(f"runs trend exited {trend.returncode}:\n"
                 f"{trend.stdout}{trend.stderr}")
        report = json.loads(trend_out.read_text())
        if report.get("schema") != "repro-trend/1" or not report.get("cells"):
            fail(f"malformed trend report: {report.get('schema')!r}, "
                 f"{len(report.get('cells') or {})} cells")
        print(f"slo-smoke: trend report written "
              f"({len(report['cells'])} cells)")

        # 4. Anomaly detection needs more history than two runs: quiet.
        anomaly = repro("anomaly", "--ledger", ledger_dir)
        if anomaly.returncode != 0:
            fail(f"anomaly flagged on two comparable runs:\n"
                 f"{anomaly.stdout}{anomaly.stderr}")
        print("slo-smoke: anomaly detector quiet below min-points")

    print("slo-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
