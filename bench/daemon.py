"""Run the program's CLI with the benchmark's wrap points installed.

    python -m bench.daemon [--spans FILE] -- serve --workers 2 --store DIR

Equivalent to ``python -m repro serve ...``. With ``--spans`` every wrap
point records spans, written to FILE as JSON when the CLI returns. The
daemon asks itself to drain if the process that started it goes away,
so an interrupted benchmark leaves no server behind.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

from bench import spans
from bench.registry import WRAP_POINTS
from bench.worker import import_program


def _drain_when_orphaned(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(1.0)
    os.kill(os.getpid(), signal.SIGINT)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.daemon")
    parser.add_argument("--spans", type=Path)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    import_program()
    from repro import cli

    recorder = None
    if args.spans is not None:
        recorder = spans.Recorder()
        spans.install(WRAP_POINTS, recorder.wrap)
    threading.Thread(
        target=_drain_when_orphaned, args=(os.getppid(),), daemon=True
    ).start()
    status = cli.main(cli_args)
    if recorder is not None:
        records = [s.as_dict() for s in recorder.spans]
        args.spans.write_text(json.dumps({"spans": records}))
    return status


if __name__ == "__main__":
    sys.exit(main())
