"""Differential test: every manifest cell declares its own clock.

The regression sentinel gates a cell exactly, with a relative tolerance,
or not at all (measured host time), and it reads that decision from the
``measured``/``tolerance`` declaration of the manifest block the cell
belongs to (:mod:`repro.obs.regress`). Before the blocks declared
themselves, one hand-ordered table in the sentinel made the call, first
fnmatch match winning. That table is kept here as the oracle, edited
only where a cell was removed or deliberately changed clock since:
fresh manifests built by the real producers must classify every cell
exactly as it does, except that the table gave ``status`` 0.0 where the
declarations give the exact 1e-9.

The manifests: ``analyze fft`` against a bitstream cache, a fidelity
report, ``vmprof`` of one app, a small ``mix``, a short ``loadgen``, and
a ``repro serve`` daemon summary.
"""

from __future__ import annotations

from fnmatch import fnmatchcase

import pytest

from repro.cli import main
from repro.experiments import analyze_app
from repro.obs.fidelity import fidelity_from_analyses
from repro.obs.ledger import RunLedger, abandon_run, finish_run, start_run
from repro.obs.regress import (
    EXACT_TOLERANCE,
    compare_manifests,
    declared_cells,
)
from repro.serve.protocol import ServeClient
from repro.serve.server import ServerConfig, SpecializationServer

# -- oracle: the sentinel's former hand-ordered tolerance table ---------------
#: Ordered (pattern, relative tolerance) pairs; first match wins. ``None``
#: marks the cell informational (never failing). User tolerances are
#: prepended, so an explicit pattern can tighten a noisy cell into a
#: checked one or loosen a deterministic one.
DEFAULT_TOLERANCES: tuple[tuple[str, float | None], ...] = (
    ("*search*", None),  # candidate search is measured wall clock (Table II)
    ("*compile*", None),  # compilation is measured wall clock too
    ("*.real_seconds", None),
    ("wall_seconds", None),
    # Serve-plane cells (repro serve / repro loadgen). Request *counts*
    # (total / completed / failed) are deterministic for a fixed load
    # schedule and stay on the exact catch-all below; everything measured
    # under concurrency — latencies, queue depths, rejection/retry counts,
    # dedup savings, per-tenant hit rates, throughput — depends on thread
    # scheduling and is informational. These patterns must precede the
    # global "*break_even*" entry: the serve latency quantiles are
    # *measured distributions* of break-even times, not single modelled
    # values.
    ("serve.*latency*", None),
    ("serve.*queue*", None),
    ("serve.*rejected*", None),
    # total = completed + failed + rejected, so it inherits the
    # rejection count's scheduling noise under backpressure.
    ("serve.*requests.total", None),
    ("serve.*retries*", None),
    ("serve.*accepted*", None),
    ("serve.*dedup*", None),
    ("serve.*tenants*", None),
    ("serve.*throughput*", None),
    ("serve.*uptime*", None),
    ("serve.*wall*", None),
    ("serve.*inflight*", None),
    ("serve.*comparison*", None),
    # Slot telemetry sums over *completed* requests, so it inherits the
    # admission counts' scheduling noise under backpressure.
    ("serve.*slots*", None),
    ("serve.*cross_app*", None),
    ("serve.*cad_implementations*", None),
    # Fleet-mix grid (repro mix): the candidate-search wall time is
    # excluded from every charged overhead, so the mix break-even cells
    # are fully virtual-clock and bit-identical — gate them exactly,
    # ahead of the looser "*break_even*" band below. Only the grid's own
    # wall clock is measured, hence informational.
    ("mix.*wall*", None),
    ("mix.*break_even*", 1e-9),
    # Break-even folds the measured search milliseconds into a
    # minutes-scale modelled overhead: deterministic to ~1e-6 relative,
    # so gate it loosely enough to absorb that jitter. The fidelity block's
    # Table II headline and Table IV factor fold it in too.
    ("*break_even*", 1e-4),
    ("fidelity.II/*/break even*", 1e-4),
    ("fidelity.IV/*/factor*", 1e-4),
    ("status", 0.0),
    # Persistent bitstream-cache statistics: informational. Hit/miss
    # counts depend on what earlier runs left in the store, and a parallel
    # cold run can race two apps to the same signature — legitimate
    # variation, not a result drift.
    ("cache.*", None),
    # VM observatory (repro vmprof / bench-vm): opcode and digram
    # *counts* plus the virtual clock are deterministic and fall through
    # to the exact catch-all — that is the bit-identical guarantee VM
    # work is gated on. Everything measured on the host clock (run wall
    # time, sampler attribution) is informational.
    ("vm.wall_seconds", None),
    ("vm.instructions_per_second", None),
    ("vm.sampled.*", None),
    # Per-app VM work, summed over the data-set runs: deterministic.
    ("scalars.per_app.*.vm_instructions", 1e-9),
    ("scalars.per_app.*.vm_block_executions", 1e-9),
    # Single-flight followers: how many requests wait on a leader's CAD
    # run depends on thread interleaving, so the wait span is measured.
    ("stages.store.dedup.wait.*", None),
    ("*", 1e-9),
)

def resolve_tolerance(
    cell: str, tolerances: list[tuple[str, float | None]]
) -> float | None:
    for pattern, tol in tolerances:
        if fnmatchcase(cell, pattern):
            return tol
    return 1e-9


def _oracle(cell: str) -> float | None:
    tolerance = resolve_tolerance(cell, list(DEFAULT_TOLERANCES))
    return EXACT_TOLERANCE if tolerance == 0.0 else tolerance


# -- fresh manifests from the real producers ----------------------------------
def _record_fidelity(ledger: RunLedger) -> None:
    """A fidelity run over the (memoized) fft analysis."""
    recorder = start_run(ledger, command="fidelity")
    try:
        analyses = [analyze_app("fft")]
        recorder.attach_fidelity(fidelity_from_analyses(analyses, "embedded"))
    finally:
        finish_run()


def _record_serve(ledger: RunLedger, store_root) -> None:
    """A daemon run: two requests, then a drain that records the summary."""
    start_run(ledger, command="serve")
    try:
        server = SpecializationServer(
            ServerConfig(workers=1, store_root=str(store_root))
        )
        server.start()
        client = ServeClient(port=server.port)
        for _ in range(2):
            assert client.specialize("acme", "adpcm")["status"] == "ok"
        server.request_shutdown(reason="test")
        server.drain()
        finish_run()
    finally:
        abandon_run()


@pytest.fixture(scope="module")
def manifests(tmp_path_factory) -> dict[str, dict]:
    root = tmp_path_factory.mktemp("cell-clock")
    ledger = RunLedger(root / "ledger")

    def run(*argv: str) -> int:
        return main([*argv, "--ledger", str(ledger.path)])

    assert run("analyze", "fft", "--cache", str(root / "cache")) == 0
    _record_fidelity(ledger)
    assert run("vmprof", "adpcm") == 0
    assert run(
        "mix", "--presets", "uniform,skewed", "--slots", "4,8",
        "--events", "20",
    ) == 0
    assert run(
        "loadgen", "--requests", "10", "--rate", "200", "--concurrency", "4",
        "--workers", "2", "--queue-depth", "4", "--tenants", "2",
        "--mix", "adpcm=1",
    ) == 0
    _record_serve(ledger, root / "store")
    return {run_id: ledger.load(run_id) for run_id in ledger.run_ids()}


def test_manifests_cover_every_block(manifests):
    cells = {
        cell
        for manifest in manifests.values()
        for cell in declared_cells(manifest)
    }
    assert {cell.split(".")[0] for cell in cells} == {
        "wall_seconds", "status", "stages", "scalars", "fidelity", "cache",
        "serve", "vm", "mix",
    }
    for prefix in (
        "serve.phases.", "serve.uptime_seconds",
        "scalars.per_app.fft.vm_instructions",
        "scalars.per_app.fft.vm_block_executions",
    ):
        assert any(cell.startswith(prefix) for cell in cells), prefix


def test_every_cell_classifies_as_the_table_did(manifests):
    mismatches = []
    kinds = set()
    for run_id, manifest in manifests.items():
        for delta in compare_manifests(manifest, manifest).deltas:
            kinds.add(delta.tolerance)
            if delta.tolerance != _oracle(delta.cell):
                mismatches.append(
                    f"{run_id}: {delta.cell} declared {delta.tolerance}, "
                    f"table {_oracle(delta.cell)}"
                )
    assert not mismatches, "\n".join(mismatches)
    assert kinds == {None, 1e-4, EXACT_TOLERANCE}


def _undeclared(value):
    if isinstance(value, dict):
        return {
            key: _undeclared(child)
            for key, child in value.items()
            if key not in ("measured", "tolerance")
        }
    return value


def test_block_without_declaration_is_gated_exactly(manifests):
    for manifest in manifests.values():
        cells = declared_cells(_undeclared(manifest))
        assert cells.keys() == declared_cells(manifest).keys()
        assert {tol for _, tol in cells.values()} == {EXACT_TOLERANCE}


def test_cell_only_in_baseline_keeps_its_declaration(manifests):
    vm_run = next(m for m in manifests.values() if m.get("vm"))
    current = dict(vm_run, vm=dict(vm_run["vm"]))
    del current["vm"]["wall_seconds"]
    deltas = {d.cell: d for d in compare_manifests(vm_run, current).deltas}
    assert deltas["vm.wall_seconds"].current is None
    assert not deltas["vm.wall_seconds"].checked
