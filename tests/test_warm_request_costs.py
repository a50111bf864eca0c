"""Differential test: a warm ``specialize`` request prices its module once.

The serve worker prices the module inside the candidate search and hands
that one block-cost table to the pruning filter, the speedup model and
the break-even model. The reference is the same request with every
consumer pricing the module itself, as each of the three did before they
shared the table: pruning under the default pruning cost model, speedup
and break-even under the machine's. Both must answer alike on every field
of the response that is not measured, and the break-even must agree
exactly at a fixed overhead.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.breakeven import BreakEvenModel
from repro.core.cache import PersistentBitstreamCache
from repro.ise.pruning import PruningFilter
from repro.serve.worker import app_context, execute_specialize, parse_specialize_request
from repro.vm import profiler
from repro.vm.costmodel import PPC405_COST_MODEL
from repro.vm.profiler import static_block_costs
from repro.woolcano.machine import WoolcanoMachine

EMBEDDED = ("adpcm", "fft", "sor", "whetstone")
FILTERS = {"@50pS3L": (50.0, 3), "@100pS1L": (100.0, 1)}

#: Response fields that carry the measured search time.
MEASURED = ("search_ms", "effective_overhead_seconds", "break_even_seconds")

#: Fixed overhead for the exact break-even comparison.
OVERHEAD_SECONDS = 37.5


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One tenant cache shared by every case, so repeated requests are warm."""
    return PersistentBitstreamCache(root=tmp_path_factory.mktemp("bc"))


def _request(app: str, spec: str, slots: int | None) -> dict:
    share, blocks = FILTERS[spec]
    return parse_specialize_request(
        {
            "tenant": "acme",
            "app": app,
            "pruning": {"time_share_pct": share, "max_blocks": blocks},
            "slots": slots,
        }
    )


def _reference(request: dict, cache, monkeypatch) -> dict:
    """The request with pruning, speedup and break-even each pricing the
    module on their own."""
    module = app_context(request["app"]).module
    select_blocks = PruningFilter.select_blocks

    def own_pruning(self, mod, profile, _shared):
        return select_blocks(
            self, mod, profile, static_block_costs(mod, PPC405_COST_MODEL)
        )

    def own_table(method):
        def call(self, _shared, *args):
            return method(self, static_block_costs(module, self.cost_model), *args)

        return call

    with monkeypatch.context() as m:
        m.setattr(PruningFilter, "select_blocks", own_pruning)
        m.setattr(WoolcanoMachine, "speedup", own_table(WoolcanoMachine.speedup))
        m.setattr(BreakEvenModel, "analyze", own_table(BreakEvenModel.analyze))
        return execute_specialize(request, cache)


def _count_pricing(monkeypatch) -> list[int]:
    """Count every ``static_block_costs`` call, whichever module calls it."""
    real = profiler.static_block_costs
    calls: list[int] = []

    def counted(module, cost_model):
        calls.append(1)
        return real(module, cost_model)

    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        if getattr(mod, "static_block_costs", None) is real:
            monkeypatch.setattr(mod, "static_block_costs", counted)
    return calls


def _spy(monkeypatch, cls, name: str, seen: dict) -> None:
    real = getattr(cls, name)

    def call(self, *args):
        seen[name] = (self, args)
        return real(self, *args)

    monkeypatch.setattr(cls, name, call)


@pytest.mark.parametrize("spec", sorted(FILTERS))
@pytest.mark.parametrize("slots", [None, 2])
@pytest.mark.parametrize("app", EMBEDDED)
def test_warm_request_matches_per_consumer_pricing(
    app, slots, spec, cache, monkeypatch
):
    request = _request(app, spec, slots)
    execute_specialize(request, cache)  # warms the tenant cache
    expected = _reference(request, cache, monkeypatch)

    calls = _count_pricing(monkeypatch)
    seen: dict = {}
    _spy(monkeypatch, WoolcanoMachine, "speedup", seen)
    _spy(monkeypatch, BreakEvenModel, "analyze", seen)
    result = execute_specialize(request, cache)
    assert len(calls) == 1
    monkeypatch.undo()

    assert result["cache_hits"] + result["shared"] == result["candidates"]
    for key in MEASURED:
        expected.pop(key)
        result.pop(key)
    assert result == expected

    _, (speedup_costs, *_) = seen["speedup"]
    model, (costs, profile, coverage, estimates, _) = seen["analyze"]
    assert costs is speedup_costs
    module = app_context(app).module
    own = static_block_costs(module, model.cost_model)
    assert costs == own
    assert model.analyze(
        costs, profile, coverage, estimates, OVERHEAD_SECONDS
    ) == model.analyze(own, profile, coverage, estimates, OVERHEAD_SECONDS)
