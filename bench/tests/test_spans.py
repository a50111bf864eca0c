"""Self-time arithmetic and wrap-point installation on synthetic inputs."""

import sys
import threading
import types

import pytest

from bench import spans
from bench.registry import WrapPoint


def span(index, parent, layer, start, end, count=None, op=None):
    return {"index": index, "parent": parent, "layer": layer, "op": op,
            "start": start, "end": end, "count": count}


def test_covered_merges_overlaps_and_clips():
    assert spans.covered(0, 10, []) == 0
    assert spans.covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == pytest.approx(5)
    assert spans.covered(2, 6, [(0, 3), (5, 9)]) == pytest.approx(2)
    assert spans.covered(0, 10, [(4, 6), (1, 9)]) == pytest.approx(8)


def test_self_time_subtracts_children_only_once():
    tree = [
        span(0, None, "experiments", 0.0, 10.0),
        span(1, 0, "vm", 1.0, 4.0),
        span(2, 0, "asip", 5.0, 9.0),
        span(3, 2, "fpga.place", 5.5, 8.0),
        # A second thread's child overlapping the first: the union counts.
        span(4, 0, "vm", 3.0, 4.5),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10 - 3.5 - 4)
    assert own[2] == pytest.approx(4 - 2.5)
    assert own[3] == pytest.approx(2.5)
    table = spans.layer_table(tree)
    assert table["vm"] == {"busy_s": pytest.approx(4.5), "calls": 2}
    # The top span's 10 s plus the 1 s in which the two vm spans overlap.
    assert sum(row["busy_s"] for row in table.values()) == pytest.approx(11.0)


def test_layer_busy_sums_to_top_level_span_time():
    tree = [
        span(0, None, "experiments", 0.0, 6.0),
        span(1, 0, "profiling", 1.0, 3.0),
        span(2, 1, "profiling", 1.5, 2.0),  # a layer nested in itself
        span(3, None, "experiments", 7.0, 9.0),
    ]
    table = spans.layer_table(tree)
    assert table["profiling"]["busy_s"] == pytest.approx(2.0)
    assert sum(row["busy_s"] for row in table.values()) == pytest.approx(8.0)
    assert spans.unattributed(tree, 0.0, 10.0) == pytest.approx(2.0)


def test_counts_and_rates_become_named_metrics():
    tree = [
        span(0, None, "vm", 0.0, 2.0, count=4_000_000),
        span(1, None, "fpga.place", 2.0, 3.0, count=50_000),
        span(2, None, "core.cache.get", 3.0, 3.5, count=1),
        span(3, None, "core.cache.get", 3.5, 4.0, count=0),
    ]
    table = spans.layer_table(tree)
    metrics = spans.per_layer_metrics(table, ["vm", "fpga.place", "core.cache.get"])
    assert metrics["vm.instructions"] == 4_000_000
    assert metrics["vm.minstr_per_s"] == pytest.approx(2.0)
    assert metrics["fpga.place.kmoves_per_s"] == pytest.approx(50.0)
    assert metrics["core.cache.hit_ratio"] == pytest.approx(0.5)
    assert metrics["core.cache.get_s"] == pytest.approx(1.0)
    assert metrics["core.cache.get.calls"] == 2


def test_merge_tables_adds_rows_of_each_process():
    a = {"vm": {"busy_s": 1.0, "calls": 2, "vm.instructions": 10}}
    b = {"vm": {"busy_s": 0.5, "calls": 1, "vm.instructions": 5}, "ise": {"busy_s": 0.1, "calls": 1}}
    merged = spans.merge_tables([a, b])
    assert merged["vm"] == {"busy_s": 1.5, "calls": 3, "vm.instructions": 15}
    assert merged["ise"]["calls"] == 1


LIB_SOURCE = """
def work(x):
    return x * 2


class Engine:
    def run(self, n):
        return work(n) + 1
"""


@pytest.fixture
def fake_program(monkeypatch):
    """A module defining a function and a class, plus one importing the function."""
    lib = types.ModuleType("repro_fake_lib")
    exec(LIB_SOURCE, lib.__dict__)
    user = types.ModuleType("repro_fake_user")
    user.work = lib.work
    monkeypatch.setitem(sys.modules, "repro_fake_lib", lib)
    monkeypatch.setitem(sys.modules, "repro_fake_user", user)
    return lib, user


def test_install_wraps_methods_and_rebinds_imported_names(fake_program):
    lib, user = fake_program
    points = [
        WrapPoint("repro_fake_lib", "work", "frontend"),
        WrapPoint("repro_fake_lib", "Engine.run", "experiments"),
    ]
    recorder = spans.Recorder()
    original = lib.work
    restore = spans.install(points, recorder.wrap)
    try:
        recorder.set_op("op-1")
        assert lib.Engine().run(3) == 7
        assert user.work(2) == 4
    finally:
        restore()
    assert lib.work is original and user.work is original
    records = [s.as_dict() for s in recorder.spans]
    assert [r["layer"] for r in records] == ["experiments", "frontend", "frontend"]
    assert [r["parent"] for r in records] == [None, records[0]["index"], None]
    assert {r["op"] for r in records} == {"op-1"}


def test_spans_of_each_thread_nest_separately(fake_program):
    lib, _ = fake_program
    recorder = spans.Recorder()
    restore = spans.install([WrapPoint("repro_fake_lib", "work", "frontend")], recorder.wrap)
    try:
        threads = [threading.Thread(target=lib.work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        restore()
    assert all(not t.is_alive() for t in threads)
    assert [s.parent for s in recorder.spans] == [None] * 4


def test_unresolvable_wrap_point_fails_loudly():
    with pytest.raises(LookupError, match="does not resolve"):
        spans.resolve_all([WrapPoint("json", "NoSuchThing.run", "vm")])
