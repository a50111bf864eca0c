"""The compare rule on synthetic runs."""

import random

from bench import compare
from bench.registry import END_TO_END, FAILED_FRAC, Metric

WALL = next(m for m in END_TO_END if m.name == "wall_s")


def runs(side, values, offset, failed=0):
    """Runs of one side; parent and change alternate when offsets are 0 and 1."""
    out = []
    for i, v in enumerate(values):
        metrics = {m.name: 1.0 for m in END_TO_END}
        metrics["wall_s"] = v
        # ABBA order: the change runs first in every other pair.
        started = 2 * i + (offset if i % 2 == 0 else 1 - offset)
        out.append({"workload": "w", "trace": False, "started": started, "attempted": 10,
                    "failed": failed, "metrics": metrics, "side": side})
    return out


def noisy(center, n=10, spread=0.004, seed=1):
    rng = random.Random(seed)
    return [center * (1 + rng.uniform(-spread, spread)) for _ in range(n)]


def verdicts(parent, change):
    return {r["metric"]: r["verdict"] for r in compare.compare(parent, change)}


def test_same_distribution_is_unchanged():
    v = verdicts(runs("p", noisy(10.0, seed=1), 0), runs("c", noisy(10.0, seed=2), 1))
    assert set(v.values()) == {"unchanged"}


def test_consistent_gain_beyond_the_parent_spread_is_improved():
    v = verdicts(runs("p", noisy(10.0), 0), runs("c", noisy(9.0, seed=3), 1))
    assert v["wall_s"] == "improved"


def test_gain_inside_the_parent_spread_is_not_improved():
    v = verdicts(runs("p", noisy(10.0, spread=0.02), 0), runs("c", noisy(9.97, spread=0.02, seed=4), 1))
    assert v["wall_s"] == "unchanged"


def test_worse_by_more_than_the_bound_is_regressed():
    v = verdicts(runs("p", noisy(10.0), 0), runs("c", noisy(10.0 * (1 + 1.6 * WALL.bound), seed=5), 1))
    assert v["wall_s"] == "regressed"


def test_worse_within_the_bound_is_not_regressed():
    v = verdicts(runs("p", noisy(10.0), 0), runs("c", noisy(10.0 * (1 + 0.6 * WALL.bound), seed=6), 1))
    assert v["wall_s"] == "unchanged"


def test_fewer_than_ten_pairs_is_unresolved():
    v = verdicts(runs("p", noisy(10.0, n=6), 0), runs("c", noisy(9.0, n=6, seed=7), 1))
    assert v["wall_s"] == "unresolved"


def test_runs_that_do_not_alternate_are_unresolved():
    parent = runs("p", noisy(10.0), 0)
    change = runs("c", noisy(9.0, seed=8), 1)
    for r in change:
        r["started"] += 100
    assert verdicts(parent, change)["wall_s"] == "unresolved"


def test_spread_wider_than_the_bound_is_unresolved():
    v = verdicts(runs("p", noisy(10.0, spread=0.3), 0), runs("c", noisy(10.0, spread=0.3, seed=9), 1))
    assert v["wall_s"] == "unresolved"


def test_any_extra_failure_is_a_regression():
    parent = runs("p", noisy(10.0), 0)
    change = runs("c", noisy(10.0, seed=10), 1)
    change[3]["failed"] = 1
    assert verdicts(parent, change)[FAILED_FRAC.name] == "regressed"


def test_higher_is_better_metrics_flip_the_sign():
    higher = Metric("throughput", "1/s", better="higher", bound=0.05)
    assert compare.verdict([10.0] * 10, [9.0] * 10, higher, True)[0] == "regressed"
    assert compare.verdict([10.0] * 10, [11.0] * 10, higher, True)[0] == "improved"


def test_alternation_accepts_abba_order():
    parent = runs("p", [1.0] * 4, 0)
    change = runs("c", [1.0] * 4, 1)
    assert compare.alternated(parent, change)
    assert [r["started"] for r in parent] == [0, 3, 4, 7]
