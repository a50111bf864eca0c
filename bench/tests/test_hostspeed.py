"""The normalized clock on synthetic samples, and the scaling of a stop."""

import pytest

from bench import harness, hostspeed
from bench.hostspeed import REFERENCE_S, NormalizedClock, SpeedSampler


def test_clock_runs_at_each_interval_rate_and_extrapolates():
    clock = NormalizedClock([10.0, 11.0, 13.0], [1.0, 0.5, 2.0])
    assert clock.interval(10.0, 11.0) == pytest.approx(1.0)
    assert clock.interval(11.0, 13.0) == pytest.approx(1.0)
    assert clock.interval(10.5, 12.0) == pytest.approx(0.5 + 0.5)
    assert clock.interval(13.0, 14.0) == pytest.approx(2.0)  # after the last sample
    assert clock.interval(9.0, 10.0) == pytest.approx(1.0)  # before the first
    assert clock.slowdown(11.0, 13.0) == pytest.approx(2.0)


def test_without_samples_the_clock_is_the_wall_clock():
    clock = NormalizedClock([], [])
    assert clock.interval(3.0, 5.5) == 2.5


def sampler_with(loops, ticks):
    sampler = SpeedSampler(cpu=None)
    sampler.times = [float(i) for i in range(len(loops))]
    sampler.loops = loops
    sampler.ticks = ticks
    return sampler


def test_busy_time_is_scaled_and_idle_time_is_not():
    slow = 2 * REFERENCE_S
    n = 60  # 30 busy intervals (10 ticks each), then 30 idle ones
    ticks = [(10 * min(i, 30), 10 * i) for i in range(n)]
    clock = sampler_with([slow] * n, ticks).clock()
    assert clock.interval(5.0, 15.0) == pytest.approx(5.0)  # busy at half speed
    assert clock.interval(45.0, 55.0) == pytest.approx(10.0)  # idle: wall time


def test_one_slow_loop_does_not_move_the_clock():
    loops = [REFERENCE_S] * 20
    loops[10] = 5 * REFERENCE_S
    clock = sampler_with(loops, [None] * 20).clock()
    assert clock.interval(9.0, 12.0) == pytest.approx(3.0)


def test_busy_is_assumed_where_cpu_ticks_are_unavailable():
    sampler = sampler_with([REFERENCE_S / 2] * 2, [None, None])
    assert sampler.clock().interval(0.0, 1.0) == pytest.approx(2.0)


def test_a_scaled_stop_ignores_the_clock_and_an_unscaled_one_reads_it():
    clock = NormalizedClock([0.0, 10.0], [0.5, 0.5])
    assert harness.stop_seconds(clock, (2.0, 2.1, 0.8)) == pytest.approx(0.08)
    assert harness.stop_seconds(clock, (2.0, 7.0, None)) == pytest.approx(2.5)


def test_reference_process_runs():
    times = hostspeed.reference_process_times(2)
    assert len(times) == 2 and all(0 < t < 5 for t in times)


def test_cpu_ticks_read_the_pinned_cpu():
    ticks = hostspeed.cpu_ticks(0)
    if ticks is None:
        pytest.skip("no /proc/stat on this platform")
    busy, total = ticks
    assert 0 <= busy <= total
