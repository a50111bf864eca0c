"""Tests for deterministic RNG, its replayed draw stream and stable hashing."""

import numpy as np
import pytest

from repro.util.rng import CHUNK, DeterministicRng, stable_hash


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("a", 1, 2.5) == stable_hash("a", 1, 2.5)

    def test_distinguishes_parts(self):
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_distinguishes_types(self):
        assert stable_hash(1) != stable_hash("1")

    def test_64_bit_range(self):
        h = stable_hash("anything")
        assert 0 <= h < 2**64


class TestDeterministicRng:
    def test_same_namespace_same_stream(self):
        a = DeterministicRng("ns", 7)
        b = DeterministicRng("ns", 7)
        assert list(a.integers(0, 100, size=10)) == list(b.integers(0, 100, size=10))

    def test_different_namespace_different_stream(self):
        a = DeterministicRng("ns1")
        b = DeterministicRng("ns2")
        assert list(a.integers(0, 10**9, size=8)) != list(
            b.integers(0, 10**9, size=8)
        )

    def test_different_seed_different_stream(self):
        a = DeterministicRng("ns", 0)
        b = DeterministicRng("ns", 1)
        assert list(a.integers(0, 10**9, size=8)) != list(
            b.integers(0, 10**9, size=8)
        )

    def test_child_is_independent_and_deterministic(self):
        parent1 = DeterministicRng("p", 3)
        parent2 = DeterministicRng("p", 3)
        c1 = parent1.child("sub")
        c2 = parent2.child("sub")
        assert list(c1.integers(0, 1000, size=5)) == list(c2.integers(0, 1000, size=5))

    def test_uniform_bounds(self):
        rng = DeterministicRng("u")
        values = rng.uniform(2.0, 3.0, size=100)
        assert np.all(values >= 2.0) and np.all(values < 3.0)

    def test_shuffle_in_place_deterministic(self):
        xs1 = list(range(20))
        xs2 = list(range(20))
        DeterministicRng("s").shuffle(xs1)
        DeterministicRng("s").shuffle(xs2)
        assert xs1 == xs2
        assert sorted(xs1) == list(range(20))

    def test_choice(self):
        rng = DeterministicRng("c")
        picked = rng.choice([1, 2, 3], size=50)
        assert set(int(p) for p in picked) <= {1, 2, 3}


# Bounds covering n == 1 (no draw), small n, powers of two, a bound that
# rejects about a quarter of its draws (3 * 2**30) and both ends of the
# 32-bit range (2**32 returns the raw uint32).
BOUNDS = [1, 2, 3, 7, 64, 1000, 3072, 2**31 - 5, 3 * 2**30, 2**32 - 1, 2**32]


def stream_and_numpy(seed: int):
    """A fresh stream and a numpy Generator on the same PCG64 state."""
    rng = DeterministicRng("stream", seed)
    want = np.random.default_rng(stable_hash("stream", seed))
    return rng.stream(), want


class TestDrawStream:
    """The stream replays numpy's ``Generator`` draw for draw; a numpy
    upgrade that changes either algorithm fails here, not in the placer."""

    @pytest.mark.parametrize("n", BOUNDS)
    def test_below_matches_integers(self, n):
        stream, want = stream_and_numpy(n)
        draws = 3 * CHUNK  # crosses several refills, whatever n consumes
        assert [stream.below(n) for _ in range(draws)] == [
            int(want.integers(0, n)) for _ in range(draws)
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_interleaved_mix_matches_generator(self, seed):
        stream, want = stream_and_numpy(seed)
        plan = np.random.default_rng(1000 + seed)
        for _ in range(4 * CHUNK):
            kind = int(plan.integers(0, 3))
            n = BOUNDS[int(plan.integers(0, len(BOUNDS)))]
            k = BOUNDS[int(plan.integers(0, len(BOUNDS)))]
            if kind == 0:
                assert stream.random() == float(want.random())
            elif kind == 1:
                assert stream.below(n) == int(want.integers(0, n))
            else:
                expected = (int(want.integers(0, n)), int(want.integers(0, k)))
                assert stream.below2(n, k) == expected

    @pytest.mark.parametrize("n,k", [(1, 7), (7, 1), (37, 3072), (2**32, 5),
                                     (3 * 2**30, 3 * 2**30), (1, 1)])
    def test_below2_equals_two_below_calls(self, n, k):
        fused = DeterministicRng("pair", n + k).stream()
        plain = DeterministicRng("pair", n + k).stream()
        for i in range(2 * CHUNK):
            if i % 5 == 0:  # leave a half word buffered now and then
                assert fused.below(3) == plain.below(3)
            assert fused.below2(n, k) == (plain.below(n), plain.below(k))

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
    def test_out_of_range_bounds_raise(self, n):
        stream = DeterministicRng("bad").stream()
        with pytest.raises(ValueError):
            stream.below(n)
        with pytest.raises(ValueError):
            stream.below2(n, 5)
        with pytest.raises(ValueError):
            stream.below2(5, n)


class TestStreamOwnership:
    def test_numpy_proxies_raise_once_stream_is_handed_out(self):
        rng = DeterministicRng("owner")
        assert 0 <= rng.integers(0, 10) < 10
        stream = rng.stream()
        assert rng.stream() is stream
        for draw in (
            lambda: rng.integers(0, 10),
            lambda: rng.random(),
            lambda: rng.normal(),
            lambda: rng.uniform(),
            lambda: rng.choice([1, 2]),
            lambda: rng.shuffle([1, 2]),
        ):
            with pytest.raises(RuntimeError):
                draw()

    def test_stream_continues_where_the_proxies_left_off(self):
        rng = DeterministicRng("owner", 1)
        want = np.random.default_rng(stable_hash("owner", 1))
        # One proxy draw leaves the high half of a word in numpy's bit
        # generator; the stream's first uint32 must be that half.
        assert int(rng.integers(0, 100)) == int(want.integers(0, 100))
        stream = rng.stream()
        assert [stream.below(1000) for _ in range(5)] == [
            int(want.integers(0, 1000)) for _ in range(5)
        ]
