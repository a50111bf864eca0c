"""Deterministic random number generation and stable hashing.

Every stochastic element of the reproduction (dataset generation, placement
annealing, cache population) draws from a :class:`DeterministicRng` seeded
from a stable string key, so that all experiments are bit-reproducible across
runs and machines.

:class:`DrawStream` is the fast path for hot loops that draw one scalar at
a time: it takes PCG64 words from numpy in bulk and replays, in Python,
numpy's own algorithms for ``Generator.integers(0, n)`` and
``Generator.random()``, so it yields exactly the values the generator
would have, at a fraction of the cost of a numpy scalar call.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stable_hash(*parts: object) -> int:
    """Return a stable 64-bit hash of the string representations of *parts*.

    ``hash()`` is salted per-process for strings, so it cannot be used for
    reproducible seeding; this uses BLAKE2b instead.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


# PCG64 words fetched from numpy per refill of a DrawStream.
CHUNK = 4096

_MASK32 = 0xFFFFFFFF
_TWO32 = 1 << 32


class DrawStream:
    """numpy ``Generator.integers(0, n)`` and ``Generator.random()``,
    replayed bit for bit over PCG64 words fetched :data:`CHUNK` at a time.

    For ``1 <= n <= 2**32`` numpy draws ``integers(0, n)`` with Lemire's
    multiply-shift rejection over the bit generator's ``next_uint32``
    (D. Lemire, "Fast Random Integer Generation in an Interval", ACM
    TOMACS 2019). PCG64's ``next_uint32`` returns the low half of a fresh
    64-bit word and buffers the high half for the next call; ``n == 1``
    consumes nothing and ``n == 2**32`` returns the raw uint32.
    ``random()`` is ``(next_uint64 >> 11) * 2**-53`` and leaves the half
    buffer alone. ``tests/test_util_rng.py`` checks all of this against
    numpy draw for draw.

    The stream fetches words ahead of what it has consumed, so the
    generator it reads must have no other user: take it only from
    :meth:`DeterministicRng.stream`.
    """

    __slots__ = ("_raw", "_words", "_half")

    def __init__(self, bit_generator: np.random.BitGenerator) -> None:
        self._raw = bit_generator.random_raw
        self._words: list[int] = []  # unconsumed words, next one last
        # The buffered high half of a word, starting with any half word
        # numpy's own draws left in the bit generator.
        state = bit_generator.state
        self._half: int | None = (
            state["uinteger"] if state["has_uint32"] else None
        )

    def _word(self) -> int:
        try:
            return self._words.pop()
        except IndexError:
            self._words = self._raw(CHUNK).tolist()[::-1]
            return self._words.pop()

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & _MASK32

    def below(self, n: int) -> int:
        """``int(Generator.integers(0, n))`` for ``1 <= n <= 2**32``."""
        if not 1 <= n <= _TWO32:
            raise ValueError(f"below({n}): n must be in [1, 2**32]")
        if n == 1:
            return 0
        if n == _TWO32:
            return self._uint32()
        m = self._uint32() * n
        if m & _MASK32 < n:
            threshold = _TWO32 % n
            while m & _MASK32 < threshold:
                m = self._uint32() * n
        return m >> 32

    def below2(self, n: int, k: int) -> tuple[int, int]:
        """``(below(n), below(k))``: in the common case both indices come
        from the two halves of one word.

        That holds when no half word is buffered, ``n, k > 1``, and neither
        product's low half falls below its bound (Lemire's quick accept).
        Otherwise the word goes back and the general path draws both.
        """
        if self._half is None and n > 1 and k > 1:
            word = self._word()
            a = (word & _MASK32) * n
            b = (word >> 32) * k
            if a & _MASK32 >= n and b & _MASK32 >= k:
                return a >> 32, b >> 32
            self._words.append(word)
        return self.below(n), self.below(k)

    def random(self) -> float:
        """``float(Generator.random())``: a double in [0, 1)."""
        return (self._word() >> 11) * 2.0**-53


class DeterministicRng:
    """A seeded RNG namespaced by a string key.

    Thin wrapper over :class:`numpy.random.Generator` that derives its seed
    from a stable hash of ``(namespace, seed)``. Its draws come either from
    the numpy proxies or, once :meth:`stream` has been called, only from
    that :class:`DrawStream`; the proxies then raise, since the stream reads
    ahead of what it has consumed.
    """

    def __init__(self, namespace: str, seed: int = 0) -> None:
        self.namespace = namespace
        self.seed = seed
        self._gen = np.random.default_rng(stable_hash(namespace, seed))
        self._stream: DrawStream | None = None

    def stream(self) -> DrawStream:
        """This generator's draw stream, the same one on every call."""
        if self._stream is None:
            self._stream = DrawStream(self._gen.bit_generator)
        return self._stream

    def _numpy(self) -> np.random.Generator:
        if self._stream is not None:
            raise RuntimeError(
                f"DeterministicRng({self.namespace!r}) has handed out its "
                "draw stream; draw from the stream"
            )
        return self._gen

    def child(self, sub_namespace: str) -> "DeterministicRng":
        """Derive an independent RNG for a sub-component."""
        return DeterministicRng(f"{self.namespace}/{sub_namespace}", self.seed)

    # -- convenience proxies -------------------------------------------------
    def integers(self, low: int, high: int | None = None, size=None):
        return self._numpy().integers(low, high, size=size)

    def random(self, size=None):
        return self._numpy().random(size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._numpy().normal(loc, scale, size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._numpy().uniform(low, high, size)

    def choice(self, seq, size=None, replace: bool = True):
        return self._numpy().choice(seq, size=size, replace=replace)

    def shuffle(self, seq) -> None:
        self._numpy().shuffle(seq)
