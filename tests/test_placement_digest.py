"""Placement digest gate: every app's placements are pinned bit for bit.

The fft golden rows were recorded with the full-recompute annealer that
preceded the incremental bounding-box placer; the per-app digests were
recorded with the incremental placer drawing from numpy's ``Generator``,
before the placer's draws moved to the replayed PCG64 stream. Any change
to the anneal's decisions, its RNG draw sequence or the mapped netlist it
is given shows up here as a changed wirelength, accept count or location
hash.
"""

from __future__ import annotations

import hashlib

import pytest
from conftest import implement_app_candidates

from repro.apps import ALL_APPS

# (candidate key, final wirelength, moves accepted, sha256 of sorted locations)
GOLDEN_FFT = [
    (("fft", "for.body.33", 0), 1204.0, 1093,
     "4abab724a997031c558ee02ae5a40afbff667b67f4d395a07faedb67734bf9f3"),
    (("fft", "for.body.33", 1), 1275.0, 1149,
     "9f8e52a31e5c94abd127ba798301ff75ee15d8d580e1cf9d46a912d6180c3529"),
    (("main", "make_signal.for.body.3.98", 5), 2367.0, 3167,
     "0139b35b78c83c5c31bb5eb74bf78dc29473d1bd7f2d8df923cd49b896e3b23d"),
    (("main", "make_signal.for.body.3.98", 4), 1360.0, 1173,
     "7809eaccac04fca096690cc52f8c6e43fb18906da16bcf8fbff85fb7eb361933"),
    (("main", "for.body.51", 6), 875.0, 620,
     "d329918be09a438c27d96c7f0e4c00181d7f02ebf001a6faeef4f6b38dc1681a"),
]

# app -> sha256 over the placement_digest rows of its implemented candidates
GOLDEN_APPS = {
    "164.gzip":
        "8e775979e3ec2489a08e8f40afca8f574550862b3ccd20f9a4b71b84a21f34b1",
    "179.art":
        "c3b4e8387505f0f64af57aaa1e1ae8494a79b615288b5878094a661c3ec2afca",
    "183.equake":
        "40fc3b8605699b720814a3ad46a08656352a490b8dc2ca578375f85783454731",
    "188.ammp":
        "af5d4263daa5f89b32c7eaac2ab36180b9bacdb90df0790568410c251741fcd5",
    "429.mcf":
        "ec0281510cdfbff0a1d9bb7b2b26d56815c4f26535b10f880741c3a859763928",
    "433.milc":
        "d92badc01962306b8eac6e935798ce4a35183341ff58fdbae0c060935bca218f",
    "444.namd":
        "21b576b164fee45c2294e73c9b74b4023a91497217f9ac9e9b5259e7c3c57960",
    "458.sjeng":
        "169dfa7c38130a45e0ac40fcb856e2c00b9652d53f8335f11ab4ff73a79e64f6",
    "470.lbm":
        "350f0cd57c086a453db70c015093746d5656f83eafe50eaf24dda35d199c3b3c",
    "473.astar":
        "192712afc1abf445e61eb5e409ab5d2d92bfdc43608e182e60252df8961d34d4",
    "adpcm":
        "77542dcd8d57f8c5bf99174c2c08ce27fd7899ffe814bc7738339251fbeab8e4",
    "fft":
        "bd4662be764ba31af185e2dc67d5378531a2c5e19685e937b639a483f7155454",
    "sor":
        "d36aef61a6d1e8439e8d7b37f01a01353cf648c801186d04d26eae4d16f2f0ea",
    "whetstone":
        "21c8160a78a1de75b90cb098ce89d361eeeb172a071d0624d4425c9a7430e9f4",
}


def placement_digest(implementations) -> list[tuple]:
    rows = []
    for impl in implementations:
        placement = impl.placement
        locations = repr(sorted(placement.locations.items())).encode()
        rows.append(
            (
                impl.candidate.key,
                placement.final_wirelength,
                placement.moves_accepted,
                hashlib.sha256(locations).hexdigest(),
            )
        )
    return rows


def test_fft_placement_digest_matches_golden(fft_implementations):
    assert placement_digest(fft_implementations) == GOLDEN_FFT


def test_repeated_analysis_in_one_process_is_identical(fft_implementations):
    """A second analysis builds new IR objects (new ``id()`` values); the
    VHDL, the mapped netlist and the placement must not depend on them."""
    again = implement_app_candidates("fft")
    assert [i.candidate.key for i in again] == [
        i.candidate.key for i in fft_implementations
    ]
    for first, second in zip(fft_implementations, again):
        assert second.vhdl.source == first.vhdl.source
        assert second.mapped.nets == first.mapped.nets
        assert list(second.placement.locations.items()) == list(
            first.placement.locations.items()
        )


def app_digest(implementations) -> str:
    return hashlib.sha256(repr(placement_digest(implementations)).encode()).hexdigest()


def test_every_app_has_a_golden_digest():
    assert sorted(GOLDEN_APPS) == sorted(spec.name for spec in ALL_APPS)


@pytest.mark.parametrize("app", sorted(GOLDEN_APPS))
def test_app_placement_digest_matches_golden(app, fft_implementations):
    implementations = (
        fft_implementations if app == "fft" else implement_app_candidates(app)
    )
    assert app_digest(implementations) == GOLDEN_APPS[app]
