"""Placement digest gate: fft's placements are pinned bit for bit.

The golden rows were recorded with the full-recompute annealer that
preceded the incremental bounding-box placer. Any change to the anneal's
decisions, its RNG draw sequence or the mapped netlist it is given shows
up here as a changed wirelength, accept count or location hash.
"""

from __future__ import annotations

import hashlib

from conftest import implement_app_candidates

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
