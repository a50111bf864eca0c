"""Differential test: the incremental placer against a full-recompute oracle.

``reference_place`` is the annealer as it was before the bounding-box
cache: every affected net's HPWL is recomputed from scratch before and
after each move. ``Placer.place`` must make exactly the same decisions,
so both must agree on every location (in key order), both wirelengths and
both move counts, for random designs of every density, for swap-heavy
designs (repeated members, 16-member nets, cliques, a full region) and
for the real mapped designs of fft's candidates.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.fpga.device import PartialRegion
from repro.fpga.placer import Placement, PlacementError, Placer
from repro.fpga.techmap import MappedCell, MappedDesign
from repro.util.rng import DeterministicRng


def reference_place(
    placer: Placer, design: MappedDesign, region: PartialRegion
) -> Placement:
    """The full-recompute annealer, kept verbatim as the oracle."""
    n_cells = design.cell_count
    if n_cells == 0:
        return Placement({}, 0.0, 0.0, 0, 0)
    if n_cells > region.cell_capacity:
        raise PlacementError(
            f"design needs {n_cells} cells, region holds "
            f"{region.cell_capacity}"
        )
    rng = DeterministicRng(f"placer/{n_cells}/{len(design.nets)}", placer.seed)

    # Initial placement: row-major packing.
    cols = region.cols
    rows = region.rows
    per_site = region.cells_per_clb
    sites = cols * rows * per_site
    locations: dict[int, tuple[int, int]] = {}
    site_of_cell: dict[int, int] = {}
    cell_at_site: dict[int, int] = {}
    for cell in design.cells:
        site = len(site_of_cell)
        site_of_cell[cell.index] = site
        cell_at_site[site] = cell.index

    def site_xy(site: int) -> tuple[int, int]:
        clb = site // per_site
        return (clb % cols, clb // cols)

    # Net -> cells; cell -> nets index for incremental cost.
    nets = design.nets
    nets_of_cell: dict[int, list[int]] = {}
    for ni, net in enumerate(nets):
        for cell_idx in net:
            nets_of_cell.setdefault(cell_idx, []).append(ni)

    def net_hpwl(net: list[int]) -> float:
        xs = []
        ys = []
        for cell_idx in net:
            x, y = site_xy(site_of_cell[cell_idx])
            xs.append(x)
            ys.append(y)
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    total = sum(net_hpwl(net) for net in nets)
    initial = total

    anneal_moves = placer.moves_per_cell * n_cells
    greedy_moves = anneal_moves // 2  # final zero-temperature refinement
    n_moves = anneal_moves + greedy_moves
    temperature = max(
        1.0, placer.initial_temperature_factor * math.sqrt(total + 1)
    )
    cooling = 0.95 ** (1.0 / max(1, anneal_moves // 100))
    accepted = 0

    cell_indices = [c.index for c in design.cells]
    for move_no in range(n_moves):
        greedy = move_no >= anneal_moves
        cell_idx = cell_indices[int(rng.integers(0, n_cells))]
        old_site = site_of_cell[cell_idx]
        new_site = int(rng.integers(0, sites))
        if new_site == old_site:
            continue
        other = cell_at_site.get(new_site)

        affected = set(nets_of_cell.get(cell_idx, ()))
        if other is not None:
            affected |= set(nets_of_cell.get(other, ()))
        before = sum(net_hpwl(nets[ni]) for ni in affected)

        # swap / move
        site_of_cell[cell_idx] = new_site
        cell_at_site[new_site] = cell_idx
        if other is not None:
            site_of_cell[other] = old_site
            cell_at_site[old_site] = other
        else:
            del cell_at_site[old_site]

        after = sum(net_hpwl(nets[ni]) for ni in affected)
        delta = after - before
        if delta <= 0 or (
            not greedy and rng.random() < math.exp(-delta / temperature)
        ):
            total += delta
            accepted += 1
        else:
            # revert
            site_of_cell[cell_idx] = old_site
            cell_at_site[old_site] = cell_idx
            if other is not None:
                site_of_cell[other] = new_site
                cell_at_site[new_site] = other
            else:
                del cell_at_site[new_site]
        temperature = max(0.01, temperature * cooling)

    for cell in design.cells:
        locations[cell.index] = site_xy(site_of_cell[cell.index])
    return Placement(
        locations=locations,
        initial_wirelength=float(initial),
        final_wirelength=float(total),
        moves_attempted=n_moves,
        moves_accepted=accepted,
    )


def assert_same_placement(got: Placement, want: Placement) -> None:
    assert list(got.locations.items()) == list(want.locations.items())
    assert got.initial_wirelength == want.initial_wirelength
    assert got.final_wirelength == want.final_wirelength
    assert got.moves_attempted == want.moves_attempted
    assert got.moves_accepted == want.moves_accepted


SMALL_REGION = PartialRegion("t", 0, 0, cols=5, rows=4, cells_per_clb=2)


def random_design(
    seed: int, n_cells: int, n_nets: int, indices: list[int] | None = None
) -> MappedDesign:
    """A design whose nets join 1-6 distinct cells chosen at random."""
    gen = np.random.default_rng(seed)
    if indices is None:
        indices = list(range(n_cells))
    nets = []
    for _ in range(n_nets if n_cells else 0):
        size = int(gen.integers(1, min(6, n_cells) + 1))
        members = gen.choice(n_cells, size=size, replace=False)
        nets.append([indices[int(m)] for m in members])
    return MappedDesign(
        cells=[MappedCell(i, "SLICE") for i in indices],
        nets=nets,
        lut_count=n_cells,
        ff_count=0,
        dsp_count=0,
        bram_count=0,
    )


def check(placer: Placer, design: MappedDesign, region: PartialRegion) -> None:
    assert_same_placement(
        placer.place(design, region), reference_place(placer, design, region)
    )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("fill", [0.1, 0.37, 0.7, 0.95, 1.0])
def test_random_designs_match_oracle(seed, fill):
    n_cells = max(2, round(fill * SMALL_REGION.cell_capacity))
    design = random_design(seed, n_cells, n_nets=n_cells)
    check(Placer(seed=seed), design, SMALL_REGION)


@pytest.mark.parametrize("seed", range(4))
def test_noncontiguous_cell_indices_match_oracle(seed):
    gen = np.random.default_rng(100 + seed)
    indices = [int(i) for i in gen.permutation(200)[:24]]
    design = random_design(seed, len(indices), n_nets=30, indices=indices)
    check(Placer(seed=seed), design, SMALL_REGION)


@pytest.mark.parametrize(
    "design",
    [
        random_design(0, 0, 0),
        random_design(0, 1, 0),
        random_design(0, 1, 3),
        MappedDesign([MappedCell(0, "SLICE"), MappedCell(1, "SLICE")], [], 2, 0, 0, 0),
    ],
    ids=["empty", "one-cell", "one-cell-self-nets", "no-nets"],
)
def test_degenerate_designs_match_oracle(design):
    check(Placer(), design, SMALL_REGION)


FULL_REGION = PartialRegion("f", 0, 0, cols=6, rows=4, cells_per_clb=2)


def swap_heavy_design(
    seed: int,
    n_cells: int,
    n_nets: int,
    max_size: int = 16,
    repeats: bool = False,
    clique: int = 0,
) -> MappedDesign:
    """Nets of 2 to ``max_size`` members (the first net of ``max_size``).

    With ``repeats`` a net may list a cell more than once. With ``clique``
    the cells fall into groups of that size, each joined by a net per pair
    and one net of the whole group, so a swap's two cells often share nets.
    """
    gen = np.random.default_rng(seed)
    nets = []
    for _ in range(n_nets):
        size = int(gen.integers(2, max_size + 1)) if nets else max_size
        if not repeats:
            size = min(size, n_cells)
        nets.append([int(m) for m in gen.choice(n_cells, size, replace=repeats)])
    for start in range(0, n_cells, clique) if clique else ():
        group = list(range(start, min(start + clique, n_cells)))
        nets.append(group)
        nets.extend([a, b] for i, a in enumerate(group) for b in group[i + 1:])
    return MappedDesign(
        cells=[MappedCell(i, "SLICE") for i in range(n_cells)],
        nets=nets,
        lut_count=n_cells,
        ff_count=0,
        dsp_count=0,
        bram_count=0,
    )


@pytest.mark.parametrize("seed", range(4))
def test_nets_listing_a_cell_twice_match_oracle(seed):
    design = swap_heavy_design(seed, 36, 30, max_size=8, repeats=True)
    assert any(len(set(net)) < len(net) for net in design.nets)
    check(Placer(seed=seed), design, FULL_REGION)


@pytest.mark.parametrize("seed", range(4))
def test_sixteen_member_nets_match_oracle(seed):
    design = swap_heavy_design(seed, 44, 24)
    assert max(len(net) for net in design.nets) == 16
    check(Placer(seed=seed), design, FULL_REGION)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("clique", [3, 6])
def test_cliques_match_oracle(seed, clique):
    design = swap_heavy_design(seed, 40, 8, max_size=4, clique=clique)
    check(Placer(seed=seed), design, FULL_REGION)


@pytest.mark.parametrize("seed", range(4))
def test_full_region_every_move_a_swap_matches_oracle(seed):
    # Every site is taken, so every move is a swap, and with two cells to
    # a CLB some swaps exchange two cells on the same (x, y).
    n_cells = FULL_REGION.cell_capacity
    design = swap_heavy_design(seed, n_cells, n_cells, repeats=True, clique=4)
    check(Placer(seed=seed), design, FULL_REGION)


def test_placer_parameters_match_oracle():
    design = random_design(7, 16, 20)
    for placer in (
        Placer(moves_per_cell=5),
        Placer(initial_temperature_factor=3.0),
        Placer(seed=11),
    ):
        check(placer, design, SMALL_REGION)


def test_fft_candidates_match_oracle(fft_implementations):
    from repro.fpga.device import VIRTEX4_FX100

    assert fft_implementations
    for impl in fft_implementations:
        want = reference_place(Placer(), impl.mapped, VIRTEX4_FX100.region)
        assert_same_placement(impl.placement, want)
