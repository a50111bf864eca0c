"""Placement: simulated annealing inside the partial region.

Minimises total half-perimeter wirelength (HPWL) of the inter-cell nets on
the region's CLB grid. Deterministically seeded per design so results are
reproducible. If the design does not fit the region, placement fails — the
Woolcano region is sized for custom-instruction datapaths, not arbitrary
logic.

Each move is costed incrementally with the bounding-box update of Betz &
Rose, "VPR: A New Packing, Placement and Routing Tool for FPGA Research"
(FPL 1997). Invariant: between moves, every net's cached box
``(x0, x1, y0, y1)`` is the bounding box of its cells' current
coordinates and its cached cost is the box's half-perimeter, so the
total is the sum of the cached costs. A move to an empty site grows the
cell's boxes in O(1) per axis and recomputes an axis in full only when
the cell leaves an edge it sat on; a swap recomputes the nets of either
cell but not of both. HPWL is an integer, so the incremental deltas, and
with them every accept/reject decision and the RNG draw sequence, equal
those of a full recompute.

Stands in for the placement half of the paper's ``par`` stage, whose
runtime share Table III and Section V-C quantify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from repro.fpga.device import PartialRegion
from repro.fpga.techmap import MappedDesign
from repro.util.rng import DeterministicRng


class PlacementError(Exception):
    """Raised when a design cannot be placed in the region."""


@dataclass
class Placement:
    """Result of placement: cell index -> (col, row) plus quality metrics."""

    locations: dict[int, tuple[int, int]]
    initial_wirelength: float
    final_wirelength: float
    moves_attempted: int
    moves_accepted: int

    @property
    def improvement(self) -> float:
        if self.initial_wirelength <= 0:
            return 0.0
        return 1.0 - self.final_wirelength / self.initial_wirelength


@dataclass
class Placer:
    """Simulated-annealing placer.

    ``moves_per_cell`` bounds the annealing effort; the default is sized so
    the largest candidate datapaths place in well under a second while still
    achieving a measurable wirelength improvement (asserted by tests).
    """

    moves_per_cell: int = 40
    initial_temperature_factor: float = 0.5
    seed: int = 0

    def place(self, design: MappedDesign, region: PartialRegion) -> Placement:
        cells = design.cells
        n_cells = len(cells)
        if n_cells == 0:
            return Placement({}, 0.0, 0.0, 0, 0)
        if n_cells > region.cell_capacity:
            raise PlacementError(
                f"design needs {n_cells} cells, region holds "
                f"{region.cell_capacity}"
            )
        gen = DeterministicRng(
            f"placer/{n_cells}/{len(design.nets)}", self.seed
        ).generator
        integers = gen.integers
        random = gen.random

        # Sites are numbered row-major, cells_per_clb to a CLB.
        cols = region.cols
        per_site = region.cells_per_clb
        sites = cols * region.rows * per_site
        site_x = [(s // per_site) % cols for s in range(sites)]
        site_y = [(s // per_site) // cols for s in range(sites)]

        # Cells are addressed by their position p in design.cells. Initial
        # placement: row-major packing, cell p on site p.
        site_of = list(range(n_cells))
        cell_at_site = site_of + [-1] * (sites - n_cells)
        xs = site_x[:n_cells]
        ys = site_y[:n_cells]

        # Each net's distinct members as one itemgetter over xs or ys (the
        # first member is listed twice, so a one-cell net still yields a
        # tuple), and each cell's nets, every net once.
        pos_of = {cell.index: p for p, cell in enumerate(cells)}
        members_of: list[itemgetter] = []
        nets_of: list[list[int]] = [[] for _ in range(n_cells)]
        for ni, net in enumerate(design.nets):
            members = list(dict.fromkeys(pos_of[c] for c in net))
            for p in members:
                nets_of[p].append(ni)
            members_of.append(itemgetter(*members, *members[:1]))

        # The cached boxes (x0, x1, y0, y1) and costs of every net.
        box: list[tuple[int, int, int, int]] = []
        cost: list[int] = []
        for get in members_of:
            mx, my = get(xs), get(ys)
            x0, x1, y0, y1 = min(mx), max(mx), min(my), max(my)
            box.append((x0, x1, y0, y1))
            cost.append(x1 - x0 + y1 - y0)
        total = sum(cost)
        initial = total

        anneal_moves = self.moves_per_cell * n_cells
        greedy_moves = anneal_moves // 2  # final zero-temperature refinement
        n_moves = anneal_moves + greedy_moves
        temperature = max(1.0, self.initial_temperature_factor * math.sqrt(total + 1))
        cooling = 0.95 ** (1.0 / max(1, anneal_moves // 100))
        accepted = 0
        exp = math.exp

        for move_no in range(n_moves):
            p = int(integers(0, n_cells))
            old_site = site_of[p]
            new_site = int(integers(0, sites))
            if new_site == old_site:
                continue
            q = cell_at_site[new_site]
            ox, oy = xs[p], ys[p]
            nx, ny = site_x[new_site], site_y[new_site]
            xs[p], ys[p] = nx, ny
            delta = 0
            changed = []
            if q < 0:
                # Move to an empty site: per axis, grow the box in O(1)
                # unless the cell leaves an edge it sat on.
                for ni in nets_of[p]:
                    x0, x1, y0, y1 = box[ni]
                    if (ox == x0 and nx > x0) or (ox == x1 and nx < x1):
                        mx = members_of[ni](xs)
                        x0, x1 = min(mx), max(mx)
                    elif nx < x0:
                        x0 = nx
                    elif nx > x1:
                        x1 = nx
                    if (oy == y0 and ny > y0) or (oy == y1 and ny < y1):
                        my = members_of[ni](ys)
                        y0, y1 = min(my), max(my)
                    elif ny < y0:
                        y0 = ny
                    elif ny > y1:
                        y1 = ny
                    c = x1 - x0 + y1 - y0
                    delta += c - cost[ni]
                    changed.append((ni, x0, x1, y0, y1, c))
            else:
                # Swap: a net holding both cells keeps its box.
                xs[q], ys[q] = ox, oy
                for ni in set(nets_of[p]).symmetric_difference(nets_of[q]):
                    get = members_of[ni]
                    mx, my = get(xs), get(ys)
                    x0, x1, y0, y1 = min(mx), max(mx), min(my), max(my)
                    c = x1 - x0 + y1 - y0
                    delta += c - cost[ni]
                    changed.append((ni, x0, x1, y0, y1, c))
            if delta <= 0 or (
                move_no < anneal_moves and random() < exp(-delta / temperature)
            ):
                for ni, x0, x1, y0, y1, c in changed:
                    box[ni] = (x0, x1, y0, y1)
                    cost[ni] = c
                site_of[p] = new_site
                cell_at_site[new_site] = p
                if q < 0:
                    cell_at_site[old_site] = -1
                else:
                    site_of[q] = old_site
                    cell_at_site[old_site] = q
                total += delta
                accepted += 1
            else:
                xs[p], ys[p] = ox, oy
                if q >= 0:
                    xs[q], ys[q] = nx, ny
            temperature = max(0.01, temperature * cooling)

        locations = {cell.index: (xs[p], ys[p]) for p, cell in enumerate(cells)}
        return Placement(
            locations=locations,
            initial_wirelength=float(initial),
            final_wirelength=float(total),
            moves_attempted=n_moves,
            moves_accepted=accepted,
        )
