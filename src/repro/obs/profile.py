"""Hierarchical profiles folded from finished spans.

The raw trace (:mod:`repro.obs.tracer` / :mod:`repro.obs.export`) records
*intervals*; the paper's evidence is *aggregates* — per-stage cost tables
and "where does the time concentrate" statements. This module folds a span
list into a profile tree keyed by the span-name call path, with self time
and total time on both of the pipeline's clocks:

- **real** — measured ``perf_counter`` durations (candidate search);
- **virtual** — the modelled ``virtual_seconds`` attribute (CAD stages);
  a span without the attribute inherits the sum of its children, so parent
  frames like ``cad.implement`` aggregate their stage children and carry
  zero virtual self time.

Outputs: Brendan-Gregg collapsed-stack lines (``a;b;c 1234``, value in
microseconds of *self* time — feed to ``flamegraph.pl`` or speedscope), a
top-N hot-path table, and an indented tree rendering.

Spans absorbed from parallel workers (``repro analyze --jobs N``) can
overlap on the real clock: concurrent siblings then sum to more than
their parent's duration, which would make the parent's self time
negative. Such self time is clamped to zero and the node is flagged
``overlap``, rendered as a ``!`` marker in :meth:`Profile.render` and
:meth:`Profile.hot_table` — the real-clock self times of flagged paths
are not additive wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.obs.export import SpanRecord, _fmt_seconds
from repro.util.tables import Table

CLOCKS = ("real", "virtual")


@dataclass
class ProfileNode:
    """Aggregated timings of one span-name call path."""

    name: str
    path: tuple[str, ...]
    count: int = 0
    total_real: float = 0.0
    self_real: float = 0.0
    total_virtual: float = 0.0
    self_virtual: float = 0.0
    #: True when concurrent children (absorbed from parallel workers)
    #: summed to more than this node's real duration; real self time was
    #: clamped to zero instead of going negative.
    overlap: bool = False
    children: dict[str, "ProfileNode"] = field(default_factory=dict)

    def child(self, name: str) -> "ProfileNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = ProfileNode(name, self.path + (name,))
        return node

    def total(self, clock: str = "real") -> float:
        _check_clock(clock)
        return self.total_real if clock == "real" else self.total_virtual

    def self_time(self, clock: str = "real") -> float:
        _check_clock(clock)
        return self.self_real if clock == "real" else self.self_virtual


def _check_clock(clock: str) -> None:
    if clock not in CLOCKS:
        raise ValueError(f"unknown clock {clock!r}, expected one of {CLOCKS}")


@dataclass
class Profile:
    """A profile tree built from one trace."""

    root: ProfileNode  # synthetic root with path (); holds the real roots

    def nodes(self) -> Iterator[ProfileNode]:
        """All real nodes, depth-first in child insertion order."""

        def walk(node: ProfileNode) -> Iterator[ProfileNode]:
            for child in node.children.values():
                yield child
                yield from walk(child)

        return walk(self.root)

    def total(self, clock: str = "real") -> float:
        _check_clock(clock)
        return sum(c.total(clock) for c in self.root.children.values())

    def self_total(self, clock: str = "real") -> float:
        return sum(n.self_time(clock) for n in self.nodes())

    # -- outputs ---------------------------------------------------------------
    def collapsed(self, clock: str = "real") -> list[str]:
        """Brendan-Gregg collapsed stacks: ``name;name;... <self µs>``.

        One line per call path with non-zero self time on *clock*; values
        are integer microseconds, so per-line rounding loss is < 1 µs and
        per-stage sums match the stage table within rounding.
        """
        _check_clock(clock)
        lines: list[str] = []
        for node in self.nodes():
            value = int(round(node.self_time(clock) * 1e6))
            if value > 0:
                lines.append(";".join(node.path) + f" {value}")
        return lines

    def hot_table(self, clock: str = "real", top: int = 15) -> Table:
        """Top-N call paths by self time on *clock*."""
        _check_clock(clock)
        ranked = sorted(
            self.nodes(), key=lambda n: (-n.self_time(clock), n.path)
        )
        grand_self = self.self_total(clock) or 1.0
        table = Table(
            columns=["path", "count", "self", "total", "self %"],
            title=f"Hot paths ({clock} time)",
        )
        shown = 0.0
        overlap_shown = False
        for node in ranked[: max(0, top)]:
            self_t = node.self_time(clock)
            shown += self_t
            marker = " !" if node.overlap and clock == "real" else ""
            overlap_shown = overlap_shown or bool(marker)
            table.add_row(
                [
                    ";".join(node.path) + marker,
                    node.count,
                    _fmt_seconds(self_t),
                    _fmt_seconds(node.total(clock)),
                    f"{100.0 * self_t / grand_self:.1f}",
                ]
            )
        table.add_footer(
            [
                f"(all {sum(1 for _ in self.nodes())} paths)",
                sum(n.count for n in self.nodes()),
                _fmt_seconds(self.self_total(clock)),
                _fmt_seconds(self.total(clock)),
                f"{100.0 * shown / grand_self:.1f}",
            ]
        )
        if overlap_shown:
            table.add_footer(
                ["! = overlapping children; self clamped", "", "", "", ""]
            )
        return table

    def render(self, clock: str = "real") -> str:
        """Indented tree with count, total, and self time per path."""
        _check_clock(clock)
        lines = [f"profile ({clock} time)"]

        def emit(node: ProfileNode, depth: int) -> None:
            label = ("  " * depth + node.name).ljust(40)
            marker = "  !overlap" if node.overlap and clock == "real" else ""
            lines.append(
                f"{label} x{node.count:<6d} "
                f"total {_fmt_seconds(node.total(clock)):>10s}  "
                f"self {_fmt_seconds(node.self_time(clock)):>10s}{marker}"
            )
            for child in sorted(
                node.children.values(), key=lambda c: -c.total(clock)
            ):
                emit(child, depth + 1)

        for root in sorted(
            self.root.children.values(), key=lambda c: -c.total(clock)
        ):
            emit(root, 0)
        return "\n".join(lines)


def build_profile(records: Sequence[SpanRecord]) -> Profile:
    """Fold a span list into a :class:`Profile`.

    Spans whose parent is missing from the trace (a tracer's partial
    export, e.g. with the run's root span still open) are treated as
    roots.
    """
    ids = {rec.span_id for rec in records}
    children: dict[int | None, list[SpanRecord]] = {}
    for rec in records:
        parent = rec.parent_id if rec.parent_id in ids else None
        children.setdefault(parent, []).append(rec)
    for group in children.values():
        group.sort(key=lambda r: (r.t0, r.span_id))

    # Virtual totals must be computed bottom-up: a span without the
    # virtual_seconds attribute inherits the sum of its children's totals.
    virtual_total: dict[int, float] = {}

    def compute_virtual(rec: SpanRecord) -> float:
        child_sum = sum(
            compute_virtual(c) for c in children.get(rec.span_id, [])
        )
        own = rec.virtual_seconds
        total = own if own is not None else child_sum
        virtual_total[rec.span_id] = total
        return total

    for root in children.get(None, []):
        compute_virtual(root)

    profile_root = ProfileNode("", ())

    def fold(rec: SpanRecord, into: ProfileNode) -> None:
        node = into.child(rec.name)
        kids = children.get(rec.span_id, [])
        child_real = sum(c.duration for c in kids)
        child_virtual = sum(virtual_total[c.span_id] for c in kids)
        node.count += 1
        node.total_real += rec.duration
        if child_real > rec.duration + 1e-9:
            node.overlap = True  # concurrent siblings from parallel workers
        node.self_real += max(0.0, rec.duration - child_real)
        node.total_virtual += virtual_total[rec.span_id]
        node.self_virtual += max(0.0, virtual_total[rec.span_id] - child_virtual)
        for child in kids:
            fold(child, node)

    for root in children.get(None, []):
        fold(root, profile_root)
    return Profile(root=profile_root)
