"""Differential tests of the dataflow graph against plain references.

:class:`repro.ir.dfg.DataFlowGraph` relies on SSA program order being a
topological order: it walks the block body instead of sorting it, and its
adjacency lists are built in one forward pass. Here every block of the
embedded apps is checked against references that assume nothing about
program order: adjacency rebuilt from all operands, a heap-based Kahn sort
over the induced subgraph, and longest paths and convexity decided by
brute force over small node subsets.
"""

from __future__ import annotations

import heapq
import itertools
import random
import subprocess
import sys
from functools import lru_cache

import pytest

from repro.apps import get_app
from repro.apps.base import compile_app
from repro.ir import DataFlowGraph
from repro.ir.instructions import Instruction

EMBEDDED = ("adpcm", "fft", "sor", "whetstone")


@lru_cache(maxsize=len(EMBEDDED))
def app_blocks(app: str) -> list:
    module = compile_app(get_app(app)).module
    return [
        block for func in module.defined_functions() for block in func.blocks
    ]


def reference_adjacency(dfg: DataFlowGraph):
    """(successors, predecessors) keyed by id(): one edge per distinct
    (operand, consumer) pair over the whole body, in first-edge order."""
    body = dfg.nodes
    body_ids = {id(n) for n in body}
    succs: dict[int, list[Instruction]] = {id(n): [] for n in body}
    preds: dict[int, list[Instruction]] = {id(n): [] for n in body}
    for instr in body:
        for op in instr.operands:
            if isinstance(op, Instruction) and id(op) in body_ids:
                if not any(s is instr for s in succs[id(op)]):
                    succs[id(op)].append(instr)
                    preds[id(instr)].append(op)
    return succs, preds


def reference_topological_order(dfg, succs, preds, nodes) -> list:
    """Kahn's algorithm over the induced subgraph, smallest program rank
    first among the ready nodes."""
    rank = {id(n): i for i, n in enumerate(dfg.nodes)}
    ids = {id(n) for n in nodes}
    indeg = {i: sum(1 for p in preds[i] if id(p) in ids) for i in ids}
    by_id = {id(n): n for n in nodes}
    heap = [(rank[i], i) for i in ids if indeg[i] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        _, i = heapq.heappop(heap)
        out.append(by_id[i])
        for succ in succs[i]:
            if id(succ) in ids:
                indeg[id(succ)] -= 1
                if indeg[id(succ)] == 0:
                    heapq.heappush(heap, (rank[id(succ)], id(succ)))
    assert len(out) == len(ids), "cycle"
    return out


def reference_longest_path(succs, nodes, weight) -> float:
    """Heaviest path in the induced subgraph, by enumerating every path."""
    ids = {id(n) for n in nodes}
    best = 0.0

    def walk(node, total):
        nonlocal best
        total += weight(node)
        best = max(best, total)
        for succ in succs[id(node)]:
            if id(succ) in ids:
                walk(succ, total)

    for node in nodes:
        walk(node, 0.0)
    return best


def reference_reachable(succs, body) -> dict[int, set[int]]:
    """id -> ids reachable by one or more edges."""
    reach: dict[int, set[int]] = {}
    for node in body:
        seen: set[int] = set()
        stack = list(succs[id(node)])
        while stack:
            n = stack.pop()
            if id(n) not in seen:
                seen.add(id(n))
                stack.extend(succs[id(n)])
        reach[id(node)] = seen
    return reach


def reference_convex(reach, body, nodes) -> bool:
    """No outside node lies on a path from one member to another."""
    ids = {id(n) for n in nodes}
    return not any(
        id(out) not in ids
        and any(id(out) in reach[i] for i in ids)
        and reach[id(out)] & ids
        for out in body
    )


def small_subsets(body, rng: random.Random) -> list[list]:
    """Pairs, program-order windows and random picks of 3-6 nodes."""
    pairs = list(itertools.combinations(body, 2))
    if len(pairs) > 300:
        pairs = rng.sample(pairs, 300)
    windows = [
        body[i : i + size]
        for size in (3, 4, 6)
        for i in range(0, max(0, len(body) - size + 1))
    ]
    picks = [
        rng.sample(body, rng.randint(3, min(6, len(body))))
        for _ in range(100 if len(body) >= 3 else 0)
    ]
    return [list(p) for p in pairs] + windows + picks


def weight(instr) -> float:
    # Exact binary fractions: path sums do not round.
    return 0.25 * (1 + len(instr.opcode.value) % 7)


@pytest.mark.parametrize("app", EMBEDDED)
def test_adjacency_matches_reference(app):
    for block in app_blocks(app):
        dfg = DataFlowGraph(block)
        succs, preds = reference_adjacency(dfg)
        for node in dfg.nodes:
            assert [id(s) for s in dfg.successors(node)] == [
                id(s) for s in succs[id(node)]
            ]
            assert [id(p) for p in dfg.predecessors(node)] == [
                id(p) for p in preds[id(node)]
            ]
        assert [(id(a), id(b)) for a, b in dfg.edges()] == [
            (id(n), id(s)) for n in dfg.nodes for s in succs[id(n)]
        ]


@pytest.mark.parametrize("app", EMBEDDED)
def test_topological_order_matches_heap_kahn(app):
    rng = random.Random(app)
    for block in app_blocks(app):
        dfg = DataFlowGraph(block)
        body = dfg.nodes
        succs, preds = reference_adjacency(dfg)
        assert dfg.topological_order() == reference_topological_order(
            dfg, succs, preds, body
        )
        for nodes in small_subsets(body, rng):
            assert dfg.topological_order(set(nodes)) == (
                reference_topological_order(dfg, succs, preds, nodes)
            )


@pytest.mark.parametrize("app", EMBEDDED)
def test_critical_path_matches_brute_force(app):
    rng = random.Random(app)
    for block in app_blocks(app):
        dfg = DataFlowGraph(block)
        succs, _ = reference_adjacency(dfg)
        for nodes in small_subsets(dfg.nodes, rng):
            assert dfg.critical_path_length(set(nodes), weight) == (
                reference_longest_path(succs, nodes, weight)
            )


@pytest.mark.parametrize("app", EMBEDDED)
def test_convexity_matches_brute_force(app):
    rng = random.Random(app)
    verdicts = []
    for block in app_blocks(app):
        dfg = DataFlowGraph(block)
        body = dfg.nodes
        succs, _ = reference_adjacency(dfg)
        reach = reference_reachable(succs, body)
        assert dfg.is_convex(set(body))
        for nodes in small_subsets(body, rng):
            want = reference_convex(reach, body, nodes)
            assert dfg.is_convex(set(nodes)) == want
            verdicts.append(want)
    # The sample exercises both answers.
    assert True in verdicts and False in verdicts


def test_repro_imports_no_graph_library():
    code = (
        "import sys\n"
        "import repro.experiments.runner, repro.serve.server\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
