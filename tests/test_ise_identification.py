"""Tests for DFGs, feasibility and the three identification algorithms."""

import pytest

from repro.frontend import compile_source
from repro.ir import DataFlowGraph
from repro.ir.opcodes import Opcode
from repro.ise import (
    FeasibilityAnalysis,
    MaxMisoIdentifier,
    SingleCutIdentifier,
    UnionMisoIdentifier,
    is_feasible_instruction,
)
from repro.vm import Interpreter


@pytest.fixture
def hot_block(fp_kernel, fp_kernel_profile):
    """The hottest block of the FP kernel (the inner-loop body)."""
    module, profile, _ = fp_kernel_profile
    from repro.vm.costmodel import PPC405_COST_MODEL
    from repro.vm.profiler import static_block_costs

    shares = profile.block_time_shares(static_block_costs(module, PPC405_COST_MODEL))
    key = max(shares, key=shares.get)
    func = module.function(key[0])
    return key[0], func.block_named(key[1])


class TestDataFlowGraph:
    def test_nodes_exclude_phis_and_terminator(self, hot_block):
        fname, block = hot_block
        dfg = DataFlowGraph(block)
        for node in dfg.nodes:
            assert node.opcode is not Opcode.PHI
            assert not node.is_terminator

    def test_edges_follow_def_use(self, hot_block):
        fname, block = hot_block
        dfg = DataFlowGraph(block)
        for src, dst in dfg.edges():
            assert src in dst.operands

    def test_inputs_exclude_constants(self, hot_block):
        from repro.ir.values import Constant

        fname, block = hot_block
        dfg = DataFlowGraph(block)
        nodes = set(dfg.nodes)
        for value in dfg.inputs_of(nodes):
            assert not isinstance(value, Constant)

    def test_whole_body_convex(self, hot_block):
        fname, block = hot_block
        dfg = DataFlowGraph(block)
        assert dfg.is_convex(set(dfg.nodes))

    def test_nonconvex_detected(self):
        src = """
int main() {
    int a = dataset_size();
    int b = a * 3;        // n1
    int c = b + 7;        // n2 (uses n1)
    int d = b * c;        // n3 (uses n1 and n2)
    return d;
}
"""
        module = compile_source(src, "cvx").module
        func = module.function("main")
        block = func.blocks[0]
        dfg = DataFlowGraph(block)
        muls = [n for n in dfg.nodes if n.opcode is Opcode.MUL]
        adds = [n for n in dfg.nodes if n.opcode is Opcode.ADD]
        assert len(muls) == 2 and len(adds) == 1
        # {b*3, b*c} without the add in between is non-convex
        assert not dfg.is_convex(set(muls))
        assert dfg.is_convex(set(muls) | set(adds))

    def test_topological_order_respects_deps(self, hot_block):
        fname, block = hot_block
        dfg = DataFlowGraph(block)
        order = dfg.topological_order()
        pos = {id(n): i for i, n in enumerate(order)}
        for src, dst in dfg.edges():
            assert pos[id(src)] < pos[id(dst)]

    def test_critical_path_positive_monotone(self, hot_block):
        fname, block = hot_block
        dfg = DataFlowGraph(block)
        nodes = set(dfg.nodes)
        cp1 = dfg.critical_path_length(nodes, lambda i: 1.0)
        cp2 = dfg.critical_path_length(nodes, lambda i: 2.0)
        assert cp2 == pytest.approx(2 * cp1)
        assert cp1 >= 1.0


class TestFeasibility:
    def test_memory_and_control_infeasible(self, hot_block):
        fname, block = hot_block
        analysis = FeasibilityAnalysis.of_block(block)
        for instr in analysis.infeasible:
            assert instr.opcode in (
                Opcode.LOAD,
                Opcode.STORE,
                Opcode.GEP,
                Opcode.CALL,
                Opcode.PHI,
                Opcode.BR,
                Opcode.CONDBR,
                Opcode.RET,
                Opcode.ALLOCA,
            ) or not is_feasible_instruction(instr)
        # GEP is actually feasible (pure address arithmetic)
        assert all(
            i.opcode is not Opcode.LOAD for i in analysis.feasible
        )

    def test_arithmetic_feasible(self, hot_block):
        fname, block = hot_block
        analysis = FeasibilityAnalysis.of_block(block)
        feasible_ops = {i.opcode for i in analysis.feasible}
        assert Opcode.FMUL in feasible_ops or Opcode.FADD in feasible_ops

    def test_fraction_in_range(self, hot_block):
        fname, block = hot_block
        analysis = FeasibilityAnalysis.of_block(block)
        assert 0.0 < analysis.feasible_fraction < 1.0


def _check_candidates(candidates, dfg_required=True):
    for cand in candidates:
        # feasibility
        assert all(is_feasible_instruction(n) for n in cand.nodes)
        # convexity
        assert cand.dfg.is_convex(set(cand.nodes))
        assert cand.size >= 2


class TestMaxMiso:
    def test_candidates_single_output(self, hot_block):
        fname, block = hot_block
        candidates = MaxMisoIdentifier().identify_block(fname, block)
        assert candidates
        _check_candidates(candidates)
        for cand in candidates:
            assert len(cand.outputs) == 1

    def test_candidates_disjoint(self, hot_block):
        fname, block = hot_block
        candidates = MaxMisoIdentifier(min_size=1).identify_block(fname, block)
        seen = set()
        for cand in candidates:
            for node in cand.nodes:
                assert id(node) not in seen
                seen.add(id(node))

    def test_partition_covers_feasible_nodes(self, hot_block):
        fname, block = hot_block
        candidates = MaxMisoIdentifier(min_size=1).identify_block(fname, block)
        covered = {id(n) for c in candidates for n in c.nodes}
        analysis = FeasibilityAnalysis.of_block(block)
        assert covered == {id(n) for n in analysis.feasible}

    def test_min_size_respected(self, hot_block):
        fname, block = hot_block
        for cand in MaxMisoIdentifier(min_size=3).identify_block(fname, block):
            assert cand.size >= 3

    def test_deterministic(self, hot_block):
        fname, block = hot_block
        c1 = MaxMisoIdentifier().identify_block(fname, block)
        c2 = MaxMisoIdentifier().identify_block(fname, block)
        assert [c.signature for c in c1] == [c.signature for c in c2]


class TestSingleCut:
    def test_io_constraints_respected(self, hot_block):
        fname, block = hot_block
        ident = SingleCutIdentifier(max_inputs=3, max_outputs=1)
        for cand in ident.identify_block(fname, block):
            assert len(cand.inputs) <= 3
            assert len(cand.outputs) <= 1
            assert cand.dfg.is_convex(set(cand.nodes))

    def test_non_overlapping_cover(self, hot_block):
        fname, block = hot_block
        candidates = SingleCutIdentifier().identify_block(fname, block)
        seen = set()
        for cand in candidates:
            for node in cand.nodes:
                assert id(node) not in seen
                seen.add(id(node))

    def test_budget_bounds_search(self, hot_block):
        fname, block = hot_block
        small = SingleCutIdentifier(search_budget=50)
        # must terminate quickly and still be valid
        candidates = small.identify_block(fname, block)
        _check_candidates(candidates) if candidates else None


class TestUnionMiso:
    def test_respects_io_limits(self, hot_block):
        fname, block = hot_block
        ident = UnionMisoIdentifier(max_inputs=4, max_outputs=2)
        for cand in ident.identify_block(fname, block):
            assert len(cand.inputs) <= 4
            assert len(cand.outputs) <= 2
            assert cand.dfg.is_convex(set(cand.nodes))

    def test_merging_reduces_or_keeps_candidate_count(self, hot_block):
        fname, block = hot_block
        base = MaxMisoIdentifier(min_size=1).identify_block(fname, block)
        merged = UnionMisoIdentifier(min_size=1).identify_block(fname, block)
        assert len(merged) <= len(base)


class TestSignature:
    def test_structurally_equal_candidates_share_signature(self):
        # Two functions with structurally identical expression trees (CSE
        # cannot merge across functions); their candidates must map to the
        # same bitstream-cache signature.
        src = """
double f(double a, double b) { return (a + b) * 2.0 - b; }
double g(double x, double y) { return (x + y) * 2.0 - y; }
int main() {
    double a = (double)dataset_size();
    print_f64(f(a, 1.0) + g(a, 2.0));
    return 0;
}
"""
        from repro.frontend.compiler import compile_source as cs

        module = cs(src, "sig", opt_level=1).module  # no inlining at O1
        cands = []
        for fname in ("f", "g"):
            func = module.function(fname)
            for block in func.blocks:
                cands += MaxMisoIdentifier().identify_block(
                    fname, block, len(cands)
                )
        sigs = [c.signature for c in cands]
        assert len(sigs) == 2
        assert sigs[0] == sigs[1]

    def test_different_shapes_different_signature(self):
        src = """
double f(double a, double b) { return (a + b) * 2.0 - b; }
double g(double x, double y) { return (x - y) * 2.0 + y; }
int main() {
    double a = (double)dataset_size();
    print_f64(f(a, 1.0) + g(a, 2.0));
    return 0;
}
"""
        from repro.frontend.compiler import compile_source as cs

        module = cs(src, "sig2", opt_level=1).module
        cands = []
        for fname in ("f", "g"):
            func = module.function(fname)
            for block in func.blocks:
                cands += MaxMisoIdentifier().identify_block(
                    fname, block, len(cands)
                )
        assert len(cands) == 2
        assert cands[0].signature != cands[1].signature
