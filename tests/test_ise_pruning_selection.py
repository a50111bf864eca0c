"""Tests for pruning filters and the candidate-search pipeline."""

import pytest

from repro.ise import CandidateSearch, parse_filter_spec
from repro.ise.pruning import NO_PRUNING, PruningFilter
from repro.ise.maxmiso import MaxMisoIdentifier
from repro.ise.singlecut import SingleCutIdentifier
from repro.vm.profiler import static_block_costs


class TestFilterSpec:
    def test_parse_paper_spec(self):
        f = parse_filter_spec("@50pS3L")
        assert f.time_share_pct == 50.0
        assert f.max_blocks == 3
        assert f.spec == "@50pS3L"

    @pytest.mark.parametrize("spec", ["@0pS3L", "@101pS3L", "@50pS0L", "50pS3L", "@50p3L"])
    def test_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            parse_filter_spec(spec)

    def test_round_trip(self):
        for spec in ("@25pS1L", "@90pS5L"):
            assert parse_filter_spec(spec).spec == spec


class TestBlockSelection:
    def test_selects_hottest_blocks(self, fp_kernel_profile):
        module, profile, _ = fp_kernel_profile
        costs = static_block_costs(module, PruningFilter().cost_model)
        selected = PruningFilter().select_blocks(module, profile, costs)
        assert 1 <= len(selected) <= 3
        shares = profile.block_time_shares(costs)
        hottest = max(shares, key=shares.get)
        assert hottest in selected

    def test_block_budget_respected(self, fp_kernel_profile):
        module, profile, _ = fp_kernel_profile
        f = PruningFilter(time_share_pct=99.0, max_blocks=2)
        costs = static_block_costs(module, f.cost_model)
        assert len(f.select_blocks(module, profile, costs)) <= 2

    def test_no_pruning_selects_all_executed_blocks(self, fp_kernel_profile):
        module, profile, _ = fp_kernel_profile
        costs = static_block_costs(module, NO_PRUNING.cost_model)
        selected = NO_PRUNING.select_blocks(module, profile, costs)
        executed = {k for k, p in profile.blocks.items() if p.count > 0}
        shares = profile.block_time_shares(costs)
        nonzero = {k for k, s in shares.items() if s > 0}
        assert set(selected) == nonzero

    def test_monotone_in_share(self, fp_kernel_profile):
        module, profile, _ = fp_kernel_profile
        small = PruningFilter(time_share_pct=10.0, max_blocks=1)
        large = PruningFilter(time_share_pct=95.0, max_blocks=100)
        costs = static_block_costs(module, small.cost_model)
        assert len(small.select_blocks(module, profile, costs)) <= len(
            large.select_blocks(module, profile, costs)
        )


class TestCandidateSearch:
    def test_search_returns_profitable_candidates(self, fp_kernel_profile):
        module, profile, _ = fp_kernel_profile
        result = CandidateSearch().run(module, profile)
        assert result.candidate_count >= 1
        for est in result.selected:
            assert est.cycles_saved > 0 or result.candidate_count <= 5

    def test_search_time_measured(self, fp_kernel_profile):
        module, profile, _ = fp_kernel_profile
        result = CandidateSearch().run(module, profile)
        assert 0 < result.search_seconds < 10.0

    def test_pruned_instructions_counted(self, fp_kernel_profile):
        module, profile, _ = fp_kernel_profile
        result = CandidateSearch().run(module, profile)
        assert result.pruned_block_instructions > 0

    def test_selection_ordered_by_total_savings(self, fp_kernel_profile):
        module, profile, _ = fp_kernel_profile
        result = CandidateSearch().run(module, profile)
        totals = [
            est.cycles_saved
            * profile.count_of(est.candidate.function, est.candidate.block)
            for est in result.selected
        ]
        assert totals == sorted(totals, reverse=True)

    def test_no_pruning_finds_superset(self, fp_kernel_profile):
        module, profile, _ = fp_kernel_profile
        pruned = CandidateSearch().run(module, profile)
        full = CandidateSearch(
            pruning=NO_PRUNING, min_total_cycles_saved=0.0
        ).run(module, profile)
        assert full.identified_count >= pruned.identified_count

    def test_alternative_identifier_pluggable(self, fp_kernel_profile):
        module, profile, _ = fp_kernel_profile
        result = CandidateSearch(
            identifier=SingleCutIdentifier(search_budget=2000)
        ).run(module, profile)
        for est in result.selected:
            assert est.candidate.size >= 2

    def test_fallback_when_nothing_profitable(self, fp_kernel_profile):
        module, profile, _ = fp_kernel_profile
        # an absurd threshold rejects everything profitable; fallback kicks in
        result = CandidateSearch(min_total_cycles_saved=1e18).run(module, profile)
        assert 0 < result.candidate_count <= 5

    def test_avg_candidate_size(self, fp_kernel_profile):
        module, profile, _ = fp_kernel_profile
        result = CandidateSearch().run(module, profile)
        assert result.avg_candidate_size >= 2.0
