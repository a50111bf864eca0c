"""Tests for the slot-constrained speedup model (ablation A4 support)."""

import pytest

from repro.ise import CandidateSearch
from repro.ise.pruning import NO_PRUNING
from repro.vm.profiler import static_block_costs
from repro.woolcano import CustomInstructionSlots, WoolcanoMachine


@pytest.fixture(scope="module")
def machine_setup():
    from repro.frontend import compile_source
    from repro.vm import Interpreter

    src = """
double a[64]; double b[64]; double c[64]; double d[64];
int main() {
    for (int i = 0; i < 64; i++) { a[i] = 0.01 * (double)i; b[i] = 2.0; }
    double s = 0.0;
    for (int it = 0; it < 10; it++)
        for (int i = 1; i < 63; i++) {
            c[i] = a[i] * b[i] + a[i - 1] * 0.5;
            d[i] = b[i] / 3.0 - a[i + 1] * 0.25;
            s += c[i] * d[i] + (c[i] - d[i]) * 0.125;
        }
    print_f64(s);
    return 0;
}
"""
    module = compile_source(src, "slots").module
    profile = Interpreter(module).run("main").profile
    search = CandidateSearch(pruning=NO_PRUNING).run(module, profile)
    costs = static_block_costs(module, WoolcanoMachine().cost_model)
    return costs, profile, search


class TestSlotConstrainedSpeedup:
    def test_zero_slots_no_speedup(self, machine_setup):
        costs, profile, search = machine_setup
        machine = WoolcanoMachine()
        sp = machine.speedup_with_slots(costs, profile, search.selected, 0)
        assert sp.ratio == pytest.approx(1.0)

    def test_monotone_in_capacity(self, machine_setup):
        costs, profile, search = machine_setup
        machine = WoolcanoMachine()
        ratios = [
            machine.speedup_with_slots(costs, profile, search.selected, c).ratio
            for c in range(0, len(search.selected) + 2)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))

    def test_enough_slots_equals_unconstrained(self, machine_setup):
        costs, profile, search = machine_setup
        machine = WoolcanoMachine()
        constrained = machine.speedup_with_slots(
            costs, profile, search.selected, len(search.selected)
        )
        unconstrained = machine.speedup(costs, profile, search.selected)
        assert constrained.ratio == pytest.approx(unconstrained.ratio)

    def test_top_candidate_chosen_first(self, machine_setup):
        costs, profile, search = machine_setup
        machine = WoolcanoMachine()
        one = machine.speedup_with_slots(costs, profile, search.selected, 1)
        # one slot must give at least as much as any single candidate alone
        singles = [
            machine.speedup(costs, profile, [est]).ratio
            for est in search.selected
        ]
        assert one.ratio == pytest.approx(max(singles), rel=1e-9)

    def test_default_capacity_from_machine_slots(self, machine_setup):
        costs, profile, search = machine_setup
        machine = WoolcanoMachine(slots=CustomInstructionSlots(capacity=1))
        default = machine.speedup_with_slots(costs, profile, search.selected)
        explicit = machine.speedup_with_slots(costs, profile, search.selected, 1)
        assert default.ratio == explicit.ratio

    def test_negative_capacity_rejected(self, machine_setup):
        costs, profile, search = machine_setup
        machine = WoolcanoMachine()
        with pytest.raises(ValueError):
            machine.speedup_with_slots(costs, profile, search.selected, -1)


def _bitstream(n: int):
    from repro.fpga.bitgen import PartialBitstream

    return PartialBitstream(
        entity=f"ci_{n}",
        data=b"\xaa\x99\x55\x66" + bytes([n % 256]) * 16,
        frame_count=4,
        column_count=1,
        nominal_size_bytes=3_000_000,
    )


class TestSlotErrorPaths:
    """Error semantics of the contention-aware slot pool."""

    def test_touch_non_resident_message(self):
        from repro.woolcano import SlotError

        slots = CustomInstructionSlots(capacity=2)
        with pytest.raises(SlotError) as exc:
            slots.touch(7)
        assert "custom instruction #7 is not loaded" in str(exc.value)

    def test_no_slots_machine_rejected(self):
        from repro.woolcano import SlotError

        slots = CustomInstructionSlots(capacity=0)
        with pytest.raises(SlotError) as exc:
            slots.load(0, 1, _bitstream(0))
        assert "no custom instruction slots" in str(exc.value)


class TestEvictionPolicies:
    def test_reload_accounting(self):
        slots = CustomInstructionSlots(capacity=1)
        slots.load(0, 1, _bitstream(0))
        slots.load(1, 2, _bitstream(1))  # evicts 0
        assert slots.was_evicted(0)
        slots.load(0, 1, _bitstream(0))  # reload of 0
        assert slots.reloads == 1
        assert slots.loads == 3
        assert slots.evictions == 2

    def test_stats_shape(self):
        slots = CustomInstructionSlots(capacity=2)
        slots.load(0, 1, _bitstream(0), owner="fft")
        stats = slots.stats()
        assert stats["capacity"] == 2
        assert stats["resident"] == 1
        assert stats["occupancy_pct"] == 50.0
        assert stats["eviction_rate"] == 0.0

    def test_slot_indices_are_reused(self):
        # The physical slot index freed by an eviction hosts the next
        # load, so occupancy timelines reconstruct per physical slot.
        slots = CustomInstructionSlots(capacity=2)
        slots.load(0, 1, _bitstream(0))
        slots.load(1, 2, _bitstream(1))
        first_index = slots._slots[0].slot_index
        evicted = slots.load(2, 3, _bitstream(2))  # 0 is least recent
        assert evicted.custom_id == 0
        assert slots._slots[2].slot_index == first_index
