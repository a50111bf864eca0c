"""Tests for the Woolcano machine model: slots, reconfiguration, speedups."""

import pytest

from repro.fpga.bitgen import PartialBitstream
from repro.ise import CandidateSearch
from repro.ise.pruning import NO_PRUNING
from repro.vm.profiler import static_block_costs
from repro.woolcano import (
    CustomInstructionSlots,
    DEFAULT_FCB,
    IcapModel,
    SlotError,
    WoolcanoMachine,
)


def _bitstream(n: int) -> PartialBitstream:
    return PartialBitstream(
        entity=f"ci_{n}",
        data=b"\xaa\x99\x55\x66" + bytes([n % 256]) * 64,
        frame_count=10,
        column_count=2,
        nominal_size_bytes=3_000_000,
    )


class TestFcb:
    def test_two_operand_one_result_free(self):
        # decode only: a native UDI shape needs no extra transfers
        assert DEFAULT_FCB.transfer_cycles(2, 1) == DEFAULT_FCB.decode_cycles

    def test_extra_inputs_cost_transfers(self):
        base = DEFAULT_FCB.transfer_cycles(2, 1)
        assert DEFAULT_FCB.transfer_cycles(4, 1) == base + 1
        assert DEFAULT_FCB.transfer_cycles(6, 1) == base + 2

    def test_extra_outputs_cost_transfers(self):
        base = DEFAULT_FCB.transfer_cycles(2, 1)
        assert DEFAULT_FCB.transfer_cycles(2, 3) == base + 2

    def test_monotone(self):
        prev = 0
        for n_in in range(1, 10):
            cur = DEFAULT_FCB.transfer_cycles(n_in, 1)
            assert cur >= prev
            prev = cur


class TestSlots:
    def test_load_and_residency(self):
        slots = CustomInstructionSlots(capacity=2)
        slots.load(0, 111, _bitstream(0))
        slots.load(1, 222, _bitstream(1))
        assert slots.resident == [0, 1]
        assert slots.free_slots == 0

    def test_lru_eviction(self):
        slots = CustomInstructionSlots(capacity=2)
        slots.load(0, 1, _bitstream(0))
        slots.load(1, 2, _bitstream(1))
        slots.touch(0)  # 1 becomes LRU
        evicted = slots.load(2, 3, _bitstream(2))
        assert evicted is not None and evicted.custom_id == 1
        assert slots.resident == [0, 2]
        assert slots.evictions == 1

    def test_reload_resident_is_noop(self):
        slots = CustomInstructionSlots(capacity=2)
        slots.load(0, 1, _bitstream(0))
        assert slots.load(0, 1, _bitstream(0)) is None
        assert slots.loads == 1

    def test_touch_missing_raises(self):
        slots = CustomInstructionSlots(capacity=2)
        with pytest.raises(SlotError):
            slots.touch(9)

    def test_zero_capacity_rejected(self):
        slots = CustomInstructionSlots(capacity=0)
        with pytest.raises(SlotError):
            slots.load(0, 1, _bitstream(0))


class TestIcap:
    def test_reconfiguration_time_scales_with_size(self):
        icap = IcapModel()
        small = icap.reconfigure(0, _bitstream(0))
        big = PartialBitstream("x", b"\x00" * 10, 10, 2, 30_000_000)
        assert icap.reconfigure(1, big).seconds > small.seconds

    def test_milliseconds_scale(self):
        # a ~3.4 MB partial bitstream through ICAP takes milliseconds,
        # negligible next to the CAD flow (paper Section V)
        icap = IcapModel()
        ev = icap.reconfigure(0, _bitstream(0))
        assert 0.001 < ev.seconds < 0.1


class TestSpeedup:
    def test_fp_kernel_speedup_above_one(self, fp_kernel_profile):
        module, profile, _ = fp_kernel_profile
        search = CandidateSearch(pruning=NO_PRUNING).run(module, profile)
        machine = WoolcanoMachine()
        costs = static_block_costs(module, machine.cost_model)
        sp = machine.speedup(costs, profile, search.selected)
        assert sp.ratio > 1.2
        assert sp.base_cycles > sp.asip_cycles

    def test_no_candidates_ratio_one(self, fp_kernel_profile):
        module, profile, _ = fp_kernel_profile
        machine = WoolcanoMachine()
        costs = static_block_costs(module, machine.cost_model)
        sp = machine.speedup(costs, profile, [])
        assert sp.ratio == pytest.approx(1.0)

    def test_negative_saving_clamped(self, fp_kernel_profile):
        # Even a deliberately unprofitable estimate cannot slow the machine
        # down: the patched binary keeps the software path.
        import dataclasses

        module, profile, _ = fp_kernel_profile
        search = CandidateSearch(pruning=NO_PRUNING).run(module, profile)
        est = search.selected[0]
        bad = dataclasses.replace(est, sw_cycles=1.0, hw_cycles=1000.0)
        machine = WoolcanoMachine()
        costs = static_block_costs(module, machine.cost_model)
        sp = machine.speedup(costs, profile, [bad])
        assert sp.ratio >= 1.0

    def test_more_candidates_at_least_as_fast(self, fp_kernel_profile):
        module, profile, _ = fp_kernel_profile
        search = CandidateSearch(pruning=NO_PRUNING).run(module, profile)
        machine = WoolcanoMachine()
        costs = static_block_costs(module, machine.cost_model)
        one = machine.speedup(costs, profile, search.selected[:1])
        all_ = machine.speedup(costs, profile, search.selected)
        assert all_.ratio >= one.ratio - 1e-9

    def test_woolcano_cost_model_prices_custom(self):
        from repro.ir import I32, IRBuilder, Module
        from repro.ir.instructions import Instruction
        from repro.ir.opcodes import Opcode
        from repro.woolcano.machine import WoolcanoCostModel

        m = Module("t")
        f = m.declare_function("f", I32, [("a", I32)])
        b = IRBuilder(f.add_block("entry"))
        custom = Instruction(Opcode.CUSTOM, I32, [f.args[0]], "c", custom_id=3)
        f.entry.append(custom)
        b.set_block(f.entry)
        b.ret(custom)
        cm = WoolcanoCostModel(custom_costs={3: 7.5})
        assert cm.cycles_for(custom) == 7.5
        with pytest.raises(KeyError):
            WoolcanoCostModel().cycles_for(custom)
