"""The Woolcano machine: CPU + custom instructions, and speedup accounting.

Central entry point: :meth:`WoolcanoMachine.speedup` computes the ASIP
ratio of Table I / Table II — the factor by which a profiled application
accelerates when a set of candidates is implemented as custom instructions.
The computation re-costs each basic block: instructions covered by a
candidate are replaced by the candidate's FCB-transfer + datapath cycles.
It reads the module only as its static block-cost table, which the caller
prices once (:func:`repro.vm.profiler.static_block_costs`) and shares with
the pruning filter and the break-even model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.ir.opcodes import Opcode
from repro.pivpav.estimator import CandidateEstimate
from repro.vm.costmodel import CostModel, PPC405_COST_MODEL
from repro.vm.profiler import BlockKey, ExecutionProfile
from repro.woolcano.cpu import PowerPC405
from repro.woolcano.slots import CustomInstructionSlots


@dataclass(frozen=True)
class WoolcanoCostModel(CostModel):
    """Cost model that additionally prices CUSTOM instructions.

    ``custom_costs`` maps ``custom_id`` to total cycles per execution
    (datapath latency + FCB transfers), as estimated by PivPav or measured
    after place-and-route.
    """

    custom_costs: dict = field(default_factory=dict)

    def cycles_for(self, instr) -> float:  # type: ignore[override]
        if instr.opcode is Opcode.CUSTOM:
            try:
                return float(self.custom_costs[instr.custom_id])
            except KeyError:
                raise KeyError(
                    f"no cost registered for custom instruction "
                    f"#{instr.custom_id}"
                ) from None
        return super().cycles_for(instr)


@dataclass(frozen=True)
class AsipSpeedup:
    """Speedup summary for one application + candidate set."""

    base_cycles: float
    asip_cycles: float
    implemented: int

    @property
    def ratio(self) -> float:
        if self.asip_cycles <= 0:
            return 1.0
        return self.base_cycles / self.asip_cycles


@dataclass
class WoolcanoMachine:
    """A configured Woolcano instance."""

    cpu: PowerPC405 = field(default_factory=PowerPC405)
    slots: CustomInstructionSlots = field(default_factory=CustomInstructionSlots)

    @property
    def cost_model(self) -> CostModel:
        return self.cpu.cost_model

    def speedup(
        self,
        block_costs: dict[BlockKey, float],
        profile: ExecutionProfile,
        estimates: list[CandidateEstimate],
    ) -> AsipSpeedup:
        """ASIP speedup with *estimates*' candidates moved to hardware.

        *block_costs* is ``static_block_costs(module, self.cost_model)`` of
        the unpatched profiled module. Uses the what-if re-costing
        approach: no re-execution needed; the profile's block counts stay
        valid because candidates replace straight-line instruction groups
        inside existing blocks.
        """
        # Savings per block: sum over candidates in that block. A candidate
        # whose hardware is slower than software is implemented but never
        # issued (the patched binary keeps the software path), so negative
        # savings clamp to zero — matching the paper's ratio-1.00 rows that
        # still list many implemented candidates.
        saved_per_block: dict[BlockKey, float] = {}
        for est in estimates:
            key = (est.candidate.function, est.candidate.block)
            saved_per_block[key] = saved_per_block.get(key, 0.0) + max(
                0.0, est.sw_cycles - est.hw_cycles
            )

        base = 0.0
        asip = 0.0
        for key, prof in profile.blocks.items():
            cost = block_costs.get(key)
            if cost is None or prof.count == 0:
                continue
            base += prof.count * cost
            new_cost = cost - saved_per_block.get(key, 0.0)
            # A block cannot cost less than its remaining infeasible part;
            # the estimator guarantees saved <= block cost, but guard anyway.
            asip += prof.count * max(1.0, new_cost)
        return AsipSpeedup(
            base_cycles=base,
            asip_cycles=asip,
            implemented=len(estimates),
        )

    def speedup_with_slots(
        self,
        block_costs: dict[BlockKey, float],
        profile: ExecutionProfile,
        estimates: list[CandidateEstimate],
        capacity: int | None = None,
    ) -> AsipSpeedup:
        """ASIP speedup under a UDI slot budget.

        The APU decodes a finite number of user-defined instruction opcodes
        (``self.slots.capacity`` by default). When an application has more
        candidates than slots, the runtime pins the ``capacity`` most
        valuable ones (by total cycles saved over the profiled run) and
        leaves the rest in software — cycling configurations per invocation
        would cost milliseconds of reconfiguration against nanoseconds of
        savings.
        """
        if capacity is None:
            capacity = self.slots.capacity
        if capacity < 0:
            raise ValueError("slot capacity must be non-negative")
        ranked = sorted(
            estimates,
            key=lambda e: (
                -max(0.0, e.cycles_saved)
                * profile.count_of(e.candidate.function, e.candidate.block),
                e.candidate.key,
            ),
        )
        return self.speedup(block_costs, profile, ranked[:capacity])

    def seconds(self, cycles: float) -> float:
        return self.cpu.seconds_for_cycles(cycles)
