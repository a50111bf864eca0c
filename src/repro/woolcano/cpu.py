"""The PowerPC-405 base CPU of the Woolcano architecture.

The hard processor core of the Woolcano architecture the paper
targets; its cycle cost model produces the software runtimes behind
Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.vm.costmodel import CostModel, PPC405_COST_MODEL


@dataclass(frozen=True)
class PowerPC405:
    """The hard PPC405 block of a Virtex-4 FX device.

    A 5-stage in-order scalar core without an FPU; floating point is
    software-emulated, which the cost model encodes.
    """

    clock_hz: float = 300e6
    cost_model: CostModel = field(default_factory=lambda: PPC405_COST_MODEL)

    def seconds_for_cycles(self, cycles: float) -> float:
        return cycles / self.clock_hz
