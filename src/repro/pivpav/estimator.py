"""Candidate performance estimation (software vs. hardware).

PivPav's estimation data "represent the performance difference for every
candidate when executed in software or in hardware" (paper, Section III).

- Software cost: sum of the PPC-405 cycle costs of the candidate's
  instructions (what the CPU currently spends per block execution).
- Hardware cost: the candidate datapath's critical-path latency through the
  IP cores, converted to CPU cycles, plus the Fabric Co-processor Bus (FCB)
  transfer overhead: the APU interface moves two operands per transfer
  cycle into the fabric and one result back per cycle, plus fixed decode
  overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.pivpav.database import CircuitDatabase, default_database
from repro.vm.costmodel import CostModel, PPC405_COST_MODEL

if TYPE_CHECKING:  # pragma: no cover - break the pivpav <-> ise import cycle
    from repro.ise.candidate import Candidate

# FCB transfer characteristics come from the Woolcano APU model (the
# authoritative definition lives in repro.woolcano.apu; duplicated here as
# module constants would drift).
def _fcb():
    from repro.woolcano.apu import DEFAULT_FCB

    return DEFAULT_FCB


@dataclass(frozen=True)
class CandidateEstimate:
    """Estimated costs of one candidate (per block execution)."""

    candidate: "Candidate"
    sw_cycles: float
    hw_cycles: float
    hw_latency_ns: float
    luts: int
    flipflops: int
    dsp48: int
    bram: int

    @property
    def cycles_saved(self) -> float:
        return self.sw_cycles - self.hw_cycles

    @property
    def local_speedup(self) -> float:
        return self.sw_cycles / self.hw_cycles if self.hw_cycles > 0 else 1.0

    @property
    def profitable(self) -> bool:
        return self.cycles_saved > 0


@dataclass
class PivPavEstimator:
    """Estimates candidates against a CPU cost model and the circuit DB."""

    cost_model: CostModel = PPC405_COST_MODEL
    database: CircuitDatabase | None = None

    def __post_init__(self) -> None:
        if self.database is None:
            self.database = default_database()

    def estimate(self, candidate: "Candidate") -> CandidateEstimate:
        db = self.database
        assert db is not None
        sw_cycles = sum(self.cost_model.cycles_for(n) for n in candidate.nodes)

        # Each node's IP core, resolved once for latency and resources.
        specs = {id(node): db.record_for(node).spec for node in candidate.nodes}
        latency_ns = candidate.dfg.critical_path_length(
            candidate.nodes, lambda instr: specs[id(instr)].latency_ns
        )
        cycle_ns = 1e9 / self.cost_model.clock_hz
        exec_cycles = math.ceil(latency_ns / cycle_ns) if latency_ns > 0 else 1

        n_in = len(candidate.inputs)
        n_out = len(candidate.outputs)
        transfer_cycles = _fcb().transfer_cycles(n_in, n_out)

        luts = ffs = dsp = bram = 0
        for node in candidate.nodes:
            spec = specs[id(node)]
            luts += spec.luts
            ffs += spec.flipflops
            dsp += spec.dsp48
            bram += spec.bram

        return CandidateEstimate(
            candidate=candidate,
            sw_cycles=float(sw_cycles),
            hw_cycles=float(exec_cycles + transfer_cycles),
            hw_latency_ns=latency_ns,
            luts=luts,
            flipflops=ffs,
            dsp48=dsp,
            bram=bram,
        )
