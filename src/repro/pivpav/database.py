"""The PivPav circuit database.

Maps IP core names to :class:`CoreRecord` objects bundling the core's
specification, its 90+ synthesis metrics and its pre-synthesized netlist.
Everything is generated deterministically at construction, standing in for
the authors' database of actually synthesized cores.

Stands in for the database behind the paper's PivPav tool ([8]), the
source of pre-synthesized cores for the netlist-generation phase of
Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.ir.instructions import Instruction
from repro.pivpav.corelib import CORE_SPECS, CoreSpec, core_name_for
from repro.pivpav.metrics import CoreMetrics, generate_extended_metrics
from repro.pivpav.netlist import Netlist, generate_core_netlist


@dataclass(frozen=True)
class CoreRecord:
    """One database row: spec + metrics + netlist."""

    spec: CoreSpec
    metrics: CoreMetrics
    netlist: Netlist


class CircuitDatabase:
    """In-memory PivPav database with lazily built records."""

    def __init__(self) -> None:
        self._records: dict[str, CoreRecord] = {}

    def record(self, core_name: str) -> CoreRecord:
        rec = self._records.get(core_name)
        if rec is None:
            spec = CORE_SPECS.get(core_name)
            if spec is None:
                raise KeyError(f"unknown IP core {core_name!r}")
            metrics = _build_metrics(spec)
            netlist = generate_core_netlist(
                spec.name, spec.luts, spec.flipflops, spec.dsp48, spec.bram
            )
            rec = CoreRecord(spec=spec, metrics=metrics, netlist=netlist)
            self._records[core_name] = rec
        return rec

    def record_for(self, instr: Instruction) -> CoreRecord:
        return self.record(core_name_for(instr))

    @property
    def core_names(self) -> list[str]:
        return sorted(CORE_SPECS)

    def __len__(self) -> int:
        return len(CORE_SPECS)


def _build_metrics(spec: CoreSpec) -> CoreMetrics:
    slices = max(1, (spec.luts + spec.flipflops) // 2)
    max_freq = 1000.0 / spec.latency_ns if spec.pipeline_stages == 0 else min(
        450.0, 1000.0 * spec.pipeline_stages / spec.latency_ns
    )
    dynamic_power = 0.02 * spec.luts + 0.015 * spec.flipflops + 2.2 * spec.dsp48
    return CoreMetrics(
        latency_ns=spec.latency_ns,
        pipeline_stages=spec.pipeline_stages,
        max_freq_mhz=round(max_freq, 1),
        luts=spec.luts,
        flipflops=spec.flipflops,
        dsp48=spec.dsp48,
        bram=spec.bram,
        slices=slices,
        dynamic_power_mw=round(dynamic_power, 2),
        static_power_mw=round(0.004 * slices + 0.5, 2),
        extended=generate_extended_metrics(spec.name, spec.latency_ns, spec.luts),
    )


@lru_cache(maxsize=1)
def default_database() -> CircuitDatabase:
    """Process-wide shared database instance (records are immutable)."""
    return CircuitDatabase()
