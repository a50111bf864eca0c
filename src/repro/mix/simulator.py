"""Slot-contention replay of one workload-mix trace (the fleet Table IV).

One *cell* of the fleet grid replays a deterministic trace of
application invocations (:mod:`repro.mix.trace`) against a shared
machine: a fixed pool of custom-instruction slots
(:class:`repro.woolcano.slots.CustomInstructionSlots`), a fleet-wide
:class:`repro.serve.store.SharedBitstreamStore` namespace, and the
paper's ICAP reconfiguration model. Per event, the invoked application
wants its top-value configurations resident:

- a configuration already resident (possibly loaded by *another*
  application with the same structural signature) is a slot hit —
  cross-application sharing at the hardware level;
- otherwise the fleet store is consulted: a miss charges the modelled
  CAD flow (Table III) and stores the bitstream, a hit charges nothing
  (Section VI-A's accounting) — hits served across applications are
  counted by the store's ``cross_app_hits``;
- loading into a full pool evicts the least-recently-used instruction,
  and the (re)load pays the ICAP write (Section V); an instruction
  evicted and needed again is a *reload*, the contention cost this
  simulator exists to expose.

Each application's mean charged overhead per invocation feeds the
paper's break-even model (Table IV), yielding a per-app and
events-weighted fleet break-even for the cell. Every number here runs
on the virtual clock, so identical (trace, capacity) inputs
reproduce bit-identically — the ``regress-mix`` guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path

from repro.core.breakeven import BreakEvenModel
from repro.fpga.device import VIRTEX4_FX100
from repro.mix.profiles import AppMixProfile
from repro.mix.trace import MixEvent
from repro.obs import get_tracer
from repro.serve.store import SharedBitstreamStore
from repro.woolcano.reconfig import IcapModel
from repro.woolcano.slots import CustomInstructionSlots


@dataclass
class AppCellStats:
    """Per-application accounting within one grid cell."""

    events: int = 0
    slot_hits: int = 0
    slot_loads: int = 0
    reloads: int = 0
    store_hits: int = 0
    store_misses: int = 0
    cad_seconds: float = 0.0
    icap_seconds: float = 0.0
    overhead_seconds: float = 0.0
    break_even_seconds: float | None = None

    @property
    def store_hit_rate(self) -> float:
        lookups = self.store_hits + self.store_misses
        return self.store_hits / lookups if lookups else 0.0

    @property
    def slot_hit_rate(self) -> float:
        wants = self.slot_hits + self.slot_loads
        return self.slot_hits / wants if wants else 0.0

    def as_dict(self) -> dict:
        return {
            "events": self.events,
            "slot_hits": self.slot_hits,
            "slot_loads": self.slot_loads,
            "reloads": self.reloads,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "store_hit_rate": round(self.store_hit_rate, 9),
            "slot_hit_rate": round(self.slot_hit_rate, 9),
            "cad_seconds": round(self.cad_seconds, 9),
            "icap_seconds": round(self.icap_seconds, 9),
            "overhead_seconds": round(self.overhead_seconds, 9),
            "break_even_seconds": (
                round(self.break_even_seconds, 9)
                if self.break_even_seconds is not None
                else None
            ),
        }


@dataclass
class CellResult:
    """One (mix, capacity) cell of the fleet grid."""

    mix_name: str
    capacity: int
    events: int
    apps: dict[str, AppCellStats] = field(default_factory=dict)
    slots: dict = field(default_factory=dict)
    store: dict = field(default_factory=dict)
    mean_occupancy_pct: float = 0.0
    fleet_break_even_seconds: float | None = None

    def as_dict(self) -> dict:
        return {
            "mix": self.mix_name,
            "capacity": self.capacity,
            "events": self.events,
            "fleet_break_even_seconds": (
                round(self.fleet_break_even_seconds, 9)
                if self.fleet_break_even_seconds is not None
                else None
            ),
            "mean_occupancy_pct": round(self.mean_occupancy_pct, 6),
            "slots": self.slots,
            "store": self.store,
            "apps": {
                name: stats.as_dict() for name, stats in sorted(self.apps.items())
            },
        }


def simulate_cell(
    profiles: dict[str, AppMixProfile],
    trace: list[MixEvent],
    capacity: int,
    store_root,
    mix_name: str = "custom",
    icap: IcapModel | None = None,
) -> CellResult:
    """Replay *trace* on *capacity* slots with a cold fleet store."""
    icap = icap or IcapModel()
    store = SharedBitstreamStore(Path(store_root))
    tenants = {name: store.tenant("fleet", app=name) for name in profiles}
    slots = CustomInstructionSlots(capacity=capacity)
    result = CellResult(mix_name=mix_name, capacity=capacity, events=len(trace))
    # Fleet-wide UDI numbering: one custom id per structural signature, so
    # two applications wanting the same configuration share a resident
    # instruction instead of thrashing the slot.
    fleet_ids: dict[int, int] = {}
    occupancy_sum = 0.0
    with get_tracer().span("mix.cell", mix=mix_name, capacity=capacity):
        for event in trace:
            profile = profiles[event.app]
            stats = result.apps.setdefault(event.app, AppCellStats())
            stats.events += 1
            tenant = tenants[event.app]
            for config in profile.wanted(capacity):
                fleet_id = fleet_ids.setdefault(
                    config.signature, len(fleet_ids)
                )
                if slots.is_loaded(fleet_id):
                    slots.touch(fleet_id)
                    stats.slot_hits += 1
                    continue
                key = tenant.key_for(config.candidate, VIRTEX4_FX100)
                impl = tenant.get(key, config.candidate)
                if impl is None:
                    stats.store_misses += 1
                    stats.cad_seconds += config.toolflow_seconds
                    stats.overhead_seconds += config.toolflow_seconds
                    tenant.put(key, config.implementation)
                else:
                    stats.store_hits += 1
                was_evicted = slots.was_evicted(fleet_id)
                reconf = icap.reconfigure(
                    fleet_id,
                    config.bitstream,
                    reason="reload" if was_evicted else "load",
                )
                stats.icap_seconds += reconf.seconds
                stats.overhead_seconds += reconf.seconds
                slots.load(
                    fleet_id,
                    config.signature,
                    config.bitstream,
                    owner=event.app,
                )
                stats.slot_loads += 1
                if was_evicted:
                    stats.reloads += 1
            occupancy_sum += slots.occupancy_pct()

    # Table IV, fleet edition: each application's break-even uses its
    # *mean* charged overhead per invocation under this mix — contention
    # (reloads) and store sharing move it in opposite directions.
    model = BreakEvenModel()
    weighted = 0.0
    weight_events = 0
    for name, stats in result.apps.items():
        profile = profiles[name]
        estimates = [
            est
            for config in profile.wanted(capacity)
            for est in config.estimates
        ]
        mean_overhead = stats.overhead_seconds / max(1, stats.events)
        analysis = model.analyze(
            profile.block_costs,
            profile.profile,
            profile.coverage,
            estimates,
            mean_overhead,
        )
        be = analysis.live_aware_seconds
        if isfinite(be):
            stats.break_even_seconds = be
            weighted += be * stats.events
            weight_events += stats.events
    if weight_events:
        result.fleet_break_even_seconds = weighted / weight_events
    result.mean_occupancy_pct = occupancy_sum / max(1, len(trace))
    result.slots = slots.stats()
    result.store = store.combined_stats()
    result.store.pop("root", None)  # per-cell scratch dir, not a result
    result.store.pop("bytes", None)  # host pickle sizes, not modelled data
    return result
