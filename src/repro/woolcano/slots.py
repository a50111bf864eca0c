"""Custom-instruction slot management with contention semantics.

The APU decodes a finite set of user-defined instruction (UDI) opcodes;
each opcode is bound to a fabric region configuration. The paper
implements all candidates by time-multiplexing configurations (Section
II); this module makes the cost of that multiplexing explicit for the
runtime system: a fixed pool of slots under capacity pressure, which
evicts the least-recently-used instruction when the pool is full, and
reload accounting (an instruction evicted and needed again pays the ICAP
reconfiguration again — the fleet-level overhead the mix simulator in
:mod:`repro.mix` charges against Table IV's break-even times).

One victim rule suffices: a slot eviction costs only an ICAP reload,
milliseconds against the seconds of the CAD flow, so no choice of victim
moves a break-even time measurably (EXPERIMENTS.md, "Workload mixes &
slot contention").

Observability: every load/evict emits a tracer event carrying the
physical slot index (the per-slot occupancy timeline); an eviction
event also records how many virtual clock ticks its occupant survived.
:meth:`CustomInstructionSlots.stats` counts loads, reloads, hits and evictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fpga.bitgen import PartialBitstream
from repro.obs import get_tracer


class SlotError(Exception):
    """Raised on invalid slot operations."""


@dataclass
class LoadedInstruction:
    """A custom instruction resident in a slot."""

    custom_id: int
    signature: int
    bitstream: PartialBitstream
    use_count: int = 0
    last_use: int = 0
    loaded_at: int = 0
    slot_index: int = 0
    #: Application that loaded the instruction (fleet-mix attribution).
    owner: str | None = None


@dataclass
class CustomInstructionSlots:
    """Fixed number of UDI slots that evicts the least-recently-used."""

    capacity: int = 8
    _slots: dict[int, LoadedInstruction] = field(default_factory=dict)
    _clock: int = 0
    loads: int = 0
    evictions: int = 0
    reloads: int = 0
    hits: int = 0
    _evicted_ids: set[int] = field(default_factory=set)
    _free_indices: list[int] = field(default_factory=list)
    _next_index: int = 0

    # -- loading -------------------------------------------------------------
    def load(
        self,
        custom_id: int,
        signature: int,
        bitstream: PartialBitstream,
        *,
        owner: str | None = None,
    ) -> LoadedInstruction | None:
        """Load an instruction; returns the evicted one, if any."""
        if self.capacity < 1:
            raise SlotError("machine has no custom instruction slots")
        if custom_id in self._slots:
            return None
        evicted = None
        if len(self._slots) >= self.capacity:
            evicted = self._evict_lru()
        self._clock += 1
        reload = custom_id in self._evicted_ids
        if reload:
            self.reloads += 1
        slot_index = (
            self._free_indices.pop() if self._free_indices else self._next_index
        )
        if slot_index == self._next_index:
            self._next_index += 1
        self._slots[custom_id] = LoadedInstruction(
            custom_id=custom_id,
            signature=signature,
            bitstream=bitstream,
            last_use=self._clock,
            loaded_at=self._clock,
            slot_index=slot_index,
            owner=owner,
        )
        self.loads += 1
        get_tracer().event(
            "slots.load",
            slot=slot_index,
            custom_id=custom_id,
            signature=f"{signature:016x}",
            owner=owner,
            reload=reload,
            tick=self._clock,
        )
        return evicted

    def _evict_lru(self) -> LoadedInstruction:
        victim = min(
            self._slots.values(), key=lambda s: (s.last_use, s.custom_id)
        )
        evicted = self._slots.pop(victim.custom_id)
        self.evictions += 1
        self._evicted_ids.add(evicted.custom_id)
        self._free_indices.append(evicted.slot_index)
        get_tracer().event(
            "slots.evict",
            slot=evicted.slot_index,
            custom_id=evicted.custom_id,
            owner=evicted.owner,
            resident_ticks=self._clock - evicted.loaded_at,
            use_count=evicted.use_count,
            tick=self._clock,
        )
        return evicted

    # -- access --------------------------------------------------------------
    def is_loaded(self, custom_id: int) -> bool:
        return custom_id in self._slots

    def was_evicted(self, custom_id: int) -> bool:
        """True if *custom_id* was resident once and has been evicted
        since (a subsequent load is a *reload* paying the ICAP again)."""
        return custom_id in self._evicted_ids

    def touch(self, custom_id: int) -> None:
        slot = self._slots.get(custom_id)
        if slot is None:
            raise SlotError(f"custom instruction #{custom_id} is not loaded")
        self._clock += 1
        slot.last_use = self._clock
        slot.use_count += 1
        self.hits += 1

    @property
    def resident(self) -> list[int]:
        return sorted(self._slots)

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._slots)

    def occupancy_pct(self) -> float:
        """Current occupancy as a percentage of capacity."""
        if self.capacity < 1:
            return 0.0
        return 100.0 * len(self._slots) / self.capacity

    def stats(self) -> dict:
        """JSON-safe counters for manifests and the serve stats op."""
        loads = self.loads
        return {
            "capacity": self.capacity,
            "resident": len(self._slots),
            "occupancy_pct": round(self.occupancy_pct(), 3),
            "loads": loads,
            "reloads": self.reloads,
            "hits": self.hits,
            "evictions": self.evictions,
            "eviction_rate": round(self.evictions / loads, 6) if loads else 0.0,
        }
