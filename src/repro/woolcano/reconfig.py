"""Partial reconfiguration timing (ICAP model).

Loading a custom instruction writes its partial bitstream through the
Internal Configuration Access Port. On Virtex-4 the ICAP is 32 bits wide at
100 MHz -> ~400 MB/s peak; practical controllers reach a fraction of that.
Reconfiguration time is therefore milliseconds — negligible next to the
minutes-scale CAD flow, but modelled so the runtime accounting is complete.

Reconfiguration cost is part of the specialization overhead the
paper accounts for in its break-even analysis (Section V).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fpga.bitgen import PartialBitstream
from repro.obs import get_tracer


@dataclass(frozen=True)
class ReconfigurationEvent:
    """One completed partial reconfiguration."""

    custom_id: int
    bytes_written: int
    seconds: float


@dataclass(frozen=True)
class IcapModel:
    """ICAP throughput model."""

    bus_width_bytes: int = 4
    clock_hz: float = 100e6
    efficiency: float = 0.6  # controller + frame-address overheads
    setup_seconds: float = 0.0008  # sync word, desync, CRC check

    @property
    def bytes_per_second(self) -> float:
        return self.bus_width_bytes * self.clock_hz * self.efficiency

    def reconfigure(
        self,
        custom_id: int,
        bitstream: PartialBitstream,
        reason: str = "load",
    ) -> ReconfigurationEvent:
        """Write one partial bitstream; *reason* distinguishes a first
        load from a reload forced by a slot eviction (the repeated ICAP
        cost the mix simulator charges against the fleet break-even)."""
        seconds = self.setup_seconds + bitstream.size_bytes / self.bytes_per_second
        get_tracer().event(
            "icap.reconfigure",
            custom_id=custom_id,
            bytes=bitstream.size_bytes,
            virtual_seconds=seconds,
            reason=reason,
        )
        return ReconfigurationEvent(
            custom_id=custom_id,
            bytes_written=bitstream.size_bytes,
            seconds=seconds,
        )
