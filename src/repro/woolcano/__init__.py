"""Woolcano reconfigurable ASIP machine model.

Models the architecture of [6]: a PowerPC-405 hard core (the Virtex-4 FX
CPU block) augmented through the Auxiliary Processor Unit (APU) / Fabric
Co-processor Bus (FCB) with user-defined instructions implemented in a
partially reconfigurable fabric region.

The machine model answers the question the paper's ASIP-ratio columns ask:
given a profiled application and a set of implemented custom instructions,
how much faster does the application run than on the plain CPU?
"""

from repro.woolcano.cpu import PowerPC405
from repro.woolcano.apu import FcbInterface, DEFAULT_FCB
from repro.woolcano.slots import (
    CustomInstructionSlots,
    LoadedInstruction,
    SlotError,
)
from repro.woolcano.reconfig import IcapModel, ReconfigurationEvent
from repro.woolcano.machine import WoolcanoMachine, WoolcanoCostModel, AsipSpeedup

__all__ = [
    "PowerPC405",
    "FcbInterface",
    "DEFAULT_FCB",
    "CustomInstructionSlots",
    "LoadedInstruction",
    "SlotError",
    "IcapModel",
    "ReconfigurationEvent",
    "WoolcanoMachine",
    "WoolcanoCostModel",
    "AsipSpeedup",
]
