"""CAD project: the in-memory equivalent of a Xilinx ISE project directory.

"PivPav creates an FPGA CAD project for Xilinx ISE, sets up the parameters
of the FPGA, and adds the VHDL and the netlist files." (Section III)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fpga.device import FpgaDevice, VIRTEX4_FX100
from repro.pivpav.netlist import Netlist


@dataclass
class CadProject:
    """A project bundles sources, core netlists and device settings."""

    name: str
    device: FpgaDevice = VIRTEX4_FX100
    vhdl_files: dict[str, str] = field(default_factory=dict)  # filename -> text
    core_netlists: dict[str, Netlist] = field(default_factory=dict)
    settings: dict[str, str] = field(default_factory=dict)
    top_entity: str = ""

    def add_vhdl(self, filename: str, source: str) -> None:
        if filename in self.vhdl_files:
            raise ValueError(f"duplicate VHDL file {filename!r} in project")
        self.vhdl_files[filename] = source

    def add_core_netlist(self, core_name: str, netlist: Netlist) -> None:
        self.core_netlists[core_name] = netlist

    def configure_defaults(self) -> None:
        """Default tool settings as the PivPav TCL scripting would set them."""
        self.settings.setdefault("family", "virtex4")
        self.settings.setdefault("device", self.device.name)
        self.settings.setdefault("speed_grade", "-10")
        self.settings.setdefault("opt_mode", "speed")
        self.settings.setdefault("opt_level", "1")
        self.settings.setdefault("flow", "eapr")  # Early Access Partial Reconfig
