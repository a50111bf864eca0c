"""The complete per-candidate CAD tool flow (Figure 2, phases 2 and 3).

Chains the Netlist Generation phase (PivPav: VHDL generation, netlist
extraction, project creation — the C2V constant) and the Instruction
Implementation phase (syntax check, synthesis, translate, map, place &
route, bitstream generation) into one call that returns the partial
bitstream plus per-stage virtual runtimes.

Each stage runs under a tracer span (``cad.c2v`` … ``cad.bitgen``) so a
trace of one run reconstructs Table III; the modelled stage runtime is
back-filled onto each span as the ``virtual_seconds`` attribute once the
timing model has priced the candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fpga.bitgen import BitstreamGenerator, PartialBitstream
from repro.fpga.device import FpgaDevice, VIRTEX4_FX100
from repro.fpga.placer import Placement, Placer
from repro.fpga.project import CadProject
from repro.fpga.router import RoutedDesign, Router
from repro.fpga.synthesis import Synthesizer
from repro.fpga.syntax import VhdlSyntaxChecker
from repro.fpga.techmap import MappedDesign, Mapper
from repro.fpga.timingmodel import CadTimingModel, StageTimes
from repro.fpga.translate import Translator
from repro.ise.candidate import Candidate
from repro.obs import get_tracer
from repro.pivpav.netlistcache import NetlistCache
from repro.pivpav.vhdlgen import DatapathGenerator, GeneratedVhdl


@dataclass
class ImplementationResult:
    """Everything produced by implementing one candidate in hardware."""

    candidate: Candidate
    vhdl: GeneratedVhdl
    bitstream: PartialBitstream
    times: StageTimes
    mapped: MappedDesign
    placement: Placement
    routed: RoutedDesign

    @property
    def entity_name(self) -> str:
        return self.vhdl.entity_name


@dataclass
class CadToolFlow:
    """Configured end-to-end implementation flow."""

    device: FpgaDevice = VIRTEX4_FX100
    timing: CadTimingModel | None = None
    netlist_cache: NetlistCache = field(default_factory=NetlistCache)
    datapath_generator: DatapathGenerator = field(default_factory=DatapathGenerator)

    def __post_init__(self) -> None:
        if self.timing is None:
            self.timing = CadTimingModel(device=self.device)

    def implement(self, candidate: Candidate) -> ImplementationResult:
        """Run the full flow for one candidate."""
        tracer = get_tracer()
        with tracer.span("cad.implement", candidate=candidate.key):
            # Phase 2: Netlist Generation (PivPav).
            with tracer.span("cad.c2v") as sp_c2v:
                vhdl = self.datapath_generator.generate(candidate)
                project = CadProject(name=vhdl.entity_name, device=self.device)
                project.add_vhdl(f"{vhdl.entity_name}.vhd", vhdl.source)
                for core_name, netlist in self.netlist_cache.extract_all(
                    vhdl.core_names
                ).items():
                    project.add_core_netlist(core_name, netlist)
                project.configure_defaults()
                project.top_entity = vhdl.entity_name
                sp_c2v.set_attrs(
                    entity=vhdl.entity_name, cores=len(vhdl.core_names)
                )

            # Phase 3: Instruction Implementation.
            with tracer.span("cad.syntax") as sp_syntax:
                design = VhdlSyntaxChecker().check(vhdl.source)
            with tracer.span("cad.synthesis") as sp_synthesis:
                synthesized = Synthesizer().synthesize(design, project)
            with tracer.span("cad.translate") as sp_translate:
                database = Translator().translate(synthesized, self.device)
            with tracer.span("cad.map") as sp_map:
                mapped = Mapper().map(database)
                sp_map.set_attrs(
                    luts=mapped.lut_count,
                    dsps=mapped.dsp_count,
                    brams=mapped.bram_count,
                )
            with tracer.span("cad.par") as sp_par:
                placement = Placer().place(mapped, self.device.region)
                routed = Router().route(mapped, placement, self.device.region)
            with tracer.span("cad.bitgen") as sp_bitgen:
                bitstream = BitstreamGenerator().generate(
                    vhdl.entity_name, mapped, placement, self.device
                )
                sp_bitgen.set_attr("bytes", bitstream.size_bytes)

            times = self.timing.stage_times(
                entity=vhdl.entity_name,
                lut_count=mapped.lut_count,
                dsp_count=mapped.dsp_count,
                bram_count=mapped.bram_count,
                component_count=len(vhdl.core_names),
            )
            # Back-fill the modelled Table III runtimes onto the stage spans.
            sp_c2v.set_attr("virtual_seconds", times.c2v)
            sp_syntax.set_attr("virtual_seconds", times.syn)
            sp_synthesis.set_attr("virtual_seconds", times.xst)
            sp_translate.set_attr("virtual_seconds", times.tra)
            sp_map.set_attr("virtual_seconds", times.map)
            sp_par.set_attr("virtual_seconds", times.par)
            sp_bitgen.set_attr("virtual_seconds", times.bitgen)
        return ImplementationResult(
            candidate=candidate,
            vhdl=vhdl,
            bitstream=bitstream,
            times=times,
            mapped=mapped,
            placement=placement,
            routed=routed,
        )
