"""The ASIP specialization process (Figure 2).

Orchestrates the three phases for one application:

1. **Candidate Search** (:class:`repro.ise.CandidateSearch`): pruning,
   identification, estimation, selection — measured wall clock, reported
   in milliseconds;
2. **Netlist Generation** + 3. **Instruction Implementation**
   (:class:`repro.fpga.CadToolFlow`): per selected candidate, produce the
   partial bitstream — virtual wall clock, reported per stage.

Structurally identical candidates (same signature) are implemented once and
shared; the paper's per-candidate accounting still charges each candidate,
matching its assumption that every candidate runs through the CAD flow
(the bitstream cache of Section VI-A is modelled separately and *does*
deduplicate charges).

An optional ``bitstream_cache`` (a
:class:`repro.core.cache.PersistentBitstreamCache`, default off so the
paper-faithful behaviour is unchanged) is consulted before the tool flow
and populated after it, turning Section VI-A's hypothetical cache into a
measured cross-run one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.fpga.placer import PlacementError
from repro.fpga.router import RoutingError
from repro.fpga.toolflow import CadToolFlow, ImplementationResult
from repro.fpga.timingmodel import StageTimes
from repro.ir.module import Module
from repro.ise.selection import CandidateSearch, CandidateSearchResult
from repro.obs import get_tracer
from repro.pivpav.estimator import CandidateEstimate
from repro.vm.profiler import ExecutionProfile
from repro.woolcano.reconfig import IcapModel, ReconfigurationEvent

if TYPE_CHECKING:  # pragma: no cover - cache imports this module
    from repro.core.cache import CachedImplementation, PersistentBitstreamCache


@dataclass
class CandidateImplementation:
    """One candidate with its hardware implementation and accounting."""

    estimate: CandidateEstimate
    #: A cache hit carries the slim record the cache stores.
    implementation: "ImplementationResult | CachedImplementation"
    shared_with_signature: bool  # True if reused a structurally equal impl.
    from_cache: bool = False  # True if served by the persistent cache.

    @property
    def times(self) -> StageTimes:
        return self.implementation.times


@dataclass
class SpecializationReport:
    """Aggregate outcome of the ASIP-SP for one application."""

    search: CandidateSearchResult
    implementations: list[CandidateImplementation]
    reconfigurations: list[ReconfigurationEvent]
    # Candidates whose CAD implementation failed (e.g. too large for the
    # partial region): (estimate, error message). Their software fallback
    # keeps the application correct; they contribute no overhead/savings.
    failed: list[tuple[CandidateEstimate, str]] = field(default_factory=list)

    # -- aggregate overheads (Table II columns) ------------------------------
    @property
    def candidate_count(self) -> int:
        return len(self.implementations)

    @property
    def const_seconds(self) -> float:
        """Sum of constant stages over all candidates ("const" column)."""
        return sum(ci.times.constant_sum for ci in self.implementations)

    @property
    def map_seconds(self) -> float:
        return sum(ci.times.map for ci in self.implementations)

    @property
    def par_seconds(self) -> float:
        return sum(ci.times.par for ci in self.implementations)

    @property
    def toolflow_seconds(self) -> float:
        """Total hardware-generation overhead ("sum" column)."""
        return self.const_seconds + self.map_seconds + self.par_seconds

    @property
    def reconfiguration_seconds(self) -> float:
        return sum(ev.seconds for ev in self.reconfigurations)

    @property
    def total_overhead_seconds(self) -> float:
        """Everything between 'program starts' and 'ASIP ready'."""
        return (
            self.search.search_seconds
            + self.toolflow_seconds
            + self.reconfiguration_seconds
        )


@dataclass
class AsipSpecializationProcess:
    """Configured ASIP-SP pipeline."""

    search: CandidateSearch = field(default_factory=CandidateSearch)
    toolflow: CadToolFlow = field(default_factory=CadToolFlow)
    icap: IcapModel = field(default_factory=IcapModel)
    bitstream_cache: "PersistentBitstreamCache | None" = None

    def _cache_key(self, est: CandidateEstimate) -> str:
        assert self.bitstream_cache is not None
        return self.bitstream_cache.key_for(est.candidate, self.toolflow.device)

    def run(self, module: Module, profile: ExecutionProfile) -> SpecializationReport:
        tracer = get_tracer()
        cache = self.bitstream_cache
        with tracer.span("asip_sp.run", module=module.name) as sp_run:
            search_result = self.search.run(module, profile)

            implementations: list[CandidateImplementation] = []
            reconfigurations: list[ReconfigurationEvent] = []
            failed: list[tuple[CandidateEstimate, str]] = []
            by_signature: dict[int, "ImplementationResult | CachedImplementation"] = {}
            cache_hits = 0
            for custom_id, est in enumerate(search_result.selected):
                sig = est.candidate.signature
                shared = sig in by_signature
                with tracer.span(
                    "asip_sp.candidate",
                    candidate=est.candidate.key,
                    custom_id=custom_id,
                    size=est.candidate.size,
                    shared=shared,
                ) as sp_cand:
                    cached = False
                    if shared:
                        impl = by_signature[sig]
                    else:
                        impl = None
                        if cache is not None:
                            impl = cache.get(self._cache_key(est), est.candidate)
                            cached = impl is not None
                        if impl is None:
                            try:
                                impl = self.toolflow.implement(est.candidate)
                            except (PlacementError, RoutingError) as exc:
                                # CAD failure: software fallback keeps the
                                # application correct.
                                failed.append((est, str(exc)))
                                sp_cand.set_attrs(failed=True, error=str(exc))
                                continue
                        if cache is not None and not cached:
                            cache.put(self._cache_key(est), impl)
                        if cached:
                            cache_hits += 1
                        by_signature[sig] = impl
                    sp_cand.set_attrs(
                        failed=False, cached=cached,
                        virtual_seconds=impl.times.total,
                    )
                    implementations.append(
                        CandidateImplementation(
                            estimate=est,
                            implementation=impl,
                            shared_with_signature=shared,
                            from_cache=cached,
                        )
                    )
                    reconfigurations.append(
                        self.icap.reconfigure(custom_id, impl.bitstream)
                    )
            sp_run.set_attrs(
                selected=len(search_result.selected),
                implemented=len(implementations),
                failed=len(failed),
                cache_hits=cache_hits,
            )
        return SpecializationReport(
            search=search_result,
            implementations=implementations,
            reconfigurations=reconfigurations,
            failed=failed,
        )
