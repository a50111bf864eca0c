"""Per-application specialization profiles for the fleet-mix simulator.

Replaying a thousand-event workload mix must not re-run the paper's
Figure 2 pipeline per event: one invocation of an already-specialized
application pays (at most) bitstream-store lookups and ICAP reloads, not
a fresh candidate search. This module therefore runs the ASIP
specialization process (search + modelled CAD flow, Tables II/III)
**once per application** and freezes what the simulator needs:

- the selected candidates folded by structural signature (structurally
  equal candidates share one hardware configuration, hence one slot and
  one store entry);
- each configuration's modelled CAD cost (charged on a store miss), its
  partial bitstream (its ICAP reload cost), and its *benefit density* —
  saved cycles per invocation per second of reload cost, which ranks the
  configurations an application wants resident when it has more of them
  than the machine has slots;
- the block-cost table, training profile and coverage the Table IV
  break-even model (:class:`repro.core.breakeven.BreakEvenModel`) needs
  to price the fleet-level overhead each cell charges the application.
  The table is the search's own, priced once under the PowerPC cost
  model the break-even model also defaults to.

Everything frozen here is virtual-clock deterministic; only the
candidate-search wall time is measured, and it is reported as an
informational cell, never folded into the simulated overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.asip_sp import AsipSpecializationProcess
from repro.ise.pruning import PruningFilter
from repro.ise.selection import CandidateSearch
from repro.obs import get_tracer
from repro.woolcano.machine import WoolcanoMachine
from repro.woolcano.reconfig import IcapModel

#: Applications the fleet grid replays by default (the embedded suite).
DEFAULT_APPS = ("fft", "adpcm", "sor", "whetstone")


@dataclass
class SlotCandidate:
    """One hardware configuration an application wants resident."""

    signature: int
    candidate: object  # repro.ise.candidate.Candidate (store key input)
    implementation: object  # ImplementationResult (store payload)
    bitstream: object  # PartialBitstream (ICAP reload cost input)
    toolflow_seconds: float  # modelled CAD cost on a store miss
    reload_seconds: float  # ICAP write cost per (re)load
    saved_cycles: float  # per invocation, summed over equal candidates
    value: float  # benefit density: saved_cycles / reload_seconds
    estimates: list  # CandidateEstimate list folded into this signature


@dataclass
class AppMixProfile:
    """Frozen per-application state the mix replay charges against."""

    name: str
    search_seconds: float  # measured wall clock (informational only)
    candidates: list[SlotCandidate]  # sorted by descending value
    block_costs: dict  # static_block_costs of the module (PowerPC cycles)
    profile: object  # training ExecutionProfile
    coverage: object  # CoverageAnalysis

    @property
    def toolflow_seconds(self) -> float:
        return sum(c.toolflow_seconds for c in self.candidates)

    def wanted(self, capacity: int) -> list[SlotCandidate]:
        """The top-*capacity* configurations by benefit density.

        A machine with fewer slots than the application has candidates
        runs the overflow in software: those configurations are neither
        loaded nor counted toward the application's speedup.
        """
        return self.candidates[: max(0, capacity)]


def build_profile(
    name: str,
    module,
    train,
    coverage,
    icap: IcapModel | None = None,
) -> AppMixProfile:
    """Run the specialization process for one app and freeze the result.

    *module* / *train* / *coverage* are the app's compiled module,
    training :class:`~repro.vm.profiler.ExecutionProfile` and
    :class:`~repro.core.coverage.CoverageAnalysis` — exactly the triple
    :func:`repro.serve.worker.app_context` provides for registry apps.
    """
    icap = icap or IcapModel()
    machine = WoolcanoMachine()
    process = AsipSpecializationProcess(
        search=CandidateSearch(
            pruning=PruningFilter(), cost_model=machine.cost_model
        ),
    )
    report = process.run(module, train)
    by_signature: dict[int, SlotCandidate] = {}
    for ci in report.implementations:
        est = ci.estimate
        cand = est.candidate
        count = train.count_of(cand.function, cand.block)
        saved = max(0.0, est.cycles_saved) * count
        entry = by_signature.get(cand.signature)
        if entry is None:
            bitstream = ci.implementation.bitstream
            reload_seconds = (
                icap.setup_seconds
                + bitstream.size_bytes / icap.bytes_per_second
            )
            by_signature[cand.signature] = SlotCandidate(
                signature=cand.signature,
                candidate=cand,
                implementation=ci.implementation,
                bitstream=bitstream,
                toolflow_seconds=ci.times.total,
                reload_seconds=reload_seconds,
                saved_cycles=saved,
                value=0.0,
                estimates=[est],
            )
        else:
            entry.saved_cycles += saved
            entry.estimates.append(est)
    candidates = list(by_signature.values())
    for entry in candidates:
        entry.value = entry.saved_cycles / max(1e-12, entry.reload_seconds)
    candidates.sort(key=lambda c: (-c.value, c.signature))
    return AppMixProfile(
        name=name,
        search_seconds=report.search.search_seconds,
        candidates=candidates,
        block_costs=report.search.block_costs,
        profile=train,
        coverage=coverage,
    )


def build_app_profiles(
    apps: tuple[str, ...] = DEFAULT_APPS,
    icap: IcapModel | None = None,
) -> dict[str, AppMixProfile]:
    """Run the specialization process once per registry app."""
    icap = icap or IcapModel()
    tracer = get_tracer()
    profiles: dict[str, AppMixProfile] = {}
    for name in apps:
        from repro.serve.worker import app_context

        with tracer.span("mix.profile", app=name):
            ctx = app_context(name)
            profiles[name] = build_profile(
                name, ctx.module, ctx.train, ctx.coverage, icap
            )
    return profiles
