"""Fleet workload-mix simulation — Table IV under slot contention.

The paper prices just-in-time instruction-set extension for one
application at a time (Tables II-IV); this package asks what happens
when a *fleet* of applications shares one reconfigurable machine. A
deterministic, seeded trace of application invocations
(:mod:`repro.mix.trace`) replays against frozen per-application
specialization profiles (:mod:`repro.mix.profiles`) through the real
slot pool, ICAP model and shared bitstream store
(:mod:`repro.mix.simulator`), producing per-cell break-even times —
"a Table IV for fleets" — swept over mix entropy and slot capacity by
:func:`repro.obs.bench.run_mix_bench`. The pool always evicts the
least-recently-used configuration: a slot eviction costs only an ICAP
reload, so the victim rule does not move a break-even time.
"""

from repro.mix.profiles import (
    DEFAULT_APPS,
    AppMixProfile,
    SlotCandidate,
    build_app_profiles,
    build_profile,
)
from repro.mix.simulator import AppCellStats, CellResult, simulate_cell
from repro.mix.trace import (
    MIX_PRESETS,
    MixEvent,
    MixTraceConfig,
    build_trace,
    empirical_entropy,
    mix_entropy,
    preset_config,
)

__all__ = [
    "MIX_PRESETS",
    "DEFAULT_APPS",
    "AppCellStats",
    "AppMixProfile",
    "CellResult",
    "MixEvent",
    "MixTraceConfig",
    "SlotCandidate",
    "build_app_profiles",
    "build_profile",
    "build_trace",
    "empirical_entropy",
    "mix_entropy",
    "preset_config",
    "simulate_cell",
]
