"""Deterministic workload-mix traces for the fleet simulator.

The paper's Table IV prices specialization for one application at a
time; a fleet sees a *mix* of applications whose arrivals contend for
the reconfigurable slot pool. A trace here is a seeded, weighted
sequence of application invocations: the draw uses the same
inverse-transform protocol as the serve-plane load generator
(:mod:`repro.serve.loadgen`), so identical (mix, seed, events) inputs
produce bit-identical traces on every machine — the property the
``regress-mix`` gate relies on.

Mix *entropy* (normalised Shannon entropy of the weight distribution)
is the knob that turns a single-application workload (entropy 0, the
paper's regime) into a uniform fleet (entropy 1): the benchmark grid
sweeps it alongside slot capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.rng import DeterministicRng

#: Named weight distributions over the embedded suite. ``uniform``
#: maximises mix entropy; ``skewed`` models one dominant tenant app with
#: a long tail (the common production shape).
MIX_PRESETS: dict[str, tuple[tuple[str, float], ...]] = {
    "uniform": (
        ("fft", 1.0),
        ("adpcm", 1.0),
        ("sor", 1.0),
        ("whetstone", 1.0),
    ),
    "skewed": (
        ("fft", 8.0),
        ("adpcm", 2.0),
        ("sor", 1.0),
        ("whetstone", 1.0),
    ),
}


@dataclass(frozen=True)
class MixEvent:
    """One application invocation in a trace."""

    seq: int
    app: str


@dataclass
class MixTraceConfig:
    """Everything needed to (re)build one trace bit-identically."""

    name: str
    mix: tuple[tuple[str, float], ...]
    events: int = 120
    seed: int = 0

    def __post_init__(self) -> None:
        if self.events < 1:
            raise ValueError(f"events must be >= 1, got {self.events}")
        if not self.mix:
            raise ValueError("mix must name at least one application")
        for app, weight in self.mix:
            if weight <= 0.0:
                raise ValueError(f"app {app!r} has non-positive weight {weight}")


def preset_config(
    name: str, events: int = 120, seed: int = 0
) -> MixTraceConfig:
    """A :class:`MixTraceConfig` for one named preset."""
    if name not in MIX_PRESETS:
        raise ValueError(
            f"unknown mix preset {name!r} "
            f"(expected one of {', '.join(sorted(MIX_PRESETS))})"
        )
    return MixTraceConfig(name=name, mix=MIX_PRESETS[name], events=events, seed=seed)


def mix_entropy(mix: tuple[tuple[str, float], ...]) -> float:
    """Normalised Shannon entropy of the weight distribution in [0, 1]."""
    weights = [w for _, w in mix if w > 0.0]
    if len(weights) < 2:
        return 0.0
    total = sum(weights)
    h = -sum((w / total) * math.log2(w / total) for w in weights)
    return h / math.log2(len(weights))


def empirical_entropy(trace: list[MixEvent]) -> float:
    """Normalised Shannon entropy of the apps actually drawn."""
    counts: dict[str, int] = {}
    for event in trace:
        counts[event.app] = counts.get(event.app, 0) + 1
    return mix_entropy(tuple(counts.items()))


def build_trace(config: MixTraceConfig) -> list[MixEvent]:
    """Deterministic weighted app sequence for *config*."""
    rng = DeterministicRng(f"mix/{config.name}", config.seed)
    total = sum(weight for _, weight in config.mix)
    trace: list[MixEvent] = []
    for seq in range(config.events):
        draw = rng.random() * total
        cumulative = 0.0
        app = config.mix[-1][0]
        for name, weight in config.mix:
            cumulative += weight
            if draw < cumulative:
                app = name
                break
        trace.append(MixEvent(seq=seq, app=app))
    return trace
