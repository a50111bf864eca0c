"""Break-even time models (Section V-D).

The break-even time is "the minimal time each application needs to execute
before the overheads caused by the ASIP-SP process are compensated".

Two models, as in the paper:

- **simple**: fixed input size, the application is executed repeatedly;
  break-even after ``overhead / saved_per_run`` runs.
- **live-aware** (the paper's "more sophisticated approach"): instead of
  re-running, the application processes *more input data*, so additional
  runtime is spent only in the **live** blocks (coverage class LIVE); the
  const and dead parts execute once. Savings therefore accrue at the rate
  at which the live code saves time, which is why the paper's Table IV
  values "do not scale linearly" with cache hits / CAD speedups.

Formally (live-aware): let the profiled run on the ASIP spend ``C_a``
seconds in const code and save at rate ``r`` per second of accelerated live
execution (``r = t_live_cpu / t_live_asip - 1``). After total ASIP
execution time ``t >= C_a``, accumulated savings are
``S(t) = (C_c - C_a) + r (t - C_a)``; break-even is ``S(t) = O``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.profiling.coverage import BlockClass, CoverageAnalysis
from repro.vm.costmodel import CostModel, PPC405_COST_MODEL
from repro.vm.profiler import BlockKey, ExecutionProfile
from repro.pivpav.estimator import CandidateEstimate


@dataclass(frozen=True)
class BreakEvenAnalysis:
    """Break-even results for one application."""

    overhead_seconds: float
    simple_runs: float  # number of fixed-input runs until break-even
    simple_seconds: float  # execution time until break-even, simple model
    live_aware_seconds: float  # the paper's headline number
    live_savings_rate: float  # r in the model above
    const_cpu_seconds: float
    const_asip_seconds: float

    @property
    def reachable(self) -> bool:
        """False when the ASIP never amortizes (no live savings)."""
        return math.isfinite(self.live_aware_seconds)


@dataclass
class BreakEvenModel:
    """Computes break-even times from profile + coverage + candidate set."""

    cost_model: CostModel = PPC405_COST_MODEL

    def analyze(
        self,
        block_costs: dict[BlockKey, float],
        profile: ExecutionProfile,
        coverage: CoverageAnalysis,
        estimates: list[CandidateEstimate],
        overhead_seconds: float,
    ) -> BreakEvenAnalysis:
        """Break-even of *estimates* against *overhead_seconds*.

        *block_costs* is ``static_block_costs(module, self.cost_model)`` of
        the profiled module.
        """
        cm = self.cost_model

        saved_per_block: dict[tuple[str, str], float] = {}
        for est in estimates:
            key = (est.candidate.function, est.candidate.block)
            saved_per_block[key] = saved_per_block.get(key, 0.0) + max(
                0.0, est.sw_cycles - est.hw_cycles
            )

        live_cpu = live_asip = 0.0
        const_cpu = const_asip = 0.0
        for key, prof in profile.blocks.items():
            cost = block_costs.get(key)
            if cost is None or prof.count == 0:
                continue
            cpu_cycles = prof.count * cost
            asip_cycles = prof.count * max(1.0, cost - saved_per_block.get(key, 0.0))
            cls = coverage.classes.get(key, BlockClass.CONST)
            if cls is BlockClass.LIVE:
                live_cpu += cpu_cycles
                live_asip += asip_cycles
            else:
                const_cpu += cpu_cycles
                const_asip += asip_cycles

        live_cpu_s = cm.seconds(live_cpu)
        live_asip_s = cm.seconds(live_asip)
        const_cpu_s = cm.seconds(const_cpu)
        const_asip_s = cm.seconds(const_asip)

        # Simple model: whole-run savings, repeated runs.
        total_cpu_s = live_cpu_s + const_cpu_s
        total_asip_s = live_asip_s + const_asip_s
        saved_per_run = total_cpu_s - total_asip_s
        if saved_per_run > 1e-12:
            runs = overhead_seconds / saved_per_run
            simple_seconds = runs * total_asip_s
        else:
            runs = math.inf
            simple_seconds = math.inf

        # Live-aware model.
        if live_asip_s > 1e-12 and live_cpu_s > live_asip_s:
            rate = live_cpu_s / live_asip_s - 1.0
            first_run_const_savings = const_cpu_s - const_asip_s
            remaining = overhead_seconds - first_run_const_savings
            if remaining <= 0:
                live_aware = const_asip_s  # amortized within the first run
            else:
                live_aware = const_asip_s + remaining / rate
        else:
            rate = 0.0
            live_aware = math.inf

        return BreakEvenAnalysis(
            overhead_seconds=overhead_seconds,
            simple_runs=runs,
            simple_seconds=simple_seconds,
            live_aware_seconds=live_aware,
            live_savings_rate=rate,
            const_cpu_seconds=const_cpu_s,
            const_asip_seconds=const_asip_s,
        )
