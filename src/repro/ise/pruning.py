"""Search-space pruning filters (the @50pS3L family of [9]).

The paper prunes the set of basic blocks handed to the identification
algorithms, reporting that this cuts identification time by two orders of
magnitude at the cost of ~1/4 of the speedup. It uses the ``@50pS3L``
filter; reference [9] (which defines the notation precisely) is not
available, so we implement the following documented interpretation:

``@{P}pS{N}L``:
  1. rank all executed basic blocks by their share of dynamic execution
     time (hottest first);
  2. keep the hottest blocks until their cumulative share reaches ``P`` %
     ("50p" = half of the execution time);
  3. of those, keep the ``N`` **largest** by static instruction count
     ("S3L" = select the 3 largest), since larger blocks can host larger
     candidates.

This yields 1-3 selected blocks per application, matching the ``blk``
column of the paper's Table II.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.ir.module import Module
from repro.vm.costmodel import CostModel, PPC405_COST_MODEL
from repro.vm.profiler import BlockKey, ExecutionProfile

_SPEC_RE = re.compile(r"^@(\d+)pS(\d+)L$")


@dataclass(frozen=True)
class PruningFilter:
    """A @{P}pS{N}L block-pruning filter."""

    time_share_pct: float = 50.0
    max_blocks: int = 3
    cost_model: CostModel = PPC405_COST_MODEL

    @property
    def spec(self) -> str:
        return f"@{int(self.time_share_pct)}pS{self.max_blocks}L"

    def select_blocks(
        self,
        module: Module,
        profile: ExecutionProfile,
        block_costs: dict[BlockKey, float],
    ) -> list[BlockKey]:
        """Blocks that survive pruning, ordered hottest-first.

        *block_costs* is ``static_block_costs(module, self.cost_model)``.
        """
        shares = profile.block_time_shares(block_costs)
        hot = sorted(shares.items(), key=lambda kv: (-kv[1], kv[0]))

        # Hottest-first prefix until the cumulative time share reaches P%,
        # extended to at least N blocks (when that many executed blocks
        # exist) so very kernel-concentrated applications still offer the
        # identification stage its full block budget.
        cumulative = 0.0
        prefix: list[BlockKey] = []
        for key, share in hot:
            if share <= 0.0:
                break
            if (
                cumulative * 100.0 >= self.time_share_pct
                and len(prefix) >= self.max_blocks
            ):
                break
            prefix.append(key)
            cumulative += share

        sizes: dict[BlockKey, int] = {}
        for func in module.defined_functions():
            for block in func.blocks:
                sizes[(func.name, block.name)] = len(block.instructions)

        largest = sorted(prefix, key=lambda k: (-sizes.get(k, 0), k))
        selected = set(largest[: self.max_blocks])
        return [k for k in prefix if k in selected]


def parse_filter_spec(spec: str) -> PruningFilter:
    """Parse ``@50pS3L``-style filter specifications."""
    match = _SPEC_RE.match(spec)
    if not match:
        raise ValueError(f"malformed pruning filter spec: {spec!r}")
    share = float(match.group(1))
    count = int(match.group(2))
    if not 0 < share <= 100:
        raise ValueError(f"time share must be in (0, 100]: {spec!r}")
    if count < 1:
        raise ValueError(f"block count must be >= 1: {spec!r}")
    return PruningFilter(time_share_pct=share, max_blocks=count)


NO_PRUNING = PruningFilter(time_share_pct=100.0, max_blocks=10**9)
