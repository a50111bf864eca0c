"""Execution profiles: per-basic-block dynamic execution counts.

The paper's methodology rests on block-level profiles: they drive the
live/dead/const code-coverage classification (Table I), the kernel-size
analysis, the pruning filters, the speedup estimates, and the break-even
model. A profile here is a mapping ``(function_name, block_name) -> count``
plus enough static information to convert counts into cycles under any cost
model *after* the run (so ASIP what-if analyses never need to re-execute).

The same post-hoc trick yields opcode-level observability for free: dynamic
per-opcode counts and opcode-digram (adjacent-pair) counts are derived from
the static block composition multiplied by the block counts, so the
interpreter never pays a per-instruction hook. :class:`BlockTimeSampler`
adds the one thing counts cannot give — *real*-clock attribution per block —
as an opt-in statistical sampler run around an unchanged interpreter:
``repro vmprof`` prints each block's sampled real share beside its
virtual share and kernel flag, and ``repro bench vm`` prices the sampler.
"""

from __future__ import annotations

import signal
import threading
from dataclasses import dataclass, field
from time import perf_counter

from repro.ir.module import Module
from repro.ir.opcodes import Opcode
from repro.vm.costmodel import CostModel

BlockKey = tuple[str, str]


@dataclass
class BlockProfile:
    """Profile data of one basic block."""

    function: str
    block: str
    count: int = 0
    static_instructions: int = 0

    @property
    def key(self) -> BlockKey:
        return (self.function, self.block)

    @property
    def dynamic_instructions(self) -> int:
        return self.count * self.static_instructions


@dataclass
class ExecutionProfile:
    """Block-level profile of one program execution."""

    module_name: str = ""
    blocks: dict[BlockKey, BlockProfile] = field(default_factory=dict)

    def record(self, function: str, block: str, static_instructions: int) -> None:
        key = (function, block)
        prof = self.blocks.get(key)
        if prof is None:
            prof = BlockProfile(function, block, 0, static_instructions)
            self.blocks[key] = prof
        prof.count += 1

    def count_of(self, function: str, block: str) -> int:
        prof = self.blocks.get((function, block))
        return prof.count if prof else 0

    @property
    def total_block_executions(self) -> int:
        return sum(p.count for p in self.blocks.values())

    @property
    def total_dynamic_instructions(self) -> int:
        return sum(p.dynamic_instructions for p in self.blocks.values())

    # -- cycle accounting ------------------------------------------------------
    def total_cycles(
        self,
        module: Module,
        cost_model: CostModel,
        block_cost_override=None,
    ) -> float:
        """Total CPU cycles of the profiled run under *cost_model*.

        ``block_cost_override(func_name, block) -> float | None`` lets the
        Woolcano machine model substitute per-block costs where custom
        instructions replace part of the block.
        """
        total = 0.0
        costs = static_block_costs(module, cost_model)
        for key, prof in self.blocks.items():
            if prof.count == 0:
                continue
            cost = None
            if block_cost_override is not None:
                cost = block_cost_override(*key)
            if cost is None:
                cost = costs.get(key)
            if cost is None:
                continue  # block disappeared (e.g. different module version)
            total += prof.count * cost
        return total

    def block_cycles(
        self, block_costs: dict[BlockKey, float]
    ) -> dict[BlockKey, float]:
        """Total cycles spent in each profiled block (count x static cost).

        *block_costs* is :func:`static_block_costs` of the profiled module.
        """
        return {
            key: prof.count * block_costs.get(key, 0.0)
            for key, prof in self.blocks.items()
        }

    def block_time_shares(
        self, block_costs: dict[BlockKey, float]
    ) -> dict[BlockKey, float]:
        """Fraction of total execution time spent in each block."""
        per_block = self.block_cycles(block_costs)
        total = sum(per_block.values())
        if total <= 0:
            return {key: 0.0 for key in per_block}
        return {key: v / total for key, v in per_block.items()}

    # -- opcode accounting (derived, zero runtime overhead) --------------------
    def opcode_counts(self, module: Module) -> dict[str, int]:
        """Dynamic per-opcode execution counts (mnemonic -> count).

        Derived post-hoc as static block composition x block count, so the
        hot loop never maintains per-instruction counters.
        """
        composition = static_block_opcodes(module)
        totals: dict[str, int] = {}
        for key, prof in self.blocks.items():
            if prof.count == 0:
                continue
            for mnemonic in composition.get(key, ()):
                totals[mnemonic] = totals.get(mnemonic, 0) + prof.count
        return totals

    def digram_counts(self, module: Module) -> dict[tuple[str, str], int]:
        """Dynamic adjacent-opcode-pair counts within basic blocks.

        Pairs never span a block boundary: the successor of a terminator is
        control-dependent, so a cross-block pair is not a straight-line
        fusion opportunity.
        """
        composition = static_block_opcodes(module)
        totals: dict[tuple[str, str], int] = {}
        for key, prof in self.blocks.items():
            if prof.count == 0:
                continue
            ops = composition.get(key, ())
            for first, second in zip(ops, ops[1:]):
                pair = (first, second)
                totals[pair] = totals.get(pair, 0) + prof.count
        return totals

    def opcode_cycles(
        self, module: Module, cost_model: CostModel
    ) -> dict[str, float]:
        """Virtual cycles attributed to each opcode (mnemonic -> cycles)."""
        per_block: dict[BlockKey, dict[str, float]] = {}
        for func in module.defined_functions():
            for block in func.blocks:
                acc: dict[str, float] = {}
                for instr in block.instructions:
                    mnemonic = instr.opcode.value
                    acc[mnemonic] = acc.get(mnemonic, 0.0) + cost_model.cycles_for(
                        instr
                    )
                per_block[(func.name, block.name)] = acc
        totals: dict[str, float] = {}
        for key, prof in self.blocks.items():
            if prof.count == 0:
                continue
            for mnemonic, cycles in per_block.get(key, {}).items():
                totals[mnemonic] = totals.get(mnemonic, 0.0) + prof.count * cycles
        return totals

    def merged_with(self, other: "ExecutionProfile") -> "ExecutionProfile":
        merged = ExecutionProfile(self.module_name)
        for src in (self, other):
            for key, prof in src.blocks.items():
                if key in merged.blocks:
                    merged.blocks[key].count += prof.count
                else:
                    merged.blocks[key] = BlockProfile(
                        prof.function, prof.block, prof.count, prof.static_instructions
                    )
        return merged


def static_block_costs(
    module: Module, cost_model: CostModel
) -> dict[BlockKey, float]:
    """Static per-execution cycle cost of every block in *module*.

    A block's cost is the sum of its instructions' costs; call instructions
    contribute only call overhead (the callee's body is accounted in the
    callee's own blocks).
    """
    costs: dict[BlockKey, float] = {}
    for func in module.defined_functions():
        for block in func.blocks:
            total = 0.0
            for instr in block.instructions:
                # CUSTOM instructions are priced only by WoolcanoCostModel;
                # the base model raises ValueError, which is the right
                # failure mode for un-patched accounting paths.
                total += cost_model.cycles_for(instr)
            costs[(func.name, block.name)] = total
    return costs


def static_block_opcodes(module: Module) -> dict[BlockKey, tuple[str, ...]]:
    """Opcode mnemonics of every block, in instruction order."""
    return {
        (func.name, block.name): tuple(
            instr.opcode.value for instr in block.instructions
        )
        for func in module.defined_functions()
        for block in func.blocks
    }


#: The sampler's timer period in seconds.
SAMPLE_INTERVAL_S = 0.001


@dataclass
class BlockTimeSampler:
    """Statistical real-clock sampler attributing wall time to compiled blocks.

    A context manager around interpreter runs::

        with BlockTimeSampler() as sampler:
            compiled.run(dataset)

    Entering arms ``setitimer(ITIMER_REAL)`` every ``interval`` seconds
    under a ``SIGALRM`` handler; leaving disarms it and restores the
    previous handler, also when the run raises. The handler charges the
    wall time since the previous sample to the block of the nearest
    function-unit frame on the stack: a unit's globals hold the
    ``_LINES`` table the interpreter binds, the profile key of each of
    its source lines, and the frame's ``f_lineno`` indexes it.
    ``Interpreter._call`` and intrinsics are charged to the calling
    block. A callee's unit is generated on its first call under a frame
    whose ``_LINES`` names the callee's entry block, so its generation
    is the callee's time; the run's entry function is generated before
    any unit runs, and a sample with no unit frame is dropped. The units
    carry no sampling code, so a sampled run executes a plain run's
    code.

    ``ITIMER_REAL`` because a sample then stays wall time, as
    ``perf_counter`` measures it, and because ``ITIMER_PROF``, asked for
    1 ms on a 2-CPU Linux host, fired only about every 4 ms (58 samples
    in a 0.235 s adpcm run, where ITIMER_REAL gave 170-270). Python runs signal
    handlers only in the main thread, where ``repro vmprof`` and ``repro
    bench vm`` sample: entering from another thread raises
    ``RuntimeError``, as does entering while the timer is already armed.
    A handler can itself be interrupted, so an ``interval`` under 0.1 ms,
    near the handler's own cost, raises ``ValueError``.

    ``samples`` accumulates seconds per ``(function, block)`` key; using
    the same sampler around several runs aggregates them.
    """

    interval: float = SAMPLE_INTERVAL_S
    samples: dict[BlockKey, float] = field(default_factory=dict)
    sample_count: int = 0
    last: float = 0.0
    _previous: object = field(default=None, repr=False)

    def __enter__(self) -> "BlockTimeSampler":
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(
                "BlockTimeSampler runs only in the main thread, where Python "
                "delivers SIGALRM"
            )
        if not self.interval >= 1e-4:
            raise ValueError(
                f"BlockTimeSampler: interval {self.interval} s is below 0.1 ms"
            )
        if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
            raise RuntimeError("BlockTimeSampler: ITIMER_REAL is already armed")
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.last = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        previous = self._previous
        signal.signal(
            signal.SIGALRM, signal.SIG_DFL if previous is None else previous
        )

    def _on_alarm(self, signum, frame) -> None:
        now = perf_counter()
        elapsed = now - self.last
        self.last = now
        while frame is not None:
            lines = frame.f_globals.get("_LINES")
            if lines is not None:
                # Exception clean-up code has no line: drop its samples.
                if frame.f_lineno is None:
                    return
                key = lines[frame.f_lineno]
                break
            frame = frame.f_back
        else:
            return
        self.samples[key] = self.samples.get(key, 0.0) + elapsed
        self.sample_count += 1

    @property
    def sampled_seconds(self) -> float:
        """Total wall time attributed so far."""
        return sum(self.samples.values())

    def shares(self) -> dict[BlockKey, float]:
        """Fraction of sampled wall time attributed to each block."""
        total = self.sampled_seconds
        if total <= 0:
            return {key: 0.0 for key in self.samples}
        return {key: v / total for key, v in self.samples.items()}
