"""Application and dataset specifications.

An :class:`AppSpec` bundles a benchmark's MiniC sources with several input
data sets, as required by the multi-data-set coverage methodology of the
paper's Section IV-C.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.frontend.compiler import CompilationResult, compile_files
from repro.obs import get_tracer
from repro.vm.interpreter import ExecutionResult, Interpreter


@dataclass(frozen=True)
class DatasetSpec:
    """One input data set: a size parameter plus a data seed.

    ``size`` reaches the program via the ``dataset_size()`` intrinsic; what
    it means (elements, iterations, grid points) is up to the application.
    The paper profiles each application under several data sets to classify
    code as live/const/dead; ``train`` plays the role of the SPEC train set
    used for the runtime measurements.
    """

    name: str
    size: int
    seed: int = 1


@dataclass(frozen=True)
class AppSpec:
    """A benchmark application."""

    name: str
    domain: str  # "scientific" | "embedded"
    description: str
    sources: tuple  # tuple[(filename, source), ...]
    datasets: tuple  # tuple[DatasetSpec, ...]; first entry is "train"
    entry: str = "main"

    @property
    def train(self) -> DatasetSpec:
        return self.datasets[0]

    def dataset(self, name: str) -> DatasetSpec:
        for ds in self.datasets:
            if ds.name == name:
                return ds
        raise KeyError(f"app {self.name} has no dataset {name!r}")


@dataclass
class CompiledApp:
    """A compiled application ready for execution."""

    spec: AppSpec
    compilation: CompilationResult

    @property
    def module(self):
        return self.compilation.module

    def run(
        self,
        dataset: DatasetSpec | str | None = None,
        max_steps: int = 200_000_000,
    ) -> ExecutionResult:
        if dataset is None:
            dataset = self.spec.train
        elif isinstance(dataset, str):
            dataset = self.spec.dataset(dataset)
        interp = Interpreter(
            self.module,
            dataset_size=dataset.size,
            dataset_seed=dataset.seed,
            max_steps=max_steps,
        )
        return interp.run(self.spec.entry)


def compile_app(spec: AppSpec, opt_level: int = 2) -> CompiledApp:
    """Compile an application (no caching: callers may patch the module)."""
    with get_tracer().span(
        "pipeline.compile", app=spec.name, opt_level=opt_level, measured=True
    ) as sp:
        result = compile_files(list(spec.sources), spec.name, opt_level)
        sp.set_attrs(
            files=result.files,
            instructions=result.instructions,
            virtual_seconds=result.compile_seconds,
        )
    return CompiledApp(spec=spec, compilation=result)
