"""Shared fixtures: small programs exercising every pipeline stage."""

from __future__ import annotations

import pytest

from repro.frontend import compile_source
from repro.ir import I32, IRBuilder, Module
from repro.ir.opcodes import ICmpPred
from repro.vm import Interpreter


@pytest.fixture
def fp_kernel_source() -> str:
    """A small FP stencil kernel: rich MAXMISO candidates, fast to run."""
    return """
double a[64]; double b[64]; double c[64];
int main() {
    int n = dataset_size();
    if (n < 8) n = 8;
    if (n > 64) n = 64;
    srand(dataset_seed());
    for (int i = 0; i < 64; i++) { a[i] = 0.01 * (double)(rand() % 100); b[i] = 1.0; }
    double s = 0.0;
    for (int it = 0; it < 12; it++) {
        for (int i = 0; i < n - 1; i++) {
            c[i] = a[i] * b[i] + a[i + 1] * 0.25 - b[i] / 3.0;
            s += c[i] * c[i];
        }
    }
    print_f64(s);
    return 0;
}
"""


@pytest.fixture
def fp_kernel(fp_kernel_source):
    """Compiled FP kernel module."""
    return compile_source(fp_kernel_source, "fp_kernel")


@pytest.fixture
def fp_kernel_profile(fp_kernel):
    """(module, profile, result) of the FP kernel on a fixed dataset."""
    interp = Interpreter(fp_kernel.module, dataset_size=48, dataset_seed=3)
    result = interp.run("main")
    return fp_kernel.module, result.profile, result


def build_sumsq_module() -> Module:
    """Hand-built (unoptimized) sum-of-squares function for IR-level tests.

    Uses alloca/load/store locals so mem2reg has work to do.
    """
    module = Module("sumsq")
    func = module.declare_function("sumsq", I32, [("n", I32)])
    entry = func.add_block("entry")
    loop = func.add_block("loop")
    body = func.add_block("body")
    done = func.add_block("done")

    b = IRBuilder(entry)
    acc_slot = b.alloca(I32)
    i_slot = b.alloca(I32)
    b.store(b.i32(0), acc_slot)
    b.store(b.i32(0), i_slot)
    b.br(loop)

    b.set_block(loop)
    i = b.load(I32, i_slot)
    cond = b.icmp(ICmpPred.SLT, i, func.args[0])
    b.condbr(cond, body, done)

    b.set_block(body)
    i2 = b.load(I32, i_slot)
    sq = b.mul(i2, i2)
    acc = b.load(I32, acc_slot)
    b.store(b.add(acc, sq), acc_slot)
    b.store(b.add(i2, b.i32(1)), i_slot)
    b.br(loop)

    b.set_block(done)
    b.ret(b.load(I32, acc_slot))
    return module


@pytest.fixture
def sumsq_module() -> Module:
    return build_sumsq_module()


def run_main(source: str, module_name: str = "t", dataset_size: int = 0, seed: int = 1):
    """Compile + run a MiniC program, return the ExecutionResult."""
    result = compile_source(source, module_name)
    interp = Interpreter(result.module, dataset_size=dataset_size, dataset_seed=seed)
    return interp.run("main")


def implement_app_candidates(app: str) -> list:
    """CAD implementations of *app*'s distinct selected candidates.

    Compiles the app, profiles its training dataset and implements the
    first candidate of every structural signature the default search
    selects, in selection order: the candidates a cold analysis places.
    """
    from repro.apps import get_app
    from repro.apps.base import compile_app
    from repro.fpga import CadToolFlow
    from repro.ise import CandidateSearch

    spec = get_app(app)
    compiled = compile_app(spec)
    profile = compiled.run(spec.train).profile
    flow = CadToolFlow()
    first_of_signature = {}
    for est in CandidateSearch().run(compiled.module, profile).selected:
        first_of_signature.setdefault(est.candidate.signature, est.candidate)
    return [flow.implement(c) for c in first_of_signature.values()]


@pytest.fixture(scope="session")
def fft_implementations() -> list:
    return implement_app_candidates("fft")
