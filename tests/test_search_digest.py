"""Search digest gate: every app's candidate search is pinned bit for bit.

One sha256 per app over what the MAXMISO search hands the rest of the
pipeline, under the paper's ``@50pS3L`` filter and without pruning:
candidate keys, signatures, node order, I/O counts and the PivPav
estimate, the pruned blocks, the static block costs, the ASIP speedup and
the break-even analysis. The four embedded apps are also searched with
the UnionMISO and SingleCut identifiers, whose merging and enumeration
lean on the dataflow graph's convexity test and topological order; a
SingleCut run with a small search budget stops part-way, so what it
finds depends on the order in which the graph lists successors.

The digests were recorded with the networkx-backed dataflow graph and the
branch-only cycle cost model, after SingleCut's expansion and cover
tie-breaks moved from ``id()`` order (which changed with the heap layout
of the process) to program order. Any change to the graph's adjacency
order, its convexity or critical-path answers, or an opcode's cycle cost
shows up here as a changed digest.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.apps import ALL_APPS, get_app
from repro.apps.base import compile_app
from repro.core.breakeven import BreakEvenModel
from repro.ise import CandidateSearch, SingleCutIdentifier, UnionMisoIdentifier
from repro.ise.pruning import NO_PRUNING, PruningFilter
from repro.profiling import classify_blocks
from repro.vm.profiler import static_block_costs
from repro.woolcano.machine import WoolcanoMachine

EMBEDDED = ("adpcm", "fft", "sor", "whetstone")

#: Fixed specialization overhead charged to the break-even model, so the
#: digest does not depend on measured search time or CAD stage times.
OVERHEAD_SECONDS = 37.5

# app -> sha256 over the @50pS3L and unpruned MAXMISO search rows
GOLDEN_MAXMISO = {
    "164.gzip":
        "6137373bc70e330809b4df6b711e30ff4a2970cb8acf4cf8b330b419b612d28e",
    "179.art":
        "896bcf7e78bf77c53b1ee3a2f67908bc0c49cd3c543513167a9c434291e99f58",
    "183.equake":
        "b55152abbf655ab2f1beaae85e3edf58c280461525dab6aabd67041266fb3d98",
    "188.ammp":
        "888d22bf68f26408c314fb9f10ba53780d45c662f634f016425539cb2833d79e",
    "429.mcf":
        "788d682d6db254bb6576ebf599c0d3ad8399f23def69d5637a7ddb150c7ecb97",
    "433.milc":
        "4da8e05a1c2b08853daf4b915bdf347904ad48f749dcaabb357a89db7eabbf43",
    "444.namd":
        "1363a4d58be1f120bd116225311bea17c1664c264d03e8134cd11facbcbad43f",
    "458.sjeng":
        "9e9265d0562343c9341f3a12b260f41b82618f01d42cc3feeffa4b0eb1917647",
    "470.lbm":
        "90154caf858348fddfdc2764d7b212b4189e1132c4fdb365815304dfcd7d4197",
    "473.astar":
        "7914b8736dd8709ddc2aa6f5b61434cafb264a9e62ceaababf55afa3ec179b7e",
    "adpcm":
        "bcefac2b15d10fbaf2992412a01d47ec4e51c7e17bb71f9057608f28e80fe4ad",
    "fft":
        "386ab0917bc1047397f0bb4a34eb567ad1088e0c813d7dc4f329e871b938582e",
    "sor":
        "e00d5539ccc51fa6b6585a94dee1a0c398a6eadd132fd080dba27640aacf0ffd",
    "whetstone":
        "910f115be76c468a6e0f13d5c5e86d8f169abd3d4ffe6fc725046ce980eb0f38",
}

# embedded app -> sha256 over its UnionMISO and SingleCut search rows
GOLDEN_IDENTIFIERS = {
    "adpcm":
        "4c60e7e4a9b0cc55eced042a6cc7712a274c06071bc0266f3314c189db4944bd",
    "fft":
        "9878652065117d1dbaf76b7843efb59f760a7b7e562e21fbdf13ec85804babee",
    "sor":
        "ffe9dd577e6a1870c85256be2836e17f1ab0accaf210ad3a0a8c1d0f39b30203",
    "whetstone":
        "f569fccc9612131ad737840d8d862e218a66a74b770f4c77e640b89d006c9a19",
}


@lru_cache(maxsize=len(EMBEDDED))
def profiled_app(app: str):
    """(module, training profile, coverage) of *app*, as a serve context."""
    spec = get_app(app)
    compiled = compile_app(spec)
    profiles = [compiled.run(ds).profile for ds in spec.datasets]
    train = profiles[[ds.name for ds in spec.datasets].index(spec.train.name)]
    return compiled.module, train, classify_blocks(compiled.module, profiles)


def estimate_rows(estimates) -> list[tuple]:
    rows = []
    for est in estimates:
        cand = est.candidate
        rows.append(
            (
                cand.key,
                cand.signature,
                tuple(n.name for n in cand.nodes),
                tuple(n.name for n in cand.dfg.topological_order(set(cand.nodes))),
                len(cand.inputs),
                len(cand.outputs),
                repr(est.sw_cycles),
                repr(est.hw_cycles),
                repr(est.hw_latency_ns),
                est.luts,
                est.flipflops,
                est.dsp48,
                est.bram,
            )
        )
    return rows


def search_rows(app: str, search: CandidateSearch) -> list:
    module, train, coverage = profiled_app(app)
    machine = WoolcanoMachine()
    result = search.run(module, train)
    costs = static_block_costs(module, machine.cost_model)
    speedup = machine.speedup(costs, train, result.selected)
    breakeven = BreakEvenModel(cost_model=machine.cost_model).analyze(
        costs, train, coverage, result.selected, OVERHEAD_SECONDS
    )
    return [
        estimate_rows(result.selected),
        estimate_rows(result.rejected),
        result.pruned_blocks,
        result.pruned_block_instructions,
        repr((speedup.base_cycles, speedup.asip_cycles, speedup.ratio)),
        repr(breakeven),
    ]


def maxmiso_digest(app: str) -> str:
    module, _, _ = profiled_app(app)
    cost_model = WoolcanoMachine().cost_model
    rows = [
        search_rows(app, CandidateSearch(cost_model=cost_model)),
        search_rows(
            app,
            CandidateSearch(
                pruning=NO_PRUNING,
                min_total_cycles_saved=0.0,
                cost_model=cost_model,
            ),
        ),
        repr(sorted(static_block_costs(module, cost_model).items())),
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def identifiers_digest(app: str) -> str:
    cost_model = WoolcanoMachine().cost_model
    rows = [
        search_rows(
            app,
            CandidateSearch(
                pruning=PruningFilter(),
                identifier=identifier,
                min_total_cycles_saved=0.0,
                cost_model=cost_model,
            ),
        )
        for identifier in (
            UnionMisoIdentifier(),
            SingleCutIdentifier(),
            SingleCutIdentifier(search_budget=50),
        )
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_every_app_has_a_golden_digest():
    assert sorted(GOLDEN_MAXMISO) == sorted(spec.name for spec in ALL_APPS)


@pytest.mark.parametrize("app", sorted(GOLDEN_MAXMISO))
def test_maxmiso_search_digest_matches_golden(app):
    assert maxmiso_digest(app) == GOLDEN_MAXMISO[app]


@pytest.mark.parametrize("app", EMBEDDED)
def test_union_and_singlecut_digest_matches_golden(app):
    assert identifiers_digest(app) == GOLDEN_IDENTIFIERS[app]
