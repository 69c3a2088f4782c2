"""Twin consistency: every stored Bestagon ``hex:X`` layout is the 45°
image of the QCA ONE ``X`` layout stored next to it.

The scheduler runs ``X`` and ``hex:X`` as one task that places once, so
the two artifacts come from one placement even when an anytime search
(NanoPlaceR) is cut short by its wall clock — the Fontes18 ``parity``
case with NanoPlaceR budgets of 0.5 s and 2.0 s.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.benchsuite import benchmarks_of, get_benchmark
from repro.core import BenchmarkDatabase, GenerationParams
from repro.core.bench import PAIRED_FLOWS, FlowTask, _execute_flow_task
from repro.io.fgl import fgl_to_layout, layout_to_fgl
from repro.networks.verilog import network_to_verilog
from repro.optimization.hexagonalization import to_hexagonal

#: No exact flows (wall-clock sliced), and a NanoPlaceR budget its
#: rollout count always ends first, so every function gets a layout.
SWEEP = GenerationParams(exact_max_elements=0, nanoplacer_timeout=600.0, node_cap=60)


def _twin_pairs(db: BenchmarkDatabase):
    """(X record, hex:X record) for every admitted twin in the cache."""
    by_flow = {
        (entry["suite"], entry["name"], entry["flow"]): entry
        for entry in db._flow_cache.values()
    }
    pairs = []
    for (suite, name, flow), entry in by_flow.items():
        if not flow.startswith("hex:") or flow == "hex:exact":
            continue
        base = by_flow[(suite, name, flow.split(":", 1)[1])]
        assert len(entry["records"]) == len(base["records"])
        pairs += list(zip(base["records"], entry["records"]))
    return pairs


def _assert_twins_consistent(db: BenchmarkDatabase, unseen: set) -> int:
    """Check every twin pair; discards each checked base's algorithm
    from ``unseen`` and returns the number of pairs checked."""
    checked = 0
    for base, twin in _twin_pairs(db):
        cartesian = fgl_to_layout(db.store.read_text(base["path"]))
        expected = layout_to_fgl(to_hexagonal(cartesian).layout)
        assert db.store.read_text(twin["path"]) == expected, twin["path"]
        unseen.discard(base["algorithm"])
        checked += 1
    return checked


def test_trindade16_twins_are_45_degree_images(tmp_path):
    db = BenchmarkDatabase(tmp_path)
    outcome = db.generate(benchmarks_of("trindade16"), params=SWEEP)
    assert outcome.report.admitted > 0
    unseen = {"ortho", "NPR"}
    checked = _assert_twins_consistent(db, unseen)
    # ortho, ortho_opt and npr twins of all seven functions
    assert checked == 3 * len(benchmarks_of("trindade16"))
    assert not unseen


@pytest.mark.parametrize("budget", [0.5, 2.0])
def test_cut_short_nanoplacer_twin_is_45_degree_image(tmp_path, budget):
    """NanoPlaceR needs ~20 rollouts (several seconds) on parity; at
    either budget its search is cut short, and whether it ends with a
    layout depends on the host's speed.  npr and hex:npr must agree
    either way: both without a layout, or the twin the image."""
    db = BenchmarkDatabase(tmp_path)
    params = GenerationParams(
        exact_max_elements=0, nanoplacer_timeout=budget, node_cap=60
    )
    db.generate([get_benchmark("fontes18", "parity")], params=params)
    flows = {entry["flow"] for entry in db._flow_cache.values()}
    assert {"npr", "hex:npr"} <= flows
    assert _assert_twins_consistent(db, set()) >= 2  # ortho, ortho_opt


@pytest.mark.parametrize("flow", PAIRED_FLOWS)
def test_pair_task_matches_standalone_twin(flow):
    """A pair task's twin result equals the standalone ``hex:`` flow's
    (deterministic flows: the same placement either way)."""
    network = get_benchmark("trindade16", "mux21").build(60)
    params = GenerationParams(
        exact_max_elements=0, inord_evaluations=3, inord_timeout=120.0,
        plo_timeout=120.0, nanoplacer_timeout=120.0, node_cap=60,
        reproducible=True,
    )
    verilog = network_to_verilog(network)
    task = FlowTask("trindade16", "mux21", flow, verilog, params)
    base, twin = _execute_flow_task(
        FlowTask("trindade16", "mux21", flow, verilog, params, twin=f"hex:{flow}")
    )
    (alone_base,) = _execute_flow_task(task)
    (alone_twin,) = _execute_flow_task(
        FlowTask("trindade16", "mux21", f"hex:{flow}", verilog, params)
    )
    assert (base.flow, twin.flow) == (flow, f"hex:{flow}")
    assert base.candidates == alone_base.candidates
    assert twin.candidates == alone_twin.candidates
    assert twin.candidates and twin.candidates[0].library == "Bestagon"


def test_pair_places_once(tmp_path, monkeypatch):
    """One NanoPlaceR search per function, whatever its outcome: each
    call below draws a different seed, so a second search for the twin
    could place differently."""
    import repro.core.bench as bench

    original = bench.nanoplacer_layout
    calls: list[str] = []

    def reseeded(network, params):
        calls.append(network.name)
        return original(network, replace(params, seed=len(calls)))

    monkeypatch.setattr(bench, "nanoplacer_layout", reseeded)
    specs = [get_benchmark("trindade16", name) for name in ("mux21", "xor2")]
    db = BenchmarkDatabase(tmp_path)
    db.generate(specs, params=SWEEP)
    assert sorted(calls) == ["mux21", "xor2"]
    unseen = {"NPR"}
    assert _assert_twins_consistent(db, unseen) == 3 * len(specs)
    assert not unseen
