"""Pairs: a Cartesian flow and its ``hex:`` twin run as one scheduler
task (one placement) while journal lines, cache entries, queue keys and
merge positions stay per flow.

Covers the pairing rule itself, resume with half a pair journaled, a
pair stalled past its wall budget, and a pair whose two queue keys end
up with different nodes — each time against the per-flow invariants
the unpaired scheduler already guaranteed (byte-identical databases,
exactly-once execution).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.benchsuite import benchmarks_of, get_benchmark
from repro.core import BenchmarkDatabase
from repro.core.bench import PAIRED_FLOWS, FlowTask, GenerationParams
from repro.networks.simulation import output_signature
from repro.scheduler import JOURNAL_NAME, DirectoryQueue, GenerationJournal, SchedulerParams
from repro.scheduler.engine import _pair_twins

from .conftest import (
    DETERMINISTIC_PARAMS,
    assert_databases_identical,
    finish_generate,
    run_generate,
    spawn_generate,
)

#: DETERMINISTIC_PARAMS with NanoPlaceR on: its rollout count, not its
#: (un-hittable) wall clock, ends the search, so npr is reproducible.
PAIR_PARAMS: dict = {
    **DETERMINISTIC_PARAMS,
    "nanoplacer_max_gates": 160,
    "nanoplacer_timeout": 600.0,
}


def _two_specs(rng):
    names = sorted(spec.name for spec in benchmarks_of("trindade16"))
    return [get_benchmark("trindade16", name) for name in rng.sample(names, 2)]


def _record_tasks(monkeypatch) -> list:
    import repro.core.bench as bench

    original = bench._execute_flow_task
    seen: list = []

    def recording(task):
        seen.append((task.name, task.flow, task.twin))
        return original(task)

    monkeypatch.setattr(bench, "_execute_flow_task", recording)
    return seen


def test_pairing_rule():
    params = GenerationParams()

    def item(flow, preloaded=None):
        task = FlowTask("s", "f", flow, "", params)
        return (None, flow, task, [], preloaded)

    pending = [
        item("ortho"), item("ortho_opt"), item("npr", preloaded={}),
        item("exact:2DDWave"), item("exact_hex"),
        item("hex:ortho"), item("hex:npr"), item("hex:exact"),
    ]
    # ortho pairs; ortho_opt has no twin in the sweep; npr is journaled,
    # so hex:npr runs alone; hex:exact is never paired.
    assert _pair_twins(pending) == {0: 5}


@pytest.mark.parametrize("journaled", ["base", "twin"])
def test_resume_with_half_a_pair_journaled(tmp_path, rng, monkeypatch, journaled):
    """The journal holds one flow of a pair but not the other: resume
    runs only the missing flow, on its own, and the database is
    byte-identical to one built without a crash."""
    specs = _two_specs(rng)
    flow = rng.choice(PAIRED_FLOWS)
    params = GenerationParams(**PAIR_PARAMS)
    reference, victim = tmp_path / "reference", tmp_path / "victim"
    BenchmarkDatabase(reference).generate(specs, params=params)
    BenchmarkDatabase(victim).generate(specs, params=params)

    missing = f"hex:{flow}" if journaled == "base" else flow
    journal_path = victim / JOURNAL_NAME
    lines = journal_path.read_bytes().splitlines(keepends=True)
    kept = [line for line in lines if json.loads(line)["flow"] != missing]
    assert len(kept) == len(lines) - len(specs)
    journal_path.write_bytes(b"".join(kept))
    (victim / "index.json").unlink()
    (victim / "facets.json").unlink(missing_ok=True)

    seen = _record_tasks(monkeypatch)
    report = BenchmarkDatabase(victim).generate(
        specs, params=params, scheduler=SchedulerParams(resume=True)
    ).report
    assert sorted(seen) == sorted((spec.name, missing, None) for spec in specs)
    assert report.resumed == len(kept)
    assert report.executed_flows == len(specs)
    assert_databases_identical(reference, victim)


def test_stalled_pair_times_out_both_flows(tmp_path, rng, monkeypatch):
    """A pair stalled past ``task_wall_budget`` is one killed task and
    two recorded ``timeout`` rejections; its wall time is charged to
    the base flow."""
    import repro.core.bench as bench

    flow = rng.choice(PAIRED_FLOWS)
    original = bench._execute_flow_task

    def stalling(task):
        if task.flow == flow:
            time.sleep(600)
        return original(task)

    monkeypatch.setattr(bench, "_execute_flow_task", stalling)
    spec = get_benchmark("trindade16", "mux21")
    budget = 3.0
    db = BenchmarkDatabase(tmp_path / "db")
    params = GenerationParams(**PAIR_PARAMS, jobs=2, task_wall_budget=budget)
    report = db.generate([spec], params=params).report

    assert report.timeouts == 2
    assert report.admitted == 4
    assert report.executed_flows == 6
    assert report.scheduler["workers_killed"] == 1
    entries = {entry["flow"]: entry for entry in db._flow_cache.values()}
    for name in (flow, f"hex:{flow}"):
        assert entries[name]["records"] == []
        (rejection,) = entries[name]["rejections"]
        assert rejection["status"] == "timeout"
        assert "wall budget" in rejection["reason"]
    for name in set(entries) - {flow, f"hex:{flow}"}:
        assert len(entries[name]["records"]) == 1

    journal = GenerationJournal.load(tmp_path / "db" / JOURNAL_NAME)
    statuses = {record.flow: record.status for record in journal.records.values()}
    assert statuses[flow] == statuses[f"hex:{flow}"] == "timeout"
    assert list(statuses.values()).count("done") == 4

    assert report.flow_seconds[f"trindade16/mux21:{flow}"] >= budget
    assert report.flow_seconds[f"trindade16/mux21:hex:{flow}"] == 0.0
    assert report.scheduler["flow_seconds"][f"hex:{flow}"] == 0.0


def test_pair_flow_seconds_split(tmp_path):
    """The base flow is charged the placement, the twin only its own
    hexagonalize + sign-off + serialise time; the progress label names
    both flows."""
    labels: list = []
    db = BenchmarkDatabase(tmp_path / "db")
    params = GenerationParams(**{**PAIR_PARAMS, "reproducible": False})
    spec = get_benchmark("trindade16", "mux21")
    scheduler = SchedulerParams(progress=lambda stats, label: labels.append(label))
    outcome = db.generate([spec], params=params, scheduler=scheduler)
    report = outcome.report

    started = [label for label in labels if label is not None]
    assert started == [
        f"trindade16/mux21 ({flow} + hex:{flow})" for flow in PAIRED_FLOWS
    ]
    records = {(r.algorithm, r.optimizations): r for r in outcome
               if r.runtime_seconds is not None}
    for flow in PAIRED_FLOWS:
        base = report.flow_seconds[f"trindade16/mux21:{flow}"]
        twin = report.flow_seconds[f"trindade16/mux21:hex:{flow}"]
        assert 0.0 < twin
        assert report.scheduler["flow_seconds"][flow] == base
        assert report.scheduler["flow_seconds"][f"hex:{flow}"] == twin
    # NanoPlaceR's search dominates its pair; the twin is not charged it.
    npr_base = report.flow_seconds["trindade16/mux21:npr"]
    assert report.flow_seconds["trindade16/mux21:hex:npr"] < npr_base
    # Records keep their meaning: a twin's runtime is the placement's
    # plus the hexagonalization's.
    npr = records[("NPR", ())]
    hex_npr = records[("NPR", ("45°",))]
    assert hex_npr.runtime_seconds >= npr.runtime_seconds > 0.0


def _queue_keys(tmp_path, specs, flows_of):
    scratch = BenchmarkDatabase(tmp_path / "scratch")
    params = GenerationParams(**DETERMINISTIC_PARAMS)
    keys = {}
    for spec in specs:
        network = spec.build(params.node_cap)
        signature = output_signature(network)
        for flow in flows_of:
            keys[(spec.name, flow)] = scratch._cache_key(signature, flow, params)
    return keys


def test_pair_keys_split_across_nodes(tmp_path, rng):
    """node-b sweeps only the Bestagon library and so holds every twin
    key; node-a, sweeping both libraries, then runs each base alone and
    adopts the twins.  Each key executes exactly once, on one node, and
    both databases equal solo sweeps."""
    specs = _two_specs(rng)
    benchmarks = tuple(("trindade16", spec.name) for spec in specs)
    queue_dir = tmp_path / "queue"
    bestagon = ("Bestagon",)
    report_b = run_generate(
        tmp_path / "node-b", benchmarks=benchmarks, libraries=bestagon,
        scheduler={"queue_dir": str(queue_dir), "node_id": "node-b"},
    )
    report_a = run_generate(
        tmp_path / "node-a", benchmarks=benchmarks,
        scheduler={"queue_dir": str(queue_dir), "node_id": "node-a"},
    )
    twins = 3 * len(specs)
    assert report_b["scheduler"]["remote_completed"] == 0
    assert report_a["scheduler"]["remote_completed"] == twins
    assert report_a["executed"] == 2 * twins

    audit = DirectoryQueue(queue_dir, "auditor")
    keys = _queue_keys(tmp_path, specs, PAIRED_FLOWS + tuple(
        f"hex:{flow}" for flow in PAIRED_FLOWS))
    for (name, flow), key in keys.items():
        expected = ["node-b"] if flow.startswith("hex:") else ["node-a"]
        assert audit.execution_nodes(key) == expected, (name, flow)
    assert audit.result_keys() == sorted(keys.values())

    run_generate(tmp_path / "solo", benchmarks=benchmarks)
    run_generate(tmp_path / "solo-b", benchmarks=benchmarks, libraries=bestagon)
    assert_databases_identical(tmp_path / "solo", tmp_path / "node-a")
    assert_databases_identical(tmp_path / "solo-b", tmp_path / "node-b")


def test_contended_pair_keys_execute_once(tmp_path, rng):
    """Two processes start together: node-a pairs every flow with its
    twin, node-b wants only the twins.  Whoever wins each twin key, no
    key executes twice and node-a's database equals a solo sweep."""
    specs = _two_specs(rng)
    benchmarks = tuple(("trindade16", spec.name) for spec in specs)
    queue_dir, barrier = tmp_path / "queue", tmp_path / "go"
    common = {"benchmarks": benchmarks, "delay": 0.05, "barrier": barrier}
    proc_a = spawn_generate(
        tmp_path / "node-a",
        scheduler={"queue_dir": str(queue_dir), "node_id": "node-a",
                   "lease_timeout": 300.0},
        **common,
    )
    proc_b = spawn_generate(
        tmp_path / "node-b", libraries=("Bestagon",),
        scheduler={"queue_dir": str(queue_dir), "node_id": "node-b",
                   "lease_timeout": 300.0},
        **common,
    )
    for proc in (proc_a, proc_b):
        assert proc.stdout.readline().strip() == "READY"
    barrier.touch()
    report_a, report_b = finish_generate(proc_a), finish_generate(proc_b)

    audit = DirectoryQueue(queue_dir, "auditor")
    task_keys = sorted(
        entry.name[: -len(".json")] for entry in audit.tasks_dir.iterdir()
    )
    assert len(task_keys) == 6 * len(specs)
    for key in task_keys:
        assert len(audit.execution_nodes(key)) == 1, key
    assert audit.result_keys() == task_keys
    stats_a, stats_b = report_a["scheduler"], report_b["scheduler"]
    local_a = stats_a["done"] - stats_a["remote_completed"]
    local_b = stats_b["done"] - stats_b["remote_completed"]
    assert local_a + local_b == len(task_keys)

    run_generate(tmp_path / "solo", benchmarks=benchmarks)
    assert_databases_identical(tmp_path / "solo", tmp_path / "node-a")
