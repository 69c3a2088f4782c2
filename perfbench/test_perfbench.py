"""The benchmark's own test: smoke runs of every workload.

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs at minimum size, untraced and traced; every metric
named in BENCHMARK.json must come out with its unit, and the
correctness checks must be live (a tampered expectation fails the run).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(tree: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--smoke", "--seconds", "1", *args],
        capture_output=True, text=True, timeout=600, check=False,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def copy_tree(tmp_path: Path, with_src: bool) -> Path:
    tree = tmp_path / "tree"
    shutil.copytree(HERE, tree / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    if with_src:
        (tree / "src").symlink_to(ROOT / "src")
    return tree


#: Every workload the command runs; BENCHMARK.json lists the steady ones.
WORKLOADS = ("portfolio", "iscas_mid", "serve")


def test_listed_workloads_are_runnable():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_with_its_unit(workload, trace):
    done = run(ROOT, "--workload", workload, "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["end_to_end"] if trace == "0" else BENCHMARK["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_per_layer_list_matches_layers_module():
    sys.path.insert(0, str(HERE))
    import layers

    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(entry) for entry in layers.PER_LAYER
    ]


def test_a_wrong_output_fails_the_run(tmp_path):
    tree = copy_tree(tmp_path, with_src=True)
    expected_path = tree / "perfbench" / "expected.json"
    expected = json.loads(expected_path.read_text())
    expected["portfolio-smoke"]["digest"] = "0" * 64
    expected_path.write_text(json.dumps(expected))
    done = run(tree, "--workload", "portfolio")
    assert done.returncode == 1
    assert result_of(done)["correct"] is False
    assert "digest" in done.stderr


def test_without_the_program_it_fails_without_a_result(tmp_path):
    tree = copy_tree(tmp_path, with_src=False)
    done = run(tree, "--workload", "portfolio")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
