"""Columnar analytics benchmark: batch engine vs. per-artifact reference.

Builds a real packed database over the full Trindade16 + Fontes18
suites (18 functions, several ortho-family artifacts each, Verilog
specifications alongside) and then sweeps it twice per workload:

* **reference**: the per-artifact test oracle
  (``reference_analyze_texts``) — one artifact read, ``fgl_to_layout``
  object parse, ``compute_metrics``, ``check_layout`` and
  ``output_signature`` per record, exactly what ``core/table.py`` and
  ``verify_layout`` did before the analytics engine existed;
* **columnar**: ``LayoutBatch`` decoded straight out of
  ``artifacts.pack`` slices into struct-of-arrays columns, with the
  metrics/DRC/simulation kernels running across the whole batch.

Before any timing, the identity oracle proves the two indistinguishable:
every metric, DRC verdict and output signature is equal, and the
rankings, verdicts and rendered report (markdown, CSV and JSON) built
from the oracle's analyses equal the production ones.  Results
(per-workload wall time, aggregate speedup, canonical-scanner hit
rate) go to ``BENCH_analytics.json`` at the repository root.

Runnable standalone (``python benchmarks/bench_analytics.py``, add
``--quick`` for a seconds-scale smoke subset) or under
``pytest benchmarks/bench_analytics.py --benchmark-only``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from repro.analytics import (
    best_pairs,
    build_report,
    database_info,
    gate_level_records,
    reference_analyze_texts,
    report_from_pairs,
    sweep_database,
    verify_database,
    verify_pairs,
)
from repro.benchsuite import benchmarks_of
from repro.core import BenchmarkDatabase
from repro.core.bench import BenchmarkFile
from repro.core.selection import AbstractionLevel
from repro.io import layout_to_fgl
from repro.networks.verilog import write_verilog
from repro.optimization import post_layout_optimization, to_hexagonal
from repro.physical_design import orthogonal_layout

RESULT_PATH = Path(__file__).parent.parent / "BENCH_analytics.json"

#: The acceptance floor on the aggregate sweep speedup.
REQUIRED_SPEEDUP = 5.0

#: The benchmark database spans these suites (18 functions total).
SUITES = ("trindade16", "fontes18")
SUITES_QUICK = ("trindade16",)

#: Timing repetitions; the best of N is reported per workload.
REPEATS = 3
REPEATS_QUICK = 1


def _variants(network):
    """Ortho-family artifacts for one function: plain, PLO, hexagonal."""
    plain = orthogonal_layout(network).layout
    optimized = post_layout_optimization(plain.clone()).layout
    hexagonal = to_hexagonal(plain.clone()).layout
    return (
        (plain, "QCA ONE", "2DDWave", "ortho", ()),
        (optimized, "QCA ONE", "2DDWave", "ortho", ("PLO",)),
        (hexagonal, "Bestagon", "ROW", "ortho", ("45°",)),
    )


def build_database(root: Path, quick: bool) -> BenchmarkDatabase:
    """Generate, index and pack the Trindade16+Fontes18 database."""
    suites = SUITES_QUICK if quick else SUITES
    db = BenchmarkDatabase(root)
    for suite in suites:
        (root / suite).mkdir(parents=True, exist_ok=True)
        for spec in benchmarks_of(suite):
            network = spec.build()
            write_verilog(network, root / suite / f"{spec.name}.v")
            for layout, library, scheme, algorithm, opts in _variants(network):
                filename = BenchmarkDatabase.file_name(
                    spec.name, library, scheme, algorithm, opts
                )
                relpath = f"{suite}/{filename}"
                (root / relpath).write_text(
                    layout_to_fgl(layout), encoding="utf-8"
                )
                width, height = layout.bounding_box()
                db._records.append(
                    BenchmarkFile(
                        suite=suite,
                        name=spec.name,
                        abstraction_level=AbstractionLevel.GATE_LEVEL,
                        path=relpath,
                        gate_library=library,
                        clocking_scheme=scheme,
                        algorithm=algorithm,
                        optimizations=opts,
                        width=width,
                        height=height,
                        area=width * height,
                    )
                )
    db._save_index()
    db.pack()
    # Re-open: the sweeps read the persisted sidecars, like a fresh process.
    return BenchmarkDatabase(root)


def reference_sweep(db, with_signatures: bool = False) -> list[tuple]:
    """The oracle's (record, analysis) pairs, one artifact at a time."""
    records = gate_level_records(db)
    texts = [db.artifact_text(record) for record in records]
    analyses = reference_analyze_texts(texts, with_signatures=with_signatures)
    return list(zip(records, analyses))


def check_engines_agree(db: BenchmarkDatabase) -> dict:
    """The identity oracle: columnar and reference must be
    indistinguishable."""
    columnar = sweep_database(db, with_signatures=True)
    reference = reference_sweep(db, with_signatures=True)
    analyses_identical = len(columnar) == len(reference) and all(
        rec_c is rec_r and ana_c == ana_r
        for (rec_c, ana_c), (rec_r, ana_r) in zip(columnar, reference)
    )
    verdicts_identical = (
        db.verify_all().records == verify_pairs(db, reference).records
    )
    # Rankings and reports are built from signature-less sweeps.
    reference = reference_sweep(db)
    rankings_identical = [(r.path, a) for r, a in db.best()] == [
        (r.path, a) for r, a in best_pairs(reference)
    ]
    report_c = build_report(db)
    report_r = report_from_pairs(db, reference)
    reports_identical = (
        report_c.to_csv() == report_r.to_csv()
        and report_c.to_markdown() == report_r.to_markdown()
        and report_c.to_json() == report_r.to_json()
    )
    return {
        "analyses_identical": analyses_identical,
        "rankings_identical": rankings_identical,
        "drc_verdicts_identical": verdicts_identical,
        "report_bytes_identical": reports_identical,
    }


def _time_best(repeats: int, thunk) -> float:
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        thunk()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _workloads(db: BenchmarkDatabase) -> dict:
    """Named sweeps, each as a (reference, columnar) pair of thunks."""
    return {
        "metrics_sweep": (
            lambda: reference_sweep(db),
            lambda: sweep_database(db),
        ),
        "full_verification": (
            lambda: verify_pairs(db, reference_sweep(db, with_signatures=True)),
            lambda: verify_database(db),
        ),
    }


def bench_analytics(quick: bool) -> dict:
    repeats = REPEATS_QUICK if quick else REPEATS
    with TemporaryDirectory(prefix="bench_analytics_") as tmp:
        db = build_database(Path(tmp), quick)
        correctness = check_engines_agree(db)
        timings = {}
        for name, (reference, columnar) in _workloads(db).items():
            timings[name] = {
                "reference": _time_best(repeats, reference),
                "columnar": _time_best(repeats, columnar),
            }
        info = database_info(db)
        db.store.close()
    reference_total = sum(t["reference"] for t in timings.values())
    columnar_total = sum(t["columnar"] for t in timings.values())
    return {
        "database": {
            "suites": list(SUITES_QUICK if quick else SUITES),
            "functions": info["gate_level_artifacts"] // 3,
            "gate_level_artifacts": info["gate_level_artifacts"],
            "packed_artifacts": info["packed_artifacts"],
            "pack_bytes": info["pack_bytes"],
            "uncompressed_bytes": info["uncompressed_bytes"],
            "compression_ratio": info["compression_ratio"],
        },
        "correctness": correctness,
        "canonical_scanner": {"fallback_decodes": info["fallback_decodes"]},
        "workloads": {
            name: {
                "reference_seconds": row["reference"],
                "columnar_seconds": row["columnar"],
                "speedup": row["reference"] / row["columnar"]
                if row["columnar"]
                else None,
            }
            for name, row in timings.items()
        },
        "aggregate_speedup": reference_total / columnar_total
        if columnar_total
        else None,
    }


def run_all(
    quick: bool = False, write: bool = True, output: Path | None = None
) -> dict:
    results = {"quick": quick, "analytics": bench_analytics(quick)}
    if write:
        path = output or RESULT_PATH
        path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return results


def _check_correctness(analytics: dict) -> None:
    correctness = analytics["correctness"]
    assert correctness["analyses_identical"], correctness
    assert correctness["rankings_identical"], correctness
    assert correctness["drc_verdicts_identical"], correctness
    assert correctness["report_bytes_identical"], correctness
    assert analytics["canonical_scanner"]["fallback_decodes"] == 0


@pytest.mark.slow
@pytest.mark.benchmark(group="analytics")
def test_analytics_speedup(benchmark):
    results = benchmark.pedantic(
        run_all, kwargs={"write": False}, rounds=1, iterations=1
    )
    analytics = results["analytics"]
    _check_correctness(analytics)
    assert analytics["aggregate_speedup"] >= REQUIRED_SPEEDUP, (
        f"columnar engine only {analytics['aggregate_speedup']:.1f}x faster "
        f"(required {REQUIRED_SPEEDUP}x)"
    )


def _print_results(analytics: dict) -> None:
    database = analytics["database"]
    print(
        f"database: {database['gate_level_artifacts']} gate-level artifacts "
        f"across {', '.join(database['suites'])} "
        f"({database['pack_bytes']} B packed, "
        f"{database['compression_ratio']:.2f}x compression)"
    )
    print(
        f"{analytics['canonical_scanner']['fallback_decodes']} fallback decode(s)"
    )
    for name, row in analytics["workloads"].items():
        print(
            f"{name:18s} reference {row['reference_seconds']:7.3f} s | "
            f"columnar {row['columnar_seconds']:7.3f} s | "
            f"{row['speedup']:5.1f}x"
        )
    print(f"aggregate speedup: {analytics['aggregate_speedup']:.1f}x")


if __name__ == "__main__":
    quick = "--quick" in sys.argv
    output = None
    if "--output" in sys.argv:
        output = Path(sys.argv[sys.argv.index("--output") + 1])
    results = run_all(quick, output=output)
    _print_results(results["analytics"])
    _check_correctness(results["analytics"])
    if not results["quick"]:
        assert results["analytics"]["aggregate_speedup"] >= REQUIRED_SPEEDUP
    print(f"written to {output or RESULT_PATH}")
