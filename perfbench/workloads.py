"""The batch workloads: ``portfolio`` and ``iscas_mid``.

Both run what a user runs to build and use an MNT Bench database:
``generate`` → ``optimize`` (the sweep), then a cold reopen with
``report`` + ``verify_all`` + ``best`` (analyze) and the cell-level
export of each function's area-best layout.  ``portfolio`` adds an exact
stage.  Their work is fixed: ``--seconds`` does not change it.  Every
result is checked against ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import layers
import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"

#: Flow budgets far above any flow's run time, so no flow ends on the
#: wall clock and results never depend on machine speed.  The guard in
#: :func:`check_steady` rejects a run whose flows came within a tenth of it.
NO_BUDGET_S = 3600.0
#: The sweep's exact budget; c17 is expected to exhaust it (unsolved).
EXACT_SWEEP_BUDGET_S = 6.0
#: Budget of the exact instances expected to solve, far above their
#: solve times (at most about 3 s on a 2-CPU host).
EXACT_SOLVED_BUDGET_S = 60.0


@dataclass(frozen=True)
class ExactInstance:
    suite: str
    name: str
    scheme: str  # a Cartesian scheme name, or "hex" for ROW on the hex grid
    budget_s: float
    #: Whether its solve time counts in ``sweep_s``.  The unsolved guard
    #: (c17) runs its whole budget whatever the engine's speed, so it
    #: does not.
    timed: bool = True

    @property
    def key(self) -> str:
        return f"{self.suite}/{self.name}@{self.scheme}"


@dataclass(frozen=True)
class BatchConfig:
    name: str
    benchmarks: tuple[tuple[str, str], ...]
    node_cap: int | None
    #: Analyze and export passes after each sweep (the median is reported).
    passes: int
    exact: tuple[ExactInstance, ...] = ()
    #: Sweeps into fresh databases (``sweep_s`` is their median); a
    #: traced run makes one.
    sweeps: int = 1


def suite_benchmarks(suite: str) -> tuple[tuple[str, str], ...]:
    from repro.benchsuite import benchmarks_of

    return tuple((spec.suite, spec.name) for spec in benchmarks_of(suite))


def _solved(suite, name, schemes):
    return tuple(
        ExactInstance(suite, name, scheme, EXACT_SOLVED_BUDGET_S) for scheme in schemes
    )


def portfolio_config(smoke: bool = False) -> BatchConfig:
    benchmarks = suite_benchmarks("trindade16") + suite_benchmarks("fontes18")
    # c17 in the middle: the instances run between analyze and export
    # passes, which then sample both sides of its 6 s.
    exact = (
        _solved("trindade16", "mux21", ("2DDWave", "RES", "ESR", "hex"))
        + _solved("trindade16", "xor2", ("2DDWave",))
        + (ExactInstance("iscas85", "c17", "2DDWave", EXACT_SWEEP_BUDGET_S, timed=False),)
        + _solved("trindade16", "xor2", ("hex",))
        + _solved("trindade16", "xnor2", ("2DDWave", "hex"))
        + _solved("trindade16", "half_adder", ("2DDWave",))
        + _solved("trindade16", "par_gen", ("hex",))
    )
    if smoke:
        benchmarks = (("trindade16", "mux21"), ("trindade16", "xor2"))
        exact = (
            ExactInstance("iscas85", "c17", "2DDWave", 0.5, timed=False),
            ExactInstance("trindade16", "mux21", "2DDWave", EXACT_SOLVED_BUDGET_S),
        )
    return BatchConfig("portfolio", benchmarks, 300, 10, exact)


def iscas_mid_config(smoke: bool = False) -> BatchConfig:
    if smoke:
        return BatchConfig("iscas_mid", (("iscas85", "c17"),), None, 1)
    return BatchConfig("iscas_mid", (("iscas85", "c432"), ("iscas85", "c1908")), None, 2)


def generation_params(jobs: int, node_cap: int | None):
    from repro.core import GenerationParams

    return GenerationParams(
        # generate's exact flows slice each aspect ratio by wall time;
        # the exact stage below runs exact search without that slice.
        exact_max_elements=0,
        nanoplacer_timeout=NO_BUDGET_S,
        inord_timeout=NO_BUDGET_S,
        plo_timeout=NO_BUDGET_S,
        node_cap=node_cap,
        jobs=jobs,
    )


class CheckFailed(Exception):
    """A correctness check or the steadiness guard failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def setup_samples(script: str, repeats: int = 9) -> list:
    """:func:`pace.timed` samples of ``repeats`` fresh interpreters
    running the set-up ``script`` (imports plus building the inputs)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples: list = []
    for _ in range(repeats):
        pace.timed(samples, subprocess.run, [sys.executable, "-c", script], env=env, check=True)
    return samples


def setup_script(config: BatchConfig) -> str:
    return (
        "import repro.cli\n"
        "from repro.benchsuite import get_benchmark\n"
        f"for suite, name in {list(config.benchmarks)!r}:\n"
        f"    get_benchmark(suite, name).build({config.node_cap!r})\n"
    )


def sweep(db, specs, params) -> dict:
    """``generate`` then ``optimize``; returns the reports."""
    generated = db.generate(specs, params=params)
    optimized = db.optimize(params=params)
    return {"generate": generated.report, "optimize": optimized.report}


def check_steady(reports: dict, tracer=None) -> None:
    """No flow may end on a wall-clock budget (the steadiness guard)."""
    for stage, report in reports.items():
        check(report.timeouts == 0, f"{stage}: {report.timeouts} flow(s) timed out")
        check(report.memory_exceeded == 0, f"{stage}: memory budget hit")
        check(report.cancelled == 0, f"{stage}: flows cancelled")
        check(report.worker_errors == 0, f"{stage}: worker errors")
        slowest = max(report.flow_seconds.values(), default=0.0)
        check(
            slowest < NO_BUDGET_S / 10,
            f"{stage}: a flow ran {slowest:.0f} s, near its budget",
        )
    if tracer is not None:
        for name in (
            "physical_design.nanoplacer.cut_short",
            "optimization.input_ordering.cut_short",
        ):
            check(tracer.counters.get(name, 0) == 0, f"{name}: search cut short")


def solve_exact(instance: ExactInstance, tracer=None) -> dict:
    """Run one exact instance to a verdict and verify any layout."""
    from repro.benchsuite import get_benchmark
    from repro.layout import CARTESIAN_SCHEMES, ROW, Topology, verify_layout
    from repro.physical_design import ExactParams, exact_layout

    network = get_benchmark(instance.suite, instance.name).build(None)
    if instance.scheme == "hex":
        params = ExactParams(
            scheme=ROW,
            topology=Topology.HEXAGONAL_EVEN_ROW,
            timeout=instance.budget_s,
            keep_two_input=True,
        )
    else:
        scheme = next(s for s in CARTESIAN_SCHEMES if s.name == instance.scheme)
        params = ExactParams(scheme=scheme, timeout=instance.budget_s)
    samples: list = []
    if tracer is None:
        result = pace.timed(samples, exact_layout, network, params)
    else:
        result = pace.timed(
            samples, tracer.span, "physical_design.exact", exact_layout, network, params
        )
    outcome = {
        "key": instance.key,
        "timed": instance.timed,
        "sample": samples[0],
        "solved": result.layout is not None,
        "area": None,
        "verified": None,
        "explored": result.stats.dimensions_explored if result.stats else 0,
        "pruned": result.stats.dimensions_pruned if result.stats else 0,
    }
    if result.layout is not None:
        width, height = result.layout.bounding_box()
        drc, equivalence = verify_layout(result.layout, network)
        outcome["area"] = width * height
        outcome["verified"] = drc.ok and equivalence.equivalent
    return outcome


def check_exact(outcomes: list[dict], expected: dict) -> None:
    """Every expected instance solved at its recorded (optimal) area and
    every layout found passes ``verify_layout``."""
    by_key = {outcome["key"]: outcome for outcome in outcomes}
    for key, area in expected.items():
        outcome = by_key[key]
        check(outcome["solved"], f"exact {key}: unsolved within its budget")
        check(outcome["area"] == area, f"exact {key}: area {outcome['area']} != {area}")
    for outcome in outcomes:
        if outcome["solved"]:
            check(outcome["verified"], f"exact {outcome['key']}: layout fails verification")


def analyze_and_export(root: Path, best, rounds: int, analyze_times: list,
                       export_times: list, tracer=None) -> str:
    """``rounds`` of one analyze pass then one export pass, each from a
    freshly opened database; appends their :func:`pace.timed` samples
    and returns the export digest.  Every pass is checked."""
    from repro.core import BenchmarkDatabase

    digests = set()
    for _ in range(rounds):
        check_analysis(
            pace.timed(analyze_times, analyze_pass, BenchmarkDatabase(root), tracer)
        )
        fresh = BenchmarkDatabase(root)  # a cold layout cache every pass
        digests.add(pace.timed(export_times, export_pass, fresh, best, tracer))
    check(len(digests) == 1, "cell-level export differs between passes")
    return digests.pop()


def analyze_pass(db, analytics=None) -> dict:
    """``report`` + ``verify_all`` + ``best`` on a freshly opened ``db``."""
    if analytics is None:
        report = db.report()
        verified = db.verify_all()
        best = db.best()
    else:
        report = analytics.span("analytics.report", db.report)
        verified = analytics.span("analytics.verify", db.verify_all)
        best = analytics.span("analytics.best", db.best)
    return {"report_rows": len(report.rows), "verified": verified, "best": len(best)}


def check_analysis(result: dict) -> None:
    from repro.analytics.engine import STATUS_DRC, STATUS_INEQUIVALENT

    verified = result["verified"]
    check(verified.count(STATUS_DRC) == 0, "verify_all: DRC-failed artifacts")
    check(verified.count(STATUS_INEQUIVALENT) == 0, "verify_all: inequivalent artifacts")
    check(result["best"] == result["report_rows"], "best and report disagree")


def best_records(db) -> list:
    from repro.core import Selection

    return [
        record
        for record in db.query(Selection.make(best_only=True))
        if record.area is not None
    ]


def cell_text(layout, library: str, tracer=None) -> str:
    """The cell-level download: the same steps ``/v1/artifact`` takes."""
    from repro.gatelibs import apply_gate_library
    from repro.io.qca import cell_layout_to_qca
    from repro.io.sqd import sidb_layout_to_sqd
    from repro.layout import Topology
    from repro.optimization import to_hexagonal

    span = tracer.span if tracer is not None else (lambda _name, fn, *a: fn(*a))
    if library == "Bestagon" and layout.topology is Topology.CARTESIAN:
        layout = span("optimization.hexagonalization", to_hexagonal, layout).layout
    cells = span("gatelibs.apply", apply_gate_library, layout, library)
    if tracer is not None:
        tracer.count(
            "gatelibs.apply.cells",
            cells.num_dots() if library == "Bestagon" else cells.num_cells(),
        )
    if library == "Bestagon":
        text = span("io.sqd", sidb_layout_to_sqd, cells)
    else:
        text = span("io.qca", cell_layout_to_qca, cells)
    if tracer is not None:
        tracer.count("io.cell_bytes", len(text))
    return text


def export_pass(db, records, tracer=None) -> str:
    """Cell-compile and serialize every area-best layout; returns the
    sha256 over all payloads."""
    digest = hashlib.sha256()
    for record in records:
        layout = db.load_layout(record)
        digest.update(record.path.encode("utf-8"))
        digest.update(cell_text(layout, record.gate_library, tracer).encode("utf-8"))
    return digest.hexdigest()


def database_digest(db) -> str:
    """sha256 over every artifact's path and payload (runtimes, which
    live only in the index, are excluded)."""
    from repro.core.selection import AbstractionLevel

    digest = hashlib.sha256()
    for record in sorted(db.files(), key=lambda r: r.path):
        if record.abstraction_level is AbstractionLevel.GATE_LEVEL:
            text = db.artifact_text(record)
        else:
            text = (db.root / record.path).read_text(encoding="utf-8")
        digest.update(record.path.encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(text.encode("utf-8")).digest())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """What one run of any workload reports."""

    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def run_batch(config: BatchConfig, tracer, work: Path, expected: dict | None) -> RunResult:
    """Run one batch workload; ``expected`` is None only when recording.

    Each sweep builds a fresh database, followed by its analyze and
    export passes; the exact instances run one at a time in this
    process, between the passes.  So every stage's samples span most
    of the run, not one stretch of a shared host's load.  Every stage
    is timed with :mod:`pace` and reported as the median of its samples
    in reference seconds."""
    from repro.benchsuite import get_benchmark
    from repro.core import BenchmarkDatabase

    jobs = 1 if tracer is not None else (os.cpu_count() or 1)
    sweeps = 1 if tracer is not None else config.sweeps
    specs = [get_benchmark(suite, name) for suite, name in config.benchmarks]
    setup_times = setup_samples(setup_script(config))
    result = RunResult()
    params = generation_params(jobs, config.node_cap)

    sweep_times, analyze_times, export_times, outcomes = [], [], [], []
    db_digests, export_digests, best_areas = set(), set(), set()
    gaps = max(1, sweeps * config.passes - 1)
    done = 0  # passes so far
    for index in range(sweeps):
        root = work / f"{config.name}{index}"
        db = BenchmarkDatabase(root)
        reports = pace.timed_pool(sweep_times, sweep, db, specs, params)
        check_steady(reports, tracer)
        best = best_records(db)
        best_areas.add(sum(record.area for record in best))
        for _ in range(config.passes):
            export_digests.add(
                analyze_and_export(root, best, 1, analyze_times, export_times, tracer)
            )
            if done < gaps:
                part = config.exact[
                    done * len(config.exact) // gaps : (done + 1) * len(config.exact) // gaps
                ]
                outcomes += [solve_exact(instance, tracer) for instance in part]
            done += 1
        db_digests.add(database_digest(BenchmarkDatabase(root)))
    check(len(db_digests) == 1, "the sweeps built different databases")
    check(len(export_digests) == 1, "cell-level export differs between passes")
    check(len(best_areas) == 1, "the sweeps' area-best sums differ")
    digest, export_digest, best_area = db_digests.pop(), export_digests.pop(), best_areas.pop()
    # The solve times of the instances expected to solve, not the c17
    # guard's, which runs its whole budget whatever the engine's speed:
    # a faster exact engine then shows in sweep_s.
    exact_samples = [outcome["sample"] for outcome in outcomes if outcome["timed"]]
    sweep_s = pace.median_reference(sweep_times) + sum(ref for _, ref in exact_samples)

    tasks = sum(len(report.flow_seconds) for report in reports.values())
    admitted = tasks - sum(
        report.no_layout + report.drc_failed + report.inequivalent
        for report in reports.values()
    )
    solved = sum(1 for outcome in outcomes if outcome["solved"])
    drc_bad = sum(r.drc_failed + r.inequivalent for r in reports.values())

    result.attempted = tasks + len(outcomes) + len(best)
    result.failed = drc_bad
    result.metrics = {
        "setup_s": (pace.median_reference(setup_times), "s"),
        "sweep_s": (sweep_s, "s"),
        "analyze_s": (pace.median_reference(analyze_times), "s"),
        "export_s": (pace.median_reference(export_times), "s"),
        "best_area_tiles": (best_area, "tiles"),
        "ok_frac": ((admitted + solved) / (tasks + len(outcomes)), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    result.notes.update(
        digest=digest,
        export_digest=export_digest,
        raw_setup_s=pace.median_raw(setup_times),
        raw_generate_optimize_s=pace.median_raw(sweep_times),
        raw_exact_s=sum(raw for raw, _ in exact_samples),
        raw_analyze_s=pace.median_raw(analyze_times),
        raw_export_s=pace.median_raw(export_times),
        exact_solved=solved,
        exact=outcomes,
        tasks=tasks,
        admitted=admitted,
    )
    if expected is not None:
        check(digest == expected["digest"], f"artifact digest {digest} != recorded")
        check(export_digest == expected["export_digest"], "cell-level export differs from recorded")
        check(best_area == expected["best_area_tiles"], f"best area {best_area} != recorded")
        check_exact(outcomes, expected.get("exact_solved", {}))
    if tracer is not None:
        result.layers = layers.batch_layers(tracer, outcomes)
    return result
