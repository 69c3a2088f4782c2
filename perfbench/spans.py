"""Per-layer tracing from the benchmark's side of each layer boundary.

The traced run replaces the public functions that one layer calls in
another with timing wrappers (the attribute the *caller* looks up, so
``find_path`` is wrapped once in each module that imports it).  Nothing
under ``src/`` is edited.  Each wrapped call is a span; a span's self
time is its duration minus the time of the spans it caused.  Spans are
aggregated in memory per name and reported when the run ends.

Generation runs with ``jobs=1`` in a traced run, so the scheduler
executes every flow in this process and the wrappers see every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span and counter aggregates of one traced run."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []  # [start, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span; return its result."""
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            elapsed = time.perf_counter() - frame[0]
            stats = self.spans.setdefault(name, Span())
            stats.calls += 1
            stats.busy_s += elapsed
            stats.self_s += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by a span wrapper.

        ``observe(tracer, args, result)`` runs after a successful call to
        record counters; exceptions propagate unchanged."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.span(name, original, *args, **kwargs)
            if observe is not None:
                observe(tracer, args, result)
            return result

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def busy(self, name: str) -> float:
        span = self.spans.get(name)
        return span.busy_s if span else 0.0

    def self_time(self, name: str) -> float:
        span = self.spans.get(name)
        return span.self_s if span else 0.0

    def calls(self, name: str) -> int:
        span = self.spans.get(name)
        return span.calls if span else 0

    def total_calls(self) -> int:
        return sum(span.calls for span in self.spans.values())


def wrapper_cost_s(samples: int = 20000) -> float:
    """Measured seconds one span wrapper adds to a call, on this host."""
    tracer = Tracer()

    def noop():
        return None

    started = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(samples):
        tracer.span("noop", noop)
    wrapped = time.perf_counter() - started
    return max(0.0, (wrapped - bare) / samples)


# ---------------------------------------------------------------------------
# Layer boundaries
# ---------------------------------------------------------------------------


def _nanoplacer(tracer, original):
    """A span wrapper that also counts refusals and short searches."""
    from repro.physical_design.nanoplacer import NanoPlaceRScaleError

    def call(*args, **kwargs):
        try:
            result = tracer.span("physical_design.nanoplacer", original, *args, **kwargs)
        except NanoPlaceRScaleError:
            tracer.count("physical_design.nanoplacer.refused")
            raise
        params = args[1] if len(args) > 1 else kwargs.get("params")
        if params is not None and result.rollouts < params.max_rollouts:
            tracer.count("physical_design.nanoplacer.cut_short")
        return result

    return call


def _on_inord(tracer, args, result):
    tracer.count(
        "optimization.input_ordering.area_removed_tiles",
        result.area_identity - result.area_best,
    )
    params = args[1] if len(args) > 1 else None
    if params is not None and result.evaluations < params.max_evaluations:
        tracer.count("optimization.input_ordering.cut_short")


def _on_area(name):
    def observe(tracer, args, result):
        tracer.count(f"{name}.area_removed_tiles", result.area_before - result.area_after)

    return observe


def _on_route(tracer, args, result):
    if result is None:
        tracer.count("physical_design.routing.failed")


def _on_drc(tracer, args, result):
    if not result.ok:
        tracer.count("layout.verification.fail")


def _on_equivalence(tracer, args, result):
    if not result.equivalent:
        tracer.count("layout.equivalence.fail")


def _on_fgl_write(tracer, args, result):
    tracer.count("io.fgl.bytes", len(result.encode("utf-8")))


def _on_store_append(tracer, args, result):
    tracer.count("core.store.append_bytes", len(args[2].encode("utf-8")))


def _on_decode(tracer, args, result):
    tracer.count("analytics.layouts_decoded", len(result))


def _on_journal(tracer, args, result):
    tracer.count("scheduler.journal_appends")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the pipeline crosses."""
    from importlib import import_module

    # import_module, not ``import a.b as c``: a package attribute can
    # shadow its submodule (repro.optimization.input_ordering is also a
    # function name).
    (analytics_engine, registry, bench, facet_index, store, equivalence,
     transforms, inord, post_layout, exact, ortho, scheduler_engine, journal) = (
        import_module(f"repro.{name}")
        for name in (
            "analytics.engine", "benchsuite.registry", "core.bench",
            "core.facet_index", "core.store", "layout.equivalence",
            "networks.transforms", "optimization.input_ordering",
            "optimization.post_layout", "physical_design.exact",
            "physical_design.ortho", "scheduler.engine", "scheduler.journal",
        )
    )

    # networks: spec build, Verilog parse/write, AOIG preparation
    tracer.wrap(registry.BenchmarkSpec, "build", "networks.build")
    tracer.wrap(bench, "parse_verilog", "networks.build")
    tracer.wrap(bench, "network_to_verilog", "networks.build")
    tracer.wrap(bench, "write_verilog", "networks.build")
    tracer.wrap(transforms, "prepare_for_layout", "networks.build")
    # physical design
    tracer.patch(bench, "nanoplacer_layout", _nanoplacer(tracer, bench.nanoplacer_layout))
    tracer.wrap(bench, "orthogonal_layout", "physical_design.ortho")
    tracer.wrap(inord, "orthogonal_layout", "physical_design.ortho")
    for module in (ortho, exact, post_layout):
        tracer.wrap(module, "find_path", "physical_design.routing", _on_route)
    # optimization
    tracer.wrap(bench, "input_ordering", "optimization.input_ordering", _on_inord)
    tracer.wrap(
        bench,
        "post_layout_optimization",
        "optimization.post_layout",
        _on_area("optimization.post_layout"),
    )
    tracer.wrap(
        bench,
        "wiring_reduction",
        "optimization.wiring_reduction",
        _on_area("optimization.wiring_reduction"),
    )
    tracer.wrap(bench, "to_hexagonal", "optimization.hexagonalization")
    # layout sign-off (verify_layout calls both through module globals)
    tracer.wrap(equivalence, "check_layout", "layout.verification", _on_drc)
    tracer.wrap(equivalence, "layout_equivalent", "layout.equivalence", _on_equivalence)
    # io + core.store
    tracer.wrap(bench, "layout_to_fgl", "io.fgl.write", _on_fgl_write)
    tracer.wrap(bench, "fgl_to_layout", "io.fgl.read")
    tracer.wrap(store, "fgl_to_layout", "io.fgl.read")
    tracer.wrap(store.ArtifactStore, "add_text", "core.store.append", _on_store_append)
    tracer.wrap(store.ArtifactStore, "read_text", "core.store.read")
    tracer.wrap(store.ArtifactStore, "read_texts", "core.store.read")
    tracer.wrap(facet_index.FacetIndex, "query_bitmap", "core.facet_index.query")
    # scheduler
    # The flow itself is the scheduler's child span: the engine looks
    # the task function up through ``repro.core.bench``, and what the
    # scheduler does around it (merge, store save, journal, index flush)
    # stays in ``scheduler.self_s``.
    tracer.wrap(scheduler_engine, "run_generation", "scheduler")
    tracer.wrap(bench, "_execute_flow_task", "scheduler.task")
    tracer.wrap(journal.GenerationJournal, "append", "scheduler.journal", _on_journal)
    # analytics decode
    tracer.wrap(analytics_engine, "analyze_texts", "analytics.decode", _on_decode)
