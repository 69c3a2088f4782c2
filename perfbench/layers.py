"""The per-layer metrics of a traced run: names, units and derivation.

``PER_LAYER`` is the single list every traced run reports, on every
workload (a layer a workload does not reach reports 0).  README.md
says which end-to-end metric each should move, on which workload.
"""

from __future__ import annotations

import statistics

#: (name, unit, better)
PER_LAYER: list[tuple[str, str, str]] = []


def _add(name: str, unit: str, better: str = "lower") -> None:
    PER_LAYER.append((name, unit, better))


def _span(name: str, *fields: str) -> None:
    for field in fields:
        unit = "count" if field == "calls" else "s"
        _add(f"{name}.{field}", unit)


_span("physical_design.nanoplacer", "calls", "busy_s", "self_s")
_add("physical_design.nanoplacer.refused", "count")
_span("physical_design.exact", "calls", "busy_s", "self_s")
_add("physical_design.exact.solved_frac", "ratio", "higher")
_add("physical_design.exact.dims_explored", "count")
_add("physical_design.exact.dims_pruned", "count", "higher")
_span("physical_design.ortho", "calls", "busy_s", "self_s")
_span("physical_design.routing", "calls", "busy_s")
_add("physical_design.routing.fail_frac", "ratio")
for _name in ("input_ordering", "post_layout", "wiring_reduction"):
    _span(f"optimization.{_name}", "calls", "busy_s", "self_s")
    _add(f"optimization.{_name}.area_removed_tiles", "tiles", "higher")
_span("optimization.hexagonalization", "calls", "busy_s")
_span("layout.verification", "calls", "busy_s")
_add("layout.verification.fail", "count")
_span("layout.equivalence", "calls", "busy_s")
_add("layout.equivalence.fail", "count")
_span("networks.build", "calls", "busy_s", "self_s")
_span("gatelibs.apply", "calls", "busy_s")
_add("gatelibs.apply.cells", "count")
_add("io.qca.busy_s", "s")
_add("io.sqd.busy_s", "s")
_add("io.cell_bytes", "bytes")
_add("io.fgl.write_s", "s")
_add("io.fgl.read_s", "s")
_add("io.fgl.bytes", "bytes")
_add("core.store.append_s", "s")
_add("core.store.append_bytes", "bytes")
_add("core.store.read_s", "s")
_add("core.facet_index.query_s", "s")
_add("scheduler.self_s", "s")
_add("scheduler.tasks", "count")
_add("scheduler.journal_appends", "count")
_add("analytics.report.busy_s", "s")
_add("analytics.verify.busy_s", "s")
_add("analytics.best.busy_s", "s")
_add("analytics.layouts_decoded", "count")
SERVE_CLASSES = ("query", "artifact_fgl", "artifact_cell", "best", "report")
for _name in SERVE_CLASSES:
    _add(f"serve.{_name}.count", "count", "higher")
    _add(f"serve.{_name}.p50_ms", "ms")
    _add(f"serve.{_name}.max_ms", "ms")
_add("serve.p50_ms", "ms")
_add("serve.p90_ms", "ms")
_add("serve.not_modified_frac", "ratio", "higher")
_add("serve.render_cache_hit_frac", "ratio", "higher")
_add("serve.generator_lag_ms", "ms")
_add("serve.max_rps", "1/s", "higher")
_add("trace.wall_s", "s")
_add("trace.overhead_s", "s")

#: Per-layer name → (span name, field) for span-derived metrics.
_RENAMED = {
    "io.qca.busy_s": ("io.qca", "busy_s"),
    "io.sqd.busy_s": ("io.sqd", "busy_s"),
    "io.fgl.write_s": ("io.fgl.write", "busy_s"),
    "io.fgl.read_s": ("io.fgl.read", "busy_s"),
    "core.store.append_s": ("core.store.append", "busy_s"),
    "core.store.read_s": ("core.store.read", "busy_s"),
    "core.facet_index.query_s": ("core.facet_index.query", "busy_s"),
    "analytics.report.busy_s": ("analytics.report", "busy_s"),
    "analytics.verify.busy_s": ("analytics.verify", "busy_s"),
    "analytics.best.busy_s": ("analytics.best", "busy_s"),
}

_COUNTERS = (
    "physical_design.nanoplacer.refused",
    "optimization.input_ordering.area_removed_tiles",
    "optimization.post_layout.area_removed_tiles",
    "optimization.wiring_reduction.area_removed_tiles",
    "layout.verification.fail",
    "layout.equivalence.fail",
    "gatelibs.apply.cells",
    "io.cell_bytes",
    "io.fgl.bytes",
    "core.store.append_bytes",
    "scheduler.journal_appends",
    "analytics.layouts_decoded",
)


def tracer_layers(tracer) -> dict:
    """Every span- and counter-derived per-layer metric of ``tracer``."""
    values: dict[str, float] = {}
    for name, (span, field) in _RENAMED.items():
        values[name] = (
            tracer.busy(span) if field == "busy_s" else tracer.self_time(span)
        )
    for name in _COUNTERS:
        values[name] = tracer.counters.get(name, 0)
    for name, _unit, _better in PER_LAYER:
        if name in values:
            continue
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = tracer.calls(span)
        elif field == "busy_s":
            values[name] = tracer.busy(span)
        elif field == "self_s":
            values[name] = tracer.self_time(span)
    routes = tracer.calls("physical_design.routing")
    values["physical_design.routing.fail_frac"] = (
        tracer.counters.get("physical_design.routing.failed", 0) / routes if routes else 0.0
    )
    # The scheduler span minus its flows, not minus every span under it:
    # the store appends and journal writes around each flow are the
    # scheduler's per-task overhead.
    values["scheduler.self_s"] = tracer.busy("scheduler") - tracer.busy("scheduler.task")
    values["scheduler.tasks"] = tracer.calls("scheduler.task")
    return values


def exact_layers(outcomes: list[dict]) -> dict:
    if not outcomes:
        return {}
    return {
        "physical_design.exact.solved_frac": (
            sum(1 for o in outcomes if o["solved"]) / len(outcomes)
        ),
        "physical_design.exact.dims_explored": sum(o["explored"] for o in outcomes),
        "physical_design.exact.dims_pruned": sum(o["pruned"] for o in outcomes),
    }


def serve_class_layers(latencies_by_class: dict) -> dict:
    """``serve.<class>.{count,p50_ms,max_ms}`` from client-side latencies.

    A class has 9 to about 420 samples in a ``serve`` run, too few for a
    tail percentile, so the tail is reported as what it is: the slowest
    request."""
    values = {}
    for name in SERVE_CLASSES:
        samples = latencies_by_class.get(name, ())
        values[f"serve.{name}.count"] = len(samples)
        if samples:
            values[f"serve.{name}.p50_ms"] = 1000.0 * statistics.median(samples)
            values[f"serve.{name}.max_ms"] = 1000.0 * max(samples)
    return values


def batch_layers(tracer, outcomes) -> dict:
    values = tracer_layers(tracer)
    values.update(exact_layers(outcomes))
    return values


def complete(values: dict) -> dict:
    """Every ``PER_LAYER`` metric, 0 where the workload did not reach it."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
