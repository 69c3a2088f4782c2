"""Columnar batch analytics over the packed benchmark database.

The package decodes ``artifacts.pack`` slices directly into contiguous
struct-of-arrays tables (:mod:`~repro.analytics.tables`), runs metrics,
DRC and output-signature kernels over whole databases per call
(:mod:`~repro.analytics.kernels`), and feeds the fleet consumers —
rankings, Table I, re-verification, ``mnt-bench report``/``info``
(:mod:`~repro.analytics.engine`, :mod:`~repro.analytics.report`).  The
per-artifact object path survives only as the test oracle
:func:`~repro.analytics.engine.reference_analyze_texts`; the
differential tests and ``benchmarks/bench_analytics.py`` prove both
produce identical results.
"""

from .engine import (
    VerificationRecord,
    VerificationSummary,
    analyze_texts,
    best_database,
    best_pairs,
    database_info,
    gate_level_records,
    reference_analyze_texts,
    sweep_database,
    verify_database,
    verify_pairs,
)
from .kernels import (
    DrcCounts,
    LayoutAnalysis,
    analyze_batch,
    analyze_layout,
    layout_drc,
    layout_metrics,
    layout_signature,
)
from .report import (
    AggregateRow,
    AnalyticsReport,
    ReportRow,
    build_report,
    report_from_pairs,
)
from .tables import LayoutBatch

__all__ = [
    "AggregateRow",
    "AnalyticsReport",
    "DrcCounts",
    "LayoutAnalysis",
    "LayoutBatch",
    "ReportRow",
    "VerificationRecord",
    "VerificationSummary",
    "analyze_batch",
    "analyze_layout",
    "analyze_texts",
    "best_database",
    "best_pairs",
    "build_report",
    "database_info",
    "gate_level_records",
    "layout_drc",
    "layout_metrics",
    "layout_signature",
    "reference_analyze_texts",
    "report_from_pairs",
    "sweep_database",
    "verify_database",
    "verify_pairs",
]
