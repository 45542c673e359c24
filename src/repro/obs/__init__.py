"""Observability: pipeline tracing, metrics, and failure forensics.

The substrate every benchmark and robustness experiment measures itself
against: nested wall-clock spans over the rewriting pipeline's stages,
counter/gauge/histogram metrics, structured events for per-function
failure forensics, JSON export, and a human-readable profile table.

Everything is zero-dependency and defaults to no-op singletons
(:data:`NULL_TRACER`, :data:`NULL_METRICS`) so un-instrumented runs pay
near-zero cost.

:mod:`repro.obs.observatory` turns individual measurements into a
trajectory: a shared :class:`PerfSample` schema, the append-only
:class:`BenchHistory` behind ``BENCH_history.json``, and the
:class:`RegressionSentinel` that gates CI on cross-run regressions.

:mod:`repro.obs.receipt` is the provenance layer: one schema-versioned,
content-addressed :class:`RewriteReceipt` per rewrite, persisted in the
append-only :class:`ReceiptLedger` — both speaking the shared store
discipline of :mod:`repro.obs.store`.

:mod:`repro.obs.engine` is the engine observatory: the
:class:`EngineTelemetry` collector the superblock JIT feeds at
trace-build/promotion/dispatch time, read out as a schema-versioned
``EngineReport/v3`` via :func:`render_engine_report`.
"""

from repro.obs.atlas import (
    AtlasBuilder,
    AtlasLedger,
    RewriteAtlas,
    diff_atlases,
    render_atlas,
    render_atlas_diff,
    render_atlas_list,
    render_atlas_top,
)
from repro.obs.degrade import render_degradation
from repro.obs.engine import (
    ENGINE_REPORT_SCHEMA,
    EngineTelemetry,
    render_engine_report,
)
from repro.obs.flight import FlightRecorder, render_flight_report
from repro.obs.observatory import (
    BenchHistory,
    EnvFingerprint,
    PerfSample,
    RegressionSentinel,
    newest_per_key,
    render_sentinel_report,
    render_trend,
    stamp_record,
    trend_document,
)
from repro.obs.receipt import (
    ReceiptLedger,
    RewriteReceipt,
    content_digest,
    delta_metrics,
    diff_receipts,
    fleet_summary,
    render_receipt,
    render_receipt_diff,
    render_receipt_list,
    snapshot_metrics,
)
from repro.obs.store import JsonlStore, atomic_write_text, parse_entries
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metrics,
    NULL_METRICS,
    NullMetrics,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    render_profile,
    trace_from_json,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "render_profile",
    "trace_from_json",
    "Metrics",
    "NullMetrics",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "FlightRecorder",
    "render_flight_report",
    "EngineTelemetry",
    "ENGINE_REPORT_SCHEMA",
    "render_engine_report",
    "render_degradation",
    "PerfSample",
    "EnvFingerprint",
    "BenchHistory",
    "RegressionSentinel",
    "newest_per_key",
    "render_sentinel_report",
    "render_trend",
    "trend_document",
    "stamp_record",
    "RewriteAtlas",
    "AtlasBuilder",
    "AtlasLedger",
    "diff_atlases",
    "render_atlas",
    "render_atlas_list",
    "render_atlas_top",
    "render_atlas_diff",
    "RewriteReceipt",
    "ReceiptLedger",
    "content_digest",
    "snapshot_metrics",
    "delta_metrics",
    "fleet_summary",
    "diff_receipts",
    "render_receipt",
    "render_receipt_list",
    "render_receipt_diff",
    "JsonlStore",
    "atomic_write_text",
    "parse_entries",
]
