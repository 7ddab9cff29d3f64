"""Unified observability layer: tracing, metrics, progress.

Three tools, one constraint — observe without participating (this
package imports nothing from the rest of ``repro``, enforced by lint
and test):

* :mod:`repro.obs.trace` — span-based tracing (``trace.span("...")``
  context managers with nested wall-time, counts and tags), off by
  default with guard-check-only overhead, JSONL export.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, the single
  snapshot unifying kernel perf counters, batch statistics, cache
  hit/miss totals and per-worker chunk timings, with a deterministic
  ``counters`` section and a clock-dependent ``timing`` section.
* :mod:`repro.obs.progress` — :class:`ProgressLine`, a
  ``progress(done, total)`` callback rendering rate and ETA from
  settled-item timings.

Wired through ``repro-mc batch --metrics out.json --trace trace.jsonl``
and ``WorkQueueCore(metrics=...)``; see DESIGN.md section 10 for the span
taxonomy.
"""

from repro.obs import trace
from repro.obs.metrics import METRICS_SCHEMA_VERSION, MetricsRegistry
from repro.obs.progress import ProgressLine, format_eta
from repro.obs.trace import TRACE_SCHEMA_VERSION, Tracer

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "ProgressLine",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "format_eta",
    "trace",
]
