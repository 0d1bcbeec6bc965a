"""Observability: structured tracing and metrics.

Two zero-dependency pillars, each usable on its own:

* :mod:`repro.obs.trace` — a :class:`Tracer` producing nested spans
  (``round`` → ``client_task`` → ``local_sgd`` / ``compress`` /
  ``aggregate``) that carry both wall-clock and the simulator's virtual
  clock, with Chrome ``trace_event`` JSON export (loadable in
  ``chrome://tracing`` / Perfetto) and a JSON-lines span log.  The
  :class:`NullTracer` compiles to no-ops when tracing is disabled.
  :func:`hotspot_table` folds the recorded spans into the per-name
  self-time table ``repro profile <study>`` prints.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and histograms with a snapshot API and text/JSON dumps.

The federation runtime resolves its observability sinks from the
process-wide :func:`active context <repro.obs.runtime.get_obs>` at engine
construction, so enabling tracing for a CLI run is one
:func:`~repro.obs.runtime.observe` block around the study — no engine or
plan signature changes.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.runtime import ObsContext, get_obs, observe, set_obs
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    hotspot_table,
    load_chrome_trace,
    read_span_log,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "NULL_TRACER",
    "ObsContext",
    "SpanRecord",
    "Tracer",
    "get_obs",
    "hotspot_table",
    "load_chrome_trace",
    "observe",
    "read_span_log",
    "set_obs",
]
