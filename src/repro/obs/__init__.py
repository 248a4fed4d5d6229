"""End-to-end observability: span tracing, metrics, run history.

``repro.obs`` is the measurement layer the rest of the suite publishes
into:

* :mod:`repro.obs.trace` -- span tracer with Chrome trace-event export
  (``chrome://tracing`` / Perfetto), per-worker buffers merged at shard
  boundaries.
* :mod:`repro.obs.metrics` -- counters, gauges and fixed-bucket
  histograms, serialized into schema-v2 run records.
* :mod:`repro.obs.history` -- per-host ``BENCH_<host>.json`` run
  history plus the rolling-median regression tracker behind
  ``genomicsbench bench check``.
* :mod:`repro.obs.profile` -- statistical sampling profiler: folded
  stacks, hotspot tables and speedscope export, merged across workers
  at shard boundaries.
* :mod:`repro.obs.telemetry` -- per-worker ``/proc`` resource
  sampling (CPU, RSS, context switches), a graceful no-op off-Linux.
* :mod:`repro.obs.report` -- the self-contained HTML run dashboard,
  ``obs diff`` run comparison and the OpenMetrics textfile exporter.
* :mod:`repro.obs.events` -- the append-only structured event log
  every engine layer publishes its run narrative into (typed,
  severity-leveled, correlation-ID'd), merged across workers and
  hosts onto one clock.
* :mod:`repro.obs.live` -- the in-run HTTP status plane over that
  log: ``/status``, ``/metrics`` (OpenMetrics) and ``/events``.
* :mod:`repro.obs.series` -- the persistent service time-series store
  (append-only JSONL segments + background sampler) behind
  ``repro serve --state-dir``.
* :mod:`repro.obs.slo` -- declarative availability/latency/queue-wait
  objectives evaluated as multi-window burn rates over that series.
* :mod:`repro.obs.fleet` -- the fleet HTML dashboard
  (``obs report --service``).

The tracer and the registry share one activation model: the engine (or
a test) installs them for the calling thread with :func:`activated` /
:func:`activated_metrics` (``contextvars`` slots, so concurrent runs in
one process stay apart), and kernels emit through the ``kernel_*``
hooks, which cost one context-variable read when observability is
off.  :mod:`repro.obs.history`, :mod:`repro.obs.report`,
:mod:`repro.obs.live`, :mod:`repro.obs.slo` and :mod:`repro.obs.fleet`
are imported on demand (they pull in the run-record schema /
``http.server``) rather than re-exported here.
"""

from repro.obs.events import (
    Event,
    EventLog,
    format_event,
    load_events,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    SECONDS_BUCKETS,
    WORK_BUCKETS,
    activated_metrics,
    current_metrics,
    estimate_quantile,
    kernel_counter,
    kernel_observe,
    quantile_from_dict,
)
from repro.obs.series import SAMPLE_SCHEMA, Sampler, SeriesStore, load_series
from repro.obs.profile import (
    Hotspot,
    SamplingProfiler,
    StackProfile,
    merge_profiles,
)
from repro.obs.telemetry import (
    ResourceSample,
    TelemetrySampler,
    TelemetrySeries,
    telemetry_supported,
)
from repro.obs.trace import (
    Span,
    Tracer,
    activated,
    chrome_events_from_record,
    current_tracer,
    export_record_trace,
    kernel_instant,
    kernel_span,
)

__all__ = [
    "Counter",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "Hotspot",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "ResourceSample",
    "SAMPLE_SCHEMA",
    "SECONDS_BUCKETS",
    "Sampler",
    "SamplingProfiler",
    "SeriesStore",
    "Span",
    "StackProfile",
    "TelemetrySampler",
    "TelemetrySeries",
    "Tracer",
    "WORK_BUCKETS",
    "activated",
    "activated_metrics",
    "chrome_events_from_record",
    "current_metrics",
    "current_tracer",
    "estimate_quantile",
    "export_record_trace",
    "format_event",
    "kernel_counter",
    "kernel_instant",
    "kernel_observe",
    "kernel_span",
    "load_events",
    "load_series",
    "merge_profiles",
    "quantile_from_dict",
    "telemetry_supported",
]
