"""Metrics registry: counters, gauges and fixed-bucket histograms.

The paper reports aggregate metrics per kernel (throughput, cache
behaviour, instruction mixes); this registry is where the reproduction
publishes theirs.  The engine fills one registry per run -- ops/sec,
cache hit ratio, tasks per worker, prepare vs execute seconds -- and
kernels add their own through the module-level hooks, mirroring the
span-tracer activation model.  The serialized registry rides inside the
schema-v2 :class:`~repro.runner.record.RunRecord`, so every metric a
run produced is part of its machine-readable provenance.

Metric types
------------

* :class:`Counter` -- monotonically increasing count (``inc``).
* :class:`Gauge` -- last-written value (``set``).
* :class:`Histogram` -- observation counts over *fixed* bucket
  boundaries chosen at creation.  Fixed boundaries make histograms from
  different runs directly comparable (and mergeable by bucket-wise
  addition), which is what regression tracking needs; bucket ``i``
  counts observations ``<= boundaries[i]``, with one overflow bucket.

Like the tracer, the registry has a per-thread *active* slot (a
:class:`contextvars.ContextVar`, so concurrent runs in one process keep
their counters apart): :func:`activated_metrics` installs one, and
:func:`kernel_counter` / :func:`kernel_observe` are free-when-disabled
hooks for kernel adapters.  Worker processes do not publish (metrics
stay on in-process runs; spans are the cross-process signal).
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any

#: Default histogram boundaries for per-task work (kernel work units).
WORK_BUCKETS = (10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0)

#: Default histogram boundaries for durations in seconds.
SECONDS_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)

#: Histogram boundaries for per-chunk attempt counts (fault-tolerant
#: engine): bucket 1 is the no-retry common case, the tail is chunks
#: that burned through most of a retry budget.
ATTEMPT_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0)

#: Quantile-friendly latency boundaries in seconds: dense enough that
#: interpolated p50/p95/p99 estimates stay within a bucket's width of
#: the truth across the ms..minutes range the service observes.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

_ACTIVE: "ContextVar[MetricsRegistry | None]" = ContextVar(
    "repro_metrics", default=None
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase; use a gauge instead")
        self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Observation counts over fixed, ascending bucket boundaries."""

    __slots__ = ("boundaries", "counts", "sum", "count")

    def __init__(self, boundaries: tuple[float, ...] = WORK_BUCKETS) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram boundaries must be strictly ascending")
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)  # last bucket = overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile of the observations (see
        :func:`estimate_quantile`); ``None`` when empty."""
        return estimate_quantile(self.boundaries, self.counts, q)

    def as_dict(self) -> dict[str, Any]:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Named metrics, created on first use, serialized as one dict."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self._gauges.setdefault(name, Gauge())

    def histogram(
        self, name: str, boundaries: tuple[float, ...] = WORK_BUCKETS
    ) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(boundaries)
        elif hist.boundaries != tuple(float(b) for b in boundaries):
            raise ValueError(
                f"histogram {name!r} already registered with different boundaries"
            )
        return hist

    def publish_op_counts(self, counts: Any) -> None:
        """Publish per-category dynamic op counts (``OpCounts.as_dict``)."""
        for category, n in counts.as_dict().items():
            self.counter(f"ops.{category}").inc(n)

    # -- serialization -------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot: ``{"counters": ..., "gauges": ..., "histograms": ...}``."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.as_dict() for k, h in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "MetricsRegistry":
        reg = cls()
        for name, value in doc.get("counters", {}).items():
            reg.counter(name).inc(value)
        for name, value in doc.get("gauges", {}).items():
            # register the gauge even when unset (value None) so the
            # round-trip as_dict -> from_dict -> as_dict is lossless
            gauge = reg.gauge(name)
            if value is not None:
                gauge.set(value)
        for name, h in doc.get("histograms", {}).items():
            hist = reg.histogram(name, tuple(h["boundaries"]))
            hist.counts = list(h["counts"])
            hist.sum = h["sum"]
            hist.count = h["count"]
        return reg


# -- quantile estimation ----------------------------------------------


def estimate_quantile(
    boundaries: "tuple[float, ...] | list[float]",
    counts: "list[int] | tuple[int, ...]",
    q: float,
) -> float | None:
    """Estimate the ``q``-quantile from fixed-bucket histogram counts.

    The Prometheus ``histogram_quantile`` model: observations are
    assumed uniformly distributed inside each bucket, so the estimate
    interpolates linearly between the bucket's bounds at the fraction
    of the target rank that falls inside it.  The first bucket's lower
    bound is taken as ``min(0, upper)`` (latencies start at zero) and
    any rank landing in the overflow (+Inf) bucket collapses to the
    last finite boundary -- the estimate is then a lower bound, which
    is the honest answer a capped histogram can give.

    Returns ``None`` for an empty histogram.  The estimate is
    non-decreasing in ``q`` for fixed data, which is what dashboards
    and SLO evaluation rely on.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    bounds = [float(b) for b in boundaries]
    total = sum(counts)
    if total <= 0:
        return None
    rank = q * total
    cumulative = 0.0
    for i, count in enumerate(counts):
        if count <= 0:
            continue
        cumulative += count
        if cumulative >= rank:
            if i >= len(bounds):  # overflow bucket: clamp to last boundary
                return bounds[-1] if bounds else None
            upper = bounds[i]
            lower = bounds[i - 1] if i > 0 else min(0.0, upper)
            inside = max(0.0, rank - (cumulative - count))
            return lower + (upper - lower) * (inside / count)
    # float slack pushed rank past the final cumulative count
    return bounds[-1] if bounds else None  # pragma: no cover


def quantile_from_dict(doc: dict[str, Any], q: float) -> float | None:
    """:func:`estimate_quantile` over a ``Histogram.as_dict`` document."""
    return estimate_quantile(
        tuple(doc.get("boundaries") or ()), list(doc.get("counts") or []), q
    )


# -- module-level activation ------------------------------------------


def current_metrics() -> MetricsRegistry | None:
    """This thread's active registry, or ``None`` when disabled."""
    return _ACTIVE.get()


@contextmanager
def activated_metrics(registry: MetricsRegistry):
    """Install ``registry`` as this thread's current one for the block."""
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)


def kernel_counter(name: str, n: int | float = 1) -> None:
    """Increment counter ``name`` in the active registry (free when off)."""
    registry = _ACTIVE.get()
    if registry is not None:
        registry.counter(name).inc(n)


def kernel_observe(
    name: str, value: float, boundaries: tuple[float, ...] = WORK_BUCKETS
) -> None:
    """Observe ``value`` in histogram ``name`` (free when off)."""
    registry = _ACTIVE.get()
    if registry is not None:
        registry.histogram(name, boundaries).observe(value)
