"""Measurement helpers of the suite benchmark: statistics, output digests
and spans.

Nothing here imports the program under test, so the helpers are tested on
their own (``perfbench/tests``).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
import struct
import time
from typing import Any, Iterable, Sequence

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; below that it is one or two outliers, not a tail.
TAIL_SAMPLES = 10


# -- statistics ---------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100) with linear interpolation between
    order statistics (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {p}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the ``p``-th percentile."""
    return n - math.ceil(n * p / 100.0 - 1e-9)


def min_samples_for(p: float, beyond: int = TAIL_SAMPLES) -> int:
    """The fewest samples that leave ``beyond`` of them above percentile ``p``."""
    n = 1
    while samples_beyond(n, p) < beyond:
        n += 1
    return n


def tail_percentile(values: Sequence[float], p: float) -> float:
    """Percentile ``p`` of ``values``, refusing a tail too thin to report.

    Raises :class:`ValueError` unless at least :data:`TAIL_SAMPLES`
    samples lie beyond the percentile.
    """
    need = min_samples_for(p)
    if len(values) < need:
        raise ValueError(
            f"p{p:g} needs {need} samples to leave {TAIL_SAMPLES} beyond it, "
            f"got {len(values)}"
        )
    return percentile(values, p)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    logs = []
    for v in values:
        if not v > 0:
            raise ValueError(f"geometric mean needs positive values, got {v!r}")
        logs.append(math.log(v))
    if not logs:
        raise ValueError("geometric mean of no values")
    return math.exp(sum(logs) / len(logs))


# -- canonical output digest -------------------------------------------


def _feed(h: "hashlib._Hash", obj: Any, np: Any) -> None:
    """Stream a canonical, type-tagged encoding of ``obj`` into ``h``.

    Equal values give equal bytes whatever their identity, sharing or
    insertion order: mapping items are sorted by key and set members by
    their own encodings, floats are encoded bit-exactly, arrays by dtype, shape and
    C-order bytes.
    """
    if obj is None or isinstance(obj, bool):
        h.update(b"K" + repr(obj).encode())
    elif isinstance(obj, enum.Enum):
        h.update(b"E" + f"{type(obj).__qualname__}.{obj.name}".encode())
    elif isinstance(obj, int):
        text = str(obj).encode()
        h.update(b"I" + struct.pack("<Q", len(text)) + text)
    elif isinstance(obj, float):
        h.update(b"F" + struct.pack("<d", obj))
    elif isinstance(obj, str):
        data = obj.encode("utf-8", "surrogatepass")
        h.update(b"S" + struct.pack("<Q", len(data)) + data)
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        data = bytes(obj)
        h.update(b"B" + struct.pack("<Q", len(data)) + data)
    elif np is not None and isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            h.update(b"O" + repr(obj.shape).encode())
            for item in obj.ravel(order="C"):
                _feed(h, item, np)
        else:
            data = np.ascontiguousarray(obj).tobytes()
            h.update(
                b"A" + obj.dtype.str.encode() + repr(obj.shape).encode()
                + struct.pack("<Q", len(data)) + data
            )
    elif np is not None and isinstance(obj, np.generic):
        h.update(b"G" + obj.dtype.str.encode() + obj.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update((b"L" if isinstance(obj, list) else b"T") + struct.pack("<Q", len(obj)))
        for item in obj:
            _feed(h, item, np)
    elif isinstance(obj, dict):
        h.update(b"D")
        _feed_items(h, list(obj.items()), np)
    elif isinstance(obj, (set, frozenset)):
        members = sorted(digest_of(m, np) for m in obj)
        h.update(b"Z" + struct.pack("<Q", len(members)))
        for m in members:
            h.update(m.encode())
    elif callable(getattr(obj, "items", None)):
        # a mapping-like container (a hash table): its items are its value,
        # its slot layout and probe statistics are not
        h.update(b"M" + type(obj).__qualname__.encode())
        _feed_items(h, list(obj.items()), np)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"C" + type(obj).__qualname__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name), np)
    elif hasattr(obj, "__dict__") or hasattr(type(obj), "__slots__"):
        state = dict(getattr(obj, "__dict__", {}))
        for cls in type(obj).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if hasattr(obj, name):
                    state[name] = getattr(obj, name)
        h.update(b"C" + type(obj).__qualname__.encode())
        _feed(h, state, np)
    else:
        raise TypeError(f"no canonical encoding for {type(obj).__qualname__}")


def _feed_items(h: "hashlib._Hash", items: list[tuple[Any, Any]], np: Any) -> None:
    """Feed mapping items in an order that depends only on their content."""
    try:
        items.sort(key=lambda kv: kv[0])
    except TypeError:  # keys of mixed types: order by their encodings
        items.sort(key=lambda kv: digest_of(kv[0], np))
    h.update(struct.pack("<Q", len(items)))
    if all(type(k) is int and type(v) is int for k, v in items):
        h.update(b"i" + repr(items).encode())  # large count tables, fast
        return
    for key, value in items:
        _feed(h, key, np)
        _feed(h, value, np)


def digest_of(obj: Any, np: Any = None) -> str:
    """Hex SHA-256 of the canonical encoding of ``obj``.

    ``np`` is the NumPy module when the value may hold arrays (passed in so
    this module imports nothing the program under test depends on).
    """
    h = hashlib.sha256()
    _feed(h, obj, np)
    return h.hexdigest()


# -- spans --------------------------------------------------------------


@dataclasses.dataclass
class Span:
    """One timed interval at a layer boundary.

    ``op`` groups the spans of one operation; ``parent`` is the index of
    the enclosing span in the recorder (``None`` for a root).  ``reported``
    marks an interval the program reported as a duration (a ``RunRecord``
    phase field) and the benchmark placed inside its parent.
    """

    name: str
    begin: float
    end: float
    op: int
    parent: int | None = None
    reported: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.begin


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class SpanRecorder:
    """In-memory span store; nothing is written until :meth:`as_dicts`.

    A disabled recorder records nothing, so untraced passes run the same
    code with no span bookkeeping.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._next_op = 0

    def new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    def open(self, name: str, op: int, parent: int | None = None) -> int | None:
        """Start a span now; returns its index (``None`` when disabled)."""
        if not self.enabled:
            return None
        now = time.perf_counter()
        self.spans.append(Span(name, now, now, op, parent))
        return len(self.spans) - 1

    def close(self, index: int | None) -> None:
        if index is not None:
            self.spans[index].end = time.perf_counter()

    def reported(self, parent: int | None, phases: Sequence[tuple[str, float]]) -> None:
        """Lay reported phase durations end to end inside span ``parent``.

        They start at the parent's begin and are clipped to its end, since
        a reported duration and the benchmark's clock can disagree a little.
        """
        if parent is None:
            return
        outer = self.spans[parent]
        t = outer.begin
        for name, seconds in phases:
            if seconds is None or seconds <= 0:
                continue
            end = min(t + seconds, outer.end)
            if end > t:
                self.spans.append(Span(name, t, end, outer.op, parent, reported=True))
            t = end

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.begin, span.end))
        return [
            span.seconds - covered(children.get(i, ()), span.begin, span.end)
            for i, span in enumerate(self.spans)
        ]

    def self_by_name(self) -> dict[str, float]:
        """Self time summed per span name."""
        out: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_seconds()):
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def as_dicts(self) -> list[dict[str, Any]]:
        own = self.self_seconds()
        return [
            {**dataclasses.asdict(span), "self": own[i]} for i, span in enumerate(self.spans)
        ]
