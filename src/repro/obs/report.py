"""Run-report dashboard, run diffing and an OpenMetrics exporter.

Everything the obs layer collects about a run -- the chunk trace,
metrics registry, sampling-profiler hotspots, ``/proc`` telemetry and
the structured event log -- lands in one schema-v5
:class:`~repro.runner.record.RunRecord`.  This module turns that
record into things people and machines consume:

* :func:`render_report` / :func:`write_report` -- a **self-contained
  HTML dashboard** (inline CSS/SVG, no external assets, light and dark
  mode from the same markup): stat tiles for the headline numbers, the
  per-worker chunk timeline with an event annotation lane, the
  profiler's hotspot table, per-worker CPU/RSS sparklines, the run's
  warning/error events and the metrics tables, plus an optional
  throughput trend from a bench history.
* :func:`diff_records` -- a structured comparison of two runs
  (throughput, wall-clock, peak RSS, hotspot shifts) rendered through
  the CLI's :class:`~repro.perf.report.Report` contract.
* :func:`to_openmetrics` / :func:`write_openmetrics` -- the run's
  metrics registry as an OpenMetrics textfile (counters ``_total``,
  histograms as cumulative ``_bucket``/``_sum``/``_count`` series,
  ``# EOF`` terminator) for node-exporter-style scraping.
* :func:`load_run_records` -- loads records from any JSON the suite
  writes: a raw record, ``run --format json`` output (single or
  multi-kernel) or a bench-history file.
* :func:`render_sweep_report` / :func:`write_sweep_report` -- the
  sweep dashboard (``obs report --sweep DIR``): leaderboard, a
  heatmap-style grid of cells over the two busiest axes, and per-axis
  throughput trends, from a :class:`~repro.sweep.aggregate.SweepRecord`.
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro.obs.history import HISTORY_SCHEMA, throughput
from repro.perf.report import Report, sig
from repro.runner.record import RunRecord

if TYPE_CHECKING:  # sweep imports obs-free modules only; keep it that way
    from repro.sweep.aggregate import SweepRecord as SweepRecordT

#: Hotspot rows shown in the dashboard and compared by ``obs diff``.
REPORT_TOP_N = 15

#: OpenMetrics metric-name prefix.
OPENMETRICS_PREFIX = "genomicsbench"


# -- record loading ----------------------------------------------------


def load_run_records(path: Path | str) -> list[RunRecord]:
    """Every :class:`RunRecord` found in a JSON file the suite wrote.

    Accepts three shapes: a raw serialized record, the ``{"title",
    "data"}`` wrapper ``--format json`` emits (``data`` is one record
    or a list of them), and a ``bench`` history file.
    """
    path = Path(path)
    doc = json.loads(path.read_text())
    records = _records_from(doc)
    if not records:
        raise ValueError(f"{path} contains no run records")
    return records


def _records_from(doc: Any) -> list[RunRecord]:
    if isinstance(doc, list):
        return [r for item in doc for r in _records_from(item)]
    if not isinstance(doc, dict):
        return []
    schema = doc.get("schema", "")
    if isinstance(schema, str) and schema.startswith("genomicsbench.run/"):
        return [RunRecord.from_dict(doc)]
    if schema == HISTORY_SCHEMA:
        return [RunRecord.from_dict(e) for e in doc.get("entries", [])]
    if "data" in doc:  # the CLI's ``--format json`` wrapper
        return _records_from(doc["data"])
    return []


# -- run diffing -------------------------------------------------------


@dataclass
class DiffRow:
    """One compared quantity of two runs."""

    quantity: str
    a: float | None
    b: float | None

    @property
    def delta_pct(self) -> float | None:
        """Percent change from ``a`` to ``b`` (``None`` when undefined)."""
        if self.a is None or self.b is None or self.a == 0:
            return None
        return 100.0 * (self.b - self.a) / abs(self.a)


@dataclass
class RunDiff:
    """Structured comparison of two run records."""

    a: RunRecord
    b: RunRecord
    rows: list[DiffRow]
    hotspot_rows: list[tuple[str, float, float]]  # frame, self% a, self% b

    def report(self) -> Report:
        """Render through the CLI's formatter contract."""
        label = lambda r: f"{r.kernel}/{r.size}/j{r.jobs}"  # noqa: E731
        table = []
        for row in self.rows:
            delta = row.delta_pct
            table.append(
                (
                    row.quantity,
                    sig(row.a) if row.a is not None else "-",
                    sig(row.b) if row.b is not None else "-",
                    f"{delta:+.1f}%" if delta is not None else "-",
                )
            )
        for frame, pa, pb in self.hotspot_rows:
            table.append((f"self% {frame}", f"{pa:.1f}", f"{pb:.1f}", f"{pb - pa:+.1f}pp"))
        return Report(
            title=f"run diff: A={label(self.a)} vs B={label(self.b)}",
            headers=["quantity", "A", "B", "delta"],
            rows=table,
            data={
                "a": {"kernel": self.a.kernel, "size": self.a.size, "jobs": self.a.jobs},
                "b": {"kernel": self.b.kernel, "size": self.b.size, "jobs": self.b.jobs},
                "quantities": [
                    {
                        "quantity": r.quantity,
                        "a": r.a,
                        "b": r.b,
                        "delta_pct": r.delta_pct,
                    }
                    for r in self.rows
                ],
                "hotspots": [
                    {"frame": f, "a_self_pct": pa, "b_self_pct": pb, "delta_pp": pb - pa}
                    for f, pa, pb in self.hotspot_rows
                ],
            },
        )


def _hotspot_self_pct(record: RunRecord) -> dict[str, float]:
    doc = record.profile or {}
    return {
        h["frame"]: float(h.get("self_pct", 0.0))
        for h in doc.get("hotspots", [])
    }


def diff_records(a: RunRecord, b: RunRecord) -> RunDiff:
    """Compare two runs: throughput, timings, memory and hotspot shifts.

    Hotspot rows cover every frame in either record's top table (when
    both runs were profiled), sorted by the magnitude of the
    self-percentage shift -- the view that answers "where did the time
    move?".
    """
    rows = [
        DiffRow("throughput work/s", throughput(a), throughput(b)),
        DiffRow("execute seconds", a.execute_seconds, b.execute_seconds),
        DiffRow("prepare seconds", a.prepare_seconds, b.prepare_seconds),
        DiffRow("speedup vs serial", a.speedup_vs_serial, b.speedup_vs_serial),
        DiffRow(
            "scheduling efficiency", a.scheduling_efficiency, b.scheduling_efficiency
        ),
        DiffRow("peak RSS bytes", a.peak_rss_bytes, b.peak_rss_bytes),
    ]
    hot_a, hot_b = _hotspot_self_pct(a), _hotspot_self_pct(b)
    hotspot_rows = sorted(
        (
            (frame, hot_a.get(frame, 0.0), hot_b.get(frame, 0.0))
            for frame in set(hot_a) | set(hot_b)
        ),
        key=lambda row: (-abs(row[2] - row[1]), row[0]),
    )[:REPORT_TOP_N]
    return RunDiff(a=a, b=b, rows=rows, hotspot_rows=hotspot_rows)


# -- OpenMetrics export ------------------------------------------------


def _om_name(name: str) -> str:
    """Sanitize a registry metric name for OpenMetrics."""
    safe = "".join(c if (c.isalnum() or c == "_") else "_" for c in name)
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return f"{OPENMETRICS_PREFIX}_{safe}"


def _om_value(value: float) -> str:
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def _om_label_value(value: Any) -> str:
    """Escape a label value per the OpenMetrics exposition format:
    backslash, double quote and line feed are the three characters the
    spec requires escaping inside quoted label values."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def encode_openmetrics(
    metrics: dict[str, Any], labels: dict[str, Any]
) -> str:
    """A metrics-registry snapshot as an OpenMetrics textfile.

    ``metrics`` is the :meth:`~repro.obs.metrics.MetricsRegistry.as_dict`
    shape (``counters`` / ``gauges`` / ``histograms`` keys, each
    optional).  Counters get the ``_total`` suffix, histograms the
    cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count`` triple, and
    every sample carries the given labels so textfiles from several
    runs can be concatenated by a collector.  Unset gauges are skipped
    (OpenMetrics has no "no value" sample).  Shared by the ``obs
    export`` textfile writer and the live ``/metrics`` endpoint.
    """
    label_text = ",".join(
        f'{k}="{_om_label_value(v)}"' for k, v in labels.items()
    )
    lines: list[str] = []
    for name, value in sorted((metrics.get("counters") or {}).items()):
        om = _om_name(name)
        lines.append(f"# TYPE {om} counter")
        lines.append(f"{om}_total{{{label_text}}} {_om_value(value)}")
    for name, value in sorted((metrics.get("gauges") or {}).items()):
        if value is None:
            continue
        om = _om_name(name)
        lines.append(f"# TYPE {om} gauge")
        lines.append(f"{om}{{{label_text}}} {_om_value(value)}")
    for name, hist in sorted((metrics.get("histograms") or {}).items()):
        om = _om_name(name)
        lines.append(f"# TYPE {om} histogram")
        counts = list(hist.get("counts") or [])
        cumulative = 0
        for boundary, count in zip(hist.get("boundaries") or [], counts):
            cumulative += count
            lines.append(
                f'{om}_bucket{{{label_text},le="{_om_value(boundary)}"}} {cumulative}'
            )
        cumulative += counts[-1] if counts else 0
        lines.append(f'{om}_bucket{{{label_text},le="+Inf"}} {cumulative}')
        lines.append(f"{om}_sum{{{label_text}}} {_om_value(hist.get('sum', 0.0))}")
        lines.append(f"{om}_count{{{label_text}}} {hist.get('count', 0)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def to_openmetrics(record: RunRecord) -> str:
    """The record's metrics registry as an OpenMetrics textfile."""
    return encode_openmetrics(
        record.metrics or {},
        {"kernel": record.kernel, "size": record.size, "jobs": record.jobs},
    )


def write_openmetrics(path: Path | str, record: RunRecord) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_openmetrics(record))
    return path


# -- HTML dashboard ----------------------------------------------------

# Palette: categorical slots in fixed order (light, dark), text and
# surface tokens -- identity stays on the same hue across filters and
# text never wears a series color.
_SERIES_LIGHT = (
    "#2a78d6", "#eb6834", "#1baf7a", "#eda100",
    "#e87ba4", "#008300", "#4a3aa7", "#e34948",
)
_SERIES_DARK = (
    "#3987e5", "#d95926", "#199e70", "#c98500",
    "#d55181", "#008300", "#9085e9", "#e66767",
)

_CSS = """
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --surface-2: #f0efec;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --hairline: #dddcd8;
  --series-1: #2a78d6;
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--surface-1);
  color: var(--text-primary);
  margin: 0 auto; max-width: 1100px; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --surface-2: #262625;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --hairline: #3a3a38; --series-1: #3987e5;
  }
  :root:where(:not([data-theme="light"])) .light-only { display: none; }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19; --surface-2: #262625;
  --text-primary: #ffffff; --text-secondary: #c3c2b7;
  --hairline: #3a3a38; --series-1: #3987e5;
}
:root[data-theme="dark"] .light-only { display: none; }
@media (prefers-color-scheme: light) { .dark-only { display: none; } }
:root[data-theme="light"] .dark-only { display: none; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; }
.sub { color: var(--text-secondary); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; }
.tile {
  background: var(--surface-2); border-radius: 8px;
  padding: 10px 16px; min-width: 110px;
}
.tile .v { font-size: 22px; font-weight: 600; font-variant-numeric: tabular-nums; }
.tile .k { color: var(--text-secondary); font-size: 12px; }
table { border-collapse: collapse; width: 100%; font-variant-numeric: tabular-nums; }
th, td { text-align: left; padding: 5px 10px; border-bottom: 1px solid var(--hairline); }
th { color: var(--text-secondary); font-weight: 500; font-size: 12px; }
td.num, th.num { text-align: right; }
.frame { font-family: ui-monospace, Menlo, Consolas, monospace; font-size: 12px; }
.bar { height: 8px; border-radius: 4px; background: var(--series-1); }
.barwrap { width: 140px; background: var(--surface-2); border-radius: 4px; }
svg text { fill: var(--text-secondary); font-size: 11px; }
svg .grid { stroke: var(--hairline); stroke-width: 1; }
.spark { display: flex; flex-wrap: wrap; gap: 18px; }
.spark figure { margin: 0; }
.spark figcaption { color: var(--text-secondary); font-size: 12px; margin-bottom: 2px; }
.note { color: var(--text-secondary); font-size: 12px; }
"""


def _fmt_bytes(n: float | None) -> str:
    if n is None:
        return "-"
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return "-"  # pragma: no cover - loop always returns


def _tile(value: str, label: str) -> str:
    return (
        f'<div class="tile"><div class="v">{html.escape(value)}</div>'
        f'<div class="k">{html.escape(label)}</div></div>'
    )


def _polyline(
    points: Sequence[tuple[float, float]],
    width: int,
    height: int,
    pad: int = 4,
) -> str:
    """SVG polyline ``points`` attribute, scaled into the box."""
    if not points:
        return ""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0
    return " ".join(
        f"{pad + (x - x0) / xr * (width - 2 * pad):.1f},"
        f"{height - pad - (y - y0) / yr * (height - 2 * pad):.1f}"
        for x, y in points
    )


def _sparkline(
    points: Sequence[tuple[float, float]],
    caption: str,
    summary: str,
    width: int = 240,
    height: int = 56,
) -> str:
    """One small-multiple line chart (single series: no legend)."""
    poly = _polyline(points, width, height)
    return (
        "<figure>"
        f"<figcaption>{html.escape(caption)} "
        f'<span class="note">{html.escape(summary)}</span></figcaption>'
        f'<svg width="{width}" height="{height}" role="img" '
        f'aria-label="{html.escape(caption)}">'
        f'<line class="grid" x1="4" y1="{height - 4}" x2="{width - 4}" '
        f'y2="{height - 4}"/>'
        f'<polyline points="{poly}" fill="none" stroke="var(--series-1)" '
        'stroke-width="2" stroke-linejoin="round"/>'
        "</svg></figure>"
    )


#: Event-lane marker colors by severity (legible in both themes).
_EVENT_COLORS = {"info": "#2a78d6", "warning": "#eda100", "error": "#e34948"}


def _event_lane(record: RunRecord, span: float, left: int, plot_w: int, y: int) -> str:
    """One marker row of info+ events under the worker tracks.

    Event ``t`` is already relative to the execute-phase start -- the
    same origin as the chunk trace -- so markers line up with the bars
    above them; pre-execute events (negative ``t``) clamp to the left
    edge.  ``<title>`` tooltips carry the event's formatted line.
    """
    from repro.obs.events import format_event, level_rank

    floor = level_rank("info")
    shown = [
        e for e in record.events
        if level_rank(e.get("level", "info")) >= floor
    ]
    if not shown:
        return ""
    parts = [f'<text x="0" y="{y + 13}">events</text>']
    for doc in shown:
        t = min(max(float(doc.get("t", 0.0)), 0.0), span)
        x = left + t / span * plot_w
        color = _EVENT_COLORS.get(doc.get("level", "info"), _EVENT_COLORS["info"])
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y + 9}" r="4" fill="{color}" '
            'stroke="var(--surface-1)" stroke-width="1">'
            f"<title>{html.escape(format_event(doc))}</title></circle>"
        )
    return "".join(parts)


def _timeline_svg(record: RunRecord) -> str:
    """Per-worker chunk timeline: one track per worker, one bar per chunk.

    Worker identity is categorical -- each track keeps its fixed palette
    slot (folding to slot cycling only past eight tracks would break the
    CVD ordering, so tracks beyond the eighth reuse a neutral).  Native
    ``<title>`` tooltips carry the per-chunk detail on hover.  Below
    the worker tracks, an annotation lane marks the run's info+
    structured events (retries, quarantines, lost hosts, ...) on the
    same time axis.  Chunks restored from a checkpoint ran in an earlier
    run and have no track.
    """
    executed = [c for c in record.chunks if c.worker is not None]
    if not executed:
        return '<p class="note">no chunk trace recorded</p>'
    span = max(c.end for c in executed) or 1.0
    n_workers = max(c.worker for c in executed) + 1
    width, row_h, left = 1040, 22, 70
    lane = _event_lane(record, span, left, 1040 - left - 8, n_workers * row_h)
    lane_h = row_h if lane else 0
    height = n_workers * row_h + lane_h + 24
    plot_w = width - left - 8
    parts = [
        f'<svg width="{width}" height="{height}" role="img" '
        'aria-label="chunk timeline">'
    ]
    for w in range(n_workers):
        y = w * row_h
        parts.append(
            f'<text x="0" y="{y + 15}">worker {w}</text>'
            f'<line class="grid" x1="{left}" y1="{y + row_h - 2}" '
            f'x2="{width - 8}" y2="{y + row_h - 2}"/>'
        )
    for cls, palette in (("light-only", _SERIES_LIGHT), ("dark-only", _SERIES_DARK)):
        parts.append(f'<g class="{cls}">')
        for c in executed:
            color = palette[c.worker] if c.worker < len(palette) else "var(--hairline)"
            x = left + c.begin / span * plot_w
            bw = max(1.0, (c.end - c.begin) / span * plot_w)
            y = c.worker * row_h + 3
            tip = (
                f"chunk [{c.start}:{c.stop}) on worker {c.worker}: "
                f"{c.begin:.3f}s - {c.end:.3f}s ({c.seconds * 1000:.1f} ms)"
            )
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{bw:.1f}" height="{row_h - 8}" '
                f'rx="2" fill="{color}" stroke="var(--surface-1)" stroke-width="1">'
                f"<title>{html.escape(tip)}</title></rect>"
            )
        parts.append("</g>")
    parts.append(lane)
    axis_y = n_workers * row_h + lane_h + 16
    parts.append(
        f'<text x="{left}" y="{axis_y}">0s</text>'
        f'<text x="{width - 60}" y="{axis_y}">{span:.2f}s</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _hotspot_table(record: RunRecord) -> str:
    doc = record.profile or {}
    hotspots = doc.get("hotspots", [])[:REPORT_TOP_N]
    if not hotspots:
        return (
            '<p class="note">no profile in this record '
            "(run with <code>--profile</code>)</p>"
        )
    rows = []
    for h in hotspots:
        self_pct = float(h.get("self_pct", 0.0))
        rows.append(
            "<tr>"
            f'<td class="frame">{html.escape(h["frame"])}</td>'
            f'<td class="num">{int(h.get("self_samples", 0))}</td>'
            f'<td class="num">{self_pct:.1f}%</td>'
            f'<td class="num">{float(h.get("total_pct", 0.0)):.1f}%</td>'
            f'<td><div class="barwrap"><div class="bar" '
            f'style="width:{min(100.0, self_pct):.1f}%"></div></div></td>'
            "</tr>"
        )
    phases = ", ".join(
        f"{name}: {p.get('samples', 0)}" for name, p in sorted(doc.get("phases", {}).items())
    )
    return (
        f'<p class="note">{doc.get("samples", 0)} samples at {doc.get("hz", 0):g} Hz'
        f" ({phases})</p>"
        "<table><thead><tr><th>frame</th>"
        '<th class="num">self</th><th class="num">self %</th>'
        '<th class="num">cumulative %</th><th></th></tr></thead>'
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _telemetry_section(record: RunRecord) -> str:
    doc = record.telemetry or {}
    workers = doc.get("workers", [])
    if not doc:
        return (
            '<p class="note">no telemetry in this record '
            "(run with <code>--telemetry</code>)</p>"
        )
    if not doc.get("supported", False):
        return '<p class="note">telemetry not available on this platform (no procfs)</p>'
    figures = []
    for w in workers:
        series = w.get("series", [])
        rss_pts = [(row[0], row[2]) for row in series]
        cpu_pts = [(row[0], row[1]) for row in series]
        if len(rss_pts) < 2:
            continue
        label = f"worker {w.get('worker', '?')}"
        figures.append(
            _sparkline(rss_pts, f"{label} RSS", f"peak {_fmt_bytes(w.get('peak_rss_bytes'))}")
        )
        mean_cpu = w.get("mean_cpu_percent")
        figures.append(
            _sparkline(
                cpu_pts,
                f"{label} CPU",
                f"mean {mean_cpu:.0f}%" if mean_cpu is not None else "",
            )
        )
    if not figures:
        return '<p class="note">telemetry window too short to chart</p>'
    return f'<div class="spark">{"".join(figures)}</div>'


def _metrics_tables(record: RunRecord) -> str:
    metrics = record.metrics or {}
    sections = []
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    scalar_rows = [
        (name, f"{value:,.0f}" if float(value).is_integer() else sig(float(value)))
        for name, value in sorted(counters.items())
    ] + [
        (name, sig(float(value)) if value is not None else "-")
        for name, value in sorted(gauges.items())
    ]
    if scalar_rows:
        body = "".join(
            f'<tr><td class="frame">{html.escape(k)}</td><td class="num">{v}</td></tr>'
            for k, v in scalar_rows
        )
        sections.append(
            "<table><thead><tr><th>metric</th>"
            f'<th class="num">value</th></tr></thead><tbody>{body}</tbody></table>'
        )
    hists = metrics.get("histograms") or {}
    if hists:
        rows = []
        for name, h in sorted(hists.items()):
            count = h.get("count", 0)
            mean = h.get("sum", 0.0) / count if count else 0.0
            rows.append(
                f'<tr><td class="frame">{html.escape(name)}</td>'
                f'<td class="num">{count}</td><td class="num">{sig(mean)}</td></tr>'
            )
        sections.append(
            "<h2>histograms</h2><table><thead><tr><th>histogram</th>"
            '<th class="num">n</th><th class="num">mean</th></tr></thead>'
            f"<tbody>{''.join(rows)}</tbody></table>"
        )
    return "".join(sections) or '<p class="note">no metrics recorded</p>'


def _events_section(record: RunRecord) -> str:
    """Event-log summary: totals plus every warning/error, formatted."""
    from repro.obs.events import format_event, level_rank

    if not record.events:
        return (
            '<p class="note">no event log in this record '
            "(written by pre-v5 suites)</p>"
        )
    floor = level_rank("warning")
    noteworthy = [
        e for e in record.events
        if level_rank(e.get("level", "info")) >= floor
    ]
    note = (
        f'<p class="note">{len(record.events)} events recorded; '
        f"{len(noteworthy)} at warning or above "
        "(hover the timeline markers; replay with <code>obs tail</code>)</p>"
    )
    if not noteworthy:
        return note
    rows = "".join(
        f'<tr><td class="num">{e.get("seq", "-")}</td>'
        f'<td class="frame">{html.escape(format_event(e))}</td></tr>'
        for e in noteworthy[:REPORT_TOP_N * 2]
    )
    return (
        note + '<table><thead><tr><th class="num">seq</th>'
        f"<th>event</th></tr></thead><tbody>{rows}</tbody></table>"
    )


def _history_section(record: RunRecord, history: Sequence[RunRecord]) -> str:
    """Throughput trend of this record's configuration over the history."""
    series = [
        tp
        for r in history
        if (r.kernel, r.size, r.jobs) == (record.kernel, record.size, record.jobs)
        and (tp := throughput(r)) is not None
    ]
    if len(series) < 2:
        return (
            '<p class="note">fewer than two historical runs of '
            f"{html.escape(record.kernel)}/{html.escape(record.size)}/"
            f"j{record.jobs}; no trend to plot</p>"
        )
    points = [(float(i), tp) for i, tp in enumerate(series)]
    return _sparkline(
        points,
        f"throughput, {record.kernel}/{record.size}/j{record.jobs}",
        f"{len(series)} runs, latest {series[-1]:,.0f} work/s",
        width=520,
        height=90,
    )


def render_report(record: RunRecord, history: Sequence[RunRecord] | None = None) -> str:
    """The run's self-contained HTML dashboard (one file, no assets)."""
    speedup = record.speedup_vs_serial
    eff = record.scheduling_efficiency
    tp = throughput(record)
    tiles = [
        _tile(f"{record.execute_seconds:.2f}s", "kernel time"),
        _tile(f"{tp:,.0f}" if tp is not None else "-", "work units/s"),
        _tile(f"{speedup:.2f}x" if speedup is not None else "-", "speedup vs serial"),
        _tile(f"{100 * eff:.0f}%" if eff is not None else "-", "scheduling efficiency"),
        _tile(str(record.n_tasks), "tasks"),
        _tile(str(record.jobs), "workers"),
        _tile(_fmt_bytes(record.peak_rss_bytes), "peak RSS"),
    ]
    health = "complete" if record.complete else (
        f"{record.quarantined_tasks} task(s) quarantined"
    )
    if record.degraded:
        health += ", degraded to serial"
    sections = [
        "<h2>chunk timeline</h2>",
        _timeline_svg(record),
        "<h2>hotspots</h2>",
        _hotspot_table(record),
        "<h2>worker telemetry</h2>",
        _telemetry_section(record),
        "<h2>run events</h2>",
        _events_section(record),
    ]
    if history is not None:
        sections += ["<h2>throughput history</h2>", _history_section(record, history)]
    sections += ["<h2>metrics</h2>", _metrics_tables(record)]
    title = f"{record.kernel} / {record.size} / jobs={record.jobs}"
    return (
        "<!doctype html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>genomicsbench run: {html.escape(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        '<body class="viz-root">\n'
        f"<h1>genomicsbench run report</h1>\n"
        f'<p class="sub">{html.escape(title)} &middot; {html.escape(health)}'
        f" &middot; schema {html.escape(record.schema)}</p>\n"
        f'<div class="tiles">{"".join(tiles)}</div>\n'
        + "\n".join(sections)
        + "\n</body></html>\n"
    )


def write_report(
    path: Path | str,
    record: RunRecord,
    history: Sequence[RunRecord] | None = None,
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_report(record, history))
    return path


# -- sweep dashboard ---------------------------------------------------

#: Status chip colors for sweep cells (legible in both themes).
_STATUS_COLORS = {
    "ok": "#1baf7a",
    "resumed": "#2a78d6",
    "incomplete": "#eda100",
    "failed": "#e34948",
}


def _fmt_tp(value: float | None) -> str:
    return f"{value:,.0f}" if value is not None else "-"


def _sweep_axes(sweep: "SweepRecordT", kernel: str) -> list[tuple[str, list[Any]]]:
    """Axes that actually vary for one kernel, busiest first.

    Sorted by distinct-value count (descending) then name, so the
    heatmap always spans the two axes with the most cells.
    """
    cells = [c for c in sweep.cells if c.kernel == kernel]
    axes: dict[str, dict[Any, None]] = {}
    for cell in cells:
        for name, value in cell.config.items():
            axes.setdefault(name, {}).setdefault(value, None)
    varying = [
        (name, list(values))
        for name, values in axes.items()
        if len(values) > 1
    ]
    varying.sort(key=lambda item: (-len(item[1]), item[0]))
    return varying


def _axis_sorted(values: list[Any]) -> list[Any]:
    """Axis values in display order (numeric sort when possible)."""
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=str)


def _sweep_grid(sweep: "SweepRecordT", kernel: str) -> str:
    """Heatmap-style grid of one kernel's cells over its two busiest axes.

    Cell tint encodes throughput relative to the kernel's best (full
    saturation = fastest configuration); failed cells show their
    status instead of a number.  With a single varying axis the grid
    collapses to one row; with none there is nothing to chart.
    """
    cells = [c for c in sweep.cells if c.kernel == kernel]
    varying = _sweep_axes(sweep, kernel)
    if not varying:
        return '<p class="note">single configuration; no grid to chart</p>'
    x_axis, x_values = varying[0]
    x_values = _axis_sorted(x_values)
    if len(varying) > 1:
        y_axis, y_values = varying[1]
        y_values = _axis_sorted(y_values)
    else:
        y_axis, y_values = None, [None]
    best = max((c.throughput for c in cells if c.throughput is not None), default=0.0)

    def pick(xv: Any, yv: Any):
        for c in cells:
            if c.config.get(x_axis) != xv:
                continue
            if y_axis is not None and c.config.get(y_axis) != yv:
                continue
            return c
        return None

    head = "".join(
        f'<th class="num">{html.escape(f"{x_axis}={v}")}</th>' for v in x_values
    )
    corner = html.escape(y_axis or "")
    rows = []
    for yv in y_values:
        tds = []
        for xv in x_values:
            cell = pick(xv, yv)
            if cell is None:
                tds.append('<td class="num">-</td>')
                continue
            if cell.throughput is None:
                color = _STATUS_COLORS.get(cell.status, _STATUS_COLORS["failed"])
                tds.append(
                    f'<td class="num" style="color:{color}">'
                    f"{html.escape(cell.status)}</td>"
                )
                continue
            alpha = 0.08 + 0.72 * (cell.throughput / best if best else 0.0)
            tip = (
                f"{cell.cell_id}: {cell.throughput:,.0f} work/s, "
                f"{cell.execute_seconds:.3f}s"
                if cell.execute_seconds is not None
                else f"{cell.throughput:,.0f} work/s"
            )
            tds.append(
                f'<td class="num" style="background:rgba(42,120,214,{alpha:.2f})" '
                f'title="{html.escape(tip)}">{_fmt_tp(cell.throughput)}</td>'
            )
        label = html.escape(f"{y_axis}={yv}") if y_axis is not None else ""
        rows.append(f"<tr><td>{label}</td>{''.join(tds)}</tr>")
    return (
        f'<table><thead><tr><th>{corner}</th>{head}</tr></thead>'
        f"<tbody>{''.join(rows)}</tbody></table>"
        '<p class="note">cell tint = throughput relative to the kernel&#39;s '
        "best configuration</p>"
    )


def _sweep_trends(sweep: "SweepRecordT", kernel: str) -> str:
    """Per-axis throughput trends: best cell at each numeric axis value."""
    figures = []
    for axis, values in _sweep_axes(sweep, kernel):
        if not all(isinstance(v, (int, float)) for v in values):
            continue
        points = []
        for value in _axis_sorted(values):
            tps = [
                c.throughput
                for c in sweep.cells
                if c.kernel == kernel
                and c.config.get(axis) == value
                and c.throughput is not None
            ]
            if tps:
                points.append((float(value), max(tps)))
        if len(points) < 2:
            continue
        peak_at = max(points, key=lambda p: p[1])
        figures.append(
            _sparkline(
                points,
                f"{kernel}: throughput vs {axis}",
                f"best {peak_at[1]:,.0f} work/s at {axis}={peak_at[0]:g}",
            )
        )
    if not figures:
        return ""
    return f'<div class="spark">{"".join(figures)}</div>'


def _sweep_leaderboard_table(sweep: "SweepRecordT") -> str:
    from repro.sweep.aggregate import leaderboard

    body = []
    for row in leaderboard(sweep):
        status = str(row["status"])
        color = _STATUS_COLORS.get(status.split(":")[0], _STATUS_COLORS["failed"])
        eff = row["scheduling_efficiency"]
        secs = row["execute_seconds"]
        body.append(
            "<tr>"
            f'<td class="num">{row["rank"]}</td>'
            f'<td>{html.escape(row["kernel"])}</td>'
            f'<td class="frame">{html.escape(str(row["config"]))}</td>'
            f'<td style="color:{color}">{html.escape(status)}</td>'
            f'<td class="num">{_fmt_tp(row["throughput"])}</td>'
            f'<td class="num">{f"{secs:.3f}s" if secs is not None else "-"}</td>'
            f'<td class="num">{_fmt_bytes(row["peak_rss_bytes"])}</td>'
            f'<td class="num">{f"{100 * eff:.0f}%" if eff is not None else "-"}</td>'
            "</tr>"
        )
    return (
        "<table><thead><tr>"
        '<th class="num">rank</th><th>kernel</th><th>config</th><th>status</th>'
        '<th class="num">work/s</th><th class="num">kernel time</th>'
        '<th class="num">peak RSS</th><th class="num">sched eff</th>'
        f"</tr></thead><tbody>{''.join(body)}</tbody></table>"
    )


def render_sweep_report(sweep: "SweepRecordT") -> str:
    """The sweep's self-contained HTML dashboard (one file, no assets)."""
    from repro.sweep.aggregate import best_per_kernel

    best = best_per_kernel(sweep)
    best_tp = max(
        (row["throughput"] for row in best if row["throughput"] is not None),
        default=None,
    )
    tiles = [
        _tile(str(len(sweep.cells)), "cells"),
        _tile(str(sweep.n_ok), "ok"),
        _tile(str(sweep.n_failed), "failed"),
        _tile(str(sweep.n_incomplete), "incomplete"),
        _tile(str(sweep.n_resumed), "resumed"),
        _tile(str(len(sweep.kernels)), "kernels"),
        _tile(_fmt_tp(best_tp), "best work/s"),
    ]
    sections = ["<h2>leaderboard</h2>", _sweep_leaderboard_table(sweep)]
    for kernel in sweep.kernels:
        sections.append(f"<h2>{html.escape(kernel)}: cell grid</h2>")
        sections.append(_sweep_grid(sweep, kernel))
        trends = _sweep_trends(sweep, kernel)
        if trends:
            sections.append(trends)
    title = f"sweep {sweep.sweep_id} &middot; {len(sweep.cells)} cells"
    axes = (sweep.spec.get("axes") or {}) if isinstance(sweep.spec, dict) else {}
    axes_text = ", ".join(
        f"{name}={'/'.join(str(v) for v in values)}" for name, values in axes.items()
    )
    return (
        "<!doctype html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>genomicsbench sweep {html.escape(sweep.sweep_id)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        '<body class="viz-root">\n'
        "<h1>genomicsbench sweep report</h1>\n"
        f'<p class="sub">{title} &middot; '
        f"{html.escape(', '.join(sweep.kernels))}"
        f"{' &middot; ' + html.escape(axes_text) if axes_text else ''}"
        f" &middot; schema {html.escape(sweep.schema)}</p>\n"
        f'<div class="tiles">{"".join(tiles)}</div>\n'
        + "\n".join(sections)
        + "\n</body></html>\n"
    )


def write_sweep_report(path: Path | str, sweep: "SweepRecordT") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_sweep_report(sweep))
    return path
