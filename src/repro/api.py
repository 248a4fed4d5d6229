"""Stable programmatic facade over the benchmark suite.

Five functions cover what scripts, notebooks and the CLI itself need,
with the engine's knobs checked once (``repro.runner.RunConfig``):

* :func:`run` -- execute one kernel through the engine and get an
  :class:`~repro.runner.engine.EngineRun` (run record + live output);
* :func:`bench_record` -- run kernels and append their records to the
  per-host bench history used by regression gating;
* :func:`render_report` -- turn a run record into the self-contained
  HTML dashboard;
* :func:`sweep` -- expand a configuration grid over kernels and drive
  every cell through the engine, aggregating a
  :class:`~repro.sweep.aggregate.SweepRecord` with leaderboards;
* :func:`fleet_report` -- render a ``repro serve`` state-dir's
  persisted series as the fleet HTML dashboard.

Everything here is importable straight off the top-level package::

    import repro
    result = repro.run("fmi", "small", jobs=4)
    repro.render_report(result.record, out="fmi-report.html")

Arguments are validated eagerly with errors that enumerate the valid
choices (unknown kernels list the registry, unknown sizes list the
``DatasetSize`` values, unknown executors list the registered
backends), so a typo fails at the call site rather than deep inside a
worker.  Observability switches travel together in one
:class:`ObsOptions` value instead of six parallel keyword arguments.

This module is the *supported* API surface -- :func:`run`,
:func:`sweep`, :func:`bench_record` and :func:`render_report` are the
only entry points other code should build on.  ``repro.runner.engine``
internals may reshuffle between versions, but these signatures stay
put.  The ``repro serve`` job daemon (:mod:`repro.service`) is itself
a client of exactly this facade: every job a worker executes goes
through :func:`run` or the sweep driver, which is what lets executors,
fault policies and the observability plane compose with the service
for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.core.datasets import DatasetSize, coerce_size
from repro.core.registry import get_kernel, kernel_names
from repro.obs.events import EventLog
from repro.obs.profile import DEFAULT_HZ
from repro.obs.telemetry import DEFAULT_INTERVAL
from repro.obs.trace import Tracer
from repro.runner.cache import WorkloadCache
from repro.runner.engine import EngineRun, ParallelRunner
from repro.runner.record import RunRecord

__all__ = [
    "ObsOptions",
    "bench_record",
    "fleet_report",
    "render_report",
    "run",
    "sweep",
]


@dataclass(frozen=True)
class ObsOptions:
    """Observability switches for a run, as one value.

    ``tracer`` records engine/chunk/kernel spans; ``instrument``
    collects per-category op counts on the serial path; ``profile``
    samples stacks (at ``profile_hz``); ``telemetry`` samples
    per-worker CPU/RSS from ``/proc`` (every ``telemetry_interval``
    seconds); ``events`` publishes the run's structured event
    narrative into a shared :class:`~repro.obs.events.EventLog` (the
    live status server and ``--events`` JSONL sink watch it -- with
    ``None`` the engine still keeps a private log so events land in
    the run record; pass the same log to ``tracer.export(path,
    log.events)`` to draw the events as trace markers).  The default
    is everything off -- observability costs nothing unless asked for.
    """

    tracer: Tracer | None = None
    instrument: bool = False
    profile: bool = False
    profile_hz: float = DEFAULT_HZ
    telemetry: bool = False
    telemetry_interval: float = DEFAULT_INTERVAL
    events: EventLog | None = None


def run(
    kernel: str,
    size: DatasetSize | str = DatasetSize.SMALL,
    *,
    cache: WorkloadCache | None = None,
    obs: ObsOptions | None = None,
    **knobs: Any,
) -> EngineRun:
    """Prepare and execute one kernel's workload through the engine.

    ``knobs`` are :class:`~repro.runner.config.RunConfig` fields, which
    document the fault-tolerance and caching semantics; ``executor``
    picks the backend.  ``obs`` sets the five capture switches of the
    same names, so they are not knobs here.
    """
    get_kernel(kernel)  # unknown kernels fail here, listing the registry
    size = coerce_size(size)
    o = obs or ObsOptions()
    runner = ParallelRunner(
        cache=cache,
        tracer=o.tracer,
        events=o.events,
        instrument=o.instrument,
        profile=o.profile,
        profile_hz=o.profile_hz,
        telemetry=o.telemetry,
        telemetry_interval=o.telemetry_interval,
        **knobs,
    )
    return runner.run(kernel, size)


def bench_record(
    kernels: Sequence[str] | None = None,
    size: DatasetSize | str = DatasetSize.SMALL,
    *,
    cache: WorkloadCache | None = None,
    history: "Path | str | None" = None,
    **knobs: Any,
) -> list[RunRecord]:
    """Run kernels and append their records to the bench history.

    ``kernels`` of ``None`` runs the full catalogue; ``knobs`` are
    :class:`~repro.runner.config.RunConfig` fields.  Returns the
    recorded :class:`~repro.runner.record.RunRecord` values after
    appending them to ``history`` (default: the per-host
    ``BENCH_<host>.json`` used by ``bench check`` regression gating).
    Histories track throughput only, so leave ``measure_serial`` off.
    """
    from repro.obs.history import BenchHistory

    names = list(kernels) if kernels else kernel_names()
    for name in names:
        get_kernel(name)
    size = coerce_size(size)
    runner = ParallelRunner(cache=cache, **knobs)
    records = [runner.run(name, size).record for name in names]
    BenchHistory(history).append(records)
    return records


def sweep(
    kernels: Sequence[str] | None = None,
    size: DatasetSize | str = DatasetSize.SMALL,
    *,
    sweep_dir: "Path | str",
    axes: "dict[str, Sequence] | None" = None,
    per_kernel: "dict[str, dict[str, Sequence]] | None" = None,
    filters: Sequence[str] = (),
    max_cells: int | None = None,
    executor: "str | None" = None,
    hosts: Sequence[str] | None = None,
    cache: WorkloadCache | None = None,
    resume: bool = False,
    on_cell_failure: str = "skip",
    obs: ObsOptions | None = None,
):
    """Expand a grid over kernels and run every cell through the engine.

    ``axes`` maps engine knobs to value lists (``{"jobs": [1, 2],
    "chunk_size": [4, 8]}``; see :data:`repro.sweep.ENGINE_AXES`),
    crossed per kernel and optionally overridden per kernel via
    ``per_kernel``.  Finished cells persist under ``sweep_dir`` --
    ``resume=True`` skips them on a re-run, keyed by the same config
    digest the workload cache uses.  Returns the aggregated
    :class:`~repro.sweep.aggregate.SweepRecord`; ``sweep_dir`` also
    receives ``sweep.json`` plus leaderboard JSON/CSV.  See
    ``docs/sweeps.md`` for the spec format and resume semantics.
    """
    from repro.sweep import SweepSpec, run_sweep

    base: dict = {}
    if executor is not None:
        base["executor"] = executor
    if hosts:
        base["hosts"] = list(hosts)
    spec_kwargs: dict = {
        "kernels": list(kernels) if kernels else kernel_names(),
        "size": coerce_size(size).value,
        "per_kernel": {
            kern: {k: list(v) for k, v in over.items()}
            for kern, over in (per_kernel or {}).items()
        },
        "filters": list(filters),
        "max_cells": max_cells,
        "base": base,
    }
    if axes:
        spec_kwargs["axes"] = {k: list(v) for k, v in axes.items()}
    spec = SweepSpec(**spec_kwargs)
    return run_sweep(
        spec,
        sweep_dir,
        resume=resume,
        on_cell_failure=on_cell_failure,
        cache=cache,
        obs=obs,
    )


def render_report(
    record: "RunRecord | Path | str",
    out: "Path | str | None" = None,
    history: "Sequence[RunRecord] | Path | str | None" = None,
    kernel: str | None = None,
) -> "Path | str":
    """Render a run record as a self-contained HTML dashboard.

    ``record`` may be a :class:`~repro.runner.record.RunRecord` or the
    path of a record JSON file (multi-kernel files pick the last
    record, or the one named by ``kernel``).  With ``out`` the HTML is
    written there and the path returned; without, the HTML string
    itself is returned.  ``history`` (records or a bench-history file)
    adds the throughput-trend section.
    """
    from repro.obs.report import load_run_records
    from repro.obs.report import render_report as _render
    from repro.obs.report import write_report

    if not isinstance(record, RunRecord):
        records = load_run_records(record)
        if kernel is not None:
            records = [r for r in records if r.kernel == kernel]
            if not records:
                raise ValueError(f"{record}: no record for kernel {kernel!r}")
        record = records[-1]
    past: Sequence[RunRecord] | None
    if history is None or isinstance(history, (list, tuple)):
        past = history
    else:
        past = load_run_records(history)
    if out is None:
        return _render(record, past)
    return write_report(out, record, past)


def fleet_report(
    state_dir: "Path | str",
    out: "Path | str | None" = None,
    slo: "Path | str | None" = None,
) -> "Path | str":
    """Render a service state-dir's fleet dashboard (``obs report
    --service`` as a function).

    ``state_dir`` is a ``repro serve --state-dir`` root whose
    ``series/`` holds persisted samples; ``slo`` optionally overlays a
    spec's burn-rate verdicts.  With ``out`` the HTML is written there
    and the path returned; without, the HTML string is returned.
    """
    from repro.obs.fleet import render_fleet_report, write_fleet_report

    if out is None:
        return render_fleet_report(state_dir, slo)
    return write_fleet_report(out, state_dir, slo)
