"""The sweep driver: fan grid cells through the engine, restartably.

:func:`run_sweep` executes the cells :mod:`repro.sweep.expand`
enumerates, one at a time, through the :mod:`repro.api` facade -- so a
sweep reuses everything the engine already has: executor backends, the
on-disk workload cache (one cache instance is shared across cells, so
cells that differ only in engine knobs prepare their workload once),
per-chunk retries and ``--resume`` shard checkpoints.

Restartability works at two grains:

* **cell grain** -- every finished cell's RunRecord is written to
  ``<sweep_dir>/cells/<cell_id>.json`` as it completes; with
  ``resume=True`` a cell whose record already exists is skipped
  (status ``resumed``), keyed by the shared
  :func:`repro.runner.cache.config_digest` over ``(kernel, size,
  config)`` -- the same hashing the workload cache uses, so "same
  cell" and "same cached workload" can never disagree;
* **chunk grain** -- ``resume=True`` also flows into each cell's
  engine run, so a cell interrupted mid-execute restarts from its
  shard checkpoint instead of from zero.

Cell failures follow ``on_cell_failure``: ``"skip"`` records the
failure in the :class:`~repro.sweep.aggregate.SweepRecord` (the
leaderboard marks the cell) and keeps sweeping; ``"fail"`` stops at
the first broken cell with :class:`SweepCellError` after persisting
what already ran.  Either way the sweep directory always holds a
loadable summary.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.obs import events as ev
from repro.obs.events import EventLog, new_run_id
from repro.runner.cache import WorkloadCache
from repro.runner.record import RunRecord
from repro.sweep.aggregate import (
    STATUS_FAILED,
    STATUS_INCOMPLETE,
    STATUS_OK,
    STATUS_RESUMED,
    CellResult,
    SweepRecord,
    write_sweep,
)
from repro.sweep.expand import expand
from repro.sweep.spec import SweepCell, SweepSpec

#: Valid ``on_cell_failure`` policies.
CELL_FAILURE_POLICIES = ("skip", "fail")


class SweepCellError(RuntimeError):
    """A cell failed under ``on_cell_failure="fail"``."""

    def __init__(self, cell: SweepCell, cause: BaseException) -> None:
        super().__init__(f"sweep cell {cell.label} failed: {cause}")
        self.cell = cell
        self.cause = cause


def cell_record_path(sweep_dir: Path | str, cell: SweepCell) -> Path:
    """Where one cell's RunRecord lives under the sweep directory."""
    return Path(sweep_dir) / "cells" / f"{cell.cell_id}.json"


def _load_finished(path: Path) -> RunRecord | None:
    """The cell's persisted record, or ``None`` on any kind of miss."""
    try:
        return RunRecord.from_json(path.read_text())
    except FileNotFoundError:
        return None
    except (ValueError, KeyError, TypeError):
        # a truncated or stale record is a miss: the cell re-runs
        return None


def run_sweep(
    spec: SweepSpec,
    sweep_dir: Path | str,
    *,
    resume: bool = False,
    on_cell_failure: str = "skip",
    extra_filters: Sequence[str] = (),
    cache: "WorkloadCache | None" = None,
    obs: Any = None,
    events: EventLog | None = None,
    progress: Callable[[int, int, SweepCell, CellResult], None] | None = None,
) -> SweepRecord:
    """Expand ``spec`` and drive every cell through the engine.

    Returns the aggregated :class:`SweepRecord`, which is also written
    to ``<sweep_dir>/sweep.json`` together with the leaderboard JSON
    and CSV -- even when ``on_cell_failure="fail"`` aborts the sweep.
    """
    import repro.api as api

    if on_cell_failure not in CELL_FAILURE_POLICIES:
        raise ValueError(
            f"unknown on_cell_failure policy {on_cell_failure!r}; "
            f"valid policies: {', '.join(CELL_FAILURE_POLICIES)}"
        )
    sweep_dir = Path(sweep_dir)
    sweep_dir.mkdir(parents=True, exist_ok=True)
    cells = expand(spec, extra_filters)
    sweep_id = new_run_id()
    if cache is None:
        cache = WorkloadCache()
    o = obs if obs is not None else api.ObsOptions()
    if events is not None and o.events is None:
        o = replace(o, events=events)
    log = events

    def emit(name: str, level: str = "info", **data: Any) -> None:
        if log is not None:
            log.emit(name, level, **data)

    from repro.core.serialize import write_json

    write_json(sweep_dir / "spec.json", spec.to_dict())
    emit(ev.SWEEP_STARTED, sweep_id=sweep_id, cells=len(cells))
    results: list[CellResult] = []
    failure: SweepCellError | None = None
    for index, cell in enumerate(cells):
        path = cell_record_path(sweep_dir, cell)
        if resume:
            finished = _load_finished(path)
            if finished is not None:
                emit(ev.CELL_SKIPPED, cell_id=cell.cell_id, label=cell.label)
                result = _cell_result(cell, finished, STATUS_RESUMED, path)
                results.append(result)
                if progress is not None:
                    progress(index, len(cells), cell, result)
                continue
        emit(ev.CELL_STARTED, cell_id=cell.cell_id, label=cell.label)
        started = time.perf_counter()
        try:
            run = api.run(
                cell.kernel,
                cell.size,
                cache=cache,
                resume=resume,
                obs=o,
                **cell.run_kwargs(),
            )
        except Exception as exc:  # noqa: BLE001 - every cell error is data
            emit(
                ev.CELL_FAILED,
                "error",
                cell_id=cell.cell_id,
                label=cell.label,
                error=f"{type(exc).__name__}: {exc}",
            )
            result = CellResult(
                cell_id=cell.cell_id,
                kernel=cell.kernel,
                size=cell.size,
                config=cell.config_dict,
                status=STATUS_FAILED,
                error=f"{type(exc).__name__}: {exc}",
            )
            results.append(result)
            if progress is not None:
                progress(index, len(cells), cell, result)
            if on_cell_failure == "fail":
                failure = SweepCellError(cell, exc)
                break
            continue
        record = run.record
        record.sweep = {
            "sweep_id": sweep_id,
            "cell_id": cell.cell_id,
            "config": cell.config_dict,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(record.to_json() + "\n")
        status = STATUS_OK if record.complete else STATUS_INCOMPLETE
        emit(
            ev.CELL_FINISHED,
            cell_id=cell.cell_id,
            label=cell.label,
            status=status,
            seconds=round(time.perf_counter() - started, 6),
        )
        result = _cell_result(cell, record, status, path)
        results.append(result)
        if progress is not None:
            progress(index, len(cells), cell, result)
    sweep = SweepRecord(
        sweep_id=sweep_id,
        spec=spec.to_dict(),
        cells=results,
    )
    write_sweep(sweep_dir, sweep)
    emit(
        ev.SWEEP_FINISHED,
        sweep_id=sweep_id,
        ok=sweep.n_ok,
        failed=sweep.n_failed,
        resumed=sweep.n_resumed,
    )
    if failure is not None:
        raise failure
    return sweep


def _cell_result(
    cell: SweepCell, record: RunRecord, status: str, path: Path
) -> CellResult:
    result = CellResult.from_record(cell.cell_id, record, status, str(path))
    # the cell is authoritative for identity -- a resumed record wrote
    # its config when it ran, but older or hand-placed records may not
    result.kernel = cell.kernel
    result.size = cell.size
    result.config = cell.config_dict
    return result
