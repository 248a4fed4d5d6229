"""Chunk execution: the one code path that runs a task range.

:func:`execute_chunk` runs a contiguous task range of the workload a
:class:`WorkerState` describes.  Fault injection, span buffering, stack
sampling, resource telemetry and the worker-side event buffer are all
captured *inside* the executing process and shipped back in a
:class:`ChunkPayload`, which is why results from every backend merge
into one run record.  Every execution goes through it:

* :class:`~repro.runner.executors.SerialExecutor` calls it in the
  coordinator -- including the engine's ``jobs=1`` fast path and its
  degrade path, which run the whole workload as one chunk ``[0, n)``;
* :class:`~repro.runner.executors.LocalExecutor` pool processes call it
  from :func:`worker_main`;
* the ``repro worker`` daemon calls it once per ``chunk`` frame;
* the engine's ``on_failure="serial"`` fallback calls it directly.

The state always travels as an argument, never through a module
global: by reference in-process, as a ``Process`` argument to pool
workers (inherited copy-on-write under fork, pickled once per worker
under spawn) and in the ``workload`` frame to remote daemons.  Runs
sharing one process therefore cannot see each other's workloads.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

from repro.core.benchmark import Benchmark, ExecutionResult, as_execution_result
from repro.core.instrument import Instrumentation
from repro.obs import events as ev
from repro.obs.profile import SamplingProfiler
from repro.obs.telemetry import TelemetrySampler
from repro.obs.trace import Span, Tracer, activated
from repro.runner.faults import FaultPlan


@dataclass(frozen=True)
class WorkerState:
    """Everything a process needs to execute chunks of one run.

    ``profile_hz`` / ``telemetry_interval`` of ``None`` disable the
    respective sampler; ``trace_enabled`` / ``events_enabled`` turn on
    the per-chunk span and event buffers.  ``instr`` is the op-count
    tally kernels add to; only in-process runs set it, because counts
    made in another process never come back.
    """

    bench: Benchmark
    workload: Any
    trace_enabled: bool = False
    fault_plan: FaultPlan | None = None
    profile_hz: float | None = None
    telemetry_interval: float | None = None
    events_enabled: bool = False
    instr: Instrumentation | None = None


@dataclass
class ChunkPayload:
    """A completed chunk attempt, as shipped back to the coordinator.

    ``begin``/``end`` are ``perf_counter`` readings of the executing
    process.  ``spans`` is the chunk's span buffer (tracing on).
    ``obs`` holds the chunk's ``"profile"`` (a
    :class:`~repro.obs.profile.StackProfile`), ``"telemetry"`` (a
    :class:`~repro.obs.telemetry.TelemetrySeries`) and ``"events"``
    buffer, each present only when its capture is on.  ``host`` is
    ``None`` on the coordinator's machine; distributed backends stamp
    the worker endpoint so per-host provenance reaches the run record.
    """

    start: int
    stop: int
    result: ExecutionResult
    pid: int
    begin: float
    end: float
    spans: list[Span] | None = None
    obs: dict[str, Any] | None = None
    host: str | None = None


def execute_chunk(
    state: WorkerState, start: int, stop: int, ordinal: int, attempt: int
) -> ChunkPayload:
    """Run tasks ``[start, stop)`` in this process (injection-aware)."""
    chunk = (start, stop)
    pid = os.getpid()
    events: list[ev.Event] | None = None
    if state.events_enabled:
        # Buffered on this process's clock; the coordinator re-sequences
        # (and, for remote hosts, clock-rebases) them when the payload
        # lands -- same contract as spans.
        events = [
            ev.Event(
                seq=0, ts=time.perf_counter(), name=ev.CHUNK_STARTED,
                level="debug", chunk=chunk, attempt=attempt, pid=pid,
            )
        ]
    if state.fault_plan is not None:
        # deterministic chaos: may raise, sleep past any deadline, or
        # kill this process outright -- before any real work happens
        state.fault_plan.fire(ordinal, attempt)
    tracer = Tracer() if state.trace_enabled else None
    profiler = SamplingProfiler(state.profile_hz) if state.profile_hz else None
    telemetry = (
        TelemetrySampler(state.telemetry_interval) if state.telemetry_interval else None
    )
    obs: dict[str, Any] = {}
    t0 = time.perf_counter()
    try:
        if profiler is not None:
            profiler.start()
        if telemetry is not None:
            telemetry.start()
        with activated(tracer) if tracer is not None else nullcontext():
            result = as_execution_result(
                state.bench.execute_shard(
                    state.workload, range(start, stop), instr=state.instr
                ),
                state.bench.name,
            )
    finally:
        if profiler is not None:
            obs["profile"] = profiler.stop()
        if telemetry is not None:
            obs["telemetry"] = telemetry.stop()
    t1 = time.perf_counter()
    if events is not None:
        events.append(
            ev.Event(
                seq=1, ts=t1, name=ev.CHUNK_FINISHED, level="debug",
                chunk=chunk, attempt=attempt, pid=pid,
                data={"tasks": stop - start, "seconds": round(t1 - t0, 6)},
            )
        )
        obs["events"] = events
    return ChunkPayload(
        start=start, stop=stop, result=result, pid=pid, begin=t0, end=t1,
        spans=tracer.spans if tracer is not None else None, obs=obs or None,
    )


def worker_main(worker_id: int, inbox: Any, outbox: Any, state: WorkerState) -> None:
    """Pool-worker loop: pull one chunk assignment, execute, report, repeat."""
    while True:
        msg = inbox.get()
        if msg is None:
            return
        start, stop, ordinal, attempt = msg
        try:
            payload = execute_chunk(state, start, stop, ordinal, attempt)
        except BaseException as exc:  # noqa: BLE001 - forwarded to the supervisor
            outbox.put(
                ("err", worker_id, start, stop, attempt, f"{type(exc).__name__}: {exc}")
            )
        else:
            outbox.put(("ok", worker_id, payload))
