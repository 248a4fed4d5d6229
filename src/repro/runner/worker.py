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

import copy
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.benchmark import Benchmark, ExecutionResult, as_execution_result
from repro.core.instrument import Instrumentation
from repro.obs import events as ev
from repro.obs.profile import SamplingProfiler, StackProfile
from repro.obs.telemetry import TelemetrySampler, TelemetrySeries
from repro.obs.trace import Span, Tracer, activated
from repro.runner.faults import FaultPlan


@dataclass(frozen=True)
class WorkerState:
    """Everything a process needs to execute chunks of one run.

    ``profile_hz`` / ``telemetry_interval`` of ``None`` disable the
    respective sampler; ``trace_enabled`` turns on the per-chunk span
    buffer.  ``instr`` is the op-count tally kernels add to; only
    in-process runs set it, because counts made in another process
    never come back.
    """

    bench: Benchmark
    workload: Any
    trace_enabled: bool = False
    fault_plan: FaultPlan | None = None
    profile_hz: float | None = None
    telemetry_interval: float | None = None
    instr: Instrumentation | None = None


@dataclass
class ChunkPayload:
    """A completed chunk attempt and everything observed while it ran.

    ``begin``/``end`` and every timestamp in ``events``, ``spans`` and
    ``telemetry`` are ``perf_counter`` readings of the executing
    process; :meth:`rebased` moves them onto the coordinator's clock.
    ``events`` always holds the worker-side ``chunk_started`` /
    ``chunk_finished`` pair; ``spans``, ``profile`` and ``telemetry``
    are filled only when their capture is on.  ``host`` is ``None`` on
    the coordinator's machine; distributed backends stamp the worker
    endpoint so per-host provenance reaches the run record.
    """

    start: int
    stop: int
    result: ExecutionResult
    pid: int
    begin: float
    end: float
    events: list[ev.Event] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    profile: StackProfile | None = None
    telemetry: TelemetrySeries | None = None
    host: str | None = None

    def rebased(self, offset: float, host: str) -> "ChunkPayload":
        """A copy shifted ``offset`` seconds onto another clock, from ``host``."""
        telemetry = copy.copy(self.telemetry)
        if telemetry is not None:
            telemetry.samples = [replace(s, ts=s.ts + offset) for s in telemetry.samples]
        return replace(
            self,
            begin=self.begin + offset,
            end=self.end + offset,
            events=[replace(e, ts=e.ts + offset) for e in self.events],
            spans=[
                replace(s, begin=s.begin + offset, end=s.end + offset)
                for s in self.spans
            ],
            telemetry=telemetry,
            host=host,
        )


def execute_chunk(
    state: WorkerState, start: int, stop: int, ordinal: int, attempt: int
) -> ChunkPayload:
    """Run tasks ``[start, stop)`` in this process (injection-aware)."""
    chunk = (start, stop)
    pid = os.getpid()
    # buffered on this process's clock; the supervisor re-sequences
    # them into the run's log when the payload lands
    started = ev.Event(
        seq=0, ts=time.perf_counter(), name=ev.CHUNK_STARTED,
        level="debug", chunk=chunk, attempt=attempt, pid=pid,
    )
    if state.fault_plan is not None:
        # deterministic chaos: may raise, sleep past any deadline, or
        # kill this process outright -- before any real work happens
        state.fault_plan.fire(ordinal, attempt)
    tracer = Tracer() if state.trace_enabled else None
    profiler = SamplingProfiler(state.profile_hz) if state.profile_hz else None
    telemetry = (
        TelemetrySampler(state.telemetry_interval) if state.telemetry_interval else None
    )
    profile = series = None
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
            profile = profiler.stop()
        if telemetry is not None:
            series = telemetry.stop()
    t1 = time.perf_counter()
    finished = ev.Event(
        seq=1, ts=t1, name=ev.CHUNK_FINISHED, level="debug",
        chunk=chunk, attempt=attempt, pid=pid,
        data={"tasks": stop - start, "seconds": round(t1 - t0, 6)},
    )
    return ChunkPayload(
        start=start, stop=stop, result=result, pid=pid, begin=t0, end=t1,
        events=[started, finished],
        spans=tracer.spans if tracer is not None else [],
        profile=profile, telemetry=series,
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
