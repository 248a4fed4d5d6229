"""Chrome-trace merging under the engine's failure-recovery paths.

PR 2 established that worker span buffers merge at shard boundaries;
PR 3 added retries, quarantine, serial re-execution and degraded mode.
These tests pin down their interaction: failed attempts must not leave
orphaned or duplicated chunk spans, quarantined chunks vanish from the
timeline but leave their failure instants, and the degraded path still
produces a coherent single-track trace.
"""

import warnings

from repro.core.benchmark import Benchmark, ExecutionResult
from repro.core.datasets import DatasetSize
from repro.obs.trace import Tracer, kernel_span
from repro.runner import FaultPlan, ParallelRunner


class TracedBench(Benchmark):
    """A shardable toy kernel that emits one kernel span per shard."""

    name = "traced-toy"

    def __init__(self, n_tasks: int = 8):
        self.n_tasks = n_tasks

    def prepare(self, size):
        return list(range(self.n_tasks))

    def task_count(self, workload):
        return len(workload)

    def execute_shard(self, workload, indices, instr=None):
        indices = list(indices)
        with kernel_span("toy.shard", tasks=len(indices)):
            out = [workload[i] * 2 for i in indices]
        return ExecutionResult(output=out, task_work=[1] * len(indices))


def _run(tracer, **kwargs):
    bench = TracedBench()
    workload = bench.prepare(DatasetSize.SMALL)
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("chunk_size", 2)
    kwargs.setdefault("measure_serial", False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        runner = ParallelRunner(tracer=tracer, **kwargs)
        return runner.execute(bench, workload, DatasetSize.SMALL)


def _chunk_spans(tracer):
    return [s for s in tracer.spans if s.cat == "chunk"]


def _chunk_ranges(tracer):
    return sorted(s.name for s in _chunk_spans(tracer))


ALL_CHUNKS = ["chunk[0:2)", "chunk[2:4)", "chunk[4:6)", "chunk[6:8)"]


def test_clean_parallel_run_has_one_span_per_chunk():
    tracer = Tracer()
    run = _run(tracer)
    assert run.record.complete
    assert _chunk_ranges(tracer) == ALL_CHUNKS
    # each worker's kernel spans shipped back with its shard payloads
    assert len(tracer.find("toy.shard")) == 4


def test_retried_chunk_appears_exactly_once():
    tracer = Tracer()
    run = _run(tracer, retries=2, fault_plan=FaultPlan.parse("raise@1"))
    assert run.record.complete
    assert run.record.retries == 1
    # the failed attempt contributes an instant, not a duplicate span
    assert _chunk_ranges(tracer) == ALL_CHUNKS
    assert len(tracer.find_instants("chunk.retry")) == 1
    assert len(tracer.find("toy.shard")) == 4


def test_quarantined_chunk_leaves_gap_and_failure_instant():
    tracer = Tracer()
    run = _run(
        tracer, retries=0, on_failure="quarantine",
        fault_plan=FaultPlan.parse("raise@1x9"),
    )
    assert run.record.quarantined == [(2, 4)]
    ranges = _chunk_ranges(tracer)
    # the quarantined range has no chunk span -- and no duplicates of
    # the surviving ones
    assert ranges == ["chunk[0:2)", "chunk[4:6)", "chunk[6:8)"]
    assert len(tracer.find_instants("chunk.quarantined")) == 1
    # surviving workers' span buffers still merged
    assert len(tracer.find("toy.shard")) == 3


def test_serial_reexecution_merges_parent_side_spans():
    tracer = Tracer()
    run = _run(
        tracer, retries=0, on_failure="serial",
        fault_plan=FaultPlan.parse("raise@0x9"),
    )
    assert run.record.complete
    assert run.output == [i * 2 for i in range(8)]
    # the rescued chunk reappears on the timeline exactly once
    assert _chunk_ranges(tracer) == ALL_CHUNKS
    # its kernel span was recorded in the parent (activated tracer),
    # the other three shipped back from workers: still 4 total
    assert len(tracer.find("toy.shard")) == 4
    assert len(tracer.find_instants("chunk.serial_fallback")) == 1


def test_degraded_serial_mode_keeps_single_track_trace(monkeypatch):
    from repro.runner.executors import LocalExecutor

    def boom(*args, **kwargs):
        raise OSError("every pool worker lost")

    # the pool fails mid-run; the degraded run is a SerialExecutor and
    # goes through the same supervisor, so only the pool may fail
    monkeypatch.setattr(LocalExecutor, "collect", boom)
    tracer = Tracer()
    run = _run(tracer)
    assert run.record.degraded
    assert run.record.complete
    # one whole-workload chunk span, no partial parallel leftovers
    assert _chunk_ranges(tracer) == ["chunk[0:8)"]
    assert len(tracer.find_instants("engine.degraded")) == 1
    # the in-process execution recorded its kernel span directly
    assert len(tracer.find("toy.shard")) >= 1
    events = tracer.to_chrome()["traceEvents"]
    assert all("ts" in e for e in events)


def test_span_timestamps_stay_ordered_after_failure_merge():
    tracer = Tracer()
    _run(tracer, retries=1, fault_plan=FaultPlan.parse("raise@0"))
    for span in _chunk_spans(tracer):
        assert span.end >= span.begin >= 0
