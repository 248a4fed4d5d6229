"""Event-log correctness across the engine's failure paths.

The structured event log must tell a complete, ordered story no matter
how a run goes wrong: retries, quarantine, serial fallback, worker
death.  These tests drive :class:`ParallelRunner` with deterministic
fault plans and assert on the narrative that lands in the schema-v5
run record.
"""

import os
import warnings

import pytest

from repro.core.benchmark import Benchmark, ExecutionResult
from repro.core.datasets import DatasetSize
from repro.obs import events as ev
from repro.obs.events import Event, EventLog
from repro.obs.live import status_from_events
from repro.obs.trace import Tracer, chrome_events_from_record
from repro.runner import FaultPlan, ParallelRunner, WorkloadCache
from repro.runner.record import FAILURE_ACTIONS, SCHEMA


class ToyBench(Benchmark):
    """A tiny deterministic kernel: cheap, picklable, shardable."""

    name = "toy"

    def __init__(self, n_tasks: int = 8):
        self.n_tasks = n_tasks

    def prepare(self, size):
        return list(range(100, 100 + self.n_tasks))

    def task_count(self, workload):
        return len(workload)

    def execute_shard(self, workload, indices, instr=None):
        out = [workload[i] * workload[i] for i in indices]
        return ExecutionResult(output=out, task_work=[i + 1 for i in indices])


def _run(bench, workload, **kwargs):
    kwargs.setdefault("measure_serial", False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return ParallelRunner(**kwargs).execute(bench, workload, DatasetSize.SMALL)


@pytest.fixture(scope="module")
def toy():
    bench = ToyBench(n_tasks=8)
    return bench, bench.prepare(DatasetSize.SMALL)


PAIRS = [(0, 2), (2, 4), (4, 6), (6, 8)]


def _names(record):
    return [e["name"] for e in record.events]


def _assert_well_formed(record):
    """Every record narrative is bracketed, gapless and monotonic."""
    assert record.schema == SCHEMA
    events = record.events
    assert events, "v5 records always carry events"
    assert events[0]["name"] == ev.RUN_STARTED
    assert events[-1]["name"] == ev.RUN_FINISHED
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
    run_ids = {e.get("run_id") for e in events}
    assert len(run_ids) == 1 and None not in run_ids


class TestHealthyNarratives:
    def test_serial_fast_path_emits_full_story(self, toy):
        bench, workload = toy
        run = _run(bench, workload, jobs=1)
        _assert_well_formed(run.record)
        names = _names(run.record)
        assert ev.EXECUTE_STARTED in names
        assert ev.CHUNK_COMPLETED in names

    def test_parallel_run_narrates_every_chunk(self, toy):
        bench, workload = toy
        run = _run(bench, workload, jobs=2, chunk_size=2)
        _assert_well_formed(run.record)
        names = _names(run.record)
        completed = [e for e in run.record.events if e["name"] == ev.CHUNK_COMPLETED]
        assert len(completed) == 4  # 8 tasks / chunk_size 2
        assert names.count(ev.CHUNK_DISPATCHED) == 4
        # worker-side events rode the payloads back into the same log
        assert ev.CHUNK_STARTED in names
        assert ev.CHUNK_FINISHED in names
        # chunk bounds cover the whole workload, no overlaps
        ranges = sorted(tuple(e["chunk"]) for e in completed)
        assert ranges == [(0, 2), (2, 4), (4, 6), (6, 8)]

    @pytest.mark.parametrize(
        "kwargs, chunks, in_coordinator",
        [
            (dict(jobs=1), [(0, 8)], [(0, 8)]),
            (dict(jobs=2, chunk_size=2), PAIRS, []),
            (dict(jobs=2, chunk_size=2, executor="serial"), PAIRS, PAIRS),
            (
                dict(
                    jobs=2, chunk_size=2, on_failure="serial",
                    fault_plan=FaultPlan.parse("raise@0x9"),
                ),
                PAIRS,
                [(0, 2)],
            ),
        ],
        ids=["jobs1", "pool", "serial-executor", "serial-fallback"],
    )
    def test_each_executed_attempt_is_absorbed_once(
        self, toy, kwargs, chunks, in_coordinator
    ):
        bench, workload = toy
        run = _run(bench, workload, **kwargs)
        _assert_well_formed(run.record)
        for name in (ev.CHUNK_STARTED, ev.CHUNK_FINISHED):
            landed = [e for e in run.record.events if e["name"] == name]
            assert sorted(tuple(e["chunk"]) for e in landed) == chunks
            here = [tuple(e["chunk"]) for e in landed if e["pid"] == os.getpid()]
            assert sorted(here) == in_coordinator
        status = status_from_events([Event.from_dict(e) for e in run.record.events])
        assert "None" not in status["workers"]

    def test_gapless_seq_within_the_record_slice(self, toy):
        bench, workload = toy
        run = _run(bench, workload, jobs=2, chunk_size=2)
        seqs = [e["seq"] for e in run.record.events]
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))


class TestFailureNarratives:
    def test_retry_is_narrated_then_heals(self, toy):
        bench, workload = toy
        run = _run(
            bench, workload, jobs=2, chunk_size=2, retries=2,
            fault_plan=FaultPlan.parse("raise@2x1"),
        )
        _assert_well_formed(run.record)
        retried = [e for e in run.record.events if e["name"] == ev.CHUNK_RETRIED]
        assert len(retried) == 1
        assert retried[0]["level"] == "warning"
        assert tuple(retried[0]["chunk"]) == (4, 6)  # chunk index 2
        assert retried[0]["data"]["kind"] == "exception"
        # the retried chunk still completes, after the retry event
        completes = [
            e for e in run.record.events
            if e["name"] == ev.CHUNK_COMPLETED and tuple(e["chunk"]) == (4, 6)
        ]
        assert completes and completes[-1]["seq"] > retried[0]["seq"]

    def test_quarantine_is_narrated_at_error_level(self, toy):
        bench, workload = toy
        run = _run(
            bench, workload, jobs=2, chunk_size=2, retries=0,
            on_failure="quarantine", fault_plan=FaultPlan.parse("raise@1x9"),
        )
        _assert_well_formed(run.record)
        quarantined = [
            e for e in run.record.events if e["name"] == ev.CHUNK_QUARANTINED
        ]
        assert len(quarantined) == 1
        assert quarantined[0]["level"] == "error"
        assert tuple(quarantined[0]["chunk"]) == (2, 4)
        assert run.record.quarantined == [(2, 4)]

    def test_serial_fallback_is_narrated(self, toy):
        bench, workload = toy
        run = _run(
            bench, workload, jobs=2, chunk_size=2, retries=0,
            on_failure="serial", fault_plan=FaultPlan.parse("raise@0x9"),
        )
        _assert_well_formed(run.record)
        fallbacks = [e for e in run.record.events if e["name"] == ev.FALLBACK_SERIAL]
        assert len(fallbacks) == 1
        assert fallbacks[0]["level"] == "warning"
        assert run.record.complete

    def test_killed_worker_death_and_respawn_are_narrated(self, toy):
        bench, workload = toy
        run = _run(
            bench, workload, jobs=2, chunk_size=2, retries=1,
            fault_plan=FaultPlan.parse("kill@1x1"),
        )
        _assert_well_formed(run.record)
        names = _names(run.record)
        assert ev.WORKER_DIED in names
        assert ev.WORKER_RESPAWNED in names
        died = next(e for e in run.record.events if e["name"] == ev.WORKER_DIED)
        assert died["level"] == "error"


#: One run per engine path that merges, retries, drops or restores chunks.
AGREEMENT = {
    "jobs1": dict(jobs=1),
    "pool": dict(jobs=2, chunk_size=2),
    "serial-executor": dict(jobs=2, chunk_size=2, executor="serial"),
    "serial-fallback": dict(
        jobs=2, chunk_size=2, on_failure="serial", fault_plan=FaultPlan.parse("raise@0x9")
    ),
    "retry": dict(jobs=2, chunk_size=2, retries=2, fault_plan=FaultPlan.parse("raise@2x1")),
    "quarantine": dict(
        jobs=2, chunk_size=2, on_failure="quarantine", fault_plan=FaultPlan.parse("raise@1x9")
    ),
    "kill-respawn": dict(jobs=2, chunk_size=2, retries=1, fault_plan=FaultPlan.parse("kill@1x1")),
    "resume": dict(jobs=2, chunk_size=2, resume=True),
}


class TestRecordAgreesWithEvents:
    @pytest.mark.parametrize("scenario", list(AGREEMENT))
    def test_record_is_a_fold_of_its_events(self, toy, tmp_path, scenario):
        bench, workload = toy
        knobs = dict(AGREEMENT[scenario])
        if scenario == "resume":
            # an interrupted run leaves every chunk but the poisoned one
            # checkpointed; the rerun restores them
            knobs["cache"] = WorkloadCache(tmp_path)
            _run(
                bench, workload, on_failure="quarantine",
                fault_plan=FaultPlan.parse("raise@1x9"), **knobs,
            )
        rec = _run(bench, workload, **knobs).record
        if scenario == "resume":
            assert rec.resumed_chunks == 3

        def named(name):
            return [e for e in rec.events if e["name"] == name]

        completed = sorted(tuple(e["chunk"]) for e in named(ev.CHUNK_COMPLETED))
        assert completed == [(c.start, c.stop) for c in rec.chunks]
        failures = [e for e in rec.events if e["name"] in FAILURE_ACTIONS]
        assert len(rec.failures) == len(failures)
        assert rec.retries == len(named(ev.CHUNK_RETRIED))
        assert rec.quarantined == sorted(
            tuple(e["chunk"]) for e in named(ev.CHUNK_QUARANTINED)
        )
        respawned = len(named(ev.WORKER_RESPAWNED))
        assert rec.metrics["counters"]["engine.respawns"] == respawned
        status = status_from_events([Event.from_dict(e) for e in rec.events])
        assert status["chunks"]["done"] == len(rec.chunks)
        assert status["retries"] == rec.retries
        assert status["chunks"]["quarantined"] == len(rec.quarantined)


class TestResumedChunks:
    def test_restored_chunks_are_no_workers_work(self, toy, tmp_path):
        bench, workload = toy
        knobs = dict(AGREEMENT["resume"], cache=WorkloadCache(tmp_path))
        _run(
            bench, workload, on_failure="quarantine",
            fault_plan=FaultPlan.parse("raise@1x9"), **knobs,
        )
        tracer, log = Tracer(), EventLog()
        rec = _run(bench, workload, tracer=tracer, events=log, **knobs).record
        assert rec.resumed_chunks == 3
        completed = [
            Event.from_dict(e) for e in rec.events if e["name"] == ev.CHUNK_COMPLETED
        ]
        restored = [e for e in completed if e.data.get("resumed")]
        assert len(restored) == 3 and all(e.pid is None for e in restored)
        executed = {e.pid for e in completed if not e.data.get("resumed")}
        # only the pool worker that ran the poisoned chunk again
        assert {w.pid for w in rec.workers} == executed
        assert os.getpid() not in executed
        assert sum(w.chunks for w in rec.workers) == len(rec.chunks) - 3
        assert [(c.start, c.stop) for c in rec.chunks if c.worker is None] == [
            (0, 2), (4, 6), (6, 8)
        ]
        status = status_from_events([Event.from_dict(e) for e in rec.events])
        assert status["chunks"]["done"] == len(rec.chunks)
        # the trace draws and names no track for them, and their markers
        # still land on a process track
        doc = tracer.to_chrome(log.events)["traceEvents"]
        assert {e["pid"] for e in doc if e.get("cat") == "chunk"} == executed
        assert all(isinstance(e["pid"], int) for e in doc)


#: Traced runs: the jobs=1 fast path, a pool retry, a chunked serial
#: backend and a rerun over a checkpoint.
TRACED = {
    "jobs1": dict(jobs=1),
    "retry": dict(jobs=2, chunk_size=2, retries=1, fault_plan=FaultPlan.parse("raise@1")),
    "serial-executor": dict(jobs=2, chunk_size=2, executor="serial"),
    "resume": dict(jobs=2, chunk_size=2, resume=True),
}


class TestTraceAgreesWithRecord:
    @pytest.mark.parametrize("scenario", list(TRACED))
    def test_chunk_timeline_is_the_records(self, toy, tmp_path, scenario):
        bench, workload = toy
        knobs = dict(TRACED[scenario])
        if scenario == "resume":
            knobs["cache"] = WorkloadCache(tmp_path)
            _run(
                bench, workload, on_failure="quarantine",
                fault_plan=FaultPlan.parse("raise@1x9"), **knobs,
            )
        tracer, log = Tracer(), EventLog()
        rec = _run(bench, workload, tracer=tracer, events=log, **knobs).record
        # the execute-phase start: an executed chunk's trace ends at the
        # stamp of its chunk_completed
        done = next(e for e in log.find(ev.CHUNK_COMPLETED) if not e.data.get("resumed"))
        epoch = done.ts - next(c.end for c in rec.chunks if (c.start, c.stop) == done.chunk)

        spans = sorted((s for s in tracer.spans if s.cat == "chunk"), key=lambda s: s.name)
        stored = sorted(
            (e for e in chrome_events_from_record(rec) if e["ph"] == "X"),
            key=lambda e: e["name"],
        )
        assert [(s.name, s.pid, s.args) for s in spans] == [
            (e["name"], e["pid"], e["args"]) for e in stored
        ]
        for s, e in zip(spans, stored):
            assert s.begin - epoch == pytest.approx(e["ts"] / 1e6, abs=1e-6)
            assert s.end - epoch == pytest.approx((e["ts"] + e["dur"]) / 1e6, abs=1e-6)

        # every run, the in-process one included, names its worker
        # tracks and charts their activity
        doc = tracer.to_chrome()["traceEvents"]
        named = {e["pid"] for e in doc if e["ph"] == "M"}
        active = [e["args"]["value"] for e in doc if e["name"] == "workers.active"]
        assert named == {w.pid for w in rec.workers}
        assert active and min(active) >= 0 and active[-1] == 0


class TestSharedLogSlicing:
    def test_back_to_back_runs_slice_their_own_events(self, toy):
        bench, workload = toy
        log = EventLog()
        first = _run(bench, workload, jobs=2, chunk_size=4, events=log)
        second = _run(bench, workload, jobs=2, chunk_size=4, events=log)
        _assert_well_formed(first.record)
        _assert_well_formed(second.record)
        # the shared log holds both narratives; each record only its own
        assert len(log) == len(first.record.events) + len(second.record.events)
        first_ids = {e["run_id"] for e in first.record.events}
        second_ids = {e["run_id"] for e in second.record.events}
        assert first_ids != second_ids
        # seqs continue across runs on the shared log
        assert second.record.events[0]["seq"] > first.record.events[-1]["seq"]

    def test_private_log_timestamps_are_execute_relative(self, toy):
        bench, workload = toy
        run = _run(bench, workload, jobs=2, chunk_size=4)
        by_name = {e["name"]: e for e in run.record.events}
        # run_started precedes the execute epoch: negative t
        assert by_name[ev.RUN_STARTED]["t"] <= 0.0
        assert by_name[ev.RUN_FINISHED]["t"] > 0.0
