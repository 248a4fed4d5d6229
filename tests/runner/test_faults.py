"""Chaos tests: every engine recovery path under deterministic faults."""

import multiprocessing
import warnings

import pytest

import repro.api as api
from repro.core.benchmark import Benchmark, ExecutionResult
from repro.core.datasets import DatasetSize
from repro.runner import (
    ChunkFailedError,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ParallelRunner,
    WorkloadCache,
)
from repro.runner.engine import MAX_OVERSUBSCRIPTION
from repro.runner.record import FAILURE_ACTIONS
import os


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
    workload = bench.prepare(DatasetSize.SMALL)
    serial = ParallelRunner(jobs=1).execute(bench, workload, DatasetSize.SMALL)
    return bench, workload, serial


class TestFaultPlan:
    def test_parse_round_trips(self):
        plan = FaultPlan.parse("kill@0, raise@2x3 ,hang@1")
        assert plan.specs == (
            FaultSpec("kill", 0),
            FaultSpec("raise", 2, attempts=3),
            FaultSpec("hang", 1),
        )
        assert FaultPlan.parse(plan.describe()) == FaultPlan(plan.specs)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="fault"):
            FaultPlan.parse("explode@0")
        with pytest.raises(ValueError, match="kind@chunk"):
            FaultPlan.parse("raise")
        with pytest.raises(ValueError, match="kind@chunk"):
            FaultPlan.parse("raise@zero")

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.parse("")
        assert FaultPlan.parse("raise@0")

    def test_fires_by_attempt_then_heals(self):
        plan = FaultPlan.parse("raise@3x2")
        assert plan.match(3, 0) is not None
        assert plan.match(3, 1) is not None
        assert plan.match(3, 2) is None  # healed
        assert plan.match(2, 0) is None  # different chunk
        with pytest.raises(InjectedFault):
            plan.fire(3, 0)
        assert plan.fire(3, 2) is None

    def test_random_plan_deterministic_in_seed(self):
        a = FaultPlan.random(seed=7, n_chunks=10, count=3, max_attempts=2)
        b = FaultPlan.random(seed=7, n_chunks=10, count=3, max_attempts=2)
        c = FaultPlan.random(seed=8, n_chunks=10, count=3, max_attempts=2)
        assert a.specs == b.specs
        assert len(a.specs) == 3
        assert all(s.chunk < 10 for s in a.specs)
        assert a.specs != c.specs or a.seed != c.seed


class TestRecovery:
    def test_raise_is_retried_and_heals(self, toy):
        bench, workload, serial = toy
        run = _run(bench, workload, jobs=2, chunk_size=1, retries=1,
                   fault_plan=FaultPlan.parse("raise@2"))
        assert run.output == serial.output
        assert run.record.retries == 1
        (event,) = run.record.failures
        assert event.kind == "exception" and event.action == "retry"
        assert "InjectedFault" in event.error
        assert run.record.complete

    def test_failure_times_are_on_the_chunk_trace_clock(self):
        # failures and chunks share the execute-phase epoch; a clock
        # started after the backend opens (for the distributed backend,
        # after connecting every host) drifts from the chunk trace
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rec = api.run(
                "grm", "small", jobs=2, chunk_size=1, retries=1,
                measure_serial=False, fault_plan=FaultPlan.parse("raise@2"),
            ).record
        narrated = [e for e in rec.events if e["name"] in FAILURE_ACTIONS]
        assert len(narrated) == len(rec.failures) == 1
        for failure, event in zip(rec.failures, narrated):
            assert failure.at_seconds == pytest.approx(event["t"], abs=1e-6)
            assert 0.0 <= failure.at_seconds <= rec.execute_seconds

    def test_killed_worker_detected_and_respawned(self, toy):
        bench, workload, serial = toy
        run = _run(bench, workload, jobs=3, chunk_size=1, retries=2,
                   fault_plan=FaultPlan.parse("kill@1"))
        assert run.output == serial.output
        kinds = [f.kind for f in run.record.failures]
        assert kinds == ["worker-died"]
        assert run.record.failures[0].exitcode is not None
        assert run.record.metrics["counters"]["engine.worker_deaths"] == 1
        assert run.record.metrics["counters"]["engine.respawns"] >= 1

    def test_hang_recovered_by_timeout(self, toy):
        bench, workload, serial = toy
        run = _run(bench, workload, jobs=2, chunk_size=1, retries=1, timeout=1.0,
                   fault_plan=FaultPlan.parse("hang@0"))
        assert run.output == serial.output
        (event,) = run.record.failures
        assert event.kind == "timeout" and event.action == "retry"
        assert run.record.metrics["counters"]["engine.timeouts"] == 1

    def test_exhausted_budget_fails_fast_by_default(self, toy):
        bench, workload, _ = toy
        with pytest.raises(ChunkFailedError, match=r"chunk \[2:3\)"):
            _run(bench, workload, jobs=2, chunk_size=1, retries=1,
                 fault_plan=FaultPlan.parse("raise@2x9"))

    def test_quarantine_completes_with_gap_report(self, toy):
        bench, workload, serial = toy
        run = _run(bench, workload, jobs=2, chunk_size=1, retries=1,
                   on_failure="quarantine", fault_plan=FaultPlan.parse("raise@2x9"))
        assert run.record.quarantined == [(2, 3)]
        assert run.record.quarantined_tasks == 1
        assert not run.record.complete
        # merged output covers every task except the quarantined range
        expected = [x for i, x in enumerate(serial.output) if i != 2]
        assert run.output == expected
        assert [f.action for f in run.record.failures] == ["retry", "quarantine"]

    def test_serial_fallback_re_executes_in_parent(self, toy):
        bench, workload, serial = toy
        run = _run(bench, workload, jobs=2, chunk_size=1, retries=0,
                   on_failure="serial", fault_plan=FaultPlan.parse("kill@0x9,raise@5x9"))
        assert run.output == serial.output
        assert run.record.complete
        actions = sorted(f.action for f in run.record.failures)
        assert actions == ["serial", "serial"]
        # the parent executed those chunks: its pid appears as a worker
        assert any(w.pid == os.getpid() for w in run.record.workers)

    def test_mixed_fault_storm_still_bit_identical(self, toy):
        bench, workload, serial = toy
        plan = FaultPlan.parse("raise@0,kill@3,raise@6x2")
        run = _run(bench, workload, jobs=4, chunk_size=1, retries=3,
                   timeout=5.0, fault_plan=plan)
        assert run.output == serial.output
        assert run.record.retries == 4
        assert run.record.complete


class TestResume:
    def test_interrupted_run_resumes_completed_chunks(self, toy, tmp_path):
        bench, workload, serial = toy
        cache = WorkloadCache(tmp_path)
        first = _run(bench, workload, jobs=2, chunk_size=1, cache=cache,
                     resume=True, on_failure="quarantine",
                     fault_plan=FaultPlan.parse("raise@4x9"))
        assert first.record.quarantined == [(4, 5)]
        ckpt = cache.checkpoint("toy", DatasetSize.SMALL, 8, 1)
        assert len(ckpt.load_all()) == 7  # completed chunks persisted
        second = _run(bench, workload, jobs=2, chunk_size=1, cache=cache,
                      resume=True)
        assert second.record.resumed_chunks == 7
        assert second.output == serial.output
        assert second.record.complete
        # a completed run clears its checkpoint
        assert ckpt.load_all() == {}

    def test_resume_without_cache_is_a_noop(self, toy):
        bench, workload, serial = toy
        run = _run(bench, workload, jobs=2, resume=True)
        assert run.record.resumed_chunks == 0
        assert run.output == serial.output

    def test_checkpoint_survives_corrupt_entries(self, toy, tmp_path):
        cache = WorkloadCache(tmp_path)
        ckpt = cache.checkpoint("toy", DatasetSize.SMALL, 8, 1)
        ckpt.store(0, 1, ExecutionResult(output=[1], task_work=[1]))
        path = ckpt.path_for(0, 1)
        path.write_bytes(b"not a pickle")
        assert ckpt.load(0, 1) is None
        assert not path.exists()  # corrupt entry dropped


class TestDegradedMode:
    def test_degrades_to_serial_when_pool_unavailable(self, toy, monkeypatch):
        bench, workload, serial = toy

        def broken(*args, **kwargs):
            raise OSError("no fork for you")

        monkeypatch.setattr(multiprocessing, "get_context", broken)
        with pytest.warns(RuntimeWarning, match="degrading"):
            run = ParallelRunner(jobs=2, measure_serial=False).execute(
                bench, workload, DatasetSize.SMALL
            )
        assert run.record.degraded
        assert run.record.jobs == 1
        assert run.output == serial.output
        assert run.record.metrics["gauges"]["engine.degraded"] == 1.0

    def test_healthy_run_reports_not_degraded(self, toy):
        bench, workload, _ = toy
        run = _run(bench, workload, jobs=2)
        assert not run.record.degraded
        assert run.record.metrics["gauges"]["engine.degraded"] == 0.0


class TestClamping:
    def test_chunk_size_clamped_to_task_count(self, toy):
        bench, workload, serial = toy
        with pytest.warns(RuntimeWarning, match="chunk_size"):
            run = ParallelRunner(jobs=2, chunk_size=10_000, measure_serial=False).execute(
                bench, workload, DatasetSize.SMALL
            )
        assert run.record.chunk_size == 8
        assert run.output == serial.output

    def test_jobs_warn_beyond_cpu_count(self, toy):
        bench, workload, _ = toy
        cpus = os.cpu_count() or 1
        with pytest.warns(RuntimeWarning, match="time-share"):
            run = ParallelRunner(jobs=cpus + 1, measure_serial=False).execute(
                bench, workload, DatasetSize.SMALL
            )
        assert run.record.jobs == cpus + 1  # warned, not clamped

    def test_jobs_clamped_beyond_oversubscription_ceiling(self, toy):
        bench, workload, serial = toy
        cpus = os.cpu_count() or 1
        ceiling = cpus * MAX_OVERSUBSCRIPTION
        with pytest.warns(RuntimeWarning, match="clamping"):
            run = ParallelRunner(jobs=ceiling + 1, measure_serial=False).execute(
                bench, workload, DatasetSize.SMALL
            )
        assert run.record.jobs == ceiling
        assert run.output == serial.output

    def test_constructor_validates_fault_tolerance_params(self):
        with pytest.raises(ValueError, match="timeout"):
            ParallelRunner(timeout=0)
        with pytest.raises(ValueError, match="retries"):
            ParallelRunner(retries=-1)
        with pytest.raises(ValueError, match="on_failure"):
            ParallelRunner(on_failure="retry-forever")
