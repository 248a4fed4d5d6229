"""Engine integration of the sampling profiler and worker telemetry."""

import json
import warnings

import pytest

from repro.core.benchmark import Benchmark, ExecutionResult
from repro.core.datasets import DatasetSize
from repro.obs.telemetry import telemetry_supported
import repro.api as api
from repro.runner import ParallelRunner
from repro.runner.record import SCHEMA, RunRecord


def _spin(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i * i
    return total


class BusyBench(Benchmark):
    """A CPU-bound toy kernel slow enough to sample reliably."""

    name = "busy-toy"

    def __init__(self, n_tasks: int = 4, iterations: int = 600_000):
        self.n_tasks = n_tasks
        self.iterations = iterations

    def prepare(self, size):
        return [self.iterations] * self.n_tasks

    def task_count(self, workload):
        return len(workload)

    def execute_shard(self, workload, indices, instr=None):
        indices = list(indices)
        out = [_spin(workload[i]) for i in indices]
        return ExecutionResult(output=out, task_work=[1] * len(indices))


def _execute(**kwargs):
    bench = BusyBench()
    workload = bench.prepare(DatasetSize.SMALL)
    kwargs.setdefault("measure_serial", False)
    kwargs.setdefault("profile_hz", 499.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        runner = ParallelRunner(**kwargs)
        return runner.execute(bench, workload, DatasetSize.SMALL)


class TestProfiledRuns:
    def test_off_by_default(self):
        run = _execute(jobs=1)
        assert run.record.profile is None
        assert run.record.telemetry is None

    def test_serial_profile_names_the_hot_frame(self):
        run = _execute(jobs=1, profile=True)
        doc = run.record.profile
        assert doc is not None and doc["samples"] > 0
        assert "execute" in doc["phases"]
        assert any("_spin" in h["frame"] for h in doc["hotspots"])

    def test_parallel_profile_merges_worker_chunks(self):
        run = _execute(jobs=2, chunk_size=1, profile=True)
        doc = run.record.profile
        assert doc is not None and doc["samples"] > 0
        # worker-side samples merged into the execute phase
        assert doc["phases"]["execute"]["samples"] > 0
        assert any("_spin" in h["frame"] for h in doc["hotspots"])
        # hotspot percentages are well-formed
        for h in doc["hotspots"]:
            assert 0.0 <= h["self_pct"] <= h["total_pct"] <= 100.0

    def test_schema_v4_record_round_trips(self):
        run = _execute(jobs=2, chunk_size=1, profile=True, telemetry=True)
        rec = run.record
        assert rec.schema == SCHEMA == "genomicsbench.run/5"
        clone = RunRecord.from_json(rec.to_json())
        assert clone.profile == json.loads(json.dumps(rec.profile))
        assert clone.telemetry is not None

    def test_profile_samples_counter_published(self):
        run = _execute(jobs=1, profile=True)
        counters = run.record.metrics["counters"]
        assert counters["profile.samples"] == run.record.profile["samples"]

    @pytest.mark.skipif(not telemetry_supported(), reason="no procfs")
    def test_parallel_telemetry_covers_every_worker(self):
        run = _execute(jobs=2, chunk_size=1, telemetry=True)
        doc = run.record.telemetry
        assert doc["supported"]
        workers = {w["worker"] for w in doc["workers"]}
        assert workers == {w.worker for w in run.record.workers}
        assert doc["peak_rss_bytes"] > 0
        assert run.record.peak_rss_bytes == doc["peak_rss_bytes"]
        gauges = run.record.metrics["gauges"]
        assert gauges["telemetry.peak_rss_bytes"] == doc["peak_rss_bytes"]

    def test_api_run_passthrough(self):
        run = api.run(
            "grm",
            jobs=1,
            obs=api.ObsOptions(profile=True, profile_hz=499.0, telemetry=True),
        )
        rec = run.record
        assert rec.profile is not None
        assert rec.telemetry is not None
        assert rec.schema == SCHEMA

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError, match="profile_hz"):
            ParallelRunner(profile_hz=0)
        with pytest.raises(ValueError, match="telemetry_interval"):
            ParallelRunner(telemetry_interval=-1)


class TestMergeDeterminism:
    def test_parallel_profile_is_deterministic_in_structure(self):
        """Two profiled runs agree on the dominant frame (sampling noise
        aside) and every serialized folded table is sorted."""
        docs = []
        for _ in range(2):
            run = _execute(jobs=2, chunk_size=1, profile=True)
            docs.append(run.record.profile)
        for doc in docs:
            folded = doc["phases"]["execute"]["folded"]
            assert list(folded) == sorted(folded)
        tops = [doc["hotspots"][0]["frame"] for doc in docs]
        assert all("_spin" in t for t in tops)
