"""Unit tests for the pluggable executor registry and backends."""

import pytest

import repro.runner.executors as executors_mod
from repro.core import DatasetSize, load_benchmark
from repro.runner.executors import (
    ChunkEvent,
    Executor,
    ExecutorCapabilities,
    LocalExecutor,
    SerialExecutor,
    available,
    get,
    make_executor,
    names,
    register,
)
from repro.runner.supervisor import ChunkSupervisor
from repro.runner.worker import WorkerState


def small_state():
    bench = load_benchmark("grm")
    workload = bench.prepare(DatasetSize.SMALL)
    return bench, WorkerState(bench=bench, workload=workload)


class TestRegistry:
    def test_builtin_backends_registered(self):
        got = names()
        for name in ("local", "serial", "distributed"):
            assert name in got

    def test_names_sorted(self):
        assert names() == sorted(names())

    def test_get_unknown_lists_available(self):
        with pytest.raises(ValueError) as err:
            get("warp-drive")
        for name in names():
            assert name in str(err.value)

    def test_get_resolves_lazy_distributed(self):
        cls = get("distributed")
        assert cls.name == "distributed"
        assert cls.capabilities.remote

    def test_available_maps_name_to_class(self):
        got = available()
        assert got["local"] is LocalExecutor
        assert got["serial"] is SerialExecutor

    def test_register_decorator_and_cleanup(self):
        @register
        class EchoExecutor(SerialExecutor):
            """A test-only backend."""

            name = "echo-test"

        try:
            assert "echo-test" in names()
            assert get("echo-test") is EchoExecutor
        finally:
            executors_mod._REGISTRY.pop("echo-test", None)
        assert "echo-test" not in names()

    def test_make_executor_default_is_local(self):
        ex = make_executor(None, jobs=2, hosts=None)
        assert isinstance(ex, LocalExecutor)
        assert ex.parallelism == 2

    def test_make_executor_by_name(self):
        ex = make_executor("serial", jobs=4, hosts=None)
        assert isinstance(ex, SerialExecutor)
        assert ex.parallelism == 1

    def test_make_executor_passes_instance_through(self):
        instance = SerialExecutor()
        assert make_executor(instance, jobs=1, hosts=None) is instance

    def test_make_executor_unknown_name(self):
        with pytest.raises(ValueError, match="serial"):
            make_executor("nonexistent", jobs=1, hosts=None)


class TestCapabilities:
    def test_capability_flags(self):
        assert LocalExecutor.capabilities == ExecutorCapabilities(
            timeouts=True, kill=True, remote=False
        )
        assert SerialExecutor.capabilities == ExecutorCapabilities(
            timeouts=False, kill=False, remote=False
        )

    def test_as_dict_round_trip(self):
        d = LocalExecutor.capabilities.as_dict()
        assert d == {"timeouts": True, "kill": True, "remote": False}

    def test_describe_reports_name_and_capabilities(self):
        info = SerialExecutor().describe()
        assert info["name"] == "serial"
        assert info["capabilities"]["timeouts"] is False


class TestSerialExecutor:
    def test_interface_contract(self):
        assert issubclass(SerialExecutor, Executor)

    def test_submit_collect_round_trip(self):
        bench, state = small_state()
        ex = SerialExecutor()
        ex.open(state)
        try:
            assert ex.has_capacity()
            ex.submit(0, 2, 0, 0)
            events = ex.collect(0.01)
        finally:
            ex.shutdown()
        assert len(events) == 1
        event = events[0]
        assert isinstance(event, ChunkEvent)
        assert event.kind == "ok"
        payload = event.payload
        assert (payload.start, payload.stop) == (0, 2)
        assert payload.result is not None
        assert payload.host is None

    def test_supervised_run_covers_all_chunks(self):
        bench, state = small_state()
        bounds = [(0, 2), (2, 4), (4, 6)]
        ex = SerialExecutor()
        ex.open(state)
        try:
            out = ChunkSupervisor(ex).run(bounds, [])
        finally:
            ex.shutdown()
        assert sorted((p.start, p.stop) for p in out.payloads) == bounds
        assert not out.failures

    def test_shutdown_idempotent(self):
        _, state = small_state()
        ex = SerialExecutor()
        ex.open(state)
        ex.shutdown()
        ex.shutdown()


class TestLocalExecutor:
    def test_supervised_run_in_subprocesses(self):
        bench, state = small_state()
        bounds = [(0, 3), (3, 6)]
        ex = LocalExecutor(jobs=2)
        ex.open(state)
        try:
            out = ChunkSupervisor(ex).run(bounds, [])
        finally:
            ex.shutdown()
        assert sorted((p.start, p.stop) for p in out.payloads) == bounds
        import os

        assert all(p.pid != os.getpid() for p in out.payloads)
