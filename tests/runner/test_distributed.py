"""End-to-end tests for the multi-host TCP executor.

Everything runs over loopback: ``worker_daemons`` starts real daemon
processes on ephemeral ports and the coordinator drives them through
the same supervisor the local pool uses.
"""

import socket

import pytest

import repro.api as api
from repro.obs.trace import Tracer
from repro.runner.distributed import (
    DistributedExecutor,
    parse_host,
    parse_hosts,
    recv_frame,
    send_frame,
    worker_daemons,
)
from repro.runner.faults import FaultPlan
from repro.runner.record import RunRecord
from tests.runner.test_engine import canon


@pytest.fixture(scope="module")
def daemons():
    """Two live worker daemons on loopback ephemeral ports."""
    with worker_daemons(2) as hosts:
        yield hosts


def local_reference():
    return api.run("grm", "small", jobs=1)


class TestHostParsing:
    def test_parse_host(self):
        assert parse_host("127.0.0.1:9701") == ("127.0.0.1", 9701)

    def test_parse_host_rejects_missing_port(self):
        with pytest.raises(ValueError, match="host:port"):
            parse_host("127.0.0.1")

    def test_parse_host_rejects_bad_port(self):
        with pytest.raises(ValueError):
            parse_host("localhost:http")

    def test_parse_hosts_splits_and_strips(self):
        assert parse_hosts(" a:1 , b:2 ") == ["a:1", "b:2"]

    def test_parse_hosts_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_hosts("")


class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            message = {"type": "chunk", "start": 0, "stop": 4, "blob": b"\x00" * 512}
            send_frame(a, message)
            assert recv_frame(b) == message
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()


class TestExecutorConstruction:
    def test_requires_hosts(self):
        with pytest.raises(ValueError, match="hosts"):
            DistributedExecutor(hosts=[])

    def test_parallelism_is_host_count(self):
        ex = DistributedExecutor(hosts=["a:1", "b:2"])
        assert ex.parallelism == 2

    def test_capabilities(self):
        caps = DistributedExecutor.capabilities
        assert caps.remote and caps.timeouts and not caps.kill

    def test_open_fails_when_no_host_reachable(self):
        # a bound-but-never-accepting port: connect succeeds, handshake dies
        ex = DistributedExecutor(hosts=["127.0.0.1:1"], connect_timeout=0.5)
        from repro.core import DatasetSize, load_benchmark
        from repro.runner.worker import WorkerState

        bench = load_benchmark("grm")
        state = WorkerState(bench=bench, workload=bench.prepare(DatasetSize.SMALL))
        with pytest.raises(OSError):
            ex.open(state)


class TestDistributedRun:
    def test_bit_identical_to_local(self, daemons):
        dist = api.run(
            "grm", "small", executor="distributed", hosts=daemons, jobs=2
        )
        local = local_reference()
        assert canon(dist.result) == canon(local.result)
        assert not dist.record.degraded

    def test_merged_record_attributes_every_host(self, daemons):
        run = api.run(
            "grm", "small", executor="distributed", hosts=daemons,
            jobs=2, chunk_size=1,
        )
        rec = run.record
        assert rec.executor == "distributed"
        assert sorted(rec.hosts) == sorted(daemons)
        assert {w.host for w in rec.workers} == set(daemons)
        assert sum(w.chunks for w in rec.workers) == len(rec.chunks)

    def test_record_round_trips_with_provenance(self, daemons):
        rec = api.run(
            "grm", "small", executor="distributed", hosts=daemons, jobs=2
        ).record
        back = RunRecord.from_dict(rec.to_dict())
        assert back.executor == "distributed"
        assert back.hosts == rec.hosts
        assert [w.host for w in back.workers] == [w.host for w in rec.workers]

    def test_spans_carry_host_labels(self, daemons):
        tracer = Tracer()
        run = api.run(
            "grm", "small", executor="distributed", hosts=daemons,
            jobs=2, chunk_size=1, obs=api.ObsOptions(tracer=tracer),
        )
        labeled = {
            label.split(" @ ")[1]
            for label in tracer._track_names.values()
            if " @ " in label
        }
        assert labeled == set(daemons)
        # remote spans were rebased onto the coordinator clock: every
        # chunk span sits inside the engine.execute phase span
        execute = tracer.find("engine.execute")[0]
        chunk_spans = [s for s in tracer.spans if s.name.startswith("chunk[")]
        assert chunk_spans
        assert all(
            execute.begin <= s.begin <= s.end <= execute.end + 1.0
            for s in chunk_spans
        )
        assert {w.host for w in run.record.workers} == set(daemons)

    def test_unknown_host_skipped_but_run_completes(self, daemons):
        # one dead address in the list: connect fails, the rest carry it
        with pytest.warns(RuntimeWarning, match="unavailable"):
            run = api.run(
                "grm", "small", executor="distributed",
                hosts=[*daemons, "127.0.0.1:9"], jobs=2,
            )
        assert canon(run.result) == canon(local_reference().result)
        assert sorted(run.record.hosts) == sorted(daemons)


class TestChaosRecovery:
    def test_killed_daemon_mid_run_recovers_by_retry(self):
        # kill@1 makes whichever daemon executes chunk 1 die abruptly
        # (os._exit inside the daemon).  The coordinator folds the lost
        # host into a worker-died event and the supervisor retries the
        # chunk on the surviving daemon.
        with worker_daemons(2) as hosts:
            run = api.run(
                "grm", "small", executor="distributed", hosts=hosts,
                jobs=2, chunk_size=1, retries=2,
                fault_plan=FaultPlan.parse("kill@1"),
            )
        rec = run.record
        assert not rec.degraded
        assert rec.retries >= 1
        kinds = {f.kind for f in rec.failures}
        assert "worker-died" in kinds
        died = [f for f in rec.failures if f.kind == "worker-died"]
        assert any(f.worker in hosts for f in died)
        assert canon(run.result) == canon(local_reference().result)

    def test_remote_exception_quarantines_chunk(self):
        with worker_daemons(2) as hosts:
            run = api.run(
                "grm", "small", executor="distributed", hosts=hosts,
                jobs=2, chunk_size=1, retries=1, on_failure="quarantine",
                fault_plan=FaultPlan.parse("raise@2x9"),
            )
        rec = run.record
        assert rec.quarantined == [(2, 3)]
        assert any(
            f.kind == "exception" and f.action == "quarantine"
            for f in rec.failures
        )


class TestDistributedEvents:
    """Remote events merge into the coordinator log, clock-rebased."""

    def test_remote_events_merge_host_stamped_and_ordered(self, daemons):
        rec = api.run(
            "grm", "small", executor="distributed", hosts=daemons,
            jobs=2, chunk_size=1,
        ).record
        events = rec.events
        assert events[0]["name"] == "run_started"
        assert events[-1]["name"] == "run_finished"
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        connected = {
            e["host"] for e in events if e["name"] == "host_connected"
        }
        assert connected == set(daemons)
        # worker-side events arrived from both daemons, stamped with
        # the producing host's label
        remote = [
            e for e in events
            if e["name"] in ("chunk_started", "chunk_finished")
        ]
        assert remote
        assert {e.get("host") for e in remote} == set(daemons)
        # clock rebasing: remote timestamps sit inside the run's span
        # on the coordinator timeline (generous slack for slow CI)
        finish_t = events[-1]["t"]
        assert all(-1.0 <= e["t"] <= finish_t + 1.0 for e in remote)

    def test_lost_host_lands_in_the_event_log(self):
        with worker_daemons(2) as hosts:
            rec = api.run(
                "grm", "small", executor="distributed", hosts=hosts,
                jobs=2, chunk_size=1, retries=2,
                fault_plan=FaultPlan.parse("kill@1"),
            ).record
        lost = [e for e in rec.events if e["name"] == "host_lost"]
        assert lost and lost[0]["level"] == "error"
        assert lost[0]["host"] in hosts
        retried = [e for e in rec.events if e["name"] == "chunk_retried"]
        assert retried
        assert rec.events[-1]["name"] == "run_finished"
