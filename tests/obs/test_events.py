"""Tests for the append-only structured event log."""

import json
import threading

import pytest

from repro.obs import events as ev
from repro.obs.events import (
    Event,
    EventLog,
    format_event,
    level_rank,
    load_events,
    new_run_id,
    parse_jsonl,
)


class TestEvent:
    def test_as_dict_rebases_to_epoch_and_drops_empty_fields(self):
        event = Event(
            seq=3, ts=12.5, name="chunk_completed", level="info",
            chunk=(0, 50), worker=1, attempt=0, data={"tasks": 50},
        )
        doc = event.as_dict(epoch=10.0)
        assert doc["seq"] == 3
        assert doc["t"] == 2.5
        assert doc["chunk"] == [0, 50]
        assert doc["data"] == {"tasks": 50}
        assert "host" not in doc and "run_id" not in doc

    def test_round_trips_through_dict(self):
        event = Event(
            seq=7, ts=1.25, name="host_lost", level="error",
            run_id="abc", host="127.0.0.1:9701", data={"reason": "eof"},
        )
        back = Event.from_dict(event.as_dict(epoch=1.0), epoch=1.0)
        assert back.name == "host_lost"
        assert back.ts == pytest.approx(1.25)
        assert back.host == "127.0.0.1:9701"
        assert back.run_id == "abc"
        assert back.data == {"reason": "eof"}

    def test_format_event_is_one_readable_line(self):
        line = format_event(
            {"t": 1.5, "level": "warning", "name": "chunk_retried",
             "chunk": [0, 50], "worker": 2, "data": {"kind": "timeout"}}
        )
        assert "WARNING" in line
        assert "chunk_retried" in line
        assert "[0:50)" in line
        assert "worker=2" in line
        assert "kind=timeout" in line

    def test_level_rank_orders_severities(self):
        assert level_rank("debug") < level_rank("info")
        assert level_rank("info") < level_rank("warning")
        assert level_rank("warning") < level_rank("error")
        assert level_rank("bogus") == level_rank("info")


class TestEventLog:
    def test_seq_is_monotonic_and_gapless(self):
        log = EventLog()
        for i in range(10):
            log.emit("tick", n=i)
        assert [e.seq for e in log.events] == list(range(10))
        assert log.next_seq == 10

    def test_emit_stamps_run_id_pid_and_clamps_bad_level(self):
        log = EventLog(run_id="run1")
        event = log.emit("thing", level="catastrophic")
        assert event.run_id == "run1"
        assert event.level == "info"
        assert event.pid is not None

    def test_tail_since_is_the_incremental_poll_contract(self):
        log = EventLog()
        for i in range(5):
            log.emit("tick", n=i)
        first = log.tail(since=-1)
        assert len(first) == 5
        log.emit("tick", n=5)
        fresh = log.tail(since=first[-1].seq)
        assert [e.seq for e in fresh] == [5]
        assert log.tail(since=5) == []

    def test_tail_level_is_a_severity_floor(self):
        log = EventLog()
        log.emit("a", level="debug")
        log.emit("b", level="info")
        log.emit("c", level="warning")
        log.emit("d", level="error")
        assert [e.name for e in log.tail(level="warning")] == ["c", "d"]
        assert len(log.tail(level="debug")) == 4

    def test_find_filters_by_name(self):
        log = EventLog()
        log.emit("a")
        log.emit("b")
        log.emit("a")
        assert [e.seq for e in log.find("a")] == [0, 2]

    def test_absorb_resequences_and_stamps_host(self):
        # the clock shift is ChunkPayload.rebased's job (tests/runner/test_worker.py)
        log = EventLog()
        remote = [
            Event(seq=7, ts=100.0, name="chunk_started", level="debug", worker=None),
            Event(seq=8, ts=101.0, name="chunk_finished", level="debug", worker=3),
        ]
        n = log.absorb(remote, host="hostA:1")
        assert n == 2
        absorbed = log.events
        assert [e.seq for e in absorbed] == [0, 1]
        assert absorbed[0].ts == 100.0
        assert absorbed[0].host == "hostA:1"
        # missing worker falls back to the host label; present ones survive
        assert absorbed[0].worker == "hostA:1"
        assert absorbed[1].worker == 3

    def test_absorb_worker_fallback_beats_host_fallback(self):
        log = EventLog()
        log.absorb([Event(seq=0, ts=0.0, name="x")], host="h", worker=4)
        assert log.events[0].worker == 4

    def test_concurrent_emits_never_duplicate_seq(self):
        log = EventLog()

        def hammer():
            for _ in range(200):
                log.emit("tick")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [e.seq for e in log.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 800

    def test_subscribe_sees_every_append(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.emit("a")
        log.emit("b")
        assert [e.name for e in seen] == ["a", "b"]


class TestJsonlSink:
    def test_sink_appends_one_json_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(logfile=path)
        log.emit("run_started", kernel="fmi")
        log.emit("run_finished", level="info")
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        docs = [json.loads(line) for line in lines]
        assert [d["name"] for d in docs] == ["run_started", "run_finished"]
        assert docs[0]["seq"] == 0 and docs[1]["seq"] == 1

    def test_sink_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "events.jsonl"
        log = EventLog(logfile=path)
        log.emit("tick")
        log.close()
        assert path.exists()

    def test_log_survives_sink_closing_underneath(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(logfile=path)
        log.emit("before")
        log.close()
        log.emit("after")  # must not raise; the in-memory log still grows
        assert len(log) == 2
        assert len(path.read_text().splitlines()) == 1


class TestLoading:
    def test_parse_jsonl_skips_malformed_lines(self):
        text = '{"name": "a", "seq": 0}\nnot json\n\n{"name": "b", "seq": 1}\n'
        docs = parse_jsonl(text)
        assert [d["name"] for d in docs] == ["a", "b"]

    def test_load_events_from_jsonl_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(logfile=path)
        log.emit("run_started")
        log.emit("run_finished")
        log.close()
        docs = load_events(path)
        assert [d["name"] for d in docs] == ["run_started", "run_finished"]

    def test_load_events_from_run_record_json(self, tmp_path):
        from repro.runner.record import RunRecord

        rec = RunRecord(
            kernel="fmi", size="small", jobs=1, chunk_size=1, n_tasks=0,
            total_work=0, task_work=[], prepare_seconds=0.0,
            prepare_cached=False, execute_seconds=0.0,
            events=[{"seq": 0, "t": 0.0, "name": "run_started", "level": "info"}],
        )
        path = tmp_path / "record.json"
        path.write_text(rec.to_json())
        docs = load_events(path)
        assert [d["name"] for d in docs] == ["run_started"]

    def test_load_events_empty_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_events(path) == []

    def test_new_run_ids_are_short_and_unique(self):
        ids = {new_run_id() for _ in range(50)}
        assert len(ids) == 50
        assert all(len(i) == 12 for i in ids)

    def test_vocabulary_constants_are_strings(self):
        names = [
            ev.RUN_STARTED, ev.CHUNK_DISPATCHED, ev.CHUNK_RETRIED,
            ev.CHUNK_QUARANTINED, ev.FALLBACK_SERIAL, ev.WORKER_DIED,
            ev.HOST_LOST, ev.RUN_FINISHED,
        ]
        assert all(isinstance(n, str) and n for n in names)
        assert len(set(names)) == len(names)
