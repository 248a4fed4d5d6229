"""Unit tests for the chunk payload's clock rebase."""

from repro.core.benchmark import ExecutionResult
from repro.obs import events as ev
from repro.obs.events import Event
from repro.obs.profile import StackProfile
from repro.obs.telemetry import ResourceSample, TelemetrySeries
from repro.obs.trace import Span
from repro.runner.worker import ChunkPayload


def _payload():
    return ChunkPayload(
        start=0,
        stop=4,
        result=ExecutionResult(output=[1, 2, 3, 4], task_work=[1, 1, 1, 1]),
        pid=4242,
        begin=10.0,
        end=12.5,
        events=[
            Event(seq=0, ts=10.0, name=ev.CHUNK_STARTED, chunk=(0, 4), pid=4242),
            Event(seq=1, ts=12.5, name=ev.CHUNK_FINISHED, chunk=(0, 4), pid=4242),
        ],
        spans=[Span(name="k", cat="kernel", begin=10.5, end=11.0, pid=4242, tid=1)],
        profile=StackProfile(folded={"a;b": 3}, samples=3),
        telemetry=TelemetrySeries(
            pid=4242,
            samples=[
                ResourceSample(ts=10.1, cpu_seconds=0.1, rss_bytes=1, ctx_switches=0),
                ResourceSample(ts=12.4, cpu_seconds=0.3, rss_bytes=2, ctx_switches=1),
            ],
        ),
    )


def test_rebased_moves_every_timestamp_and_stamps_host():
    original = _payload()
    moved = original.rebased(-7.25, "hostA:1")
    assert moved.host == "hostA:1"
    assert (moved.begin, moved.end) == (10.0 - 7.25, 12.5 - 7.25)
    assert [e.ts for e in moved.events] == [10.0 - 7.25, 12.5 - 7.25]
    assert [(s.begin, s.end) for s in moved.spans] == [(10.5 - 7.25, 11.0 - 7.25)]
    assert [s.ts for s in moved.telemetry.samples] == [10.1 - 7.25, 12.4 - 7.25]
    # only the clock moved: identity and readings ride along unchanged
    assert [e.name for e in moved.events] == [ev.CHUNK_STARTED, ev.CHUNK_FINISHED]
    assert [s.rss_bytes for s in moved.telemetry.samples] == [1, 2]
    assert moved.result is original.result
    assert moved.profile is original.profile
    assert (moved.start, moved.stop, moved.pid) == (0, 4, 4242)


def test_rebased_leaves_the_original_untouched():
    original = _payload()
    original.rebased(3.0, "hostB:2")
    assert original.host is None
    assert (original.begin, original.end) == (10.0, 12.5)
    assert [e.ts for e in original.events] == [10.0, 12.5]
    assert [(s.begin, s.end) for s in original.spans] == [(10.5, 11.0)]
    assert [s.ts for s in original.telemetry.samples] == [10.1, 12.4]
