"""Multi-host execution over stdlib TCP sockets.

The engine's distributed backend: a coordinator
(:class:`DistributedExecutor`) streams chunk specs to long-lived worker
daemons (``repro worker`` / ``repro serve-workers``) over length-prefixed
pickle frames, and the daemons stream results -- including span buffers,
folded profiler stacks and telemetry series -- back.  Everything is
stdlib (``socket``, ``struct``, ``pickle``, ``threading``): the wire
format is deliberately boring so the failure model can be interesting.

Protocol (see ``docs/distributed.md``)
--------------------------------------

Every frame is an 8-byte big-endian length followed by a pickled dict
with a ``type`` key.  One coordinator session per daemon at a time:

* ``hello`` / ``ready`` -- version check plus the worker's
  ``perf_counter`` reading, from which the coordinator derives a
  per-host clock offset (the fastest of :data:`CLOCK_SYNC_ROUNDS`
  round trips) so remote chunk timings, spans and telemetry land on
  the coordinator's timeline;
* ``workload`` / ``workload-ok`` -- the run's
  :class:`~repro.runner.worker.WorkerState` (benchmark, prepared
  workload, fault plan and capture switches) as one object, shipped
  once per run and held by the session, never in a module global;
* ``chunk`` -> ``result`` | ``error`` -- one task range per message,
  echoing ``(ordinal, attempt)`` so deterministic fault injection and
  retry bookkeeping work exactly as they do in-process;
* ``heartbeat`` -- sent by a daemon thread every
  :data:`HEARTBEAT_SECONDS` even while a chunk is executing, so a
  grinding host is distinguishable from a dead one;
* ``shutdown`` -- ends the session; the daemon goes back to accepting.

Failure model
-------------

A host is *lost* when its socket drops or its heartbeats stop for
:data:`DEFAULT_HEARTBEAT_TIMEOUT` seconds.  Its in-flight chunk is
reported as a ``worker-died`` :class:`~repro.runner.executors.ChunkEvent`,
which the supervisor folds into the ordinary retry/quarantine
machinery -- the chunk re-enters the pending queue and the next idle
host picks it up (work stealing across hosts).  A chunk that overruns
its deadline on a live host is reported as a ``timeout`` and the
connection is dropped: a remote process cannot be killed
(``capabilities.kill`` is False), but abandoning the session means its
late result is discarded and the daemon recycles when its send fails.
Idle hosts additionally *steal* speculatively: when a chunk has been
in flight elsewhere for :data:`STEAL_AFTER_SECONDS`, an idle host runs
a duplicate and the first result wins (results are deduplicated by
task range, so duplicates are harmless).

If *no* host can be reached at ``open`` the executor raises
``OSError`` and the engine degrades to in-process serial execution,
the same graceful path as a failed local pool.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import platform
import queue as queue_mod
import socket
import struct
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Iterator

from repro.obs import events as ev
from repro.obs.events import EventLog
from repro.runner.executors import ChunkEvent, Executor, ExecutorCapabilities
from repro.runner.worker import WorkerState, execute_chunk

#: Wire protocol version; bumped on incompatible frame changes.  v2
#: ships the ``workload`` frame as one ``WorkerState`` and chunk
#: payloads as ``ChunkPayload`` objects; v3 gives the payload typed
#: ``events``/``spans``/``profile``/``telemetry`` fields.
PROTOCOL_VERSION = 3

#: Frame header: 8-byte big-endian payload length.
_HEADER = struct.Struct("!Q")

#: Refuse frames beyond this size (a corrupt header otherwise allocates
#: gigabytes); large-genome workloads fit comfortably under it.
MAX_FRAME_BYTES = 1 << 31

#: Daemon heartbeat cadence, seconds.
HEARTBEAT_SECONDS = 0.5

#: Coordinator declares a silent host lost after this many seconds.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0

#: Per-host TCP connect budget, seconds.
DEFAULT_CONNECT_TIMEOUT = 5.0

#: ``hello``/``ready`` round trips per connect; the clock offset comes
#: from the one with the shortest round-trip time.
CLOCK_SYNC_ROUNDS = 5

#: An idle host speculatively duplicates a chunk that has been in
#: flight elsewhere for this long.
STEAL_AFTER_SECONDS = 2.0


def parse_host(spec: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` with a helpful error."""
    host, sep, port_text = spec.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not sep or not host or not (0 <= port <= 65535):
        raise ValueError(
            f"bad worker address {spec!r}: expected host:port (e.g. 127.0.0.1:9701)"
        )
    return host, port


def parse_hosts(text: str) -> list[str]:
    """``"h1:p1,h2:p2"`` -> validated list of worker address specs."""
    specs = [item.strip() for item in text.split(",") if item.strip()]
    for spec in specs:
        parse_host(spec)
    if not specs:
        raise ValueError("no worker addresses given")
    return specs


# -- framing ----------------------------------------------------------

def send_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    """Send one length-prefixed pickle frame (caller holds any lock)."""
    blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(blob)) + blob)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Receive one frame, or ``None`` on a clean EOF at a boundary."""
    header = _recv_exact(sock, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"oversized frame ({length} bytes)")
    blob = _recv_exact(sock, length)
    return pickle.loads(blob)


def _recv_exact(
    sock: socket.socket, n: int, allow_eof: bool = False
) -> bytes | None:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        piece = sock.recv(min(remaining, 1 << 20))
        if not piece:
            if allow_eof and remaining == n:
                return None
            raise ConnectionError("connection closed mid-frame")
        chunks.append(piece)
        remaining -= len(piece)
    return b"".join(chunks)


# -- worker daemon ----------------------------------------------------

def serve_worker(
    bind: str = "127.0.0.1:0",
    *,
    once: bool = False,
    on_bound: Callable[[str, int], None] | None = None,
) -> None:
    """Run one worker daemon: accept coordinators, execute their chunks.

    Blocks forever (or until the first session ends with ``once=True``).
    ``on_bound`` receives the actual bound address -- how callers learn
    the port when binding to ``0``.  Chunks execute in this process, so
    an injected ``kill`` fault takes the daemon down exactly like a
    segfault or OOM kill would: the coordinator sees the socket drop.
    """
    host, port = parse_host(bind)
    server = socket.create_server((host, port))
    bound_host, bound_port = server.getsockname()[:2]
    if on_bound is not None:
        on_bound(bound_host, bound_port)
    try:
        while True:
            conn, _addr = server.accept()
            try:
                _serve_session(conn)
            except (ConnectionError, EOFError, pickle.UnpicklingError) as exc:
                warnings.warn(
                    f"worker session ended abnormally: {exc}", RuntimeWarning,
                    stacklevel=2,
                )
            finally:
                conn.close()
            if once:
                return
    finally:
        server.close()


def _serve_session(conn: socket.socket) -> None:
    """One coordinator session: handshake, workload, chunk loop."""
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()
    stop_heartbeat = threading.Event()

    def heartbeat_loop() -> None:
        while not stop_heartbeat.wait(HEARTBEAT_SECONDS):
            try:
                with send_lock:
                    send_frame(
                        conn,
                        {"type": "heartbeat", "clock": time.perf_counter()},
                    )
            except OSError:
                return

    heartbeat = threading.Thread(
        target=heartbeat_loop, name="repro-worker-heartbeat", daemon=True
    )
    heartbeat.start()
    state: WorkerState | None = None
    try:
        while True:
            msg = recv_frame(conn)
            if msg is None or msg["type"] == "shutdown":
                return
            kind = msg["type"]
            if kind == "hello":
                if msg.get("version") != PROTOCOL_VERSION:
                    with send_lock:
                        send_frame(
                            conn,
                            {
                                "type": "error",
                                "error": (
                                    f"protocol version mismatch: coordinator "
                                    f"{msg.get('version')}, worker {PROTOCOL_VERSION}"
                                ),
                            },
                        )
                    return
                with send_lock:
                    send_frame(
                        conn,
                        {
                            "type": "ready",
                            "version": PROTOCOL_VERSION,
                            "host": platform.node() or "worker",
                            "pid": os.getpid(),
                            "slots": 1,
                            "clock": time.perf_counter(),
                        },
                    )
            elif kind == "workload":
                state = msg["state"]
                with send_lock:
                    send_frame(conn, {"type": "workload-ok"})
            elif kind == "chunk":
                if state is None:
                    raise ConnectionError("chunk frame before the workload frame")
                reply = _execute_remote_chunk(state, msg)
                with send_lock:
                    send_frame(conn, reply)
            else:
                raise ConnectionError(f"unexpected message type {kind!r}")
    finally:
        stop_heartbeat.set()


def _execute_remote_chunk(state: WorkerState, msg: dict[str, Any]) -> dict[str, Any]:
    start, stop = msg["start"], msg["stop"]
    ordinal, attempt = msg["ordinal"], msg["attempt"]
    try:
        payload = execute_chunk(state, start, stop, ordinal, attempt)
    except Exception as exc:  # noqa: BLE001 - forwarded to the coordinator
        return {
            "type": "error",
            "start": start,
            "stop": stop,
            "attempt": attempt,
            "error": f"{type(exc).__name__}: {exc}",
        }
    return {"type": "result", "attempt": attempt, "payload": payload}


def serve_workers(
    count: int,
    bind_host: str = "127.0.0.1",
    base_port: int = 9701,
) -> list[multiprocessing.Process]:
    """Start ``count`` worker daemons on consecutive ports (detached).

    Returns the daemon processes; callers terminate/join them.  The
    CLI's ``serve-workers`` command wraps this with signal handling.
    """
    ctx = multiprocessing.get_context()
    daemons = []
    for i in range(count):
        proc = ctx.Process(
            target=serve_worker,
            args=(f"{bind_host}:{base_port + i}",),
            daemon=True,
        )
        proc.start()
        daemons.append(proc)
    return daemons


@contextmanager
def worker_daemons(
    count: int, bind_host: str = "127.0.0.1"
) -> Iterator[list[str]]:
    """Context manager: ``count`` daemons on ephemeral ports, then cleanup.

    Yields the ``host:port`` specs to hand to
    :class:`DistributedExecutor`; used by tests and the smoke jobs.
    """
    ctx = multiprocessing.get_context()
    ports: Any = ctx.Queue()

    def _serve() -> None:
        serve_worker(
            f"{bind_host}:0", on_bound=lambda h, p: ports.put(p)
        )

    daemons = []
    try:
        for _ in range(count):
            proc = ctx.Process(target=_serve, daemon=True)
            proc.start()
            daemons.append(proc)
        specs = [f"{bind_host}:{ports.get(timeout=10)}" for _ in range(count)]
        yield specs
    finally:
        for proc in daemons:
            if proc.is_alive():
                proc.terminate()
        for proc in daemons:
            proc.join(2.0)


# -- coordinator ------------------------------------------------------

@dataclass
class _Host:
    """Coordinator-side state of one connected worker daemon."""

    label: str
    sock: socket.socket
    clock_offset: float = 0.0
    remote_host: str = ""
    remote_pid: int = 0
    last_seen: float = 0.0
    alive: bool = True
    #: In-flight assignment: ``(chunk, attempt, deadline, since)``.
    current: tuple[tuple[int, int], int, float | None, float] | None = None
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    reader: threading.Thread | None = None


class DistributedExecutor(Executor):
    """Coordinator for ``repro worker`` daemons over TCP.

    Streams chunk specs to remote daemons, rebases each result onto
    the coordinator's clock with :meth:`ChunkPayload.rebased
    <repro.runner.worker.ChunkPayload.rebased>` (which also stamps the
    host label), and reports lost hosts and deadline overruns as
    ordinary chunk events the supervisor can retry elsewhere.
    """

    name: ClassVar[str] = "distributed"
    capabilities: ClassVar[ExecutorCapabilities] = ExecutorCapabilities(
        timeouts=True, kill=False, remote=True
    )

    def __init__(
        self,
        hosts: list[str],
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        steal_after: float | None = STEAL_AFTER_SECONDS,
    ) -> None:
        if not hosts:
            raise ValueError(
                "distributed executor needs at least one worker address "
                "(--hosts host:port,...)"
            )
        self.host_specs = [spec for spec in hosts]
        for spec in self.host_specs:
            parse_host(spec)
        self.connect_timeout = connect_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.steal_after = steal_after
        self.respawns = 0
        self._hosts: dict[str, _Host] = {}
        self._events: queue_mod.Queue[ChunkEvent] = queue_mod.Queue()
        self._lock = threading.Lock()
        self._speculated: set[tuple[int, int]] = set()
        self._event_log: EventLog | None = None

    @classmethod
    def from_options(
        cls, *, hosts: list[str] | None = None, **_: Any
    ) -> "DistributedExecutor":
        return cls(hosts=hosts or [])

    @property
    def parallelism(self) -> int:
        return len(self._hosts) or len(self.host_specs)

    # -- lifecycle ----------------------------------------------------

    def open(self, state: WorkerState, events: EventLog | None = None) -> None:
        self._event_log = events
        workload_msg = {"type": "workload", "state": state}
        errors: list[str] = []
        for spec in self.host_specs:
            try:
                self._hosts[spec] = self._connect(spec, workload_msg)
            except (OSError, ConnectionError, ValueError) as exc:
                errors.append(f"{spec}: {exc}")
                if self._event_log is not None:
                    self._event_log.emit(
                        ev.HOST_UNAVAILABLE, "warning", host=spec, error=str(exc)
                    )
                warnings.warn(
                    f"distributed worker {spec} unavailable: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                if self._event_log is not None:
                    connected = self._hosts[spec]
                    self._event_log.emit(
                        ev.HOST_CONNECTED, "info", host=spec,
                        remote_host=connected.remote_host,
                        remote_pid=connected.remote_pid,
                        clock_offset=round(connected.clock_offset, 6),
                    )
        if not self._hosts:
            raise OSError(
                "no distributed workers reachable: " + "; ".join(errors)
            )
        for host in self._hosts.values():
            host.reader = threading.Thread(
                target=self._reader_loop, args=(host,),
                name=f"repro-coordinator-{host.label}", daemon=True,
            )
            host.reader.start()

    def _connect(self, spec: str, workload_msg: dict[str, Any]) -> _Host:
        addr = parse_host(spec)
        sock = socket.create_connection(addr, timeout=self.connect_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        best_rtt = float("inf")
        for _ in range(CLOCK_SYNC_ROUNDS):
            t_send = time.perf_counter()
            send_frame(sock, {"type": "hello", "version": PROTOCOL_VERSION})
            ready = self._recv_skipping_heartbeats(sock)
            t_recv = time.perf_counter()
            if ready is None or ready.get("type") != "ready":
                detail = (ready or {}).get("error", "no ready frame")
                raise ConnectionError(f"handshake failed: {detail}")
            # midpoint clock sync is good to RTT/2, so keep the fastest
            # round: one slow wake-up on a busy host skews it by ms
            if t_recv - t_send < best_rtt:
                best_rtt = t_recv - t_send
                offset = (t_send + t_recv) / 2.0 - ready["clock"]
        send_frame(sock, workload_msg)
        ack = self._recv_skipping_heartbeats(sock)
        if ack is None or ack.get("type") != "workload-ok":
            raise ConnectionError("worker did not acknowledge the workload")
        sock.settimeout(None)
        return _Host(
            label=spec,
            sock=sock,
            clock_offset=offset,
            remote_host=ready.get("host", ""),
            remote_pid=ready.get("pid", 0),
            last_seen=time.perf_counter(),
        )

    @staticmethod
    def _recv_skipping_heartbeats(sock: socket.socket) -> dict[str, Any] | None:
        # the daemon's heartbeat thread starts at accept, so control
        # replies may be interleaved with heartbeats from frame one
        msg = recv_frame(sock)
        while msg is not None and msg.get("type") == "heartbeat":
            msg = recv_frame(sock)
        return msg

    def shutdown(self) -> None:
        with self._lock:
            hosts = list(self._hosts.values())
            self._hosts = {}
        for host in hosts:
            if host.alive:
                try:
                    with host.send_lock:
                        send_frame(host.sock, {"type": "shutdown"})
                except OSError:
                    pass
            host.alive = False
            try:
                host.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            host.sock.close()
        for host in hosts:
            if host.reader is not None:
                host.reader.join(2.0)

    # -- dispatch -----------------------------------------------------

    def has_capacity(self) -> bool:
        with self._lock:
            return any(h.alive and h.current is None for h in self._hosts.values())

    def submit(
        self, start: int, stop: int, ordinal: int, attempt: int,
        deadline: float | None = None,
    ) -> None:
        with self._lock:
            host = next(
                (h for h in self._hosts.values() if h.alive and h.current is None),
                None,
            )
            if host is not None:
                host.current = (
                    (start, stop), attempt, deadline, time.perf_counter()
                )
        if host is None:
            # the host that had capacity was lost between has_capacity()
            # and submit(); hand the chunk back as a recoverable failure
            self._events.put(
                ChunkEvent(
                    kind="worker-died", chunk=(start, stop), attempt=attempt,
                    error="no live distributed host available",
                )
            )
            return
        self._send_chunk(host, start, stop, ordinal, attempt)

    def _send_chunk(
        self, host: _Host, start: int, stop: int, ordinal: int, attempt: int
    ) -> None:
        try:
            with host.send_lock:
                send_frame(
                    host.sock,
                    {
                        "type": "chunk",
                        "start": start,
                        "stop": stop,
                        "ordinal": ordinal,
                        "attempt": attempt,
                    },
                )
        except OSError as exc:
            self._lose(host, f"send failed: {exc}")

    def collect(self, timeout: float) -> list[ChunkEvent]:
        events: list[ChunkEvent] = []
        try:
            events.append(self._events.get(timeout=timeout))
        except queue_mod.Empty:
            pass
        while True:
            try:
                events.append(self._events.get_nowait())
            except queue_mod.Empty:
                break
        events.extend(self._heal())
        if not events:
            with self._lock:
                any_alive = any(h.alive for h in self._hosts.values())
            if not any_alive:
                # every host is gone with work outstanding: surface as a
                # pool failure so the engine degrades to serial
                raise OSError("all distributed workers lost")
        return events

    def _heal(self) -> list[ChunkEvent]:
        """Heartbeat, deadline and speculative-steal pass."""
        events: list[ChunkEvent] = []
        now = time.perf_counter()
        with self._lock:
            hosts = list(self._hosts.values())
        for host in hosts:
            if not host.alive:
                continue
            if now - host.last_seen > self.heartbeat_timeout:
                self._lose(host, "heartbeat timeout")
                continue
            if host.current is not None:
                chunk, attempt, deadline, _since = host.current
                if deadline is not None and now > deadline:
                    # a remote process cannot be killed; abandon the
                    # session so its late result is discarded
                    with self._lock:
                        host.current = None
                        host.alive = False
                    self._close(host)
                    events.append(
                        ChunkEvent(
                            kind="timeout", chunk=chunk, attempt=attempt,
                            worker=host.label, pid=host.remote_pid,
                            error=(
                                f"chunk exceeded its wall-clock budget on "
                                f"{host.label}; connection dropped"
                            ),
                        )
                    )
        self._maybe_steal(now)
        return events

    def _maybe_steal(self, now: float) -> None:
        """Duplicate a long-in-flight chunk onto an idle host."""
        if self.steal_after is None:
            return
        with self._lock:
            idle = [
                h for h in self._hosts.values() if h.alive and h.current is None
            ]
            busy = [
                h
                for h in self._hosts.values()
                if h.alive
                and h.current is not None
                and now - h.current[3] > self.steal_after
                and h.current[0] not in self._speculated
            ]
            pairs = []
            for thief, victim in zip(idle, busy):
                chunk, attempt, deadline, _since = victim.current
                self._speculated.add(chunk)
                thief.current = (chunk, attempt, deadline, now)
                pairs.append((thief, chunk, attempt))
        for thief, (start, stop), attempt in pairs:
            if self._event_log is not None:
                self._event_log.emit(
                    ev.CHUNK_STOLEN, "warning", chunk=(start, stop),
                    host=thief.label, attempt=attempt,
                )
            # ordinal is only used for fault injection; speculative
            # copies reuse the chunk's start as a stable stand-in
            self._send_chunk(thief, start, stop, start, attempt)

    # -- reader side --------------------------------------------------

    def _reader_loop(self, host: _Host) -> None:
        try:
            while host.alive:
                msg = recv_frame(host.sock)
                if msg is None:
                    raise ConnectionError("connection closed")
                host.last_seen = time.perf_counter()
                kind = msg["type"]
                if kind == "heartbeat":
                    continue
                if kind == "result":
                    self._events.put(self._result_event(host, msg))
                elif kind == "error":
                    chunk = (msg["start"], msg["stop"])
                    with self._lock:
                        if host.current is not None and host.current[0] == chunk:
                            host.current = None
                    self._events.put(
                        ChunkEvent(
                            kind="exception", chunk=chunk,
                            attempt=msg.get("attempt", 0),
                            worker=host.label, pid=host.remote_pid,
                            error=msg.get("error"),
                        )
                    )
        except (ConnectionError, OSError, EOFError, pickle.UnpicklingError) as exc:
            if host.alive:
                self._lose(host, str(exc) or type(exc).__name__)

    def _result_event(self, host: _Host, msg: dict[str, Any]) -> ChunkEvent:
        payload = msg["payload"].rebased(host.clock_offset, host.label)
        chunk = (payload.start, payload.stop)
        with self._lock:
            if host.current is not None and host.current[0] == chunk:
                host.current = None
        return ChunkEvent(
            kind="ok", chunk=chunk, attempt=msg.get("attempt", 0),
            payload=payload, worker=host.label, pid=payload.pid,
        )

    def _lose(self, host: _Host, reason: str) -> None:
        """Declare a host dead and resurface its in-flight chunk."""
        with self._lock:
            if not host.alive:
                return
            host.alive = False
            current = host.current
            host.current = None
        self._close(host)
        if self._event_log is not None:
            self._event_log.emit(
                ev.HOST_LOST, "error", host=host.label,
                pid=host.remote_pid, reason=reason,
            )
        if current is not None:
            chunk, attempt, _deadline, _since = current
            self._events.put(
                ChunkEvent(
                    kind="worker-died", chunk=chunk, attempt=attempt,
                    worker=host.label, pid=host.remote_pid,
                    error=f"worker {host.label} lost: {reason}",
                )
            )

    def _close(self, host: _Host) -> None:
        try:
            host.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            host.sock.close()
        except OSError:
            pass
