"""The engine's knobs, declared and checked in one place.

:class:`RunConfig` declares every value-typed knob of
:class:`~repro.runner.engine.ParallelRunner`.  The engine, the
:mod:`repro.api` facade, the CLI, ``repro serve`` admission and
:class:`~repro.sweep.SweepSpec` each build one, so a bad value fails with
the same message everywhere, before any workload is prepared.  Live
objects (the workload cache, tracer and event log) are not knobs.

Fields marked ``wire`` in their metadata name no live object, inject no
fault and make the coordinator dial no host, so an untrusted document may
set them.  :data:`WIRE_KNOBS` lists them: the ``repro serve`` config
allow-list and, with ``size``, the sweep axes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from typing import Any, Sequence

from repro.obs.profile import DEFAULT_HZ
from repro.obs.telemetry import DEFAULT_INTERVAL
from repro.runner import executors
from repro.runner.faults import FaultPlan

#: ``on_failure`` policies for chunks that exhaust their retry budget.
ON_FAILURE_CHOICES = ("fail", "quarantine", "serial")

#: Field metadata of the knobs an untrusted document may set.
_WIRE = {"wire": True}


def _check_int(name: str, value: Any, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _check_positive(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    # NaN fails both comparisons; the upper bound keeps ``now + timeout`` a float
    if not 0 < value <= sys.float_info.max:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Every value-typed knob of one engine run, checked on construction.

    A bad value raises :class:`ValueError` whose message starts with the
    field name and names the valid range or choices.
    """

    #: Worker processes.  ``1`` with the default backend runs the whole
    #: workload in-process as one chunk (no pool, no IPC; ``chunk_size``
    #: is ignored).
    jobs: int = field(default=1, metadata=_WIRE)
    #: Tasks per dynamically scheduled chunk, at least 1; ``None`` means
    #: :func:`~repro.runner.engine.default_chunk_size`.
    chunk_size: int | None = field(default=None, metadata=_WIRE)
    #: Which execution backend dispatches chunks: a registered name
    #: (``"local"``, ``"serial"``, ``"distributed"`` or a third-party
    #: registration), or ``None`` for the default supervised local pool.
    executor: str | None = field(default=None, metadata=_WIRE)
    #: Per-chunk re-dispatch budget after a failure (exception, timeout
    #: or worker death), at least 0.  The default ``0`` fails like a
    #: pre-fault-tolerance engine would.
    retries: int = field(default=0, metadata=_WIRE)
    #: Per-chunk wall-clock budget in seconds, finite and > 0; a worker
    #: exceeding it is terminated and its chunk retried.  Enforced only
    #: by backends whose ``capabilities.timeouts`` holds.  ``None``
    #: disables.
    timeout: float | None = field(default=None, metadata=_WIRE)
    #: Policy for chunks that exhaust their retry budget: ``"fail"``
    #: raises :class:`~repro.runner.supervisor.ChunkFailedError`,
    #: ``"quarantine"`` drops the chunk and reports the gap in the run
    #: record, ``"serial"`` re-executes it in the parent process.
    on_failure: str = field(default="fail", metadata=_WIRE)
    #: ``host:port`` worker-daemon addresses.  A backend whose
    #: ``capabilities.remote`` holds needs them; local backends ignore
    #: them.  Never taken from the wire: the coordinator unpickles
    #: whatever the hosts it dials send back.
    hosts: Sequence[str] | None = None
    #: Time an in-process serial execution before the sharded one and
    #: record ``speedup_vs_serial``; off by default, as it runs the kernel twice.
    measure_serial: bool = False
    #: Injected failures for chaos testing (``None`` = no injection).
    fault_plan: FaultPlan | None = None
    #: With a cache attached, checkpoint each completed chunk result
    #: and, on a later run of the same workload geometry, skip chunks
    #: already checkpointed.  The checkpoint clears once a run completes
    #: without quarantined chunks.
    resume: bool = False
    #: Collect per-category dynamic op counts on in-process runs and
    #: publish them as ``ops.*`` counters.  Ignored when chunks run in
    #: other processes (their counts never come back).
    instrument: bool = False
    #: Run the statistical sampling profiler around the prepare, execute
    #: and merge phases (in each worker on the parallel path); folded
    #: stacks and a hotspot table land in the record.
    profile: bool = False
    #: Profiler sampling rate in Hz, finite and > 0.
    profile_hz: float = DEFAULT_HZ
    #: Sample per-worker CPU/RSS/context switches from ``/proc`` during
    #: execution (a graceful no-op off-Linux).
    telemetry: bool = False
    #: Telemetry sampling interval in seconds, finite and > 0.
    telemetry_interval: float = DEFAULT_INTERVAL

    def __post_init__(self) -> None:
        _check_int("jobs", self.jobs, 1)
        if self.chunk_size is not None:
            _check_int("chunk_size", self.chunk_size, 1)
        _check_int("retries", self.retries, 0)
        if not isinstance(self.measure_serial, bool):
            raise ValueError(f"measure_serial must be a boolean, got {self.measure_serial!r}")
        if self.timeout is not None:
            _check_positive("timeout", self.timeout)
        _check_positive("profile_hz", self.profile_hz)
        _check_positive("telemetry_interval", self.telemetry_interval)
        if self.on_failure not in ON_FAILURE_CHOICES:
            raise ValueError(
                f"on_failure must be one of {', '.join(ON_FAILURE_CHOICES)}, "
                f"got {self.on_failure!r}"
            )
        self._check_backend()

    def _check_backend(self) -> None:
        names = executors.names()
        if self.executor is not None and self.executor not in names:
            raise ValueError(f"executor must be one of {', '.join(names)}, got {self.executor!r}")
        if self.hosts is not None:
            from repro.runner.distributed import parse_host

            if not isinstance(self.hosts, (list, tuple)) or not all(
                isinstance(host, str) for host in self.hosts
            ):
                raise ValueError(f"hosts must be a list of host:port strings, got {self.hosts!r}")
            for host in self.hosts:
                try:
                    parse_host(host)
                except ValueError as exc:
                    raise ValueError(f"hosts: {exc}") from None
        if not self.hosts and executors.get(self.executor or "local").capabilities.remote:
            raise ValueError(
                f"executor {self.executor!r} runs chunks on remote hosts and needs "
                "hosts: host:port worker-daemon addresses"
            )

    @classmethod
    def from_dict(
        cls, doc: Any, where: str = "config", allowed: Sequence[str] | None = None
    ) -> "RunConfig":
        """A config from a JSON-shaped mapping of knobs.

        Keys outside ``allowed`` (default :data:`WIRE_KNOBS`) are
        refused, naming every valid one.  ``where`` locates the mapping
        in every error: ``config.jobs must be at least 1, got 0``.
        """
        allowed = WIRE_KNOBS if allowed is None else allowed
        if not isinstance(doc, dict):
            raise ValueError(f"{where} must be an object, got {type(doc).__name__}")
        unknown = set(doc) - set(allowed)
        if unknown:
            raise ValueError(
                f"unknown {where} keys: {', '.join(sorted(map(str, unknown)))}; "
                f"valid keys: {', '.join(allowed)}"
            )
        try:
            return cls(**doc)
        except ValueError as exc:
            raise ValueError(f"{where}.{exc}") from None

    def fault_tolerance(self) -> dict[str, Any]:
        """The recovery configuration, as the run record stores it."""
        return {
            "timeout": self.timeout,
            "retries": self.retries,
            "on_failure": self.on_failure,
            "resume": self.resume,
            "fault_plan": self.fault_plan.describe() if self.fault_plan else None,
        }


#: The knobs an untrusted document may set, in declaration order.
WIRE_KNOBS = tuple(f.name for f in fields(RunConfig) if f.metadata.get("wire"))
