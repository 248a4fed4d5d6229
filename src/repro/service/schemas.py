"""Job-spec validation: the JSON contract of the ``repro serve`` API.

``POST /jobs`` accepts one JSON document describing either a single
engine run or a whole sweep.  This module is the boundary where that
document is validated *eagerly and completely* -- unknown keys, unknown
kernels, bad engine knobs and malformed priorities all become one
:class:`JobSpecError` with a message that names the valid choices, so a
client typo is a 400 with an explanation rather than a failed job
half an hour into the queue.

The normalized :class:`JobSpec` also owns the job's **identity**:
:meth:`JobSpec.digest` keys the job on the same
:func:`repro.runner.cache.config_digest` hashing authority the
workload cache, ``run --resume`` checkpoints and sweep cells use --
"same submitted configuration" and "same cached workload" can never
disagree, which is what makes result-store dedup sound.

The request shapes (also documented in ``docs/service.md``)::

    {"type": "run", "kernel": "grm", "size": "small",
     "config": {"jobs": 2, "chunk_size": 8}, "priority": 5}

    {"type": "sweep", "spec": {"kernels": ["grm"],
     "axes": {"jobs": [1, 2]}}, "priority": 0}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.datasets import coerce_size
from repro.core.registry import get_kernel, kernel_names
from repro.runner.cache import config_digest
from repro.runner.config import WIRE_KNOBS, RunConfig

#: Valid ``type`` values for a submitted job.
JOB_TYPES = ("run", "sweep")

#: Engine knobs a run job may set in ``config``: the wire-safe
#: :class:`~repro.runner.config.RunConfig` fields (no live objects, no
#: fault injection, and no ``hosts``: the coordinator unpickles whatever
#: the hosts it dials send back).
RUN_CONFIG_KEYS = WIRE_KNOBS

#: Top-level keys of a ``POST /jobs`` document.
_RUN_KEYS = {"type", "kernel", "size", "config", "priority"}
_SWEEP_KEYS = {"type", "spec", "priority"}

#: Synthetic suite label sweeps use in the result-store key (a sweep is
#: not one kernel, but it still needs a ``(suite, digest)`` identity).
SWEEP_SUITE = "sweep"


class JobSpecError(ValueError):
    """A submitted job document is invalid (HTTP 400)."""


def _fail(message: str) -> None:
    raise JobSpecError(message)


@dataclass(frozen=True)
class JobSpec:
    """One validated job submission.

    ``kind`` is ``"run"`` or ``"sweep"``.  For runs, ``kernel``/
    ``size``/``config`` mirror :func:`repro.api.run`; for sweeps,
    ``sweep_spec`` is the normalized :class:`repro.sweep.SweepSpec`
    document.  ``priority`` orders the queue (higher runs first;
    equal priorities are FIFO).
    """

    kind: str
    kernel: str | None = None
    size: str = "small"
    config: dict[str, Any] = field(default_factory=dict)
    sweep_spec: dict[str, Any] | None = None
    priority: int = 0

    @property
    def suite(self) -> str:
        """The suite label used in the result-store key."""
        return self.kernel if self.kind == "run" else SWEEP_SUITE

    def digest(self) -> str:
        """The job's config digest -- the shared hashing authority.

        Run jobs hash exactly like a sweep cell with the same
        ``(kernel, size, config)``; sweep jobs hash their canonical
        spec document (sorted-key JSON) so field order never splits
        identical sweeps.
        """
        if self.kind == "run":
            assert self.kernel is not None
            return config_digest(self.kernel, self.size, self.config or None)
        canon = json.dumps(self.sweep_spec, sort_keys=True)
        return config_digest(SWEEP_SUITE, self.size, {"spec": canon})

    def summary(self) -> str:
        """One short human label (job listings, event data)."""
        if self.kind == "run":
            knobs = ",".join(f"{k}={v}" for k, v in sorted(self.config.items()))
            return f"{self.kernel}/{self.size}" + (f" [{knobs}]" if knobs else "")
        kernels = ",".join(self.sweep_spec.get("kernels", []))
        return f"sweep[{kernels}]/{self.size}"

    def as_dict(self) -> dict[str, Any]:
        """The spec as submitted (JSON-ready, normalized)."""
        if self.kind == "run":
            return {
                "type": "run",
                "kernel": self.kernel,
                "size": self.size,
                "config": dict(self.config),
                "priority": self.priority,
            }
        return {
            "type": "sweep",
            "spec": self.sweep_spec,
            "priority": self.priority,
        }


def _parse_priority(doc: dict[str, Any]) -> int:
    priority = doc.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        _fail(f"priority must be an integer, got {priority!r}")
    return priority


def _parse_config(raw: Any, where: str = "config") -> dict[str, Any]:
    """Check engine keywords from the wire (a run's ``config`` or a
    sweep's ``base``) as a :class:`RunConfig`; ``where`` names them in
    errors.  The submitted mapping is returned as is: it is the job's
    identity (:meth:`JobSpec.digest`)."""
    if raw is None:
        return {}
    try:
        RunConfig.from_dict(raw, where)
    except ValueError as exc:
        _fail(str(exc))
    return dict(raw)


def parse_job_spec(doc: Any) -> JobSpec:
    """Validate one ``POST /jobs`` document into a :class:`JobSpec`.

    Raises :class:`JobSpecError` (the server maps it to HTTP 400) with
    a message naming the offending field and the valid choices.
    """
    if not isinstance(doc, dict):
        _fail(f"job must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("type", "run")
    if kind not in JOB_TYPES:
        _fail(f"unknown job type {kind!r}; valid types: {', '.join(JOB_TYPES)}")

    if kind == "sweep":
        unknown = set(doc) - _SWEEP_KEYS
        if unknown:
            _fail(
                f"unknown sweep job keys: {', '.join(sorted(unknown))}; "
                f"valid keys: {', '.join(sorted(_SWEEP_KEYS))}"
            )
        raw = doc.get("spec")
        if not isinstance(raw, dict):
            _fail("sweep jobs need a 'spec' object (see docs/sweeps.md)")
        from repro.sweep import SweepSpec

        try:
            spec = SweepSpec.from_dict(raw)
            sweep_spec = spec.to_dict()
        except (ValueError, TypeError, KeyError) as exc:
            _fail(f"invalid sweep spec: {exc}")
        # SweepSpec checked every cell's knobs; the wire also refuses hosts
        _parse_config(spec.base, "spec.base")
        return JobSpec(
            kind="sweep",
            size=spec.size,
            sweep_spec=sweep_spec,
            priority=_parse_priority(doc),
        )

    unknown = set(doc) - _RUN_KEYS
    if unknown:
        _fail(
            f"unknown run job keys: {', '.join(sorted(unknown))}; "
            f"valid keys: {', '.join(sorted(_RUN_KEYS))}"
        )
    kernel = doc.get("kernel")
    if not isinstance(kernel, str) or not kernel:
        _fail(f"run jobs need a 'kernel' name; valid kernels: {', '.join(kernel_names())}")
    try:
        get_kernel(kernel)
    except KeyError as exc:
        _fail(str(exc.args[0]) if exc.args else f"unknown kernel {kernel!r}")
    try:
        size = coerce_size(doc.get("size", "small")).value
    except ValueError as exc:
        _fail(str(exc))
    return JobSpec(
        kind="run",
        kernel=kernel,
        size=size,
        config=_parse_config(doc.get("config")),
        priority=_parse_priority(doc),
    )
