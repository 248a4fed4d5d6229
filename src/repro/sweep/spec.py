"""Declarative sweep specifications: what configuration space to cover.

A sweep is a grid over engine knobs -- jobs, chunk size, dataset size,
executor, retry budget -- crossed with a set of kernels.  The spec
layer turns two input surfaces into one normalized value:

* CLI tokens: ``--grid jobs=1,2,4 chunk_size=8,16`` (each token is one
  axis, comma-separated values, coerced to int/float when they parse);
* a TOML or JSON sweep file with global axes, per-kernel axis
  overrides, filters and a cell budget (see ``docs/sweeps.md``).

Both land in a :class:`SweepSpec`; :mod:`repro.sweep.expand` turns the
spec into concrete :class:`SweepCell` values.  Every cell knows its
``cell_id`` -- the :func:`repro.runner.cache.config_digest` over its
``(kernel, size, config)`` -- which is the dedup/resume key shared
with the workload cache and shard checkpoints: two cells with equal
configurations collide by construction, two differing cells never do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.core.datasets import DatasetSize, coerce_size
from repro.core.registry import get_kernel, kernel_names
from repro.runner.cache import config_digest
from repro.runner.config import WIRE_KNOBS, RunConfig

#: Axis names a sweep may vary: the dataset size plus the wire knobs.
ENGINE_AXES = ("size", *WIRE_KNOBS)

#: Keys a spec's ``base`` may fix: the wire knobs plus the CLI's ``--hosts``.
BASE_KEYS = (*WIRE_KNOBS, "hosts")

#: Default axes when neither ``--grid`` nor a spec file names any.
DEFAULT_AXES: dict[str, list[Any]] = {"jobs": [1, 2]}


def coerce_value(text: str) -> Any:
    """An axis value from CLI/JSON text: int, then float, else string."""
    if isinstance(text, (int, float)):
        return text
    for cast in (int, float):
        try:
            return cast(text)
        except (TypeError, ValueError):
            continue
    return text


def parse_grid(tokens: Sequence[str]) -> dict[str, list[Any]]:
    """``--grid`` tokens (``axis=v1,v2,...``) as an axes mapping.

    Unknown axis names, empty value lists and repeated axes are usage
    errors -- a typo should fail before any cell runs.
    """
    axes: dict[str, list[Any]] = {}
    for token in tokens:
        name, sep, values_text = token.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(
                f"bad grid token {token!r}; expected axis=value[,value...]"
            )
        if name not in ENGINE_AXES:
            raise ValueError(
                f"unknown sweep axis {name!r}; valid axes: {', '.join(ENGINE_AXES)}"
            )
        if name in axes:
            raise ValueError(f"axis {name!r} given twice")
        values = [coerce_value(v.strip()) for v in values_text.split(",") if v.strip()]
        if not values:
            raise ValueError(f"axis {name!r} has no values")
        axes[name] = values
    return axes


def _validate_axes(axes: dict[str, Any], where: str) -> dict[str, list[Any]]:
    out: dict[str, list[Any]] = {}
    for name, values in axes.items():
        if name not in ENGINE_AXES:
            raise ValueError(
                f"{where}: unknown sweep axis {name!r}; "
                f"valid axes: {', '.join(ENGINE_AXES)}"
            )
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"{where}: axis {name!r} needs a non-empty value list")
        out[name] = [coerce_value(v) for v in values]
    return out


def _expect(
    value: Any, kind: type | tuple[type, ...], name: str, what: str, item: type | None = None
) -> None:
    """Raise :class:`ValueError` unless ``value`` is a ``kind`` whose items
    (values, for a mapping) are all ``item``s."""
    items = value.values() if isinstance(value, dict) else value
    if not isinstance(value, kind) or (item and not all(isinstance(v, item) for v in items)):
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass
class SweepSpec:
    """One normalized sweep definition.

    ``axes`` apply to every kernel; ``per_kernel`` overrides whole axes
    for individual kernels (the override replaces that axis's value
    list, it does not extend it).  ``filters`` are boolean expressions
    over axis names plus ``kernel``/``size`` evaluated per cell;
    ``max_cells`` truncates the expanded list deterministically after
    filtering.  ``base`` holds fixed engine keywords every cell shares
    (e.g. an executor name that is not swept).  ``base``, and every
    axis value merged onto it, must build a :class:`RunConfig`.
    """

    kernels: list[str] = field(default_factory=kernel_names)
    size: str = DatasetSize.SMALL.value
    axes: dict[str, list[Any]] = field(default_factory=lambda: dict(DEFAULT_AXES))
    per_kernel: dict[str, dict[str, list[Any]]] = field(default_factory=dict)
    filters: list[str] = field(default_factory=list)
    max_cells: int | None = None
    base: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.sweep.expand import compile_filter

        _expect(self.kernels, (list, tuple), "kernels", "a list of kernel names", str)
        for name in self.kernels:
            get_kernel(name)  # unknown kernels fail here, listing the registry
        self.size = coerce_size(self.size).value
        _expect(self.axes, dict, "axes", "an object of axis value lists")
        self.axes = _validate_axes(self.axes, "axes")
        _expect(self.per_kernel, dict, "per_kernel", "an object of per-kernel axes", dict)
        self.per_kernel = {
            kernel: _validate_axes(overrides, f"kernels.{kernel}.axes")
            for kernel, overrides in self.per_kernel.items()
        }
        for kernel in self.per_kernel:
            get_kernel(kernel)
        _expect(self.filters, (list, tuple), "filters", "a list of expressions", str)
        for expr in self.filters:
            compile_filter(expr)  # a bad filter fails here, before any cell runs
        if self.max_cells is not None:
            if isinstance(self.max_cells, bool) or not isinstance(self.max_cells, int):
                raise ValueError(f"max_cells must be an integer, got {self.max_cells!r}")
            if self.max_cells < 1:
                raise ValueError("max_cells must be at least 1")
        _expect(self.base, dict, "base", "an object of engine keywords")
        RunConfig.from_dict(self.base, "spec.base", BASE_KEYS)
        for axes in (self.axes, *self.per_kernel.values()):
            for axis, values in axes.items():
                for value in values:
                    if axis == "size":
                        coerce_size(value)
                    else:
                        RunConfig.from_dict({**self.base, axis: value}, "spec.axes", BASE_KEYS)

    def axes_for(self, kernel: str) -> dict[str, list[Any]]:
        """The kernel's effective axes (global axes + per-kernel overrides)."""
        merged = dict(self.axes)
        merged.update(self.per_kernel.get(kernel, {}))
        return merged

    def to_dict(self) -> dict[str, Any]:
        return {
            "kernels": list(self.kernels),
            "size": self.size,
            "axes": {k: list(v) for k, v in self.axes.items()},
            "per_kernel": {
                kernel: {k: list(v) for k, v in overrides.items()}
                for kernel, overrides in self.per_kernel.items()
            },
            "filters": list(self.filters),
            "max_cells": self.max_cells,
            "base": dict(self.base),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "SweepSpec":
        known = {
            "kernels", "size", "axes", "per_kernel", "filters", "max_cells", "base",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown sweep spec keys: {', '.join(sorted(unknown))}; "
                f"valid keys: {', '.join(sorted(known))}"
            )
        kwargs = dict(doc)
        if "kernels" not in kwargs or not kwargs["kernels"]:
            kwargs["kernels"] = kernel_names()
        return cls(**kwargs)


def load_spec_file(path: Path | str) -> SweepSpec:
    """A :class:`SweepSpec` from a TOML or JSON sweep file.

    The format is chosen by suffix (``.toml`` vs anything else =
    JSON).  TOML needs Python 3.11+ (:mod:`tomllib`); on older
    interpreters use the JSON form, which is structurally identical.
    The file layout nests per-kernel overrides as
    ``[kernels.<name>.axes]`` tables; everything else sits at the top
    level (``kernels``, ``size``, ``axes``, ``filters``, ``max_cells``,
    ``base``).
    """
    path = Path(path)
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - 3.10 fallback path
            raise ValueError(
                f"{path}: TOML sweep files need Python 3.11+ (tomllib); "
                "use the JSON spec format instead"
            ) from None
        with path.open("rb") as fh:
            doc = tomllib.load(fh)
    else:
        doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: sweep spec must be a mapping")
    # [kernels.<name>.axes] tables arrive as {"kernels": {name: {"axes": ...}}}
    # when the kernel list itself was given as ``kernels = [...]`` the
    # value is already a list and there are no overrides to lift.
    per_kernel = doc.pop("per_kernel", {})
    kernels = doc.get("kernels")
    if isinstance(kernels, dict):
        doc["kernels"] = sorted(kernels)
        for kernel, table in kernels.items():
            overrides = (table or {}).get("axes")
            if overrides:
                per_kernel.setdefault(kernel, overrides)
    doc["per_kernel"] = per_kernel
    return SweepSpec.from_dict(doc)


@dataclass(frozen=True)
class SweepCell:
    """One concrete configuration of the sweep grid.

    ``config`` holds the axis assignment (plus the spec's fixed
    ``base`` keywords) that :mod:`repro.sweep.drive` forwards to
    ``repro.api.run``.  ``cell_id`` is the sweep's resume/dedup key:
    the shared config digest of ``(kernel, size, config)``, embedded in
    a filename-safe slug.
    """

    kernel: str
    size: str
    config: tuple[tuple[str, Any], ...]

    @property
    def config_dict(self) -> dict[str, Any]:
        return dict(self.config)

    @property
    def cell_id(self) -> str:
        digest = config_digest(self.kernel, self.size, self.config_dict)
        return f"{self.kernel}-{self.size}-{digest}"

    @property
    def label(self) -> str:
        """Human-readable one-liner: ``kmer-cnt/small jobs=2 chunk_size=8``."""
        knobs = " ".join(f"{k}={v}" for k, v in self.config)
        return f"{self.kernel}/{self.size}" + (f" {knobs}" if knobs else "")

    def run_kwargs(self) -> dict[str, Any]:
        """Keyword arguments for ``repro.api.run`` (size handled apart)."""
        return {k: v for k, v in self.config if k != "size"}

    def to_dict(self) -> dict[str, Any]:
        return {
            "cell_id": self.cell_id,
            "kernel": self.kernel,
            "size": self.size,
            "config": self.config_dict,
        }


def make_cell(
    kernel: str,
    size: str,
    assignment: dict[str, Any],
    base: dict[str, Any] | None = None,
) -> SweepCell:
    """Build a cell from an axis assignment plus fixed base keywords.

    A swept ``size`` axis overrides the spec-level size; everything is
    stored key-sorted so equal configurations hash identically no
    matter the axis declaration order.
    """
    config: dict[str, Any] = dict(base or {})
    config.update(assignment)
    cell_size = coerce_size(config.pop("size", size)).value
    return SweepCell(
        kernel=kernel,
        size=cell_size,
        config=tuple(sorted(config.items())),
    )


def cells_by_id(cells: Iterable[SweepCell]) -> dict[str, SweepCell]:
    """Index cells by ``cell_id`` (duplicates are an error)."""
    out: dict[str, SweepCell] = {}
    for cell in cells:
        if cell.cell_id in out:
            raise ValueError(f"duplicate sweep cell {cell.label}")
        out[cell.cell_id] = cell
    return out
