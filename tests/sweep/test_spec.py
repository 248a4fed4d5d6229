"""Tests for sweep specifications: grid parsing, spec files, cells."""

import json

import pytest

from repro.runner.cache import config_digest
from repro.sweep import (
    DEFAULT_AXES,
    ENGINE_AXES,
    SweepSpec,
    load_spec_file,
    make_cell,
    parse_grid,
)
from repro.sweep.spec import cells_by_id, coerce_value


class TestParseGrid:
    def test_parses_axes_and_coerces_values(self):
        axes = parse_grid(["jobs=1,2,4", "chunk_size=8,16", "timeout=0.5"])
        assert axes == {
            "jobs": [1, 2, 4],
            "chunk_size": [8, 16],
            "timeout": [0.5],
        }

    def test_string_values_survive(self):
        assert parse_grid(["executor=local,serial"]) == {
            "executor": ["local", "serial"]
        }

    def test_unknown_axis_is_an_error(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            parse_grid(["jbos=1,2"])

    def test_repeated_axis_is_an_error(self):
        with pytest.raises(ValueError, match="given twice"):
            parse_grid(["jobs=1", "jobs=2"])

    def test_empty_values_are_an_error(self):
        with pytest.raises(ValueError, match="no values"):
            parse_grid(["jobs=,,"])

    def test_missing_equals_is_an_error(self):
        with pytest.raises(ValueError, match="bad grid token"):
            parse_grid(["jobs"])

    def test_coerce_value(self):
        assert coerce_value("4") == 4 and isinstance(coerce_value("4"), int)
        assert coerce_value("0.5") == 0.5
        assert coerce_value("local") == "local"
        assert coerce_value(7) == 7


class TestSweepSpec:
    def test_defaults_cover_every_kernel_with_default_axes(self):
        from repro.core.registry import kernel_names

        spec = SweepSpec()
        assert spec.kernels == kernel_names()
        assert spec.axes == DEFAULT_AXES
        assert spec.size == "small"

    def test_unknown_kernel_fails_eagerly(self):
        with pytest.raises(KeyError, match="valid kernels"):
            SweepSpec(kernels=["nope"])

    def test_unknown_axis_fails_eagerly(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            SweepSpec(kernels=["grm"], axes={"jbos": [1]})
        assert "jbos" not in ENGINE_AXES

    def test_empty_axis_values_fail(self):
        with pytest.raises(ValueError, match="non-empty value list"):
            SweepSpec(kernels=["grm"], axes={"jobs": []})

    def test_max_cells_must_be_positive(self):
        with pytest.raises(ValueError, match="max_cells"):
            SweepSpec(kernels=["grm"], max_cells=0)

    def test_per_kernel_overrides_replace_the_axis(self):
        spec = SweepSpec(
            kernels=["grm", "kmer-cnt"],
            axes={"jobs": [1, 2], "chunk_size": [8]},
            per_kernel={"grm": {"jobs": [4]}},
        )
        assert spec.axes_for("grm") == {"jobs": [4], "chunk_size": [8]}
        assert spec.axes_for("kmer-cnt") == {"jobs": [1, 2], "chunk_size": [8]}

    def test_round_trips_through_dict(self):
        spec = SweepSpec(
            kernels=["grm"],
            axes={"jobs": [1, 2]},
            filters=["jobs <= 2"],
            max_cells=3,
            base={"executor": "serial"},
        )
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown sweep spec keys"):
            SweepSpec.from_dict({"kernels": ["grm"], "cells": 4})


class TestSpecFiles:
    def test_json_spec(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps(
                {
                    "kernels": ["grm", "chain"],
                    "axes": {"jobs": [1, 2], "chunk_size": [8, 16]},
                    "filters": ["jobs * chunk_size <= 32"],
                    "max_cells": 6,
                }
            )
        )
        spec = load_spec_file(path)
        assert spec.kernels == ["grm", "chain"]
        assert spec.axes == {"jobs": [1, 2], "chunk_size": [8, 16]}
        assert spec.filters == ["jobs * chunk_size <= 32"]
        assert spec.max_cells == 6

    def test_toml_spec_with_per_kernel_tables(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "sweep.toml"
        path.write_text(
            "size = 'small'\n"
            "[axes]\njobs = [1, 2]\n"
            "[kernels.grm.axes]\njobs = [4]\n"
            "[kernels.chain]\n"
        )
        spec = load_spec_file(path)
        assert spec.kernels == ["chain", "grm"]
        assert spec.axes_for("grm") == {"jobs": [4]}
        assert spec.axes_for("chain") == {"jobs": [1, 2]}

    def test_non_mapping_spec_is_an_error(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="must be a mapping"):
            load_spec_file(path)


class TestSweepCell:
    def test_cell_id_shares_the_workload_cache_digest(self):
        cell = make_cell("grm", "small", {"jobs": 2, "chunk_size": 8})
        digest = config_digest("grm", "small", {"jobs": 2, "chunk_size": 8})
        assert cell.cell_id == f"grm-small-{digest}"

    def test_cell_id_ignores_axis_declaration_order(self):
        a = make_cell("grm", "small", {"jobs": 2, "chunk_size": 8})
        b = make_cell("grm", "small", {"chunk_size": 8, "jobs": 2})
        assert a == b and a.cell_id == b.cell_id

    def test_swept_size_overrides_the_spec_size(self):
        cell = make_cell("grm", "small", {"size": "large", "jobs": 1})
        assert cell.size == "large"
        assert "size" not in cell.run_kwargs()
        assert cell.run_kwargs() == {"jobs": 1}

    def test_base_keywords_merge_under_the_assignment(self):
        cell = make_cell("grm", "small", {"jobs": 2}, base={"executor": "serial"})
        assert cell.config_dict == {"executor": "serial", "jobs": 2}

    def test_label_is_human_readable(self):
        cell = make_cell("grm", "small", {"jobs": 2, "chunk_size": 8})
        assert cell.label == "grm/small chunk_size=8 jobs=2"

    def test_cells_by_id_rejects_duplicates(self):
        cell = make_cell("grm", "small", {"jobs": 1})
        with pytest.raises(ValueError, match="duplicate sweep cell"):
            cells_by_id([cell, cell])


class TestEngineValues:
    @pytest.mark.parametrize(
        "axes, message",
        [
            ({"jobs": [1, 0]}, "spec.axes.jobs must be at least 1, got 0"),
            ({"chunk_size": [0]}, "spec.axes.chunk_size must be at least 1"),
            ({"retries": [-1]}, "spec.axes.retries must be at least 0"),
            ({"timeout": ["nan"]}, "spec.axes.timeout must be finite and > 0"),
            ({"timeout": [True]}, "spec.axes.timeout must be a number"),
            ({"executor": ["warp-drive"]}, "spec.axes.executor must be one of"),
            ({"executor": ["distributed"]}, "spec.axes.executor 'distributed'"),
            ({"on_failure": ["explode"]}, "spec.axes.on_failure must be one of"),
            ({"size": ["galactic"]}, "unknown dataset size"),
        ],
    )
    def test_bad_axis_values_fail_when_the_spec_is_built(self, axes, message):
        with pytest.raises(ValueError, match=message):
            SweepSpec(kernels=["grm"], axes=axes)
        with pytest.raises(ValueError, match=message):
            SweepSpec(kernels=["grm"], per_kernel={"grm": axes})

    def test_bad_base_values_fail_when_the_spec_is_built(self):
        with pytest.raises(ValueError, match="spec.base.jobs must be at least 1"):
            SweepSpec(kernels=["grm"], base={"jobs": 0})
        with pytest.raises(ValueError, match="spec.base.hosts"):
            SweepSpec(kernels=["grm"], base={"executor": "distributed", "hosts": ["no-port"]})

    def test_unknown_base_key_names_the_valid_keys(self):
        with pytest.raises(ValueError, match="unknown spec.base keys: frobnicate") as info:
            SweepSpec(kernels=["grm"], base={"frobnicate": 1})
        valid = "valid keys: jobs, chunk_size, executor, retries, timeout, on_failure, hosts"
        assert valid in str(info.value)

    def test_spec_file_base_with_unknown_key_is_refused(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "sweep.toml"
        path.write_text("kernels = ['grm']\n[base]\nfrobnicate = 1\n")
        with pytest.raises(ValueError, match="unknown spec.base keys: frobnicate; valid keys"):
            load_spec_file(path)

    def test_base_may_name_hosts_for_a_remote_executor_axis(self):
        spec = SweepSpec(
            kernels=["grm"],
            axes={"executor": ["local", "distributed"]},
            base={"hosts": ["127.0.0.1:9701"]},
        )
        assert spec.base == {"hosts": ["127.0.0.1:9701"]}
