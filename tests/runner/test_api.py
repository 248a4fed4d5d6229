"""Tests for the stable :mod:`repro.api` facade."""

import pytest

import repro
import repro.api as api
from repro.obs.history import BenchHistory
from repro.obs.trace import Tracer
from repro.runner.engine import EngineRun


class TestRun:
    def test_returns_engine_run(self):
        run = api.run("grm", "small")
        assert isinstance(run, EngineRun)
        assert run.record.kernel == "grm"
        assert run.record.size == "small"

    def test_exported_at_top_level(self):
        assert repro.run is api.run
        assert repro.bench_record is api.bench_record
        assert repro.render_report is api.render_report
        assert repro.ObsOptions is api.ObsOptions
        assert repro.EngineRun is EngineRun

    def test_accepts_dataset_size_enum(self):
        from repro.core import DatasetSize

        run = api.run("grm", DatasetSize.SMALL)
        assert run.record.size == "small"

    def test_unknown_kernel_lists_valid_names(self):
        with pytest.raises(KeyError, match="grm"):
            api.run("nonexistent-kernel")

    def test_unknown_size_lists_valid_sizes(self):
        with pytest.raises(ValueError, match="small"):
            api.run("grm", "gigantic")

    def test_unknown_executor_lists_backends(self):
        with pytest.raises(ValueError, match="local"):
            api.run("grm", "small", executor="warp-drive", jobs=2)

    def test_serial_executor_by_name(self):
        run = api.run("grm", "small", executor="serial", jobs=2)
        assert run.record.executor == "serial"
        assert run.record.jobs == 1  # serial backend runs one chunk at a time
        assert not run.record.hosts

    def test_obs_options_tracer_passthrough(self):
        tracer = Tracer()
        api.run("grm", "small", obs=api.ObsOptions(tracer=tracer))
        assert tracer.find("engine.prepare")
        assert tracer.find("engine.execute")


class TestBenchRecord:
    def test_appends_to_history(self, tmp_path):
        history = tmp_path / "history.jsonl"
        records = api.bench_record(["grm"], "small", history=history)
        assert len(records) == 1
        assert records[0].kernel == "grm"
        assert len(BenchHistory(history).load()) == 1
        api.bench_record(["grm"], "small", history=history)
        assert len(BenchHistory(history).load()) == 2


class TestRenderReport:
    def test_returns_html_string_without_out(self):
        record = api.run("grm", "small").record
        html = api.render_report(record)
        assert isinstance(html, str)
        assert "<html" in html.lower()
        assert "grm" in html

    def test_writes_file_with_out(self, tmp_path):
        record = api.run("grm", "small").record
        out = api.render_report(record, out=tmp_path / "report.html")
        assert out.exists()
        assert "grm" in out.read_text()
