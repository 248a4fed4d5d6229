"""End-to-end tests for `repro sweep` and `obs report --sweep`."""

import json

import pytest

import repro.api
from repro.cli import main


@pytest.fixture
def sweep_args(tmp_path):
    def build(*extra, kernels=("grm",)):
        return [
            "sweep",
            *kernels,
            "--sweep-dir",
            str(tmp_path / "sw"),
            "--cache-dir",
            str(tmp_path / "cache"),
            *extra,
        ]

    return build


def test_sweep_grid_runs_and_emits_leaderboard(sweep_args, tmp_path, capsys):
    assert main(sweep_args("--grid", "jobs=1,2")) == 0
    out = capsys.readouterr().out
    assert "sweep" in out and "grm" in out
    assert "rank" in out and "work/s" in out
    sweep_dir = tmp_path / "sw"
    doc = json.loads((sweep_dir / "leaderboard.json").read_text())
    assert len(doc["rows"]) == 2  # one row per cell
    assert (sweep_dir / "sweep.json").exists()
    assert (sweep_dir / "leaderboard.csv").exists()


def test_sweep_resume_skips_finished_cells(sweep_args, capsys):
    args = sweep_args("--grid", "jobs=1", "--resume")
    assert main(args) == 0
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "resumed" in err


def test_sweep_json_format(sweep_args, capsys):
    assert main(sweep_args("--grid", "jobs=1", "--format", "json")) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["data"]["sweep"]["n_ok"] == 1
    assert len(doc["data"]["leaderboard"]) == 1
    assert doc["data"]["best"][0]["kernel"] == "grm"


def test_sweep_filter_and_max_cells(sweep_args, capsys):
    args = sweep_args(
        "--grid", "jobs=1,2,4", "--filter", "jobs <= 2", "--max-cells", "1",
        "--format", "json",
    )
    assert main(args) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    # three grid points, filtered to two, truncated to the first one
    assert len(doc["data"]["leaderboard"]) == 1
    assert "[1/1]" in captured.err


def test_sweep_spec_file(sweep_args, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kernels": ["grm"], "axes": {"jobs": [1]}}))
    assert main(sweep_args("--spec", str(spec), kernels=())) == 0
    assert "grm" in capsys.readouterr().out


def test_sweep_bad_grid_token_is_a_usage_error(sweep_args):
    with pytest.raises(SystemExit, match="unknown sweep axis"):
        main(sweep_args("--grid", "jbos=1"))


def test_sweep_bad_filter_is_a_usage_error(sweep_args):
    with pytest.raises(SystemExit, match="bad filter"):
        main(sweep_args("--grid", "jobs=1", "--filter", "jobs <="))


def test_sweep_exit_1_when_a_cell_fails_under_skip(sweep_args, monkeypatch, capsys):
    real_run = repro.api.run

    def flaky(kernel, size, **kwargs):
        if kwargs.get("jobs") == 2:
            raise RuntimeError("worker exploded")
        return real_run(kernel, size, **kwargs)

    monkeypatch.setattr(repro.api, "run", flaky)
    assert main(sweep_args("--grid", "jobs=1,2")) == 1
    out = capsys.readouterr().out
    assert "1 failed" in out


def test_sweep_exit_2_when_fail_policy_aborts(sweep_args, monkeypatch, capsys):
    real_run = repro.api.run

    def flaky(kernel, size, **kwargs):
        if kwargs.get("jobs") == 2:
            raise RuntimeError("worker exploded")
        return real_run(kernel, size, **kwargs)

    monkeypatch.setattr(repro.api, "run", flaky)
    assert main(sweep_args("--grid", "jobs=1,2", "--on-cell-failure", "fail")) == 2
    assert "sweep aborted" in capsys.readouterr().err


def test_sweep_report_flag_renders_html(sweep_args, tmp_path, capsys):
    assert main(sweep_args("--grid", "jobs=1", "--report")) == 0
    report = tmp_path / "sw" / "sweep-report.html"
    assert report.exists()
    assert report.read_text().startswith("<!doctype html>")


def test_sweep_events_written_as_jsonl(sweep_args, tmp_path):
    events = tmp_path / "events.jsonl"
    assert main(sweep_args("--grid", "jobs=1", "--events", str(events))) == 0
    names = [json.loads(line)["name"] for line in events.read_text().splitlines()]
    assert "sweep_started" in names and "sweep_finished" in names
    assert "cell_finished" in names


def test_obs_report_sweep_renders_dashboard(sweep_args, tmp_path, capsys):
    assert main(sweep_args("--grid", "jobs=1")) == 0
    out = tmp_path / "dash.html"
    assert main(
        ["obs", "report", "--sweep", str(tmp_path / "sw"), "--out", str(out)]
    ) == 0
    assert out.read_text().startswith("<!doctype html>")


def test_obs_report_sweep_default_output_lands_in_sweep_dir(sweep_args, tmp_path):
    assert main(sweep_args("--grid", "jobs=1")) == 0
    assert main(["obs", "report", "--sweep", str(tmp_path / "sw")]) == 0
    assert (tmp_path / "sw" / "sweep-report.html").exists()


def test_obs_report_requires_a_record_or_sweep():
    with pytest.raises(SystemExit, match="run-record JSON, --sweep DIR or --service"):
        main(["obs", "report"])


def test_obs_report_missing_sweep_is_an_error(tmp_path):
    with pytest.raises(SystemExit, match="repro sweep"):
        main(["obs", "report", "--sweep", str(tmp_path / "nowhere")])


@pytest.mark.parametrize(
    "grid, message",
    [
        ("jobs=0", "sweep: spec.axes.jobs must be at least 1, got 0"),
        ("on_failure=explode", "sweep: spec.axes.on_failure must be one of"),
        ("timeout=nan", "sweep: spec.axes.timeout must be finite and > 0"),
    ],
)
def test_sweep_bad_engine_value_is_refused_before_any_cell(sweep_args, tmp_path, grid, message):
    with pytest.raises(SystemExit) as info:
        main(sweep_args("--grid", grid))
    assert str(info.value.code).startswith(message)
    assert not (tmp_path / "sw").exists()


def test_sweep_spec_file_with_unknown_base_key_is_refused(sweep_args, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kernels": ["grm"], "base": {"frobnicate": 1}}))
    with pytest.raises(SystemExit, match="unknown spec.base keys: frobnicate; valid keys: jobs"):
        main(sweep_args("--spec", str(spec)))
    assert not (tmp_path / "sw").exists()
