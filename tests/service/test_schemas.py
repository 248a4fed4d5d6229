"""Tests for the POST /jobs spec contract and job identity."""

import pytest

from repro.runner.cache import config_digest
from repro.service.schemas import (
    JobSpecError,
    parse_job_spec,
)


class TestRunSpecs:
    def test_minimal_run_spec_defaults(self):
        spec = parse_job_spec({"kernel": "grm"})
        assert spec.kind == "run"
        assert spec.kernel == "grm"
        assert spec.size == "small"
        assert spec.config == {}
        assert spec.priority == 0
        assert spec.suite == "grm"

    def test_full_run_spec_normalizes(self):
        spec = parse_job_spec(
            {
                "type": "run",
                "kernel": "grm",
                "size": "small",
                "config": {"jobs": 2, "chunk_size": 8, "on_failure": "serial"},
                "priority": 5,
            }
        )
        assert spec.config == {"jobs": 2, "chunk_size": 8, "on_failure": "serial"}
        assert spec.priority == 5

    def test_run_digest_is_the_shared_hashing_authority(self):
        spec = parse_job_spec({"kernel": "grm", "config": {"jobs": 2}})
        assert spec.digest() == config_digest("grm", "small", {"jobs": 2})

    def test_digest_distinguishes_configs(self):
        a = parse_job_spec({"kernel": "grm", "config": {"jobs": 1}})
        b = parse_job_spec({"kernel": "grm", "config": {"jobs": 2}})
        assert a.digest() != b.digest()

    def test_digest_stable_across_parses(self):
        doc = {"kernel": "grm", "config": {"jobs": 2, "chunk_size": 8}}
        assert parse_job_spec(doc).digest() == parse_job_spec(dict(doc)).digest()

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ("not a dict", "JSON object"),
            ({"type": "bake"}, "unknown job type"),
            ({"kernel": "nope"}, "unknown kernel"),
            ({}, "need a 'kernel'"),
            ({"kernel": "grm", "size": "galactic"}, "size"),
            ({"kernel": "grm", "config": {"frobnicate": 1}}, "unknown config keys"),
            ({"kernel": "grm", "config": {"jobs": "two"}}, "must be an integer"),
            ({"kernel": "grm", "config": {"jobs": True}}, "must be an integer"),
            ({"kernel": "grm", "config": {"timeout": "soon"}}, "must be a number"),
            ({"kernel": "grm", "config": {"hosts": "h:1"}}, "unknown config keys"),
            ({"kernel": "grm", "config": {"on_failure": "explode"}}, "on_failure"),
            ({"kernel": "grm", "priority": "high"}, "priority"),
            ({"kernel": "grm", "priority": True}, "priority"),
            ({"kernel": "grm", "extra": 1}, "unknown run job keys"),
        ],
    )
    def test_invalid_run_documents_fail_eagerly(self, doc, fragment):
        with pytest.raises(JobSpecError, match=fragment):
            parse_job_spec(doc)

    def test_error_messages_name_valid_choices(self):
        with pytest.raises(JobSpecError, match="grm"):
            parse_job_spec({"kernel": "nope"})
        with pytest.raises(JobSpecError, match="jobs"):
            parse_job_spec({"kernel": "grm", "config": {"frobnicate": 1}})


class TestSweepSpecs:
    def test_sweep_spec_normalizes_through_sweepspec(self):
        spec = parse_job_spec(
            {"type": "sweep", "spec": {"kernels": ["grm"], "axes": {"jobs": [1, 2]}}}
        )
        assert spec.kind == "sweep"
        assert spec.suite == "sweep"
        assert spec.sweep_spec["kernels"] == ["grm"]
        assert "sweep[grm]" in spec.summary()

    def test_sweep_digest_ignores_key_order(self):
        a = parse_job_spec(
            {"type": "sweep", "spec": {"kernels": ["grm"], "axes": {"jobs": [1, 2]}}}
        )
        b = parse_job_spec(
            {"type": "sweep", "spec": {"axes": {"jobs": [1, 2]}, "kernels": ["grm"]}}
        )
        assert a.digest() == b.digest()

    def test_sweep_digest_differs_from_other_axes(self):
        a = parse_job_spec(
            {"type": "sweep", "spec": {"kernels": ["grm"], "axes": {"jobs": [1]}}}
        )
        b = parse_job_spec(
            {"type": "sweep", "spec": {"kernels": ["grm"], "axes": {"jobs": [2]}}}
        )
        assert a.digest() != b.digest()

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({"type": "sweep"}, "need a 'spec'"),
            ({"type": "sweep", "spec": []}, "need a 'spec'"),
            ({"type": "sweep", "spec": {"kernels": ["nope"]}}, "invalid sweep spec"),
            ({"type": "sweep", "spec": {"kernels": ["grm"]}, "x": 1}, "unknown sweep job keys"),
        ],
    )
    def test_invalid_sweep_documents_fail_eagerly(self, doc, fragment):
        with pytest.raises(JobSpecError, match=fragment):
            parse_job_spec(doc)

    def test_as_dict_round_trips(self):
        doc = {"type": "sweep", "spec": {"kernels": ["grm"], "axes": {"jobs": [1]}}}
        spec = parse_job_spec(doc)
        again = parse_job_spec(spec.as_dict())
        assert again.digest() == spec.digest()
