"""Unit tests for RunConfig, the one declaration of the engine's knobs."""

import dataclasses

import pytest

from repro.runner.config import ON_FAILURE_CHOICES, WIRE_KNOBS, RunConfig
from repro.runner.faults import FaultPlan
from repro.service.schemas import RUN_CONFIG_KEYS
from repro.sweep import ENGINE_AXES

BAD_VALUES = [
    ("jobs", 0),
    ("jobs", 1.5),
    ("chunk_size", 0),
    ("chunk_size", "8"),
    ("executor", "warp-drive"),
    ("executor", 5),
    ("executor", ""),
    ("retries", -1),
    ("timeout", 0),
    ("timeout", -3),
    ("timeout", float("nan")),
    ("timeout", float("inf")),
    ("timeout", 10**400),
    ("timeout", "soon"),
    ("on_failure", None),
    ("on_failure", "explode"),
    ("hosts", "127.0.0.1:9"),
    ("hosts", ["no-port"]),
    ("hosts", [9]),
    ("profile_hz", 0),
    ("profile_hz", float("nan")),
    ("telemetry_interval", -0.05),
    ("measure_serial", 1),
    ("measure_serial", "yes"),
]


@pytest.mark.parametrize("name, value", BAD_VALUES)
def test_a_bad_value_names_its_field(name, value):
    with pytest.raises(ValueError, match=f"^{name}"):
        RunConfig(**{name: value})


@pytest.mark.parametrize("name", ["jobs", "chunk_size", "retries"])
def test_a_bool_is_not_an_integer(name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        RunConfig(**{name: True})


@pytest.mark.parametrize("name", ["timeout", "profile_hz", "telemetry_interval"])
def test_a_bool_is_not_a_number(name):
    with pytest.raises(ValueError, match=f"^{name} must be a number"):
        RunConfig(**{name: True})


def test_messages_name_the_valid_range_or_choices():
    with pytest.raises(ValueError, match="at least 1, got 0"):
        RunConfig(jobs=0)
    with pytest.raises(ValueError, match="finite and > 0"):
        RunConfig(timeout=float("nan"))
    with pytest.raises(ValueError, match=", ".join(ON_FAILURE_CHOICES)):
        RunConfig(on_failure="explode")
    with pytest.raises(ValueError, match="local.*serial"):
        RunConfig(executor="warp-drive")
    with pytest.raises(ValueError, match="^measure_serial must be a boolean, got None"):
        RunConfig(measure_serial=None)


def test_a_remote_backend_needs_hosts():
    with pytest.raises(ValueError, match="^executor 'distributed'.*needs hosts"):
        RunConfig(executor="distributed")
    with pytest.raises(ValueError, match="^executor 'distributed'.*needs hosts"):
        RunConfig(executor="distributed", hosts=[])
    config = RunConfig(executor="distributed", hosts=["127.0.0.1:9701"])
    assert config.hosts == ["127.0.0.1:9701"]


def test_defaults_and_accepted_values():
    config = RunConfig()
    assert (config.jobs, config.executor, config.chunk_size) == (1, None, None)
    assert (config.retries, config.timeout, config.on_failure) == (0, None, "fail")
    RunConfig(
        jobs=4,
        chunk_size=8,
        executor="serial",
        retries=2,
        timeout=1,
        on_failure="quarantine",
        measure_serial=False,
        fault_plan=FaultPlan.parse("kill@0"),
        resume=True,
    )


def test_wire_knobs_are_the_service_keys_in_declaration_order():
    expected = ("jobs", "chunk_size", "executor", "retries", "timeout", "on_failure")
    assert WIRE_KNOBS == RUN_CONFIG_KEYS == expected


def test_sweep_axes_are_size_plus_the_wire_knobs():
    assert set(ENGINE_AXES) == {"size", *WIRE_KNOBS}


def test_fields_are_the_former_engine_knobs():
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        *WIRE_KNOBS,
        "hosts",
        "measure_serial",
        "fault_plan",
        "resume",
        "instrument",
        "profile",
        "profile_hz",
        "telemetry",
        "telemetry_interval",
    ]


@pytest.mark.parametrize(
    "key, value",
    [
        ("hosts", ["127.0.0.1:9"]),
        ("fault_plan", "kill@0"),
        ("resume", True),
        ("measure_serial", False),
        ("profile", True),
    ],
)
def test_from_dict_refuses_what_the_wire_may_not_set(key, value):
    with pytest.raises(ValueError, match=f"unknown config keys: {key}") as info:
        RunConfig.from_dict({key: value})
    assert "valid keys: " + ", ".join(WIRE_KNOBS) in str(info.value)


def test_from_dict_locates_field_errors():
    with pytest.raises(ValueError, match=r"^config\.jobs must be at least 1, got 0$"):
        RunConfig.from_dict({"jobs": 0})
    with pytest.raises(ValueError, match=r"^spec\.base\.retries must be at least 0"):
        RunConfig.from_dict({"retries": -1}, "spec.base")
    with pytest.raises(ValueError, match="^config must be an object, got list"):
        RunConfig.from_dict([1])


def test_from_dict_takes_an_allowed_set():
    hosts = ["127.0.0.1:9"]
    config = RunConfig.from_dict(
        {"executor": "distributed", "hosts": hosts}, "spec.base", (*WIRE_KNOBS, "hosts")
    )
    assert config.hosts == hosts


def test_a_config_is_frozen():
    config = RunConfig(jobs=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.jobs = 0


def test_fault_tolerance_has_the_record_keys():
    assert RunConfig().fault_tolerance() == {
        "timeout": None,
        "retries": 0,
        "on_failure": "fail",
        "resume": False,
        "fault_plan": None,
    }
    plan = FaultPlan.parse("kill@1")
    config = RunConfig(timeout=2.0, retries=1, on_failure="serial", fault_plan=plan)
    doc = config.fault_tolerance()
    assert doc["fault_plan"] == plan.describe()
    assert (doc["timeout"], doc["retries"], doc["on_failure"]) == (2.0, 1, "serial")
