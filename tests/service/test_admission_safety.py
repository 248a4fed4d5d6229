"""What a hostile ``POST /jobs`` must not be able to do.

Every document here is refused with a 400 at admission, before any job
exists: no sweep filter is evaluated by Python, no job can make the
daemon dial a host (the coordinator unpickles what hosts send back), a
malformed document is answered rather than dropping the connection, and
a bad ``Content-Length`` is answered at once rather than blocking.
"""

import json
import socket
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runner.config import RunConfig
from repro.service import JobService, ServiceServer
from repro.service.schemas import RUN_CONFIG_KEYS, JobSpec, JobSpecError, parse_job_spec
from repro.sweep import SweepSpec, expand


@contextmanager
def served(tmp_path):
    svc = JobService(state_dir=tmp_path / "state", sample_interval=None)  # real runner
    server = ServiceServer(svc, port=0).start()
    try:
        yield server
    finally:
        server.stop(drain=False, timeout=10)


def post(server, doc):
    data = json.dumps(doc).encode()
    req = urllib.request.Request(server.url + "/jobs", data=data, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=5) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def escape_filter(marker):
    """The classic escape from an ``eval`` without builtins: it reaches
    ``open`` through ``object``'s subclasses and creates ``marker``."""
    return (
        "[c for c in ().__class__.__base__.__subclasses__() if c.__name__ == '_wrap_close']"
        f"[0].__init__.__globals__['__builtins__']['open']({str(marker)!r}, 'w').close() is None"
    )


def test_sweep_filter_cannot_run_code(tmp_path):
    marker = tmp_path / "filter-ran"
    spec = {"kernels": ["grm"], "axes": {"jobs": [1]}, "filters": [escape_filter(marker)]}
    with served(tmp_path) as server:
        code, body = post(server, {"type": "sweep", "spec": spec})
        server.stop(drain=True, timeout=60)  # an admitted job would run its filter here
    assert not marker.exists()
    assert code == 400
    assert "is not allowed" in body["error"]


DIALING_DOCS = {
    "run-hosts": lambda hosts: {
        "kernel": "grm", "config": {"executor": "distributed", "hosts": hosts},
    },
    "run-executor": lambda hosts: {"kernel": "grm", "config": {"executor": "distributed"}},
    "sweep-base-hosts": lambda hosts: {
        "type": "sweep",
        "spec": {"kernels": ["grm"], "base": {"executor": "distributed", "hosts": hosts}},
    },
    "sweep-executor-axis": lambda hosts: {
        "type": "sweep", "spec": {"kernels": ["grm"], "axes": {"executor": ["distributed"]}},
    },
}


@pytest.mark.parametrize("make_doc", DIALING_DOCS.values(), ids=list(DIALING_DOCS))
def test_no_job_makes_the_daemon_dial_out(tmp_path, make_doc):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(0.5)
        hosts = [f"127.0.0.1:{listener.getsockname()[1]}"]
        with served(tmp_path) as server:
            code, body = post(server, make_doc(hosts))
            server.stop(drain=True, timeout=20)  # an admitted job would dial here
        with pytest.raises(TimeoutError):
            listener.accept()
    assert code == 400, body


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ({"kernels": ["grm"], "base": None}, "base must be an object"),
        ({"kernels": ["grm"], "per_kernel": [1]}, "per_kernel must be an object"),
        ({"kernels": ["grm"], "filters": False}, "filters must be a list"),
        ({"kernels": ["grm"], "max_cells": "3"}, "max_cells must be an integer"),
        ({"kernels": ["grm"], "axes": [1]}, "axes must be an object"),
        ({"kernels": [1]}, "kernels must be a list"),
        ({"kernels": ["grm"], "base": {"jobs": "two"}}, "spec.base.jobs must be an integer"),
    ],
)
def test_malformed_sweep_documents_are_answered_with_400(tmp_path, spec, fragment):
    with served(tmp_path) as server:
        code, body = post(server, {"type": "sweep", "spec": spec})
    assert code == 400
    assert fragment in body["error"]


@pytest.mark.parametrize(
    "length, code", [("-1", 400), ("-5", 400), ("ten", 400), (str(2 << 20), 413)]
)
def test_bad_content_length_is_answered_at_once(tmp_path, length, code):
    request = f"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n{{}}"
    with served(tmp_path) as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(request.encode())
            # the reply closes the connection, since the body is left unread
            reply = sock.makefile("rb").read()
        with urllib.request.urlopen(server.url + "/healthz", timeout=5) as r:
            assert r.status == 200
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split()[1] == str(code).encode()
    assert "1048576" in json.loads(body)["error"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


def either(*choices):
    return st.sampled_from(choices) | json_values


axes = st.dictionaries(
    st.sampled_from(["jobs", "executor", "size", "on_failure"]), st.lists(json_values, max_size=3)
) | json_values
sweep_docs = st.fixed_dictionaries(
    {
        "type": st.just("sweep"),
        "spec": st.fixed_dictionaries(
            {},
            optional={
                "kernels": either(["grm"]),
                "size": either("small"),
                "axes": axes,
                "per_kernel": st.dictionaries(st.just("grm"), axes) | json_values,
                "filters": st.lists(either("jobs < 2", "jobs ** 2"), max_size=2) | json_values,
                "max_cells": either(1),
                "base": st.dictionaries(st.sampled_from(["jobs", "hosts"]), json_values)
                | json_values,
            },
        ),
    },
    optional={"priority": json_values},
)
run_docs = st.fixed_dictionaries(
    {"kernel": either("grm")},
    optional={
        "type": st.just("run"),
        "size": either("small"),
        "priority": json_values,
        "config": st.dictionaries(st.sampled_from([*RUN_CONFIG_KEYS, "hosts"]), json_values)
        | json_values,
    },
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(json_values | run_docs | sweep_docs)
def test_any_json_document_parses_or_fails_as_a_job_spec_error(doc):
    try:
        assert isinstance(parse_job_spec(doc), JobSpec)
    except JobSpecError:
        pass


#: Engine values the engine refuses, one per document: admission must
#: refuse each, rather than queue a job that fails or runs wrongly.
BAD_ENGINE_VALUES = [
    ("jobs", 0),
    ("chunk_size", 0),
    ("retries", -1),
    ("timeout", 0),
    ("timeout", -3),
    ("timeout", float("nan")),
    ("timeout", float("inf")),
    ("timeout", True),
    ("executor", "warp-drive"),
    ("executor", 5),
    ("on_failure", None),
]
BAD_IDS = [f"{key}={value!r}" for key, value in BAD_ENGINE_VALUES]


@pytest.mark.parametrize("key, value", BAD_ENGINE_VALUES, ids=BAD_IDS)
def test_bad_engine_values_are_answered_with_400(tmp_path, key, value):
    with served(tmp_path) as server:
        code, body = post(server, {"kernel": "grm", "config": {key: value}})
    assert code == 400, body
    assert body["error"].startswith(f"config.{key}")


@pytest.mark.parametrize("key, value", BAD_ENGINE_VALUES, ids=BAD_IDS)
def test_bad_engine_values_in_a_sweep_are_refused(key, value):
    base = {"type": "sweep", "spec": {"kernels": ["grm"], "base": {key: value}}}
    with pytest.raises(JobSpecError, match=rf"spec\.base\.{key}"):
        parse_job_spec(base)
    axis = {"type": "sweep", "spec": {"kernels": ["grm"], "axes": {key: [value]}}}
    with pytest.raises(JobSpecError, match=rf"spec\.axes\.{key}"):
        parse_job_spec(axis)


def test_a_null_executor_is_still_admitted_with_the_same_identity():
    spec = parse_job_spec({"kernel": "grm", "config": {"executor": None}})
    assert spec.config == {"executor": None}
    assert spec.digest() == "eeb188cd2a9aec9e"
    spec = parse_job_spec({"kernel": "grm", "config": {"jobs": 2, "chunk_size": 8}})
    assert spec.digest() == "c078b5d6f61d1bcf"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(run_docs | sweep_docs)
def test_every_admitted_document_builds_a_run_config(doc):
    try:
        spec = parse_job_spec(doc)
    except JobSpecError:
        return
    if spec.kind == "run":
        RunConfig(**spec.config)
        return
    # filters and the cell budget only drop cells: check the whole grid
    grid = SweepSpec.from_dict({**spec.sweep_spec, "filters": [], "max_cells": None})
    for cell in expand(grid):
        RunConfig(**cell.run_kwargs())
