"""Tests for the shared HTTP skin (``repro.obs.httpd``): route matching,
metric labels, error framing and the server lifecycle, plus the live
plane's ``level`` check that rides on it."""

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro.obs.events import EventLog
from repro.obs.httpd import HttpError, HttpServer, Reply
from repro.obs.live import LiveServer


class Toy(HttpServer):
    server_version = "toy/1"

    def _index(self, req):
        return self.endpoints()

    def _item(self, req):
        return {"id": req.params["id"], "q": req.arg("q")}

    def _echo(self, req):
        return Reply(req.json(), 201)

    def _text(self, req):
        return Reply("plain", content_type="text/plain")

    def _teapot(self, req):
        raise HttpError(418, "short and stout", {"X-Pot": "tea"}, spout=True)

    def _boom(self, req):
        raise TypeError("handler bug")

    routes = (
        {"method": "GET", "path": "/", "description": "index", "handler": _index},
        {"method": "GET", "path": "/items/{id}", "description": "one item", "handler": _item},
        {"method": "GET", "path": "/items/{id}?q=Q", "description": "with q", "handler": _item},
        {"method": "POST", "path": "/items", "description": "echo", "handler": _echo},
        {"method": "GET", "path": "/items/{id}/detail", "description": "text", "handler": _text},
        {"method": "GET", "path": "/teapot", "description": "error", "handler": _teapot},
        {"method": "GET", "path": "/boom", "description": "bug", "handler": _boom},
    )


@pytest.fixture()
def toy():
    with Toy(port=0) as server:
        yield server


def request(server, method, path, body=None, conn=None):
    """One request, on ``conn`` when given (keep-alive) or a fresh connection."""
    own = conn is None
    conn = conn or http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, dict(resp.headers), resp.read()
    finally:
        if own:
            conn.close()


def test_id_segments_are_captured_and_trailing_slashes_dropped(toy):
    code, _, body = request(toy, "GET", "/items/abc/?q=1")
    assert code == 200
    assert json.loads(body) == {"id": "abc", "q": "1"}
    code, headers, body = request(toy, "GET", "/items/abc/detail")
    assert (code, headers["Content-Type"], body) == (200, "text/plain", b"plain")


def test_template_is_derived_from_the_table():
    assert Toy.template("/") == "/"
    assert Toy.template("/items/x") == "/items/{id}"
    assert Toy.template("/items/x/detail/") == "/items/{id}/detail"
    assert Toy.template("/items") == "/items"
    assert Toy.template("/items/x/y") == "other"
    assert Toy.template("/nope") == "other"


def test_index_lists_every_row(toy):
    _, _, body = request(toy, "GET", "/")
    assert json.loads(body) == [
        f"{r['method']} {r['path']} -- {r['description']}" for r in Toy.routes
    ]


@pytest.mark.parametrize(
    "method, path",
    [
        ("GET", "/nope"),
        ("POST", "/items/x"),
        ("GET", "/items"),
        ("POST", "/"),
        ("PUT", "/items"),
        ("DELETE", "/items/x"),
        ("PATCH", "/teapot"),
    ],
)
def test_unknown_method_path_pair_is_404(toy, method, path):
    code, headers, body = request(toy, method, path, body=b"{}")
    assert code == 404
    assert headers["Content-Type"] == "application/json"
    assert "no such endpoint" in json.loads(body)["error"]


def test_http_error_becomes_a_json_body(toy):
    code, headers, body = request(toy, "GET", "/teapot")
    assert code == 418
    assert headers["X-Pot"] == "tea"
    assert json.loads(body) == {"error": "short and stout", "spout": True}


def test_unexpected_exception_is_a_json_500_on_a_live_connection(toy, capsys):
    conn = http.client.HTTPConnection("127.0.0.1", toy.port, timeout=5)
    code, _, body = request(toy, "GET", "/boom", conn=conn)
    assert code == 500
    assert "TypeError: handler bug" in json.loads(body)["error"]
    assert "TypeError: handler bug" in capsys.readouterr().err  # traceback recorded
    # keep-alive: the same connection still serves the next request
    code, _, body = request(toy, "POST", "/items", body=b'{"a": 1}', conn=conn)
    assert (code, json.loads(body)) == (201, {"a": 1})
    conn.close()


def test_stop_is_idempotent_and_port_resolves():
    server = Toy(port=0)
    assert server.port == 0
    server.stop()  # never started: a no-op
    server.start()
    assert server.port > 0
    assert server.start() is server  # starting twice keeps the one listener
    server.stop()
    server.stop()


class TestLivePlaneLevel:
    @pytest.fixture()
    def served(self):
        with LiveServer(EventLog(run_id="r1"), port=0) as server:
            yield server

    @pytest.mark.parametrize("level", ["bogus", "WARNING"])
    def test_unknown_level_is_400_naming_the_levels(self, served, level):
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(f"{served.url}/events?since=-1&level={level}", timeout=5)
        assert info.value.code == 400
        assert "debug, info, warning, error" in json.loads(info.value.read())["error"]
