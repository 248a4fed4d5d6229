"""One stdlib HTTP skin for the suite's two ports.

``repro run --live-port`` (:class:`repro.obs.live.LiveServer`) and ``repro
serve`` (:class:`repro.service.server.ServiceServer`) are :class:`HttpServer`
subclasses that declare only a route table and a ``server_version``.  The
table of ``{"method", "path", "description", "handler"}`` rows is at once the
dispatch table, the ``GET /`` index and the bounded request-metric label; a
path may hold ``{name}`` segments, and a ``?query`` suffix on a row's path
documents a variant without changing what it matches.  A handler returns a
JSON-ready value or a :class:`Reply`, or raises :class:`HttpError`; any other
exception is answered with a JSON 500 rather than a dropped socket.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping, NamedTuple
from urllib.parse import parse_qs, urlparse

#: Default bind address; both ports are loopback services.
DEFAULT_HOST = "127.0.0.1"

#: Largest request body accepted; a longer declared body is a 413.
MAX_BODY_BYTES = 1 << 20

JSON = "application/json"
HTML = "text/html; charset=utf-8"
OPENMETRICS = "application/openmetrics-text; version=1.0.0; charset=utf-8"


class Reply(NamedTuple):
    """A handler's answer: a JSON-ready body, or text of its own type."""

    body: Any
    code: int = 200
    content_type: str = JSON
    headers: Mapping[str, str] | None = None

    def payload(self) -> bytes:
        if isinstance(self.body, str):
            return self.body.encode("utf-8")
        return (json.dumps(self.body, indent=2, default=str) + "\n").encode("utf-8")


class HttpError(Exception):
    """Raised by a handler to answer ``{"error": message, **extra}``."""

    def __init__(self, code: int, message: str, headers: dict | None = None, **extra: Any):
        super().__init__(message)
        self.reply = Reply({"error": message, **extra}, code, headers=headers)


class Request(NamedTuple):
    """What a handler sees of a request; ``params`` maps the path's ``{name}``s."""

    params: dict[str, str]
    query: dict[str, list[str]]
    headers: Any
    body: bytes

    def arg(self, name: str, default: str | None = None) -> str | None:
        """The first value of query parameter ``name``."""
        return self.query.get(name, [default])[0]

    def json(self) -> Any:
        """The body as JSON (empty reads as ``{}``); bad JSON is a 400."""
        try:
            return json.loads(self.body or b"{}")
        except ValueError as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from None


Route = Mapping[str, Any]
_Table = tuple[tuple[str, tuple[str, ...], Route], ...]


def _split(path: str) -> tuple[str, ...]:
    """A path's segments, without its query and trailing slashes."""
    return tuple(path.split("?", 1)[0].rstrip("/").split("/"))


def _match(table: _Table, method: str, path: str) -> tuple[Route | None, dict[str, str], str]:
    """One pass: the row serving ``method path``, its ``{name}`` captures,
    and the path of the first row the path matches (``"other"`` if none)."""
    segments = _split(path)
    template = "other"
    for row_method, pattern, row in table:
        if len(pattern) != len(segments):
            continue
        params = {}
        for want, got in zip(pattern, segments):
            if want.startswith("{"):
                params[want[1:-1]] = got
            elif want != got:
                break
        else:
            if template == "other":
                template = row["path"].split("?", 1)[0]
            if row_method == method:
                return row, params, template
    return None, {}, template


class HttpServer:
    """A route table served from a daemon thread.

    Subclasses set :attr:`server_version` and :attr:`routes`, whose handlers
    are called as ``handler(server, request)``.  ``port=0`` binds an ephemeral
    port; use as a context manager or call :meth:`start` / :meth:`stop`.
    """

    routes: tuple[Route, ...] = ()
    server_version = "repro-http/1"
    _table: _Table = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._table = tuple((r["method"], _split(r["path"]), r) for r in cls.routes)

    def __init__(self, port: int = 0, host: str = DEFAULT_HOST) -> None:
        self.host = host
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @classmethod
    def template(cls, path: str) -> str:
        """The row pattern labelling ``path`` in the request metrics.

        Labels are patterns (``/jobs/{id}``, not each job id) so metric
        cardinality stays bounded; a path off the table is ``other``.
        """
        return _match(cls._table, "", path)[2]

    def endpoints(self) -> list[str]:
        """The ``GET /`` index lines: ``METHOD path -- description``."""
        return [f"{r['method']} {r['path']} -- {r['description']}" for r in self.routes]

    def observed(self, method: str, template: str, code: int, seconds: float) -> None:
        """The metrics hook, called once per reply just before it is sent (so a
        client that has read a reply finds it counted)."""

    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0``)."""
        return self._requested_port if self._httpd is None else self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HttpServer":
        if self._httpd is None:
            bound = {"owner": self, "server_version": self.server_version}
            handler = type("BoundHandler", (_Handler,), bound)
            self._httpd = ThreadingHTTPServer((self.host, self._requested_port), handler)
            self._httpd.daemon_threads = True
            name = f"{type(self).__name__}-{self.port}"
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name=name, daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(2.0)
        self._httpd = self._thread = None

    def __enter__(self) -> "HttpServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


class _Handler(BaseHTTPRequestHandler):
    """Frames every request and reply of one :class:`HttpServer`."""

    owner: HttpServer
    # every reply carries Content-Length, so keep-alive is safe
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the event log is the narrative; stderr stays quiet

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        started = time.perf_counter()
        url = urlparse(self.path)
        row, params, template = _match(self.owner._table, self.command, url.path)
        try:
            body = self._read_body()
            if row is None:
                raise HttpError(404, f"no such endpoint {url.path.rstrip('/') or '/'!r}")
            request = Request(params, parse_qs(url.query), self.headers, body)
            reply = row["handler"](self.owner, request)
            reply = reply if isinstance(reply, Reply) else Reply(reply)
            payload = reply.payload()
        except HttpError as exc:
            reply, payload = exc.reply, exc.reply.payload()
        except ConnectionError:
            self.close_connection = True  # the client hung up mid-request
            return
        except Exception as exc:  # noqa: BLE001 - a bug still gets an answer
            traceback.print_exc()
            reply = Reply({"error": f"internal error: {type(exc).__name__}: {exc}"}, 500)
            payload = reply.payload()
        self.owner.observed(self.command, template, reply.code, time.perf_counter() - started)
        self._send(reply, payload)

    do_POST = do_PUT = do_PATCH = do_DELETE = do_GET

    def _read_body(self) -> bytes:
        raw = self.headers.get("Content-Length", "0")
        try:
            length = int(raw)
        except ValueError:
            length = -1
        # a body left unread would be parsed as the next request: close instead
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes", {"Connection": "close"})
        if length < 0:
            message = f"Content-Length must be an integer in 0..{MAX_BODY_BYTES}, got {raw!r}"
            raise HttpError(400, message, {"Connection": "close"})
        return self.rfile.read(length)

    def _send(self, reply: Reply, payload: bytes) -> None:
        try:
            self.send_response(reply.code)
            self.send_header("Content-Type", reply.content_type)
            self.send_header("Content-Length", str(len(payload)))
            for name, value in (reply.headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)
        except ConnectionError:
            self.close_connection = True  # the client hung up mid-reply
