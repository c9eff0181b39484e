"""A minimal in-repo ASGI-style protocol and an in-process client.

The serving layer needs an application contract that is independent of
any particular HTTP server so the same app object can be driven three
ways: by the stdlib :class:`~http.server.ThreadingHTTPServer` adapter
(:mod:`repro.serve.httpd`), by the in-process load harness
(:mod:`repro.serve.load`), and by tests.  We implement the ASGI 3.0
*message vocabulary* — ``scope`` dicts, ``http.request`` /
``http.response.start`` / ``http.response.body`` messages — with plain
synchronous callables instead of coroutines: concurrency in this repo
comes from threads (the paper's own runtimes are thread/process based),
so an event loop would add a dependency on ``asyncio`` plumbing without
buying anything.  The shapes are kept ASGI-compatible so a real ASGI
server adapter would be a mechanical wrapper.

An application is ``app(scope, receive, send)`` where

* ``scope`` — ``{"type": "http", "method", "path", "query_string",
  "headers": [(name, value), ...]}`` (names lower-cased ``str``);
* ``receive()`` returns ``{"type": "http.request", "body": bytes,
  "more_body": False}``;
* ``send(message)`` accepts ``http.response.start`` then
  ``http.response.body`` messages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable
from urllib.parse import parse_qs, unquote, urlsplit

__all__ = [
    "JSON_CONTENT_TYPE",
    "HTTPError",
    "Request",
    "Response",
    "json_response",
    "error_response",
    "run_app",
    "Client",
    "ClientResponse",
]


class HTTPError(Exception):
    """Raise anywhere under the error-envelope middleware to send a
    structured JSON error instead of a stack trace.

    ``code`` is a stable machine-readable slug (``"unknown_module"``,
    ``"overloaded"``, ...); ``retry_after`` (seconds) becomes a
    ``Retry-After`` header — the backpressure middleware sets it on 503s.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        *,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after


@dataclass
class Request:
    """Parsed view of one HTTP request (scope + fully-read body)."""

    method: str
    path: str
    query: dict[str, list[str]]
    headers: dict[str, str]
    body: bytes

    @classmethod
    def from_scope(cls, scope: dict[str, Any], body: bytes) -> "Request":
        return cls(
            method=scope["method"].upper(),
            path=scope["path"],
            query=parse_qs(scope.get("query_string", "")),
            headers={k.lower(): v for k, v in scope.get("headers", [])},
            body=body,
        )

    def param(self, name: str, default: str | None = None) -> str | None:
        values = self.query.get(name)
        return values[0] if values else default

    def json(self) -> Any:
        """Parse the body as JSON; malformed input is a 400, not a 500."""
        if not self.body:
            raise HTTPError(400, "bad_request", "expected a JSON body")
        try:
            return json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise HTTPError(400, "bad_request", f"malformed JSON body: {exc}") from exc


@dataclass
class Response:
    """One complete HTTP response (the adapter writes it to the wire)."""

    status: int = 200
    headers: list[tuple[str, str]] = field(default_factory=list)
    body: bytes = b""

    def header(self, name: str) -> str | None:
        name = name.lower()
        for key, value in self.headers:
            if key.lower() == name:
                return value
        return None

    def json(self) -> Any:
        return json.loads(self.body)


#: The header every JSON response carries (cached read bodies included).
JSON_CONTENT_TYPE = ("content-type", "application/json")


def json_response(
    payload: Any, status: int = 200, headers: Iterable[tuple[str, str]] = ()
) -> Response:
    body = json.dumps(payload, indent=None, separators=(",", ":")).encode()
    return Response(status=status, headers=[JSON_CONTENT_TYPE, *headers], body=body)


def error_response(exc: HTTPError) -> Response:
    """The structured error envelope every failure path goes through."""
    headers: list[tuple[str, str]] = []
    if exc.retry_after is not None:
        headers.append(("retry-after", f"{exc.retry_after:g}"))
    return json_response(
        {"error": {"status": exc.status, "code": exc.code, "message": exc.message}},
        status=exc.status,
        headers=headers,
    )


def send_response(send: Callable[[dict], None], response: Response) -> None:
    """Emit a built :class:`Response` as ASGI response messages."""
    send(
        {
            "type": "http.response.start",
            "status": response.status,
            "headers": list(response.headers),
        }
    )
    send({"type": "http.response.body", "body": response.body, "more_body": False})


def read_body(receive: Callable[[], dict]) -> bytes:
    """Drain ``http.request`` messages into one body byte string."""
    chunks: list[bytes] = []
    while True:
        message = receive()
        if message["type"] != "http.request":  # pragma: no cover - defensive
            raise ValueError(f"unexpected ASGI message {message['type']!r}")
        chunks.append(message.get("body", b""))
        if not message.get("more_body", False):
            break
    return b"".join(chunks)


def run_app(
    app: Callable,
    method: str,
    target: str,
    *,
    body: bytes = b"",
    headers: Iterable[tuple[str, str]] = (),
) -> Response:
    """Drive one request through an app and collect the response.

    This is the whole in-process transport: the load harness and the test
    client call it directly, so thousands of simulated learners exercise
    the exact middleware stack the socket server runs, minus the kernel.
    """
    split = urlsplit(target)
    scope = {
        "type": "http",
        "method": method.upper(),
        "path": unquote(split.path),
        "query_string": split.query,
        "headers": [(k.lower(), v) for k, v in headers],
    }
    request_messages = [{"type": "http.request", "body": body, "more_body": False}]

    def receive() -> dict:
        return request_messages.pop(0)

    collected: dict[str, Any] = {"status": None, "headers": [], "body": []}

    def send(message: dict) -> None:
        if message["type"] == "http.response.start":
            collected["status"] = message["status"]
            collected["headers"] = list(message.get("headers", []))
        elif message["type"] == "http.response.body":
            collected["body"].append(message.get("body", b""))

    app(scope, receive, send)
    if collected["status"] is None:
        raise RuntimeError("app completed without sending a response")
    return Response(
        status=collected["status"],
        headers=collected["headers"],
        body=b"".join(collected["body"]),
    )


@dataclass
class ClientResponse:
    """What :class:`Client` returns: status, headers, parsed body."""

    status: int
    headers: dict[str, str]
    body: bytes

    def json(self) -> Any:
        return json.loads(self.body)

    @property
    def text(self) -> str:
        return self.body.decode()


class Client:
    """In-process HTTP client over :func:`run_app` (no sockets).

    ``headers`` set on the client ride along on every request (the load
    harness uses this for instructor keys).
    """

    def __init__(self, app: Callable, headers: Iterable[tuple[str, str]] = ()) -> None:
        self.app = app
        self.headers = list(headers)

    def request(
        self,
        method: str,
        target: str,
        *,
        json_body: Any = None,
        headers: Iterable[tuple[str, str]] = (),
    ) -> ClientResponse:
        body = b""
        extra = list(headers)
        if json_body is not None:
            body = json.dumps(json_body).encode()
            extra.append(("content-type", "application/json"))
        response = run_app(
            self.app, method, target, body=body, headers=[*self.headers, *extra]
        )
        return ClientResponse(
            status=response.status,
            headers={k.lower(): v for k, v in response.headers},
            body=response.body,
        )

    def get(self, target: str, **kwargs: Any) -> ClientResponse:
        return self.request("GET", target, **kwargs)

    def post(self, target: str, **kwargs: Any) -> ClientResponse:
        return self.request("POST", target, **kwargs)
