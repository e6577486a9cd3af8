"""Dependency-free HTTP carrier: the stdlib threaded server.

Serves a :class:`~repro.service.app.ServiceApp` over
:class:`http.server.ThreadingHTTPServer` — one thread per connection,
which is exactly what the service needs: request handlers are cheap
(solving happens on the queue workers) and SSE streams each hold one
thread while blocked on the job's condition variable.

This is the carrier behind ``repro serve`` and behind the e2e test
suite — the full submit → stream → download path runs over a real
socket with zero third-party packages.

Each response leaves in one write on a ``TCP_NODELAY`` socket.
Streaming responses are framed by connection close (``Connection:
close``, no ``Content-Length``): the universally-compatible SSE
framing for an HTTP/1.1 server without chunked-encoding support.
"""

from __future__ import annotations

import io
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

from .app import ServiceApp, ServiceRequest, ServiceResponse
from .jsonlog import get_logger, log_event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterator

    from _typeshed import ReadableBuffer

__all__ = ["ServiceServer", "make_server", "serve"]

_log = get_logger("http")


class _ResponseWriter(io.BufferedIOBase):
    """A handler's ``wfile``: sends what was written in one ``sendall``
    per :meth:`flush` (once per response, once per SSE frame).  Written
    apart, a keep-alive body waits for the client's delayed ACK."""

    def __init__(self, sock: socket.socket) -> None:
        super().__init__()
        self._sock = sock
        self._parts: list[bytes] = []

    def write(self, data: "ReadableBuffer") -> int:
        self._parts.append(bytes(data))
        return len(self._parts[-1])

    def flush(self) -> None:
        if self._parts:
            payload = b"".join(self._parts)
            self._parts.clear()
            self._sock.sendall(payload)


class _Handler(BaseHTTPRequestHandler):
    """Bridge one stdlib-server request into the carrier-neutral app."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service"
    disable_nagle_algorithm = True  # no response or SSE frame waits for Nagle
    app: ServiceApp  # injected by make_server via subclassing

    def setup(self) -> None:
        super().setup()
        self.wfile = _ResponseWriter(self.connection)

    def _dispatch(self) -> None:
        try:
            body = b""
            length = int(self.headers.get("Content-Length") or 0)
            if length > 0:
                body = self.rfile.read(length)
            request = ServiceRequest.make(
                self.command,
                self.path,
                headers=dict(self.headers.items()),
                body=body,
            )
            response = self.app.handle(request)
            self._send(response)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-stream; nothing to answer

    # The stdlib server dispatches on ``do_<METHOD>``; every method the
    # router knows funnels into the same bridge (unknown methods on
    # known routes become the app's 405, not a hung connection).
    do_GET = _dispatch
    do_POST = _dispatch
    do_PUT = _dispatch
    do_DELETE = _dispatch
    do_PATCH = _dispatch
    do_HEAD = _dispatch
    do_OPTIONS = _dispatch

    def _send(self, response: ServiceResponse) -> None:
        self.send_response(response.status)
        for name, value in response.headers:
            self.send_header(name, value)
        if response.streaming:
            # SSE: no length is knowable — frame by connection close
            # and flush each event as it is produced.
            self.send_header("Connection", "close")
            self.end_headers()
            self.close_connection = True
            if self.command == "HEAD":
                return
            body: "Iterator[bytes]" = iter(response.body)  # type: ignore[arg-type]
            for chunk in body:
                self.wfile.write(chunk)
                self.wfile.flush()
        else:
            assert isinstance(response.body, bytes)
            self.send_header("Content-Length", str(len(response.body)))
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(response.body)

    def log_message(self, format: str, *args: object) -> None:
        log_event(
            _log, "http.access",
            client=self.client_address[0], line=format % args,
        )


def _make_handler(app: ServiceApp) -> type[_Handler]:
    return type("BoundHandler", (_Handler,), {"app": app})


class ServiceServer:
    """A running (or startable) stdlib server around one app."""

    def __init__(self, app: ServiceApp, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self.httpd = ThreadingHTTPServer((host, port), _make_handler(app))
        self.httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return str(self.httpd.server_address[0])

    @property
    def port(self) -> int:
        return int(self.httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        """App startup + serve on a background thread."""
        self.app.startup()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-service-http", daemon=True
        )
        self._thread.start()
        log_event(_log, "http.listening", url=self.url)
        return self

    def serve_forever(self) -> None:
        """App startup + serve on the calling thread (the CLI path)."""
        self.app.startup()
        log_event(_log, "http.listening", url=self.url)
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop accepting, join the serving thread, drain the app."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.app.shutdown()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def make_server(
    app: ServiceApp, host: str = "127.0.0.1", port: int = 0
) -> ServiceServer:
    """A not-yet-started :class:`ServiceServer` bound to ``host:port``
    (port 0 picks a free port — the test-suite default)."""
    return ServiceServer(app, host, port)


def serve(app: ServiceApp, host: str = "127.0.0.1", port: int = 8337) -> None:
    """Run the service in the foreground until interrupted."""
    make_server(app, host, port).serve_forever()
