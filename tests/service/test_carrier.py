"""The stdlib carrier's framing over a real socket.

A non-streaming response leaves in one write on a ``TCP_NODELAY``
socket, so a keep-alive client never waits for its own delayed ACK;
``HEAD`` keeps the connection usable; SSE stays framed by connection
close.  Every check counts writes or reads headers, none times anything.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.api.cache import SolveCache
from repro.service import InMemoryArtifactStore, ServiceApp, ServiceConfig
from repro.service.server import make_server
from repro.service.testing import InProcessClient


class _CountingSocket:
    """A socket proxy recording every payload sent through it."""

    def __init__(self, sock: socket.socket, writes: list[bytes]):
        self._sock = sock
        self._writes = writes

    def __getattr__(self, name: str):
        return getattr(self._sock, name)

    def sendall(self, data, *args):
        self._writes.append(bytes(data))
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self._writes.append(bytes(data))
        return self._sock.send(data, *args)


@pytest.fixture(scope="module")
def carrier():
    """A served inline app whose handler records writes and NODELAY."""
    app = ServiceApp(
        ServiceConfig(transport="inline", job_workers=1, keepalive_seconds=0.2),
        cache=SolveCache(),
        artifacts=InMemoryArtifactStore(),
    )
    server = make_server(app)
    writes: list[bytes] = []
    nodelay: list[int] = []
    bound = server.httpd.RequestHandlerClass

    class SpyHandler(bound):  # type: ignore[misc, valid-type]
        def setup(self) -> None:
            self.request = _CountingSocket(self.request, writes)
            super().setup()
            nodelay.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

    server.httpd.RequestHandlerClass = SpyHandler
    server.start()
    client = InProcessClient(app)
    done = client.wait_job(
        client.submit(
            {
                "grid": {
                    "configs": ["hera-xscale"],
                    "rhos": {"start": 2.6, "stop": 5.0, "count": 40},
                },
            }
        )["id"],
        poll=0.01,
    )
    assert done["state"] == "succeeded"
    try:
        yield server, done["id"], writes, nodelay
    finally:
        server.stop()


def _connect(server) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(server.host, server.port, timeout=30)


def test_accepted_socket_sets_tcp_nodelay(carrier):
    server, _, _, nodelay = carrier
    conn = _connect(server)
    try:
        conn.request("GET", "/healthz")
        assert conn.getresponse().read()
    finally:
        conn.close()
    assert nodelay and all(nodelay)


def test_each_response_is_one_write(carrier):
    server, job_id, writes, _ = carrier
    paths = (
        "/healthz",
        "/v1/configs",
        f"/v1/jobs/{job_id}",
        f"/v1/jobs/{job_id}/artifacts/results.json",
        "/v1/nope",
    )
    conn = _connect(server)
    try:
        writes.clear()
        bodies = []
        for path in paths:  # one keep-alive connection throughout
            conn.request("GET", path)
            bodies.append(conn.getresponse().read())
    finally:
        conn.close()
    assert len(writes) == len(paths)
    for write, body in zip(writes, bodies):
        assert write.startswith(b"HTTP/1.1 ")
        assert write.endswith(b"\r\n\r\n" + body)
    assert len(bodies[3]) > 8192  # larger than a socket-file buffer


def test_head_sends_length_without_body_and_keeps_the_connection(carrier):
    server, job_id, writes, _ = carrier
    path = f"/v1/jobs/{job_id}/artifacts/results.csv"
    conn = _connect(server)
    try:
        writes.clear()
        conn.request("HEAD", path)
        head = conn.getresponse()
        assert head.status == 200
        assert head.read() == b""
        length = int(head.getheader("Content-Length"))
        conn.request("GET", path)
        full = conn.getresponse()
        assert full.status == 200
        body = full.read()
    finally:
        conn.close()
    assert len(body) == length and body.startswith(b"config")
    assert len(writes) == 2 and writes[0].endswith(b"\r\n\r\n")


def test_sse_is_framed_by_connection_close(carrier):
    server, job_id, _, _ = carrier
    sock = socket.create_connection((server.host, server.port), timeout=30)
    try:
        sock.sendall(
            f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
            f"Host: {server.host}\r\n\r\n".encode()
        )
        raw = b""
        while chunk := sock.recv(65536):  # the server closes when drained
            raw += chunk
    finally:
        sock.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    headers = head.decode().lower().splitlines()
    assert headers[0].startswith("http/1.1 200")
    assert "connection: close" in headers
    assert not any(h.startswith("content-length") for h in headers)
    frames = [f for f in body.decode().split("\n\n") if f.startswith("id: ")]
    last = json.loads(frames[-1].split("data: ", 1)[1])
    assert last == {"seq": len(frames), "event": "state", "state": "succeeded"}
