"""Shared test plumbing: tiny HTTP client, recording stub server, full stack."""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.parse
import urllib.request
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from liot import gateway
from liot.cli import serving
from liot.clock import WallClock
from liot.config import RunConfig
from liot.engine import EndpointCall, Engine, ExternalInsert
from liot.errors import ModuleCallError
from liot.parser import parse_program


def http_get(url: str, timeout: float = 5.0) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def get_json(url: str) -> tuple[int, object]:
    status, body = http_get(url)
    return status, json.loads(body)


def module_call_error(engine: Engine, event: ExternalInsert | EndpointCall) -> ModuleCallError:
    """The ModuleCallError that an insert or an endpoint call raises;
    ``process_event`` would keep only its text, not its ``kind``."""
    with pytest.raises(ModuleCallError) as err:
        if isinstance(event, ExternalInsert):
            engine._do_insert(event.relation, engine.store.check(event.relation, event.values))
        else:
            engine._run_endpoint(event)
    return err.value


def liot_threads(exclude=()) -> list[str]:
    """Names of the live ``liot-*`` threads (loop, accept loop, delivery
    workers) not in ``exclude``; connection handler threads are unnamed."""
    return [t.name for t in threading.enumerate()
            if t.name.startswith("liot-") and t not in exclude]


class SettableWallClock(WallClock):
    """A wall clock that reads ``now``, which the test sets."""

    def __init__(self, now_ms):
        super().__init__()
        self.now = now_ms

    def now_ms(self):
        return self.now


class StubServer:
    """Records every GET it receives; responds per-path or with a default."""

    def __init__(self):
        self.requests: list[tuple[str, list[tuple[str, str]]]] = []
        self.responses: dict[str, tuple[int, bytes]] = {}
        self.default_response: tuple[int, bytes] = (200, b"{}")
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def do_GET(self):
                split = urllib.parse.urlsplit(self.path)
                pairs = urllib.parse.parse_qsl(split.query, keep_blank_values=True)
                with stub._lock:
                    stub.requests.append((split.path, pairs))
                status, body = stub.responses.get(split.path, stub.default_response)
                self.send_response_only(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        # a short poll: shutdown() waits up to one poll interval
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.server.server_address[0], self.server.server_address[1]
        return f"http://{host}:{port}"

    def request_count(self, path: str) -> int:
        with self._lock:
            return sum(1 for p, _ in self.requests if p == path)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()


@contextmanager
def stub_server():
    stub = StubServer()
    try:
        yield stub
    finally:
        stub.close()


class WireLog:
    """What the gateway's handler did on the wire: one entry in ``peers``
    per accepted connection, one in ``writes`` per write to a client."""

    def __init__(self):
        self.peers: list[tuple[str, int]] = []
        self.writes: list[bytes] = []


def record_wire(monkeypatch) -> WireLog:
    """Patch the handler class that connections accepted after this call are
    served by, so that their peers and socket writes are recorded."""
    wire = WireLog()

    class RecordingSocket(socket.socket):
        __slots__ = ()  # same layout as socket.socket, so a socket can take this class

        def sendall(self, data, *args):
            wire.writes.append(bytes(data))
            return super().sendall(data, *args)

    class RecordingHandler(gateway._Handler):
        def __init__(self, server, connection, address):
            super().__init__(server, connection, address)
            wire.peers.append(address)
            connection.__class__ = RecordingSocket

    monkeypatch.setattr(gateway, "_Handler", RecordingHandler)
    return wire


@contextmanager
def running_stack(source: str, config: RunConfig | None = None):
    """The served stack of ``liot run`` on a free port; yields (runtime, base_url)."""
    config = config or RunConfig()
    config.port = 0
    with serving(parse_program(source), config) as stack:
        yield stack
