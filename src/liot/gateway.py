"""Inbound HTTP surface and outbound HTTP client.

Everything is GET: sensors insert through query strings, reads return a JSON
array, endpoints accept asynchronous calls, and module calls / webhooks go out
as GETs too. Inbound, the server's own accept loop hands each connection to a
thread of its own, where a small HTTP/1.1 reader serves its requests in order.
Handlers never touch engine state directly; they enqueue an event or take a
store snapshot. Response bodies use one fixed JSON serialization so identical
snapshots yield byte-identical responses. Outbound, each GET is one HTTP/1.0
request on a new connection, and its timeout bounds the whole call.
"""

from __future__ import annotations

import logging
import queue
import re
import socket
import threading
import time
import urllib.parse
from functools import cached_property
from http import HTTPStatus
from typing import TYPE_CHECKING, Callable

from .engine import BODY_LIMIT
from .runtime import EngineRuntime, LoopStoppedError, QueueFullError
from .store import Record
from .values import Value, dump_json, parse_query_value, value_to_json
from .errors import ScalarError

if TYPE_CHECKING:
    import ssl

logger = logging.getLogger("liot.gateway")


# -- outbound ---------------------------------------------------------------------


# Anything but printable ASCII without the space: whitespace, control
# characters (CR/LF among them) and non-ASCII never reach the wire.
_UNSAFE_URL = re.compile(r"[^\x21-\x7e]")
_URL = re.compile(r"(https?)://([^/?#]*)([^#]*)", re.IGNORECASE)

HEAD_LIMIT = 64 * 1024  # status line plus headers of a reply


class OutboundClient:
    """One HTTP/1.0 GET per call on a new connection (RFC 1945).

    The server closes the connection after its reply, so reading until the
    close is the whole framing. Redirects are not followed (a 3xx is the
    result), proxy settings are not consulted and the request carries only
    ``Host``. Timeouts surface as TimeoutError, every other transport
    failure, a URL that cannot be sent as it is and a reply without a status
    line as ConnectionError, HTTP error statuses as plain results. The
    timeout bounds the whole call, from connect to the last byte. The body
    returned is at most ``BODY_LIMIT + 1`` bytes, so callers can tell an
    oversized one.
    """

    @cached_property
    def _tls(self) -> ssl.SSLContext:
        import ssl  # OpenSSL costs ~4.6 MB, so only a client with an https target loads it

        return ssl.create_default_context()

    def get(self, url: str, params: list[tuple[str, str]], timeout_ms: int) -> tuple[int, bytes]:
        full = url + ("?" + urllib.parse.urlencode(params) if params else "")
        match = None if _UNSAFE_URL.search(full) else _URL.match(full)
        if match is None:
            raise ConnectionError(f"cannot send a GET to {full!r}")
        tls = match[1].lower() == "https"
        host_port = match[2].rpartition("@")[2]
        target = match[3] if match[3].startswith("/") else "/" + match[3]
        try:
            split = urllib.parse.urlsplit("//" + host_port)
            host, port = split.hostname, split.port or (443 if tls else 80)
        except ValueError as exc:
            raise ConnectionError(f"cannot send a GET to {full!r}: {exc}") from None
        if not host:
            raise ConnectionError(f"cannot send a GET to {full!r}: no host")
        request = b"GET %s HTTP/1.0\r\nHost: %s\r\n\r\n" % (target.encode(), host_port.encode())
        limit = HEAD_LIMIT + BODY_LIMIT + 1
        deadline = time.monotonic() + timeout_ms / 1000.0
        try:
            sock = socket.create_connection((host, port), timeout_ms / 1000.0)
            try:
                if tls:
                    sock.settimeout(_time_left(deadline))
                    sock = self._tls.wrap_socket(sock, server_hostname=host)
                sock.settimeout(_time_left(deadline))
                sock.sendall(request)
                reply = bytearray()
                while len(reply) < limit:
                    sock.settimeout(_time_left(deadline))
                    chunk = sock.recv(min(limit - len(reply), 65536))
                    if not chunk:
                        break
                    reply += chunk
            finally:
                sock.close()
        except (TimeoutError, ConnectionError):
            raise
        except OSError as exc:
            raise ConnectionError(str(exc)) from exc
        return _parse_reply(reply)


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline`` (a ``time.monotonic`` reading); TimeoutError
    once it has passed."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


def _parse_reply(reply: bytearray) -> tuple[int, bytes]:
    """(status, body) of a whole HTTP/1.x reply; the body is cut after
    ``BODY_LIMIT + 1`` bytes."""
    head_end = reply.find(b"\r\n\r\n", 0, HEAD_LIMIT)
    status_line = reply[:reply.find(b"\r\n")] if head_end >= 0 else b""
    version, _, rest = status_line.partition(b" ")
    code = rest[:3]
    if (not version.startswith(b"HTTP/1.") or len(code) != 3 or not code.isdigit()
            or rest[3:4] not in (b"", b" ")):
        raise ConnectionError(f"malformed HTTP reply: {bytes(reply[:80])!r}")
    start = head_end + 4
    return int(code), bytes(reply[start:start + BODY_LIMIT + 1])


class AsyncDelivery:
    """The engine's ``Outbound``: synchronous GETs for CALL and MAP RELATION
    forwards, and fire-and-forget GETs for ACALL and trigger webhooks.

    ``get`` calls the client on the caller's thread. For ``submit_async``,
    ``WORKERS`` threads take deliveries from one bounded queue. Each GET
    opens a new connection, so one worker's rate is set by the round trip to
    the receiver; two keep up with a sustained insert rate that one falls
    behind. A delivery is attempted at most once, and deliveries of
    different rows may reach the receiver in either order.

    With ``inline=True`` (``liot script``, tests) there are no workers:
    deliveries happen synchronously on the caller's thread, which keeps runs
    deterministic.
    """

    WORKERS = 2

    def __init__(self, client: OutboundClient, timeout_ms: int, inline: bool = False,
                 capacity: int = 1024):
        self.client = client
        self.timeout_ms = timeout_ms
        self.inline = inline
        self.delivered = 0
        self.failed = 0
        self._count_lock = threading.Lock()
        self._queue: queue.Queue[tuple[str, list[tuple[str, str]]] | None] = queue.Queue(capacity)
        self._workers = [] if inline else [
            threading.Thread(target=self._run, name=f"liot-async-{i}", daemon=True)
            for i in range(self.WORKERS)
        ]
        for worker in self._workers:
            worker.start()

    def get(self, url: str, params: list[tuple[str, str]], timeout_ms: int) -> tuple[int, bytes]:
        return self.client.get(url, params, timeout_ms)

    def submit_async(self, url: str, params: list[tuple[str, str]]) -> None:
        if self.inline:
            self._deliver(url, params)
            return
        try:
            self._queue.put_nowait((url, params))
        except queue.Full:
            self._count(False)
            logger.warning("async GET dropped (delivery queue full): %s", url)

    def _count(self, ok: bool) -> None:
        with self._count_lock:
            if ok:
                self.delivered += 1
            else:
                self.failed += 1

    def _deliver(self, url: str, params: list[tuple[str, str]]) -> None:
        try:
            status, _ = self.client.get(url, params, self.timeout_ms)
        except (TimeoutError, OSError) as exc:
            self._count(False)
            logger.warning("async GET %s failed: %s", url, exc)
            return
        ok = 200 <= status < 300
        self._count(ok)
        if not ok:
            logger.warning("async GET %s returned %d", url, status)

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                self._deliver(*item)
            finally:
                self._queue.task_done()

    def close(self) -> None:
        """Deliver everything queued, then stop the workers."""
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join()
        self._workers = []


# -- inbound -------------------------------------------------------------------


def render_record(record: Record, fields: tuple[str, ...]) -> dict:
    """Response object with fixed key order: T first, then declared fields."""
    out: dict = {"T": record.t}
    for name, value in zip(fields, record.values):
        out[name] = value_to_json(value)
    return out


_REPLY_HEAD = "HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n"
_REASONS = {status.value: status.phrase for status in HTTPStatus}

LINE_LIMIT = 65536  # bytes in the request line or in one header line
HEADER_COUNT_LIMIT = 100
# seconds a connection may wait for its next request, or stall a read or a
# write; each open connection holds a thread
IDLE_TIMEOUT_SECONDS = 60.0
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


class _Handler:
    """HTTP/1.1 GET requests on one connection, served in order (RFC 9112).

    Only the request line and the ``Connection`` header are read; a request
    body is not expected. A malformed request gets a JSON error and the
    connection is closed.
    """

    path: str  # request target of the request being served
    url: urllib.parse.SplitResult  # ``path`` split into its parts

    def __init__(self, server: GatewayServer, connection: socket.socket, address: object):
        self.runtime = server.runtime
        self.relations = server.relations  # declared fields of each relation
        self.endpoints = server.endpoints  # declared parameters of each endpoint
        self.connection = connection

    # -- plumbing -------------------------------------------------------

    def handle(self) -> None:
        self.connection.settimeout(IDLE_TIMEOUT_SECONDS)
        with self.connection, self.connection.makefile("rb") as self.rfile:
            try:
                while self._serve_one():
                    pass
            except (ConnectionError, TimeoutError):
                pass  # the client reset the connection or went quiet

    def _serve_one(self) -> bool:
        """Read one request head and answer it; True keeps the connection."""
        readline = self.rfile.readline
        line = readline(LINE_LIMIT + 1)
        if len(line) > LINE_LIMIT:
            return self._refuse(414, "request line too long")
        words = line.decode("latin-1").split()
        if not words:
            return False  # the client closed the connection
        version = _VERSION.fullmatch(words[-1])
        major = int(version[1]) if version else 0
        if major > 1:
            return self._refuse(505, f"{words[-1]} is not supported")
        if len(words) != 3 or major != 1:
            return self._refuse(400, "bad request line")
        keep_alive = int(version[2]) > 0
        for count in range(HEADER_COUNT_LIMIT + 1):
            header = readline(LINE_LIMIT + 1)
            if len(header) > LINE_LIMIT:
                return self._refuse(431, "header line too long")
            if header in (b"\r\n", b"\n"):
                break
            if not header:
                return False  # closed in the middle of the head
            if count == HEADER_COUNT_LIMIT:
                return self._refuse(431, f"more than {HEADER_COUNT_LIMIT} headers")
            name, _, value = header.partition(b":")
            if name.lower() == b"connection":
                value = value.strip().lower()
                if value == b"close":
                    keep_alive = False
                elif value == b"keep-alive":
                    keep_alive = True
        if words[0] != "GET":
            return self._refuse(501, f"method {words[0]} is not supported")
        target = words[1]
        # "//x" would read as a host name; collapse it as http.server does (gh-87389)
        self.path = "/" + target.lstrip("/") if target.startswith("//") else target
        try:
            self.url = urllib.parse.urlsplit(self.path)
        except ValueError as exc:  # say "http://[/x", an IPv6 host whose bracket never closes
            return self._refuse(400, f"bad request target: {exc}")
        self.do_GET()
        return keep_alive

    def _refuse(self, status: int, message: str) -> bool:
        self._fail(status, message)
        return False

    def _reply(self, status: int, payload: object) -> None:
        # One write for status line, headers and body: with two, Nagle's
        # algorithm holds the body until the client's delayed ACK of the
        # headers, ~40 ms per reply on a reused connection.
        body = dump_json(payload).encode("utf-8")
        head = _REPLY_HEAD % (status, _REASONS[status], len(body))
        self.connection.sendall(head.encode("latin-1") + body)

    def _fail(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _query_pairs(self) -> list[tuple[str, str]]:
        return urllib.parse.parse_qsl(self.url.query, keep_blank_values=True)

    def _collect_exact(self, names: tuple[str, ...]) -> list[Value] | None:
        """Each declared name exactly once, nothing extra; None means a 400
        was already sent."""
        pairs = self._query_pairs()
        seen: dict[str, str] = {}
        for key, raw in pairs:
            if key not in names:
                self._fail(400, f"unexpected parameter {key!r}")
                return None
            if key in seen:
                self._fail(400, f"duplicate parameter {key!r}")
                return None
            seen[key] = raw
        missing = [n for n in names if n not in seen]
        if missing:
            self._fail(400, f"missing parameter {missing[0]!r}")
            return None
        try:
            return [parse_query_value(seen[n]) for n in names]
        except ScalarError as exc:
            self._fail(400, str(exc))
            return None

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (bench/tracer.py wraps it by this name)
        path = self.url.path
        parts = [p for p in path.split("/") if p]
        if parts == ["healthz"]:
            failure = self.runtime.failure
            if failure is None:
                self._reply(200, {"ok": True})
            else:
                self._reply(503, {"ok": False, "error": f"event loop stopped: {failure}"})
        elif len(parts) == 3 and parts[0] == "rel" and parts[2] == "insert":
            self._handle_submit(parts[1], self.relations, "relation", self.runtime.submit_insert)
        elif len(parts) == 3 and parts[0] == "rel" and parts[2] == "read":
            self._handle_read(parts[1])
        elif len(parts) == 2 and parts[0] == "endpoint":
            self._handle_submit(parts[1], self.endpoints, "endpoint", self.runtime.submit_endpoint)
        else:
            self._fail(404, f"no route for {path}")

    def _handle_submit(self, name: str, table: dict[str, tuple[str, ...]], noun: str,
                       submit: Callable[[str, tuple[Value, ...]], int]) -> None:
        """Queue an insert into relation ``name`` or a call of endpoint
        ``name``; its query must give each declared field or parameter."""
        names = table.get(name)
        if names is None:
            self._fail(404, f"unknown {noun} {name}")
            return
        values = self._collect_exact(names)
        if values is None:
            return
        try:
            arrival = submit(name, tuple(values))
        except (QueueFullError, LoopStoppedError) as exc:
            self._fail(503, str(exc))
            return
        self._reply(202, {"queued": True, "seq": arrival})

    def _handle_read(self, relation: str) -> None:
        fields = self.relations.get(relation)
        if fields is None:
            self._fail(404, f"unknown relation {relation}")
            return
        pairs = dict(self._query_pairs())
        raw_limit = pairs.get("limit", "1")
        try:
            limit = int(raw_limit)
        except ValueError:
            self._fail(400, f"limit must be an integer, got {raw_limit!r}")
            return
        if limit < 1:
            self._fail(400, f"limit must be positive, got {limit}")
            return
        records = self.runtime.engine.store.read(relation, limit)
        self._reply(200, [render_record(r, fields) for r in records])


class GatewayServer:
    """HTTP server bound to the runtime; port 0 picks a free port. One ``liot-http``
    thread accepts connections and serves each on a daemon thread of its own."""

    def __init__(self, runtime: EngineRuntime, host: str = "127.0.0.1", port: int = 8080):
        self.runtime = runtime
        self.relations = {r.name: r.fields for r in runtime.engine.program.relations}
        self.endpoints = {e.name: e.params for e in runtime.engine.program.endpoints}
        self.listener = socket.create_server((host, port))  # sets SO_REUSEADDR
        self._stopping = False
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        host, port = self.listener.getsockname()
        return f"http://{host}:{port}"

    def start(self) -> None:
        self._thread = threading.Thread(target=self._serve, name="liot-http", daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, addr = self.listener.accept()
            except OSError as exc:  # stop() shut the listener down, or say EMFILE
                if self._stopping:
                    return
                logger.warning("accept failed: %s", exc)
                continue
            # _Handler is looked up now, not at import: tests substitute a recording one
            thread = threading.Thread(target=_Handler(self, conn, addr).handle, daemon=True)
            try:
                thread.start()
            except RuntimeError as exc:  # no thread to be had: drop this connection only
                logger.warning("cannot serve %s: %s", addr, exc)
                conn.close()

    def stop(self) -> None:
        """End the accept loop at once; open connections keep their threads."""
        if self._thread is not None:
            self._stopping = True
            self.listener.shutdown(socket.SHUT_RDWR)  # wakes accept() on Linux, the one OS tested
            self._thread.join()
            self._thread = None
        self.listener.close()
