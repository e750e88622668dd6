import errno
import gc
import http.client
import json
import logging
import math
import random
import shutil
import socket
import ssl
import struct
import subprocess
import sys
import threading
import time
import urllib.parse
import urllib.request
import warnings
from contextlib import ExitStack, contextmanager
from types import SimpleNamespace

import pytest

from liot import gateway
from liot.config import RunConfig
from liot.engine import BODY_LIMIT, EndpointCall, Engine, ExternalInsert
from liot.gateway import AsyncDelivery, GatewayServer, OutboundClient
from liot.lexer import tokenize
from liot.parser import parse_program
from liot.runtime import EngineRuntime
from liot.values import NUMBER, format_number, parse_query_value, value_to_param

from .helpers import (
    get_json, http_get, liot_threads, module_call_error, record_wire, running_stack, stub_server,
)

PROGRAM = """
RELATION R (MAC, RSSI)
RELATION ALARMS (MAC, RSSI)
ENDPOINT NEW_RECORD (M, RS)
{
    R(M, RS)
}
RULE R1 R.RSSI < -60
{
    ALARMS(R.MAC, R.RSSI)
}
"""


def wait_applied(runtime):
    runtime.wait_idle()


def test_healthz():
    with running_stack(PROGRAM) as (runtime, base):
        status, body = http_get(f"{base}/healthz")
        assert status == 200
        assert body == b'{"ok":true}'


def test_ingest_and_read_round_trip():
    with running_stack(PROGRAM) as (runtime, base):
        status, payload = get_json(f"{base}/rel/R/insert?MAC=38:E7:D8:D3:18:68&RSSI=-87")
        assert status == 202
        assert payload["queued"] is True and payload["seq"] >= 1
        wait_applied(runtime)
        status, body = http_get(f"{base}/rel/R/read")
        assert status == 200
        records = json.loads(body)
        assert len(records) == 1
        record = records[0]
        assert record["MAC"] == "38:E7:D8:D3:18:68"
        assert record["RSSI"] == -87
        assert isinstance(record["T"], int)
        # key order is pinned: T first, then declared field order
        assert list(record) == ["T", "MAC", "RSSI"]


def test_read_is_byte_stable():
    with running_stack(PROGRAM) as (runtime, base):
        http_get(f"{base}/rel/R/insert?MAC=aa&RSSI=-70")
        wait_applied(runtime)
        first = http_get(f"{base}/rel/R/read?limit=5")[1]
        for _ in range(5):
            assert http_get(f"{base}/rel/R/read?limit=5")[1] == first


def test_read_limits_and_order():
    with running_stack(PROGRAM) as (runtime, base):
        assert get_json(f"{base}/rel/R/read?limit=10")[1] == []
        for i in range(3):
            http_get(f"{base}/rel/R/insert?MAC=m{i}&RSSI=-{70 + i}")
        wait_applied(runtime)
        records = get_json(f"{base}/rel/R/read?limit=2")[1]
        assert [r["MAC"] for r in records] == ["m2", "m1"]
        records = get_json(f"{base}/rel/R/read?limit=100")[1]
        assert [r["MAC"] for r in records] == ["m2", "m1", "m0"]
        # a limit past sys.maxsize still means the whole window
        records = get_json(f"{base}/rel/R/read?limit=99999999999999999999")[1]
        assert [r["MAC"] for r in records] == ["m2", "m1", "m0"]
        # default limit is 1
        records = get_json(f"{base}/rel/R/read")[1]
        assert [r["MAC"] for r in records] == ["m2"]


def test_ingest_errors():
    with running_stack(PROGRAM) as (runtime, base):
        assert http_get(f"{base}/rel/NOPE/insert?x=1")[0] == 404
        status, payload = get_json(f"{base}/rel/R/insert?MAC=aa")
        assert status == 400 and "RSSI" in payload["error"]
        status, payload = get_json(f"{base}/rel/R/insert?MAC=aa&RSSI=1&RSSI=2")
        assert status == 400 and "duplicate" in payload["error"]
        status, payload = get_json(f"{base}/rel/R/insert?MAC=aa&RSSI=1&EXTRA=9")
        assert status == 400 and "EXTRA" in payload["error"]


def test_read_errors():
    with running_stack(PROGRAM) as (runtime, base):
        assert http_get(f"{base}/rel/NOPE/read")[0] == 404
        assert http_get(f"{base}/rel/R/read?limit=0")[0] == 400
        assert http_get(f"{base}/rel/R/read?limit=-2")[0] == 400
        assert http_get(f"{base}/rel/R/read?limit=abc")[0] == 400


def test_unknown_route_404():
    with running_stack(PROGRAM) as (runtime, base):
        assert http_get(f"{base}/nope")[0] == 404
        assert http_get(f"{base}/rel/R/other")[0] == 404


def test_endpoint_route_runs_body():
    with running_stack(PROGRAM) as (runtime, base):
        status, _ = get_json(f"{base}/endpoint/NEW_RECORD?M=aa:bb&RS=-40")
        assert status == 202
        wait_applied(runtime)
        records = get_json(f"{base}/rel/R/read")[1]
        assert records[0]["MAC"] == "aa:bb" and records[0]["RSSI"] == -40


def test_endpoint_errors():
    with running_stack(PROGRAM) as (runtime, base):
        assert http_get(f"{base}/endpoint/NOPE?x=1")[0] == 404
        status, payload = get_json(f"{base}/endpoint/NEW_RECORD?M=aa")
        assert status == 400 and "RS" in payload["error"]


def test_query_value_typing():
    assert parse_query_value("-87") == -87.0
    assert parse_query_value("2.5") == 2.5
    assert parse_query_value("true") is True
    assert parse_query_value("false") is False
    assert parse_query_value("38:E7:D8:D3:18:68") == "38:E7:D8:D3:18:68"
    assert parse_query_value("TRUE") == "TRUE"
    assert parse_query_value("1e5") == "1e5"
    assert parse_query_value("") == ""


def random_finite_doubles(rng, count):
    """Finite doubles of every magnitude, subnormals and 1e308 included."""
    for _ in range(count):
        value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(value):
            yield value


def test_a_value_with_a_query_form_reads_back_from_its_query_text():
    rng = random.Random(16)
    numbers = [*random_finite_doubles(rng, 5000), 5e-324, 1e-7, 1e20, 1e308, sys.float_info.max,
               *(float(2**53 + rng.randint(1, 2**70)) for _ in range(200)), float(2**60)]
    alphabet = "0123456789-.eE+ tfrualsxé:"
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6))) for _ in range(2000)]
    texts = [t for t in texts if not NUMBER.fullmatch(t) and t not in ("true", "false")]
    for value in [*numbers, True, False, *texts]:
        back = parse_query_value(value_to_param(value))
        assert back == value and type(back) is type(value), value
    for value in numbers:
        if value >= 0:
            assert [t.value for t in tokenize(format_number(value))] == [value]


def test_typed_values_survive_the_wire():
    src = "RELATION F (NUM, FLAG, TXT)"
    with running_stack(src) as (runtime, base):
        http_get(f"{base}/rel/F/insert?NUM=2.5&FLAG=true&TXT=01x")
        wait_applied(runtime)
        record = get_json(f"{base}/rel/F/read")[1][0]
        assert record["NUM"] == 2.5
        assert record["FLAG"] is True
        assert record["TXT"] == "01x"


def test_concurrent_endpoint_calls_all_apply():
    import threading

    with running_stack(PROGRAM) as (runtime, base):
        def hit(i):
            http_get(f"{base}/endpoint/NEW_RECORD?M=m{i}&RS=-10")

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wait_applied(runtime)
        records = get_json(f"{base}/rel/R/read?limit=100")[1]
        assert sorted(r["MAC"] for r in records) == sorted(f"m{i}" for i in range(16))
        # arrival order defines seq order even under concurrency
        seqs = [r["T"] for r in records]
        assert seqs == sorted(seqs, reverse=True)


def test_queue_full_returns_503():
    from liot.config import RunConfig
    from liot.engine import Engine
    from liot.gateway import GatewayServer
    from liot.parser import parse_program
    from liot.runtime import EngineRuntime

    engine = Engine(parse_program("RELATION R (X)"), config=RunConfig(queue_size=2))
    engine.load()
    runtime = EngineRuntime(engine)  # loop thread never started: nothing drains
    server = GatewayServer(runtime, host="127.0.0.1", port=0)
    server.start()
    try:
        base = server.base_url
        assert http_get(f"{base}/rel/R/insert?X=1")[0] == 202
        assert http_get(f"{base}/rel/R/insert?X=2")[0] == 202
        status, body = http_get(f"{base}/rel/R/insert?X=3")
        assert status == 503
        assert b"queue" in body
    finally:
        server.stop()
        engine.close()


def test_each_reply_is_one_write(monkeypatch):
    # headers and body in separate writes stall a reused connection on
    # Nagle's algorithm and the client's delayed ACK
    wire = record_wire(monkeypatch)
    with running_stack(PROGRAM) as (runtime, base):
        connection = http.client.HTTPConnection(base.removeprefix("http://"), timeout=5)
        paths = ["/healthz", "/rel/R/insert?MAC=aa&RSSI=-87", "/rel/R/insert?MAC=aa",
                 "/rel/R/read?limit=3", "/endpoint/NEW_RECORD?M=m&RS=1", "/nope"]
        try:
            for count, path in enumerate(paths, start=1):
                connection.request("GET", path)
                response = connection.getresponse()
                body = response.read()
                assert len(wire.writes) == count, path
                assert wire.writes[-1].startswith(b"HTTP/1.1 %d " % response.status)
                assert wire.writes[-1].endswith(b"\r\n\r\n" + body)
        finally:
            connection.close()
    assert len(wire.peers) == 1


def test_fifty_inserts_on_one_connection(monkeypatch):
    wire = record_wire(monkeypatch)
    with running_stack(PROGRAM) as (runtime, base):
        connection = http.client.HTTPConnection(base.removeprefix("http://"), timeout=5)
        try:
            statuses = []
            for i in range(50):
                connection.request("GET", f"/rel/R/insert?MAC=m{i}&RSSI=-{i}")
                response = connection.getresponse()
                response.read()
                statuses.append(response.status)
        finally:
            connection.close()
        assert statuses == [202] * 50
        runtime.wait_idle()
        assert runtime.engine.store.size("R") == 50
    assert len(wire.peers) == 1


def test_oversized_numeric_parameter_rejected():
    with running_stack(PROGRAM) as (runtime, base):
        status, _ = http_get(f"{base}/rel/R/insert?MAC=aa&RSSI={'9' * 400}")
        assert status == 400


# -- the request reader on the wire -------------------------------------------------


def open_raw(base):
    host, port = base.removeprefix("http://").split(":")
    return socket.create_connection((host, int(port)), timeout=5)


def read_replies(sock, count):
    """``count`` whole replies as (status, body), then whether the server
    closed the connection after them."""
    data, replies = b"", []
    while len(replies) < count:
        head_end = data.find(b"\r\n\r\n")
        if head_end >= 0:
            head = data[:head_end].decode("latin-1")
            length = int(head.split("Content-Length: ")[1].split("\r\n")[0])
            end = head_end + 4 + length
            if len(data) >= end:
                replies.append((int(head.split(" ")[1]), data[head_end + 4:end]))
                data = data[end:]
                continue
        chunk = sock.recv(65536)
        assert chunk, f"connection closed after {len(replies)} of {count} replies"
        data += chunk
    assert data == b""
    sock.settimeout(0.3)
    try:
        closed = sock.recv(1) == b""
    except TimeoutError:
        closed = False
    except ConnectionResetError:  # closed with part of the request unread
        closed = True
    return replies, closed


def exchange(base, request, count=1):
    with open_raw(base) as sock:
        sock.sendall(request)
        return read_replies(sock, count)


@pytest.mark.parametrize("request_bytes, status", [
    (b"GET /a b HTTP/1.1\r\n\r\n", 400),
    (b"GET /healthz FOO/1.1\r\n\r\n", 400),
    (b"GET /healthz\r\n\r\n", 400),  # HTTP/0.9 is not served
    (b"GET /" + b"a" * 65537 + b" HTTP/1.1\r\n\r\n", 414),
    (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 65537 + b"\r\n\r\n", 431),
    (b"GET /healthz HTTP/1.1\r\n" + b"X: 1\r\n" * 101 + b"\r\n", 431),
    (b"POST /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501),
    (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
    (b"GET http://[/healthz HTTP/1.1\r\n\r\n", 400),
], ids=["three words needed", "bad version", "HTTP/0.9", "414", "long header",
        "101 headers", "POST", "HTTP/2.0", "unclosed IPv6 bracket"])
def test_malformed_request_gets_a_json_error_and_the_connection_closes(request_bytes, status):
    with running_stack(PROGRAM) as (runtime, base):
        [(got, body)], closed = exchange(base, request_bytes)
    assert got == status
    assert list(json.loads(body)) == ["error"]
    assert closed


def test_one_hundred_headers_are_accepted():
    with running_stack(PROGRAM) as (runtime, base):
        request = b"GET /healthz HTTP/1.1\r\n" + b"X: 1\r\n" * 100 + b"\r\n"
        assert exchange(base, request) == ([(200, b'{"ok":true}')], False)


@pytest.mark.parametrize("version, connection, closed", [
    (b"HTTP/1.0", b"", True),
    (b"HTTP/1.0", b"Connection: keep-alive\r\n", False),
    (b"HTTP/1.1", b"", False),
    (b"HTTP/1.1", b"Connection: close\r\n", True),
    (b"HTTP/1.1", b"connection: Close\r\n", True),
])
def test_keep_alive_follows_the_version_and_the_connection_header(version, connection, closed):
    with running_stack(PROGRAM) as (runtime, base):
        request = b"GET /healthz %s\r\nHost: x\r\n%s\r\n" % (version, connection)
        assert exchange(base, request) == ([(200, b'{"ok":true}')], closed)


def test_pipelined_requests_get_their_replies_in_order():
    with running_stack(PROGRAM) as (runtime, base):
        request = (b"GET /rel/R/insert?MAC=aa&RSSI=-1 HTTP/1.1\r\n\r\n"
                   b"GET /nope HTTP/1.1\r\n\r\n"
                   b"GET /healthz HTTP/1.1\r\n\r\n")
        replies, closed = exchange(base, request, count=3)
    assert [status for status, _ in replies] == [202, 404, 200]
    assert not closed


@pytest.mark.parametrize("target", [
    "//rel/R/read?limit=2",  # would read as a host name without the collapse
    "///rel/R/read?limit=2",
    "http://127.0.0.1/rel/R/read?limit=2",
])
def test_request_target_forms_route_as_a_plain_path(target):
    with running_stack(PROGRAM) as (runtime, base):
        assert exchange(base, b"GET /rel/R/insert?MAC=aa&RSSI=-1 HTTP/1.1\r\n\r\n")[0][0][0] == 202
        runtime.wait_idle()
        [(status, body)], _ = exchange(base, b"GET %s HTTP/1.1\r\n\r\n" % target.encode())
    assert status == 200 and [r["MAC"] for r in json.loads(body)] == ["aa"]


def test_a_client_reset_in_the_middle_of_a_head_leaves_nothing_on_stderr(capfd):
    with running_stack(PROGRAM) as (runtime, base):
        for _ in range(3):
            sock = open_raw(base)
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: ")
            time.sleep(0.05)  # the handler reads the partial head, then waits
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()  # a linger of 0 sends a reset
        time.sleep(0.2)
        assert http_get(f"{base}/healthz")[0] == 200
    assert capfd.readouterr().err == ""


def test_a_silent_connection_is_closed_and_its_thread_ends(monkeypatch):
    monkeypatch.setattr(gateway, "IDLE_TIMEOUT_SECONDS", 0.3)
    with running_stack(PROGRAM) as (runtime, base):
        baseline = set(threading.enumerate())
        socks = [open_raw(base) for _ in range(5)]
        try:
            for sock in socks:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                reply = json_reply(b"200 OK", b'{"ok":true}')
                assert receive(sock, len(reply)) == reply  # kept open, then left silent
            connection_threads = set(threading.enumerate()) - baseline
            assert len(connection_threads) == 5
            for sock in socks:
                assert sock.recv(1) == b""  # closed by the server well within 5 s
        finally:
            for sock in socks:
                sock.close()
        for thread in connection_threads:
            thread.join(5)
            assert not thread.is_alive()
        assert http_get(f"{base}/healthz")[0] == 200


# -- the accept loop ------------------------------------------------------------------


def unstarted_runtime():
    return EngineRuntime(Engine(parse_program("RELATION R (X)")))


@pytest.mark.parametrize("keep_alive", [False, True], ids=["idle", "a kept connection open"])
def test_stop_returns_at_once(keep_alive):
    server = GatewayServer(unstarted_runtime(), host="127.0.0.1", port=0)
    base = server.base_url
    server.start()
    with ExitStack() as kept:
        if keep_alive:
            sock = kept.enter_context(open_raw(base))
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert read_replies(sock, 1) == ([(200, b'{"ok":true}')], False)
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 0.05
        if keep_alive:  # the open connection is still served
            sock.settimeout(5)
            sock.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            assert read_replies(sock, 1) == ([(200, b'{"ok":true}')], True)
    with pytest.raises(ConnectionRefusedError):  # the listener is closed
        open_raw(base).close()


def test_the_accept_loop_outlives_a_failed_accept_and_a_failed_thread_start(monkeypatch, caplog):
    failures = ["accept", "thread"]  # in the order they are met

    class FlakyListener(socket.socket):
        __slots__ = ()

        def accept(self):
            if failures[:1] == ["accept"]:
                failures.pop(0)
                raise OSError(errno.EMFILE, "Too many open files")
            return super().accept()

    class FlakyThread(threading.Thread):
        def start(self):
            if failures[:1] == ["thread"]:
                failures.pop(0)
                raise RuntimeError("can't start new thread")
            super().start()

    monkeypatch.setattr(gateway, "threading", SimpleNamespace(Thread=FlakyThread))
    server = GatewayServer(unstarted_runtime(), host="127.0.0.1", port=0)
    server.listener.__class__ = FlakyListener
    server.start()
    try:
        with open_raw(server.base_url) as dropped:
            dropped.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            try:
                assert dropped.recv(1) == b""  # closed without a reply
            except ConnectionResetError:
                pass
        with open_raw(server.base_url) as served:
            served.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert read_replies(served, 1) == ([(200, b'{"ok":true}')], False)
    finally:
        server.stop()
    assert failures == []
    messages = [r.getMessage() for r in caplog.records if r.name == "liot.gateway"]
    assert "accept failed: [Errno 24] Too many open files" in messages
    assert [m for m in messages if m.startswith("cannot serve ('127.0.0.1', ")
            and m.endswith("): can't start new thread")]


def test_a_kept_connection_gets_503_once_shutdown_has_begun(tmp_path):
    log = tmp_path / "run.jsonl"
    with running_stack("RELATION R (X)", RunConfig(log_path=str(log))) as (runtime, base):
        sock = open_raw(base)
        sock.sendall(b"GET /rel/R/insert?X=1 HTTP/1.1\r\n\r\n")
        assert read_replies(sock, 1) == ([(202, b'{"queued":true,"seq":1}')], False)
    # the stack has stopped its server and shut its runtime down
    with sock:
        sock.settimeout(5)
        sock.sendall(b"GET /rel/R/insert?X=2 HTTP/1.1\r\n\r\n"
                     b"GET /rel/R/read?limit=5 HTTP/1.1\r\n\r\n")
        (refused, read), closed = read_replies(sock, 2)
    assert refused == (503, b'{"error":"event loop is shutting down"}')
    assert read[0] == 200 and [r["X"] for r in json.loads(read[1])] == [1]
    assert not closed
    assert [json.loads(line)["v"] for line in log.read_text().splitlines()] == [[1]]


def json_reply(status: bytes, body: bytes) -> bytes:
    return (b"HTTP/1.1 %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
            % (status, len(body), body))


def receive(sock, size):
    data = b""
    while len(data) < size:
        chunk = sock.recv(65536)
        assert chunk, data
        data += chunk
    return data


def test_reply_bytes_of_each_route_are_pinned():
    routes = [
        (b"/healthz", json_reply(b"200 OK", b'{"ok":true}')),
        (b"/rel/R/insert?MAC=aa&RSSI=-87", json_reply(b"202 Accepted", b'{"queued":true,"seq":1}')),
        (b"/rel/R/insert?MAC=aa",
         json_reply(b"400 Bad Request", b'{"error":"missing parameter \'RSSI\'"}')),
        (b"/nope", json_reply(b"404 Not Found", b'{"error":"no route for /nope"}')),
    ]
    with running_stack(PROGRAM) as (runtime, base), open_raw(base) as sock:
        for target, reply in routes:
            sock.sendall(b"GET %s HTTP/1.1\r\n\r\n" % target)
            assert receive(sock, len(reply)) == reply


def test_reply_bytes_of_a_503_are_pinned():
    engine = Engine(parse_program("RELATION R (X)"), config=RunConfig(queue_size=1))
    engine.load()
    runtime = EngineRuntime(engine)  # loop thread never started: nothing drains
    server = GatewayServer(runtime, host="127.0.0.1", port=0)
    server.start()
    replies = (json_reply(b"202 Accepted", b'{"queued":true,"seq":1}')
               + json_reply(b"503 Service Unavailable", b'{"error":"event queue is full"}'))
    try:
        with open_raw(server.base_url) as sock:
            sock.sendall(b"GET /rel/R/insert?X=1 HTTP/1.1\r\n\r\n"
                         b"GET /rel/R/insert?X=2 HTTP/1.1\r\n\r\n")
            assert receive(sock, len(replies)) == replies
    finally:
        server.stop()
        engine.close()


# -- outbound: webhooks, module calls, mapped relations ---------------------------


def test_webhook_receives_one_get_per_insert():
    with stub_server() as stub:
        config = RunConfig(webhooks={"R": f"{stub.url}/hook"})
        with running_stack(PROGRAM, config) as (runtime, base):
            http_get(f"{base}/rel/R/insert?MAC=aa&RSSI=-87")
            wait_applied(runtime)
        # stack shutdown flushes the async delivery queue
        assert stub.request_count("/hook") == 1
        path, params = stub.requests[0]
        assert params[0][0] == "T" and [p[0] for p in params[1:]] == ["MAC", "RSSI"]
        assert dict(params)["RSSI"] == "-87"


def test_no_webhook_no_outbound_traffic():
    with stub_server() as stub:
        with running_stack(PROGRAM) as (runtime, base):
            http_get(f"{base}/rel/R/insert?MAC=aa&RSSI=-87")
            wait_applied(runtime)
        assert stub.requests == []


def test_webhook_fires_per_row_for_body_inserts():
    src = """
RELATION OUT (N)
ENDPOINT THREE ()
{
  OUT(1)
  OUT(2)
  OUT(3)
}
"""
    with stub_server() as stub:
        config = RunConfig(webhooks={"OUT": f"{stub.url}/cb"})
        with running_stack(src, config) as (runtime, base):
            http_get(f"{base}/endpoint/THREE")
            wait_applied(runtime)
        assert stub.request_count("/cb") == 3


def test_module_call_against_stub():
    src = """
RELATION OUT (N)
MODULE COUNTER (count)
MAP MODULE COUNTER : {target}
ENDPOINT E ()
{{
  CALL COUNTER (7)
  OUT(COUNTER.count)
}}
"""
    with stub_server() as stub:
        stub.responses["/counter"] = (200, b'{"count": 7}')
        with running_stack(src.format(target=f"{stub.url}/counter")) as (runtime, base):
            http_get(f"{base}/endpoint/E")
            wait_applied(runtime)
            assert get_json(f"{base}/rel/OUT/read")[1][0]["N"] == 7
        assert stub.requests[0] == ("/counter", [("p1", "7")])


def test_module_call_failure_keeps_prior_inserts():
    src = """
RELATION OUT (N)
MODULE M (v)
MAP MODULE M : {target}
ENDPOINT E ()
{{
  OUT(1)
  CALL M ()
  OUT(2)
}}
"""
    with stub_server() as stub:
        stub.responses["/m"] = (500, b"boom")
        with running_stack(src.format(target=f"{stub.url}/m")) as (runtime, base):
            http_get(f"{base}/endpoint/E")
            wait_applied(runtime)
            records = get_json(f"{base}/rel/OUT/read?limit=10")[1]
            assert [r["N"] for r in records] == [1]
            assert runtime.engine.event_errors


def test_module_response_over_body_cap_rejected():
    src = """
MODULE BIG (v)
MAP MODULE BIG : {target}
ENDPOINT E () {{ CALL BIG () }}
"""
    with stub_server() as stub:
        stub.responses["/big"] = (200, b'{"v":"' + b"x" * (2 * 1024 * 1024) + b'"}')
        with running_stack(src.format(target=f"{stub.url}/big")) as (runtime, base):
            http_get(f"{base}/endpoint/E")
            runtime.wait_idle()
            assert runtime.engine.event_errors
            assert "exceeds" in runtime.engine.event_errors[0]


def test_mapped_relation_forwards_then_applies_locally():
    src = "RELATION R (MAC, RSSI)\nMAP RELATION R : {target}"
    with stub_server() as stub:
        stub.responses["/backend/insert"] = (200, b"ok")
        with running_stack(src.format(target="{}/backend".format(stub.url))) as (runtime, base):
            http_get(f"{base}/rel/R/insert?MAC=aa&RSSI=-87")
            wait_applied(runtime)
            assert stub.request_count("/backend/insert") == 1
            # applied locally after the 2xx forward: reads stay local
            assert get_json(f"{base}/rel/R/read")[1][0]["RSSI"] == -87


def test_a_forwarded_row_is_stored_alike_on_both_nodes():
    with running_stack("RELATION R (X)") as (cloud, base):
        config = RunConfig()
        edge = Engine(parse_program(f"RELATION R (X)\nMAP RELATION R : {base}/rel/R"),
                      config=config, outbound=AsyncDelivery(OutboundClient(), config.call_timeout_ms))
        edge.load()
        sent = [1e20, 1e-7, float(2**60), 123.5, "abc", "12", "true", None]
        errors = [edge.process_event(ExternalInsert("R", (value,))).error for value in sent]
        edge.close()
        cloud.wait_idle()
        stored = {name: [(type(r.values[0]), r.values[0]) for r in engine.store.read("R", 100)]
                  for name, engine in (("edge", edge), ("cloud", cloud.engine))}
    assert errors[:5] == [None] * 5
    assert errors[5:] == [
        f"ScalarError: R.X holds {kind} {text!r}, which {base}/rel/R/insert would read as "
        f"{back}; row not forwarded"
        for kind, text, back in [("text", "12", "number"), ("text", "true", "boolean"),
                                 ("null", "null", "text")]]
    assert stored["edge"] == stored["cloud"] == [(type(v), v) for v in reversed(sent[:5])]


def test_mapped_relation_forward_failure_drops_record():
    src = "RELATION R (MAC, RSSI)\nMAP RELATION R : {target}"
    with stub_server() as stub:
        stub.responses["/backend/insert"] = (503, b"down")
        with running_stack(src.format(target="{}/backend".format(stub.url))) as (runtime, base):
            http_get(f"{base}/rel/R/insert?MAC=aa&RSSI=-87")
            wait_applied(runtime)
            assert get_json(f"{base}/rel/R/read?limit=5")[1] == []


def test_relative_map_target_resolves_against_own_server():
    # an endpoint of the same program plays the module implementation
    src = """
RELATION OUT (N)
MODULE LOOP ()
MAP MODULE LOOP : endpoint/PING
ENDPOINT PING (p1)
{
  OUT(p1)
}
ENDPOINT E ()
{
  ACALL LOOP (5)
}
"""
    with running_stack(src) as (runtime, base):
        http_get(f"{base}/endpoint/E")
        wait_applied(runtime)
        runtime.wait_idle()
        # the async call loops back into our own endpoint queue
        import time

        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            records = get_json(f"{base}/rel/OUT/read")[1]
            if records:
                break
            time.sleep(0.01)
        assert records[0]["N"] == 5


def test_a_delivery_closed_without_a_submit_starts_no_thread():
    before = set(threading.enumerate())
    delivery = AsyncDelivery(OutboundClient(), timeout_ms=5000)
    assert liot_threads(before) == []
    delivery.close()
    assert set(threading.enumerate()) <= before


def test_two_delivery_workers_deliver_every_row_and_close_drains():
    rows = 40
    with stub_server() as stub:
        delivery = AsyncDelivery(OutboundClient(), timeout_ms=5000)
        delivery.submit_async(f"{stub.url}/hook", [("N", "0")])
        assert sum(w.is_alive() for w in delivery._workers) == AsyncDelivery.WORKERS == 2
        for i in range(1, rows):
            delivery.submit_async(f"{stub.url}/hook", [("N", str(i))])
        delivery.close()
        # close() returns only once every queued row has been delivered
        assert stub.request_count("/hook") == rows
        assert sorted(int(params[0][1]) for _, params in stub.requests) == list(range(rows))
        assert (delivery.delivered, delivery.failed) == (rows, 0)
        assert delivery._queue.unfinished_tasks == 0


def test_delivery_counters_lose_no_update_between_workers():
    class CountingClient:
        def __init__(self):
            self.calls = 0
            self.lock = threading.Lock()

        def get(self, url, params, timeout_ms):
            with self.lock:
                self.calls += 1
            return (200 if params[0][1] != "fail" else 500), b""

    rows = 3000
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        client = CountingClient()
        delivery = AsyncDelivery(client, timeout_ms=1000, capacity=rows)
        for i in range(rows):
            delivery.submit_async("http://unused/", [("N", "fail" if i % 3 == 0 else str(i))])
        closer = threading.Thread(target=delivery.close)
        closer.start()
        closer.join(timeout=30)
        assert not closer.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert client.calls == rows
    assert delivery.failed == rows // 3
    assert delivery.delivered == rows - rows // 3


# -- the outbound client on the wire ----------------------------------------------


@pytest.fixture
def no_unclosed_sockets():
    """Fail the test if any socket or file it opened is left unclosed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaked = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaked == []


@contextmanager
def raw_stub(reply, connections=1, tls=None, drip=None):
    """Accept up to ``connections`` connections on a free port. Each request
    head is recorded, answered with ``reply`` (None: never answer; with
    ``drip``, one byte every ``drip`` seconds) and the connection closed.
    Yields (base URL, recorded heads)."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)
    heads: list[bytes] = []
    stop = threading.Event()

    def serve():
        for _ in range(connections):
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            try:
                if tls is not None:
                    conn = tls.wrap_socket(conn, server_side=True)
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    data += chunk
                heads.append(data)
                if reply is None:
                    stop.wait(5)
                elif drip is None:
                    conn.sendall(reply)
                else:
                    for byte in reply:
                        if stop.wait(drip):
                            break
                        conn.sendall(bytes([byte]))
            except OSError:
                pass
            finally:
                conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    scheme = "http" if tls is None else "https"
    try:
        yield f"{scheme}://127.0.0.1:{listener.getsockname()[1]}", heads
    finally:
        stop.set()
        listener.shutdown(socket.SHUT_RDWR)  # wakes a thread blocked in accept()
        listener.close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def request_target(head: bytes) -> bytes:
    return head.split(b"\r\n", 1)[0].split(b" ")[1]


OK_REPLY = b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n{}"


@pytest.mark.parametrize("path, params", [
    ("/hooks/in", [("T", "5"), ("MAC", "38:E7:D8:D3:18:68"), ("RSSI", "-87")]),
    ("/p?key=1", [("x", "2")]),
    ("/a/b", [("TXT", "two words"), ("NAME", "Grüße & ?=#"), ("EMPTY", "")]),
    ("", [("x", "1")]),
    ("/plain", []),
])
def test_outbound_request_target_matches_urllib(no_unclosed_sockets, path, params):
    with raw_stub(OK_REPLY, connections=2) as (base, heads):
        full = base + path + ("?" + urllib.parse.urlencode(params) if params else "")
        with urllib.request.urlopen(full, timeout=5) as response:
            response.read()
        assert OutboundClient().get(base + path, params, 5000) == (200, b"{}")
    assert len(heads) == 2
    assert request_target(heads[1]) == request_target(heads[0])
    assert heads[1] == b"GET %s HTTP/1.0\r\nHost: %s\r\n\r\n" % (
        request_target(heads[0]), base.removeprefix("http://").encode())


def test_outbound_returns_a_redirect_instead_of_following_it(no_unclosed_sockets):
    reply = b"HTTP/1.0 302 Found\r\nLocation: /elsewhere\r\n\r\nmoved"
    with raw_stub(reply, connections=2) as (base, heads):
        assert OutboundClient().get(f"{base}/old", [], 5000) == (302, b"moved")
    assert [request_target(h) for h in heads] == [b"/old"]


def call_engine(base_url: str) -> Engine:
    """A loaded engine whose endpoint E CALLs module M (no outputs) at
    ``base_url``/m with the real client."""
    source = "MODULE M ()\nMAP MODULE M : m\nENDPOINT E () { CALL M () }"
    config = RunConfig(base_url=base_url)
    outbound = AsyncDelivery(OutboundClient(), config.call_timeout_ms)
    engine = Engine(parse_program(source), config=config, outbound=outbound)
    engine.load()
    return engine


def test_outbound_body_limit(no_unclosed_sockets):
    message = f"module response exceeds {BODY_LIMIT} bytes"
    for size, error in [(BODY_LIMIT, None), (BODY_LIMIT + 1, f"ModuleCallError: {message}")]:
        reply = b"HTTP/1.0 200 OK\r\n\r\n" + b"x" * size
        with raw_stub(reply, connections=1 if error is None else 2) as (base, _):
            engine = call_engine(base)
            assert engine.process_event(EndpointCall("E", ())).error == error
            if error is not None:
                err = module_call_error(engine, EndpointCall("E", ()))
                assert (err.kind, str(err)) == ("malformed-body", message)


def test_outbound_reads_at_most_body_limit_plus_one_bytes(no_unclosed_sockets):
    with raw_stub(b"HTTP/1.0 200 OK\r\n\r\n" + b"y" * (BODY_LIMIT + 100_000)) as (base, _):
        status, body = OutboundClient().get(base, [], 5000)
    assert (status, body) == (200, b"y" * (BODY_LIMIT + 1))


@pytest.mark.parametrize("reply", [
    b"", b"hello there\r\n\r\n", b"HTTP/1.0 2x0 OK\r\n\r\n", b"HTTP/1.0 200 OK\r\n",
    b"HTTP/1.0 2000 OK\r\n\r\n",
])
def test_outbound_rejects_a_reply_without_a_status_line(no_unclosed_sockets, reply):
    with raw_stub(reply) as (base, _):
        with pytest.raises(ConnectionError):
            OutboundClient().get(base, [], 5000)


def test_outbound_times_out_within_the_timeout(no_unclosed_sockets):
    with raw_stub(None) as (base, heads):
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            OutboundClient().get(base, [("x", "1")], 200)
        assert time.monotonic() - started < 2.0
    assert len(heads) == 1


def test_outbound_timeout_bounds_a_reply_that_trickles_in(no_unclosed_sockets):
    # one byte every 50 ms: each recv is quick, the whole reply would take ~3 s
    with raw_stub(OK_REPLY, drip=0.05) as (base, heads):
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            OutboundClient().get(base, [("x", "1")], 500)
        assert time.monotonic() - started < 1.0
    assert len(heads) == 1


def test_a_call_whose_reply_trickles_in_is_a_timeout_error(no_unclosed_sockets):
    with raw_stub(OK_REPLY, drip=0.05) as (base, heads):
        program = parse_program(f"MODULE M (v)\nMAP MODULE M : {base}/m\nENDPOINT E () {{ CALL M () }}")
        engine = Engine(program, config=RunConfig(call_timeout_ms=300),
                        outbound=AsyncDelivery(OutboundClient(), 300))
        started = time.monotonic()
        err = module_call_error(engine, EndpointCall("E", ()))
        assert time.monotonic() - started < 1.0
    assert err.kind == "timeout"
    assert str(err) == f"module call {base}/m timed out"


def test_outbound_refused_connection(no_unclosed_sockets):
    closed = socket.create_server(("127.0.0.1", 0))
    port = closed.getsockname()[1]
    closed.close()
    with pytest.raises(ConnectionError):
        OutboundClient().get(f"http://127.0.0.1:{port}/x", [], 2000)


@pytest.mark.parametrize("url", [
    "{base}/a b", "{base}/a\r\nX-Injected: 1", "{base}/\u00e9", "{base}/tab\there",
    "ftp://127.0.0.1/x", "{base}:notaport/x", "http:///nohost", "no scheme",
])
def test_outbound_refuses_an_unsendable_url_before_connecting(no_unclosed_sockets, url):
    with raw_stub(OK_REPLY) as (base, heads):
        with pytest.raises(ConnectionError):
            OutboundClient().get(url.format(base=base), [("x", "1")], 2000)
    assert heads == []


@pytest.mark.skipif(shutil.which("openssl") is None, reason="openssl is not on PATH")
def test_outbound_https_round_trip(tmp_path, monkeypatch, no_unclosed_sockets):
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1",
         "-keyout", str(key), "-out", str(cert), "-subj", "/CN=127.0.0.1",
         "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True, capture_output=True,
    )
    server_tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    server_tls.load_cert_chain(cert, key)
    # without trusting the certificate the handshake fails
    with raw_stub(OK_REPLY, tls=server_tls) as (base, _):
        with pytest.raises(ConnectionError):
            OutboundClient().get(f"{base}/secure", [], 5000)
    monkeypatch.setenv("SSL_CERT_FILE", str(cert))
    with raw_stub(OK_REPLY, tls=server_tls) as (base, heads):
        assert OutboundClient().get(f"{base}/secure", [("x", "1")], 5000) == (200, b"{}")
    assert [request_target(h) for h in heads] == [b"/secure?x=1"]


# -- a URL that cannot be sent --------------------------------------------------------

BAD_URL = "http://127.0.0.1:9/a b"


def test_unsendable_webhook_is_counted_and_logged(caplog, no_unclosed_sockets):
    delivery = AsyncDelivery(OutboundClient(), 500)
    with caplog.at_level(logging.WARNING, logger="liot.gateway"):
        delivery.submit_async(BAD_URL, [("N", "1")])
        delivery.close()
    assert (delivery.delivered, delivery.failed) == (0, 1)
    assert any(r.getMessage().startswith(f"async GET {BAD_URL} failed") for r in caplog.records)


def test_unsendable_webhooks_leave_the_workers_alive(no_unclosed_sockets):
    with stub_server() as stub:
        delivery = AsyncDelivery(OutboundClient(), 500)
        for _ in range(AsyncDelivery.WORKERS):
            delivery.submit_async(BAD_URL, [])
        deadline = time.monotonic() + 10
        while delivery.failed < AsyncDelivery.WORKERS and time.monotonic() < deadline:
            time.sleep(0.01)
        assert delivery.failed == AsyncDelivery.WORKERS
        assert all(w.is_alive() for w in delivery._workers)
        delivery.submit_async(f"{stub.url}/hook", [("N", "1")])
        delivery.close()
        assert stub.request_count("/hook") == 1
    assert (delivery.delivered, delivery.failed) == (1, AsyncDelivery.WORKERS)


def test_call_to_an_unsendable_url_is_a_transport_error(no_unclosed_sockets):
    engine = call_engine(BAD_URL)
    result = engine.process_event(EndpointCall("E", ()))
    assert result.error.startswith(f"ModuleCallError: module call {BAD_URL}/m failed")
    assert module_call_error(engine, EndpointCall("E", ())).kind == "transport"
