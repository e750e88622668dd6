"""Process, HTTP, statistics and result plumbing shared by the workloads.

Everything here is stdlib. The program under test is started the way an
operator starts it, ``python -m liot ...`` with ``src`` on ``PYTHONPATH``, or
through ``tracer.py`` for a traced run.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACER = BENCH_DIR / "tracer.py"
SPAWNER = BENCH_DIR / "spawner.py"

STOP_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed reference check)."""


def require_program() -> None:
    if not (SRC / "liot" / "cli.py").is_file():
        raise BenchError(f"no liot sources under {SRC}; run from a checkout of the repository")


class Session:
    """Scratch directory inside the checkout plus the spawner that starts the
    program under test; create it first, while this process is still small."""

    def __init__(self):
        base = ROOT / ".bench_work"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self._spawner = subprocess.Popen([sys.executable, str(SPAWNER)], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True)

    def __truediv__(self, name: str) -> Path:
        return self.path / name

    def _ask(self, request: dict) -> dict:
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = self._spawner.stdout.readline()
        if not reply:
            raise BenchError("spawner process died")
        return json.loads(reply)

    def start(self, args: list[str], stdout: Path | None, stderr: Path,
              span_path: Path | None = None) -> int:
        """Start one ``liot`` process on PINNED_CPU; returns its pid."""
        return self._ask({"op": "start", "argv": liot_command(args, span_path), "env": liot_env(),
                          "cwd": str(ROOT), "stdout": stdout and str(stdout),
                          "stderr": str(stderr), "cpu": PINNED_CPU})["pid"]

    def poll(self, pid: int) -> int | None:
        """Exit code of ``pid``, or None while it runs."""
        return self._ask({"op": "poll", "pid": pid})["code"]

    def wait(self, pid: int, timeout_s: float = STOP_TIMEOUT_S) -> tuple[int, float]:
        """Reap ``pid``: (exit code, peak resident size in MB)."""
        reply = self._ask({"op": "wait", "pid": pid, "timeout": timeout_s})
        return reply["code"], reply["peak_rss_mb"]

    def run_cli(self, args: list[str], stdout: Path, stderr: Path,
                span_path: Path | None = None) -> tuple[float, float, int]:
        """Run one ``liot`` CLI call to completion: (wall s, peak RSS MB, exit code)."""
        start = time.perf_counter()
        pid = self.start(args, stdout, stderr, span_path)
        code, rss = self.wait(pid, timeout_s=170.0)
        return time.perf_counter() - start, rss, code

    def close(self) -> None:
        self._spawner.stdin.close()
        self._spawner.wait()
        self._spawner.stdout.close()
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def liot_command(args: list[str], span_path: Path | None = None) -> list[str]:
    if span_path is None:
        return [sys.executable, "-m", "liot", *args]
    return [sys.executable, str(TRACER), str(span_path), *args]


def liot_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# -- HTTP clients ---------------------------------------------------------------


class KeepAliveClient:
    """One persistent HTTP/1.1 connection, reused for every request."""

    def __init__(self, port: int, timeout_s: float = 10.0):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)

    def get(self, path: str) -> tuple[int, bytes]:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


def get_once(port: int, path: str, timeout_s: float = 10.0) -> tuple[int, bytes]:
    """GET on a fresh connection that is closed afterwards, as ``liot simulate`` does."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
    try:
        conn.request("GET", path, headers={"Connection": "close"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def insert_path(relation: str, fields: list[tuple[str, object]]) -> str:
    return f"/rel/{relation}/insert?" + urllib.parse.urlencode([(k, str(v)) for k, v in fields])


# -- the server process -------------------------------------------------------------


class Server:
    """A ``liot run`` process; ``start`` returns the seconds until /healthz answers 200.
    It starts up on PINNED_CPU and then serves on every CPU this process may use."""

    def __init__(self, session: Session, program: Path, log: Path, stderr_path: Path,
                 config: Path | None = None, span_path: Path | None = None):
        self.session = session
        self.port = free_port()
        args = ["run", str(program), "--port", str(self.port), "--log", str(log)]
        if config is not None:
            args += ["--config", str(config)]
        self.args = args
        self.span_path = span_path
        self.stderr_path = stderr_path
        self.pid: int | None = None
        self.peak_rss_mb = 0.0

    def start(self, timeout_s: float = 120.0) -> float:
        start = time.perf_counter()
        self.pid = self.session.start(self.args, None, self.stderr_path, self.span_path)
        deadline = start + timeout_s
        while time.perf_counter() < deadline:
            if self.session.poll(self.pid) is not None:
                raise BenchError(f"liot run exited during start-up; see {self.stderr_path}")
            try:
                status, _ = get_once(self.port, "/healthz", timeout_s=1.0)
                if status == 200:
                    setup_s = time.perf_counter() - start
                    unpin(self.pid)
                    return setup_s
            except OSError:
                pass
            time.sleep(0.005)
        self.stop()
        raise BenchError(f"liot run did not answer /healthz in time; see {self.stderr_path}")

    def stop(self) -> int:
        """SIGINT (the operator's Ctrl-C), then wait; returns the exit code."""
        try:
            os.kill(self.pid, signal.SIGINT)
        except ProcessLookupError:
            pass
        code, self.peak_rss_mb = self.session.wait(self.pid)
        return code

    def stderr_lines(self) -> list[str]:
        return self.stderr_path.read_text(encoding="utf-8", errors="replace").splitlines()


def count_event_errors(lines: list[str]) -> int:
    """Events the loop aborted, as ``liot run`` and ``liot script`` log them."""
    return sum(1 for line in lines if " aborted: " in line or "top-level statement failed" in line)


def count_webhook_failures(lines: list[str]) -> int:
    return sum(1 for line in lines if line.startswith("async GET"))


# -- webhook sink ------------------------------------------------------------------


class WebhookSink:
    """Single-threaded HTTP server that records the query of every GET it gets."""

    def __init__(self):
        self.received: list[dict[str, str]] = []
        sink = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_GET(self):
                query = urllib.parse.urlsplit(self.path).query
                sink.received.append(dict(urllib.parse.parse_qsl(query, keep_blank_values=True)))
                body = b"{}"
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_address[1]}/alarm"

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()


# -- persistence log ---------------------------------------------------------------


def read_log(path: Path, skip_lines: int = 0) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for n, line in enumerate(handle)
                if n >= skip_lines and line.strip()]


# -- statistics ----------------------------------------------------------------------


def p50(values: list[float]) -> float:
    return statistics.median(values)


P95_MIN_SAMPLES = 200  # so that at least ten lie beyond the 95th percentile


def p95(values: list[float]) -> float:
    if len(values) < P95_MIN_SAMPLES:
        raise BenchError(f"{len(values)} samples are too few for a 95th percentile "
                         f"(at least {P95_MIN_SAMPLES})")
    return statistics.quantiles(values, n=20, method="inclusive")[18]


# -- machine speed -------------------------------------------------------------------
#
# On the 2-core machine this was written on, the same CPU-bound work ran up to
# 1.7 times slower for stretches of seconds to minutes, as other load on its
# host came and went, and each CPU slowed down mostly on its own (two loops
# timed side by side, one per CPU, correlated 0.2 per second). A figure bound
# by CPU work therefore moved by more than its bound between runs and between
# sets of runs. So the benchmark does its CPU-bound measurements on one CPU,
# PINNED_CPU, and times a fixed loop on that CPU just before and just after
# each of them; a time divided by the loop's, times REFERENCE_LOOP_S, is the
# time on a machine where the loop takes REFERENCE_LOOP_S. Over six 30 s runs
# of script_rules the quartile spread of the median set-up time was 0.34
# unscaled and 0.06 scaled. Figures bound by waiting, such as the keep-alive
# stall, are not scaled.

PINNED_CPU = min(os.sched_getaffinity(0))
REFERENCE_LOOP_S = 0.3  # about what the loop takes on that machine when its host is quiet


def unpin(pid: int) -> None:
    """Let every thread of process ``pid`` run on every CPU this process may use."""
    cpus = os.sched_getaffinity(0)
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:
            pass  # the thread ended meanwhile


def reference_loop_s() -> float:
    """Seconds a fixed pure-Python loop of dict, string and integer operations,
    the kind of work the program does, takes on PINNED_CPU."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {PINNED_CPU})
    try:
        start = time.perf_counter()
        counts: dict[int, int] = {}
        width = 0
        for i in range(1_000_000):
            key = (i * 7919) % 1009
            counts[key] = counts.get(key, 0) + 1
            width += len(str(key))
        return time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, cpus)


class Scaler:
    """Scales the time of each piece of CPU-bound work done on PINNED_CPU by
    the reference loop timed right before and right after it: call ``mark``
    before the first piece and ``scale`` after each."""

    def __init__(self):
        self.loops_s: list[float] = []

    def mark(self) -> None:
        self.loops_s.append(reference_loop_s())

    def scale(self, seconds: float) -> float:
        """``seconds`` of the piece of work done since the last loop, on the reference machine."""
        self.mark()
        return seconds * 2 * REFERENCE_LOOP_S / (self.loops_s[-2] + self.loops_s[-1])

    def report(self) -> None:
        Report.line("reference_loop_s", statistics.median(self.loops_s), "s",
                    f"median of {len(self.loops_s)}; {REFERENCE_LOOP_S} on the reference machine")


@dataclass
class Phase:
    """What one measured phase of a workload hands back to ``run.py``: the
    gated figures, and what the traced run's per-layer figures need."""

    setup_s: float
    throughput_per_s: float
    latency_p50_ms: float
    latency_p95_ms: float
    peak_rss_mb: float
    span_path: Path | None = None
    insert_send_ms: list[float] = field(default_factory=list)  # client send -> reply
    log_bytes: int = 0
    log_records: int = 0


class Report:
    """Operation counts per kind, reference checks and the printed lines of one run."""

    def __init__(self):
        self.ops: dict[str, list[int]] = {}
        self.problems: list[str] = []

    def count(self, kind: str, attempted: int, failed: int) -> None:
        entry = self.ops.setdefault(kind, [0, 0])
        entry[0] += attempted
        entry[1] += failed

    def check(self, name: str, problems: list[str]) -> None:
        status = "ok" if not problems else f"FAILED ({len(problems)} problems)"
        print(f"  check {name}: {status}")
        for problem in problems[:5]:
            print(f"    {problem}")
        self.problems += [f"{name}: {p}" for p in problems]

    @staticmethod
    def line(name: str, value: float, unit: str, note: str = "") -> None:
        print(f"  {name:32s} {value:14.4f} {unit:6s} {note}".rstrip())

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        for kind, (attempted, failed) in self.ops.items():
            print(f"  ops {kind:22s} attempted={attempted} failed={failed}")
        return {
            "correct": not self.problems,
            "attempted": sum(a for a, _ in self.ops.values()),
            "failed": sum(f for _, f in self.ops.values()),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
