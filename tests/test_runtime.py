import gc
import logging
import socket
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import pytest

import liot.clock
from liot.clock import WallClock
from liot.config import EngineConfig, RunConfig
from liot.engine import Engine
from liot.gateway import AsyncDelivery, OutboundClient
from liot.parser import parse_program
from liot.runtime import RECENT_LOG_LIMIT, EngineRuntime, LoopStoppedError, QueueFullError
from liot.store import PersistenceLog

from .helpers import SettableWallClock, get_json, running_stack


def test_wall_clock_timer_enqueues_ticks():
    source = "RELATION TICKS (N)\nTIMER TM (50) { TICKS(1) }"
    engine = Engine(parse_program(source), config=EngineConfig())
    runtime = EngineRuntime(engine)
    runtime.start()
    try:
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and engine.store.size("TICKS") < 3:
            time.sleep(0.02)
        assert engine.store.size("TICKS") >= 3
    finally:
        runtime.shutdown()


def test_ticks_missed_across_a_clock_jump_are_queued_once():
    # an hour's suspend used to queue 14,400 ticks of a 250 ms timer
    clock = SettableWallClock(1_000_000)
    source = "RELATION TICKS (N)\nTIMER TM (250) { TICKS(1) }"
    engine = Engine(parse_program(source), config=EngineConfig(), clock=clock)
    runtime = EngineRuntime(engine)
    runtime.start()
    try:
        clock.now += 3_600_000
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and engine.store.size("TICKS") == 0:
            time.sleep(0.02)
        time.sleep(0.2)  # ten more polls at the same time queue nothing
        runtime.wait_idle()
        assert engine.store.size("TICKS") == 1
        next_fire = engine.timer_states["TM"].next_fire
        assert clock.now < next_fire <= clock.now + 250
        assert (next_fire - 1_000_000) % 250 == 0  # still on the timer's own slots
    finally:
        runtime.shutdown()


class RecordingWallClock(WallClock):
    """A wall clock that notes the name of every thread that reads it."""

    def __init__(self):
        super().__init__()
        self.readers = set()

    def now_ms(self):
        self.readers.add(threading.current_thread().name)
        return super().now_ms()


def test_wall_clock_ticks_run_on_the_loop_thread():
    clock = RecordingWallClock()
    source = "RELATION TICKS (N)\nTIMER TM (20) { TICKS(1) }"
    engine = Engine(parse_program(source), config=EngineConfig(), clock=clock)
    runtime = EngineRuntime(engine)
    runtime.start()
    clock.readers.clear()  # Engine.load read it here, before the loop started
    threads = set()
    try:
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and engine.store.size("TICKS") < 3:
            threads.update(t.name for t in threading.enumerate())
            time.sleep(0.01)
        assert engine.store.size("TICKS") >= 3
    finally:
        runtime.shutdown()
    assert clock.readers == {"liot-loop"}
    assert "liot-loop" in threads and "liot-timers" not in threads


class BlockingOutbound:
    """Holds the loop inside the first webhook until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def get(self, url, params, timeout_ms):
        raise AssertionError("no synchronous GET expected")

    def submit_async(self, url, params):
        self.entered.set()
        assert self.release.wait(5)


def test_a_tick_that_comes_due_while_the_queue_is_full_still_runs(caplog):
    clock = SettableWallClock(1_000_000)
    outbound = BlockingOutbound()
    source = "RELATION R (X)\nRELATION TICKS (N)\nTIMER TM (250) { TICKS(1) }"
    config = EngineConfig(queue_size=1, webhooks={"R": "http://sink.invalid/"})
    engine = Engine(parse_program(source), config=config, clock=clock, outbound=outbound)
    runtime = EngineRuntime(engine)
    runtime.start()
    try:
        runtime.submit_insert("R", (1.0,))
        assert outbound.entered.wait(5)  # the loop is inside this insert
        runtime.submit_insert("R", (2.0,))
        with pytest.raises(QueueFullError):
            runtime.submit_insert("R", (3.0,))
        clock.now += 300  # TM is due
        time.sleep(0.1)
        outbound.release.set()
        runtime.wait_idle()
        assert engine.store.size("R") == 2
        assert engine.store.size("TICKS") == 1
    finally:
        outbound.release.set()
        runtime.shutdown()
    assert "dropped" not in caplog.text


def test_wall_clock_never_goes_back(monkeypatch):
    readings = iter([1000.0, 999.0, 1000.0005, 1000.25])
    monkeypatch.setattr(liot.clock, "time", SimpleNamespace(time=lambda: next(readings)))
    clock = WallClock()
    assert [clock.now_ms() for _ in range(4)] == [1_000_000, 1_000_000, 1_000_000, 1_000_250]


def test_shutdown_drains_queued_events():
    engine = Engine(parse_program("RELATION R (X)"), config=EngineConfig())
    runtime = EngineRuntime(engine)
    runtime.start()
    for i in range(100):
        runtime.submit_insert("R", (float(i),))
    runtime.shutdown()
    assert engine.store.size("R") == 100


def test_a_submit_after_shutdown_is_refused_instead_of_ticketed(tmp_path):
    log = tmp_path / "run.jsonl"
    engine = Engine(parse_program("RELATION R (X)\nENDPOINT E (A) { R(A) }"),
                    config=EngineConfig(log_path=str(log)))
    runtime = EngineRuntime(engine)
    runtime.start()
    assert runtime.submit_insert("R", (1.0,)) == 1
    runtime.shutdown()
    with pytest.raises(LoopStoppedError, match="^event loop is shutting down$"):
        runtime.submit_insert("R", (2.0,))
    with pytest.raises(LoopStoppedError, match="^event loop is shutting down$"):
        runtime.submit_endpoint("E", (3.0,))
    assert runtime.events.empty()
    assert [r.values for r in engine.store.read("R", 10)] == [(1.0,)]
    assert log.read_text().count("\n") == 1


def test_every_ticket_given_while_shutdown_begins_is_applied(tmp_path):
    log = tmp_path / "run.jsonl"
    engine = Engine(parse_program("RELATION R (X)"), config=EngineConfig(log_path=str(log)))
    runtime = EngineRuntime(engine)
    runtime.start()
    tickets: list[int] = []

    def sensor():
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                tickets.append(runtime.submit_insert("R", (1.0,)))
            except QueueFullError:
                time.sleep(0.001)
            except LoopStoppedError:
                return

    threads = [threading.Thread(target=sensor, daemon=True) for _ in range(3)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many more thread switches inside _submit and shutdown
    try:
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        runtime.shutdown()
        for thread in threads:
            thread.join(5)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch_interval)
    assert tickets and len(set(tickets)) == len(tickets)  # no two sensors share a ticket
    assert log.read_text().count("\n") == len(tickets)  # each ticketed insert was applied


def test_submit_raises_when_queue_full():
    engine = Engine(parse_program("RELATION R (X)"), config=EngineConfig(queue_size=3))
    engine.load()
    runtime = EngineRuntime(engine)  # loop never started
    for i in range(3):
        runtime.submit_insert("R", (float(i),))
    with pytest.raises(QueueFullError):
        runtime.submit_insert("R", (99.0,))
    engine.close()


def test_arrival_seq_is_strictly_increasing():
    engine = Engine(parse_program("RELATION R (X)"), config=EngineConfig())
    engine.load()
    runtime = EngineRuntime(engine)
    arrivals = [runtime.submit_insert("R", (1.0,)) for _ in range(5)]
    assert arrivals == [1, 2, 3, 4, 5]
    engine.close()


BOUNDED_PROGRAM = """
RELATION R (X)
RELATION OUT (N)
TRIGGER (R)
{
}
TRIGGER (OUT)
{
}
ENDPOINT THREE ()
{
    OUT(1)
    OUT(2)
    OUT(3)
}
"""


def test_serve_mode_keeps_only_recent_firings_and_errors():
    engine = Engine(parse_program(BOUNDED_PROGRAM), config=EngineConfig(queue_size=4096))
    runtime = EngineRuntime(engine)
    runtime.start()
    try:
        for i in range(2 * RECENT_LOG_LIMIT):
            runtime.submit_insert("R", (float(i),))
            runtime.submit_endpoint("NOPE", ())  # aborts: unknown endpoint
        runtime.submit_endpoint("THREE", ())
        runtime.wait_idle()
        assert len(engine.firing_log) == RECENT_LOG_LIMIT
        assert len(engine.event_errors) == RECENT_LOG_LIMIT
        # the newest are kept: criterion 5's three trigger runs are the last firings
        assert [(f.kind, f.name) for f in list(engine.firing_log)[-3:]] == [("trigger", "OUT")] * 3
        assert engine.firing_log[-4].name == "R"
        assert engine.store.next_seq == 2 * RECENT_LOG_LIMIT + 3 + 1  # every event applied
    finally:
        runtime.shutdown()


def test_direct_engine_keeps_the_full_firing_log():
    from liot.clock import VirtualClock
    from liot.engine import ExternalInsert

    engine = Engine(parse_program(BOUNDED_PROGRAM), config=EngineConfig(), clock=VirtualClock(0))
    engine.load()
    fired = []  # what each event appended to the firing log
    for i in range(2 * RECENT_LOG_LIMIT):
        before = len(engine.firing_log)
        engine.process_event(ExternalInsert("R", (float(i),)))
        fired.append(engine.firing_log[before:])
    assert len(engine.firing_log) == 2 * RECENT_LOG_LIMIT
    assert fired == [[f] for f in engine.firing_log]
    engine.close()


NO_SPACE = "OSError: [Errno 28] No space left on device"


def fail_log_appends(monkeypatch):
    def append(self, relation, record):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(PersistenceLog, "append", append)


def test_log_write_error_stops_the_loop_and_the_server_says_so(tmp_path, monkeypatch):
    fail_log_appends(monkeypatch)
    source = "RELATION R (X)\nENDPOINT E (P) { R(P) }"
    config = RunConfig(log_path=str(tmp_path / "run.jsonl"))
    with running_stack(source, config) as (runtime, base):
        assert get_json(f"{base}/healthz") == (200, {"ok": True})
        assert get_json(f"{base}/rel/R/insert?X=1")[0] == 202
        runtime.wait_idle()
        assert runtime.failure == NO_SPACE
        reason = {"error": f"event loop stopped: {NO_SPACE}"}
        assert get_json(f"{base}/rel/R/insert?X=2") == (503, reason)
        assert get_json(f"{base}/endpoint/E?P=3") == (503, reason)
        assert get_json(f"{base}/healthz") == (503, {"ok": False, **reason})
        assert get_json(f"{base}/rel/NOPE/insert?X=1")[0] == 404


def test_events_queued_before_the_failure_are_dropped(tmp_path, monkeypatch):
    fail_log_appends(monkeypatch)
    engine = Engine(parse_program("RELATION R (X)"),
                    config=EngineConfig(log_path=str(tmp_path / "run.jsonl")))
    runtime = EngineRuntime(engine)
    for i in range(5):  # queued before the loop starts
        runtime.submit_insert("R", (float(i),))
    runtime.start()
    runtime.wait_idle()
    assert runtime.failure == NO_SPACE
    assert engine.store.size("R") == 0  # written ahead: the unlogged record was not applied
    with pytest.raises(LoopStoppedError, match="event loop stopped: OSError"):
        runtime.submit_insert("R", (9.0,))
    runtime.shutdown()


def test_a_tick_whose_log_write_fails_stops_the_loop(tmp_path, monkeypatch):
    fail_log_appends(monkeypatch)
    source = "RELATION TICKS (N)\nTIMER TM (20) { TICKS(1) }"
    engine = Engine(parse_program(source),
                    config=EngineConfig(log_path=str(tmp_path / "run.jsonl")))
    runtime = EngineRuntime(engine)
    runtime.start()
    try:
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and runtime.failure is None:
            time.sleep(0.01)
        assert runtime.failure == NO_SPACE
        assert engine.store.size("TICKS") == 0
        with pytest.raises(LoopStoppedError):
            runtime.submit_insert("TICKS", (1.0,))
    finally:
        runtime.shutdown()


MEMORY_PROGRAM = """
RELATION R (X, Z)
RELATION D (X)
RELATION ALARMS (X)
TRIGGER (R) { D(R.X) }
RULE HIGH R.X > 2 { ALARMS(R.X) }
RULE FLAKY 10 / R.Z > 1 { D(R.Z) }
"""
MEMORY_RUN_INSERTS = 3000  # each run passes every bound: 1024 errors need 2048 inserts
MEMORY_GROWTH_LIMIT = 32 * 1024  # bytes the heap may grow by over one run; 3000 floats are 72,000


def test_memory_stays_bounded_over_a_long_run(monkeypatch):
    """A second run as long as a warm-up that filled every window, ring and
    queue leaves the heap where the warm-up left it.

    Most inserts fire the trigger and HIGH, whose ALARMS row goes to a
    webhook on a port that refuses connections, so every delivery fails or
    is dropped; every other insert divides by zero in FLAKY, so its event
    aborts and lands in ``event_errors``.
    """
    liot_logger = logging.getLogger("liot")  # pytest's own log capture keeps every record
    monkeypatch.setattr(liot_logger, "handlers", [logging.NullHandler()])
    monkeypatch.setattr(liot_logger, "propagate", False)
    closed = socket.socket()  # bound but not listening: connections are refused
    closed.bind(("127.0.0.1", 0))
    webhook = f"http://127.0.0.1:{closed.getsockname()[1]}/hook"
    config = EngineConfig(window_default=16, webhooks={"ALARMS": webhook})
    outbound = AsyncDelivery(OutboundClient(), config.call_timeout_ms, capacity=64)
    engine = Engine(parse_program(MEMORY_PROGRAM), config=config, outbound=outbound)
    runtime = EngineRuntime(engine)

    def run() -> None:
        for i in range(MEMORY_RUN_INSERTS):
            runtime.submit_insert("R", (float(i % 10), float(i % 2)))
            if i % 256 == 255:
                runtime.wait_idle()  # the event queue never fills
        runtime.wait_idle()
        gc.collect()

    tracemalloc.start()
    try:
        runtime.start()
        run()
        assert len(engine.event_errors) == RECENT_LOG_LIMIT
        assert len(engine.firing_log) == RECENT_LOG_LIMIT
        assert outbound.failed > 0 and outbound.delivered == 0
        before = tracemalloc.take_snapshot()
        run()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        runtime.shutdown()
        outbound.close()
        closed.close()
    own = [tracemalloc.Filter(False, tracemalloc.__file__)]  # the snapshots themselves
    growth = after.filter_traces(own).compare_to(before.filter_traces(own), "lineno")
    grown = sum(stat.size_diff for stat in growth)
    top = "\n".join(str(stat) for stat in growth[:5])
    assert grown < MEMORY_GROWTH_LIMIT, f"heap grew by {grown} bytes; top sites:\n{top}"
