"""Event queue and worker threads around an Engine.

The engine itself is synchronous; this wrapper gives it the serialized event
loop: HTTP handlers and the timer thread only enqueue onto one bounded FIFO,
a single loop thread processes events in arrival order, and shutdown drains
whatever is queued before the persistence log closes.

The loop is fail-stop: an exception that is not an event's own error (say an
OSError from the persistence log) leaves the engine's state in doubt, so the
loop records the reason in ``failure``, applies nothing more, and every later
submit raises LoopStoppedError.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass

from .clock import WallClock
from .engine import EndpointCall, Engine, Event, ExternalInsert, TimerTick
from .errors import LiotError
from .values import Value

logger = logging.getLogger("liot.runtime")

TIMER_POLL_SECONDS = 0.02

# Firings and event errors a server keeps in memory; older ones are dropped
# so that memory stays bounded over a long run.
RECENT_LOG_LIMIT = 1024


class QueueFullError(LiotError):
    pass


class LoopStoppedError(LiotError):
    """The loop failed and takes no more events."""


@dataclass(frozen=True)
class Shutdown:
    """Queued last by ``shutdown``: the loop ends when it reaches it."""

    arrival_seq: int = 0


class EngineRuntime:
    def __init__(self, engine: Engine):
        self.engine = engine
        engine.firing_log = deque(engine.firing_log, maxlen=RECENT_LOG_LIMIT)
        engine.event_errors = deque(engine.event_errors, maxlen=RECENT_LOG_LIMIT)
        self.events: queue.Queue[Event | Shutdown] = queue.Queue(maxsize=engine.config.queue_size)
        self._arrival = 0
        self._arrival_lock = threading.Lock()
        self.processed_arrival_seq = 0
        self.failure: str | None = None  # why the loop stopped, once it has
        self._loop_thread: threading.Thread | None = None
        self._timer_thread: threading.Thread | None = None
        self._stopping = threading.Event()

    # -- enqueue (any thread) ----------------------------------------------

    def _submit(self, make_event) -> int:
        if self.failure is not None:
            raise LoopStoppedError(f"event loop stopped: {self.failure}")
        with self._arrival_lock:
            self._arrival += 1
            arrival = self._arrival
        try:
            self.events.put_nowait(make_event(arrival))
        except queue.Full:
            raise QueueFullError("event queue is full") from None
        return arrival

    def submit_insert(self, relation: str, values: tuple[Value, ...]) -> int:
        return self._submit(lambda a: ExternalInsert(relation, values, arrival_seq=a))

    def submit_endpoint(self, name: str, args: tuple[Value, ...]) -> int:
        return self._submit(lambda a: EndpointCall(name, args, arrival_seq=a))

    def submit_timer_tick(self, name: str) -> int:
        return self._submit(lambda a: TimerTick(name, arrival_seq=a))

    # -- worker threads ------------------------------------------------------

    def start(self) -> None:
        self.engine.load()
        self._loop_thread = threading.Thread(target=self._run_loop, name="liot-loop", daemon=True)
        self._loop_thread.start()
        if isinstance(self.engine.clock, WallClock) and self.engine.timer_states:
            self._timer_thread = threading.Thread(
                target=self._run_timers, name="liot-timers", daemon=True
            )
            self._timer_thread.start()

    def _run_loop(self) -> None:
        while True:
            event = self.events.get()
            try:
                if isinstance(event, Shutdown):
                    return
                if self.failure is None:  # after a failure, queued events are dropped
                    self.engine.process_event(event)
            except Exception as exc:  # process_event handles the event's own errors
                self.failure = f"{type(exc).__name__}: {exc}"
                logger.critical("event loop stopped: %s", self.failure, exc_info=True)
            finally:
                self.processed_arrival_seq = max(self.processed_arrival_seq, event.arrival_seq)
                self.events.task_done()

    def _run_timers(self) -> None:
        engine = self.engine
        while not self._stopping.wait(TIMER_POLL_SECONDS):
            now = engine.clock.now_ms()
            due: list[str] = []
            with engine.timer_lock:
                for ts in engine.timer_states.values():
                    if ts.running and ts.next_fire <= now:
                        # one tick, however many were missed (a suspend, a
                        # clock jump): the next slot is the first after now
                        interval = ts.decl.interval_ms
                        ts.next_fire += ((now - ts.next_fire) // interval + 1) * interval
                        due.append(ts.decl.name)
            for name in due:
                try:
                    self.submit_timer_tick(name)
                except QueueFullError:
                    logger.warning("timer tick for %s dropped: queue full", name)
                except LoopStoppedError:
                    return

    def shutdown(self) -> None:
        """Stop timers, drain the queue, then close the engine."""
        self._stopping.set()
        if self._timer_thread is not None:
            self._timer_thread.join()
        if self._loop_thread is not None:
            with self._arrival_lock:
                self._arrival += 1
                arrival = self._arrival
            self.events.put(Shutdown(arrival_seq=arrival))
            self._loop_thread.join()
        try:
            self.engine.close()
        except OSError as exc:  # the persistence log could not write out its buffer
            if self.failure is None:
                self.failure = f"{type(exc).__name__}: {exc}"

    def wait_idle(self, timeout_s: float = 10.0) -> None:
        """Block until every queued event has been processed (tests)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.events.unfinished_tasks == 0:
                return
            time.sleep(0.002)
        raise TimeoutError("engine queue did not drain in time")
