"""Event queue and the loop thread around an Engine.

The engine itself is synchronous; this wrapper gives it the serialized event
loop: HTTP handlers only enqueue onto one bounded FIFO, a single loop thread
processes events in arrival order, and shutdown drains whatever is queued
before the persistence log closes.

The loop also runs the wall-clock timers, but the timer rule is the
engine's: the loop asks ``Engine.next_timer_ms`` when to wake, waits on the
queue no longer than that, and after each event and each such timeout calls
``Engine.run_due_timers``. Ticks are never queued, so a full queue cannot
drop them.

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

from .clock import WallClock
from .engine import EndpointCall, Engine, Event, ExternalInsert
from .errors import LiotError
from .values import Value

logger = logging.getLogger("liot.runtime")

# Firings and event errors a server keeps in memory; older ones are dropped
# so that memory stays bounded over a long run.
RECENT_LOG_LIMIT = 1024


class QueueFullError(LiotError):
    pass


class LoopStoppedError(LiotError):
    """The loop failed, or is shutting down, and takes no more events."""


class Shutdown:
    """Queued last by ``shutdown``: the loop ends when it reaches it."""


class EngineRuntime:
    def __init__(self, engine: Engine):
        self.engine = engine
        engine.firing_log = deque(engine.firing_log, maxlen=RECENT_LOG_LIMIT)
        engine.event_errors = deque(engine.event_errors, maxlen=RECENT_LOG_LIMIT)
        self.events: queue.Queue[Event | Shutdown] = queue.Queue(maxsize=engine.config.queue_size)
        self._arrival = 0
        self._arrival_lock = threading.Lock()  # ticket order is queue order
        self._closed = False  # set by shutdown: no event may land behind Shutdown
        self.failure: str | None = None  # why the loop stopped, once it has
        self._loop_thread: threading.Thread | None = None

    # -- enqueue (any thread) ----------------------------------------------

    def _submit(self, make_event) -> int:
        if self.failure is not None:
            raise LoopStoppedError(f"event loop stopped: {self.failure}")
        with self._arrival_lock:
            if self._closed:
                raise LoopStoppedError("event loop is shutting down")
            self._arrival += 1
            try:
                self.events.put_nowait(make_event(self._arrival))
            except queue.Full:
                raise QueueFullError("event queue is full") from None
            return self._arrival

    def submit_insert(self, relation: str, values: tuple[Value, ...]) -> int:
        return self._submit(lambda a: ExternalInsert(relation, values, arrival_seq=a))

    def submit_endpoint(self, name: str, args: tuple[Value, ...]) -> int:
        return self._submit(lambda a: EndpointCall(name, args, arrival_seq=a))

    # -- the loop thread -----------------------------------------------------

    def start(self) -> None:
        self.engine.load()
        self._loop_thread = threading.Thread(target=self._run_loop, name="liot-loop", daemon=True)
        self._loop_thread.start()

    def _run_loop(self) -> None:
        engine = self.engine
        ticking = bool(engine.timer_states) and isinstance(engine.clock, WallClock)
        while True:
            wake_ms = engine.next_timer_ms() if ticking else None
            timeout = None if wake_ms is None else max(wake_ms - engine.clock.now_ms(), 0) / 1000
            try:
                event = self.events.get(timeout=timeout)
            except queue.Empty:
                event = None  # a timer is due
            try:
                if isinstance(event, Shutdown):
                    return
                if self.failure is None:  # after a failure, queued events are dropped
                    if event is not None:
                        engine.process_event(event)
                    if ticking:
                        engine.run_due_timers()
            except Exception as exc:  # process_event handles the event's own errors
                self.failure = f"{type(exc).__name__}: {exc}"
                logger.critical("event loop stopped: %s", self.failure, exc_info=True)
                ticking = False  # no more ticks, and no more waking for them
            finally:
                if event is not None:
                    self.events.task_done()

    def shutdown(self) -> None:
        """Refuse further events, drain the queue, then close the engine."""
        with self._arrival_lock:
            self._closed = True
        if self._loop_thread is not None:
            self.events.put(Shutdown())
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
