"""Millisecond clocks: wall time for serving, virtual time for determinism."""

from __future__ import annotations

import threading
import time
from typing import Protocol


class Clock(Protocol):
    def now_ms(self) -> int: ...


class WallClock:
    """``time.time()`` in milliseconds, held at its last value while the
    system clock is set back, so that it never decreases."""

    def __init__(self):
        self._last = 0
        self._lock = threading.Lock()

    def now_ms(self) -> int:
        now = int(time.time() * 1000)
        with self._lock:
            if now < self._last:
                return self._last
            self._last = now
        return now


class VirtualClock:
    """Manually driven clock; the script runner is the only thing moving it."""

    def __init__(self, start_ms: int = 0):
        self._now = start_ms

    def now_ms(self) -> int:
        return self._now

    def set_ms(self, value: int) -> None:
        if value < self._now:
            raise ValueError(f"virtual clock cannot move backwards ({self._now} -> {value})")
        self._now = value
