"""Bounded history windows of timestamped records, plus the append-only log.

One Store holds every relation of a loaded program. Records carry a global
sequence number that increases strictly across all relations, and the engine
clock guarantees timestamps are non-decreasing in sequence order. The window
is a ring: when a relation reaches capacity the oldest record is evicted, and
reaching past the window is an error rather than a silent null.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections import deque
from math import isfinite
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from .ast import RelationDecl
from .errors import (
    ArityError,
    HistoryUnavailableError,
    LiotError,
    ReplayError,
    UnknownFieldError,
    UnknownRelationError,
)
from .values import Value, dump_json, ensure_value, value_from_json, value_to_json

logger = logging.getLogger("liot.store")

DEFAULT_WINDOW = 1024


class Record(NamedTuple):
    t: int
    seq: int
    values: tuple[Value, ...]


class RelationWindow:
    """Ring of at most ``capacity`` records, newest last."""

    def __init__(self, decl: RelationDecl, capacity: int):
        if capacity < 1:
            raise ValueError(f"window capacity must be positive, got {capacity}")
        self.decl = decl
        self.capacity = capacity
        self.positions = {field: decl.fields.index(field) for field in decl.fields}
        self.records: list[Record] = []

    def __len__(self) -> int:
        return len(self.records)


def _arity_error(relation: str, expected: int, got: int) -> ArityError:
    return ArityError(f"relation {relation} takes {expected} values, got {got}")


class Store:
    """All relation windows of one run.

    Only the engine's event loop writes, and it writes under ``lock``. Reads
    on the loop thread (``latest``, which conditions and statement arguments
    use) take no lock, since nothing else writes. HTTP readers (``read``,
    ``snapshot``, ``size``) take the lock, so they never observe a
    half-applied insert.
    """

    def __init__(
        self,
        relations: Iterable[RelationDecl],
        window_default: int = DEFAULT_WINDOW,
        window_overrides: dict[str, int] | None = None,
    ):
        overrides = window_overrides or {}
        self.windows: dict[str, RelationWindow] = {}
        for decl in relations:
            capacity = overrides.get(decl.name, window_default)
            self.windows[decl.name] = RelationWindow(decl, capacity)
        self.next_seq = 1
        self.lock = threading.RLock()

    def window(self, relation: str) -> RelationWindow:
        try:
            return self.windows[relation]
        except KeyError:
            raise UnknownRelationError(f"unknown relation {relation}") from None

    def insert(
        self, relation: str, values: Iterable[object], t: int, seq: int | None = None
    ) -> Record:
        window = self.window(relation)
        normalized = tuple(map(ensure_value, values))
        if len(normalized) != len(window.decl.fields):
            raise _arity_error(relation, len(window.decl.fields), len(normalized))
        records = window.records
        with self.lock:
            next_seq = self.next_seq
            if seq is None:
                seq = next_seq
            record = Record(t, seq, normalized)
            records.append(record)
            if len(records) > window.capacity:
                del records[0]
            self.next_seq = (seq if seq > next_seq else next_seq) + 1
        return record

    def latest(self, relation: str, field: str, offset: int = 0) -> Value:
        """Field of the newest record (offset 0) or of the k-th previous one
        (offset -k). ``T`` reads the timestamp as a number. It takes no lock,
        so only the writing thread may call it on a live store."""
        window = self.windows.get(relation)
        if window is None:
            raise UnknownRelationError(f"unknown relation {relation}")
        if offset > 0:
            raise HistoryUnavailableError(f"offset must be non-positive, got {offset}")
        try:
            record = window.records[offset - 1]
        except IndexError:
            raise HistoryUnavailableError(
                f"{relation} holds {len(window.records)} records, "
                f"offset {offset} reaches past the window"
            ) from None
        if field == "T":
            return float(record.t)
        try:
            return record.values[window.positions[field]]
        except KeyError:
            raise UnknownFieldError(f"relation {relation} has no field {field}") from None

    def read(self, relation: str, limit: int) -> list[Record]:
        """Newest-first prefix of the window, at most ``limit`` records."""
        if limit < 1:
            raise ValueError(f"limit must be positive, got {limit}")
        window = self.window(relation)
        with self.lock:
            newest_first = window.records[-limit:]
        newest_first.reverse()
        return newest_first

    def size(self, relation: str) -> int:
        with self.lock:
            return len(self.window(relation))

    def snapshot(self) -> dict[str, list[Record]]:
        """Deep-comparable copy of every window plus the seq counter."""
        with self.lock:
            return {name: list(w.records) for name, w in self.windows.items()}


# -- persistence ---------------------------------------------------------------


def log_line(relation: str, record: Record) -> str:
    entry = {
        "rel": relation,
        "t": record.t,
        "seq": record.seq,
        "v": [value_to_json(v) for v in record.values],
    }
    return dump_json(entry)


class PersistenceLog:
    """Append-only JSON Lines writer, one entry per stored record."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._file: IO[str] = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    def append(self, relation: str, record: Record) -> None:
        with self._lock:
            self._file.write(log_line(relation, record) + "\n")
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()


def replay_log(store: Store, path: str | Path) -> int:
    """Rebuild windows from a persistence log; returns the record count.

    Replay only restores state: it never fires triggers, rules or webhooks.
    Any malformed line aborts the replay with its line number and leaves the
    store as it was: each window's tail is collected apart, at most its
    capacity, and installed once at the end.

    A last line without its newline that is not one JSON value was torn by
    a crash in the middle of an append. It is never replayed: it is cut off
    the file with a warning, so that the next append starts on a line of
    its own. A whole last line without its newline is given one.
    """
    torn = _end_on_a_newline(path)
    decode = json.JSONDecoder().raw_decode  # unlike json.loads, tells where the value ends
    windows = store.windows
    tails = {name: deque(w.records, maxlen=w.capacity) for name, w in windows.items()}
    next_seq = store.next_seq
    count = line_number = 0
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry, end = decode(line)
            except ValueError:  # JSONDecodeError, or an integer past the digit limit
                end = None
            if end != len(line):  # not one JSON value alone: json.loads names the fault
                try:
                    entry = json.loads(line)
                except ValueError as exc:
                    raise ReplayError(f"log line {line_number}: invalid JSON: {exc}", line_number)
            if type(entry) is not dict:
                raise ReplayError(f"log line {line_number}: not an object", line_number)
            try:
                relation = entry["rel"]
                t = entry["t"]
                seq = entry["seq"]
                raw_values = entry["v"]
            except KeyError as exc:
                raise ReplayError(f"log line {line_number}: missing key {exc}", line_number)
            # JSON yields exact types: bool is never taken for int here
            if type(relation) is not str or type(raw_values) is not list:
                raise ReplayError(f"log line {line_number}: malformed entry", line_number)
            if type(t) is not int:
                raise ReplayError(f"log line {line_number}: t must be an integer", line_number)
            if type(seq) is not int:
                raise ReplayError(f"log line {line_number}: seq must be an integer", line_number)
            try:
                values = []
                for v in raw_values:
                    kind = type(v)
                    if kind is int:
                        v = float(v)
                    elif kind is not str and not (kind is float and isfinite(v)):
                        v = value_from_json(v)  # boolean, null, or the error
                    values.append(v)
                window = store.window(relation)
                if len(values) != len(window.decl.fields):
                    raise _arity_error(relation, len(window.decl.fields), len(values))
            except (LiotError, OverflowError) as exc:  # OverflowError: float() of a huge integer
                raise ReplayError(f"log line {line_number}: {exc}", line_number) from None
            tails[relation].append(Record(t, seq, tuple(values)))
            next_seq = (seq if seq > next_seq else next_seq) + 1  # as Store.insert
            count += 1
    if torn:
        logger.warning("log line %d was torn (%d bytes, no newline): cut off the log",
                       line_number + 1, torn)
    with store.lock:
        for name, window in windows.items():
            window.records[:] = tails[name]
        store.next_seq = next_seq
    return count


def _end_on_a_newline(path: str | Path) -> int:
    """Make the log end on a newline; returns how many torn bytes were cut."""
    with open(path, "r+b") as handle:
        end = handle.seek(0, os.SEEK_END)
        if end == 0:
            return 0
        handle.seek(end - 1)
        if handle.read(1) == b"\n":
            return 0
        start, tail = end, b""
        while start > 0 and b"\n" not in tail:  # walk back to the last line's start
            step = min(start, 65536)
            start -= step
            handle.seek(start)
            tail = handle.read(step) + tail
        line_start = tail.rfind(b"\n") + 1
        tail = tail[line_start:]
        try:
            json.loads(tail.decode("utf-8"))
        except ValueError:  # UnicodeDecodeError or JSONDecodeError: cut short
            handle.truncate(start + line_start)
            return len(tail)
        handle.seek(end)
        handle.write(b"\n")
        return 0
