"""Bounded history windows of timestamped records, plus the append-only log.

One Store holds every relation of a loaded program. Records carry a global
sequence number that increases strictly across all relations, and the engine
clock guarantees timestamps are non-decreasing in sequence order. The window
is a ring: when a relation reaches capacity the oldest record is evicted, and
reaching past the window is an error rather than a silent null.

Writes go ahead to the log: ``Store.insert`` appends a record to its
persistence log before the record enters its window, so a record that could
not be logged is never seen.

``insert`` and ``latest`` trust their arguments: the engine runs ``check`` on
each insert from outside, and the resolver proved every statement's row and
every field read. Only the history a read reaches for is checked each time.
The engine's compiled conditions and blocks (``evaluator``) hold and index
the window deques themselves, so ``replay_log`` refills a window in place.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from functools import partial
from itertools import islice
from math import isfinite
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from .ast import RelationDecl
from .config import DEFAULT_WINDOW
from .errors import (
    ArityError,
    HistoryUnavailableError,
    LiotError,
    ReplayError,
    UnknownRelationError,
)
from .values import Value, dump_json, ensure_value, load_json_line, value_from_json, value_to_json

logger = logging.getLogger("liot.store")


class Record(NamedTuple):
    t: int
    seq: int
    values: tuple[Value, ...]


# Record((t, seq, values)) without the Python-level __new__ namedtuple adds
_record = partial(tuple.__new__, Record)


def _unknown_relation(relation: str) -> UnknownRelationError:
    return UnknownRelationError(f"unknown relation {relation}")


def _arity_error(relation: str, expected: int, got: int) -> ArityError:
    return ArityError(f"relation {relation} takes {expected} values, got {got}")


def history_unavailable(relation: str, window: deque[Record],
                        offset: int) -> HistoryUnavailableError:
    """What a read past the records ``window`` holds raises."""
    return HistoryUnavailableError(
        f"{relation} holds {len(window)} records, offset {offset} reaches past the window")


class Store:
    """All relation windows of one run: each a deque of at most its capacity
    in records, newest last, beside the relation's declaration.

    Only the engine's event loop writes, and it writes under ``lock``. Reads
    on the loop thread (the engine's conditions and blocks, ``latest``) take no
    lock, since nothing else writes. HTTP readers (``read``,
    ``snapshot``, ``size``) take the lock, so they never observe a
    half-applied insert. The lock is not re-entrant: whoever holds it takes
    it once and calls nothing under it that takes it again.
    """

    def __init__(
        self,
        relations: Iterable[RelationDecl],
        window_default: int = DEFAULT_WINDOW,
        window_overrides: dict[str, int] | None = None,
    ):
        overrides = window_overrides or {}
        self.relations = {decl.name: decl for decl in relations}
        self.windows: dict[str, deque[Record]] = {}
        for name in self.relations:
            capacity = overrides.get(name, window_default)
            if capacity < 1:
                raise ValueError(f"window capacity must be positive, got {capacity}")
            self.windows[name] = deque(maxlen=capacity)
        self.next_seq = 1
        self.lock = threading.Lock()

    def window(self, relation: str) -> deque[Record]:
        try:
            return self.windows[relation]
        except KeyError:
            raise _unknown_relation(relation) from None

    def check(self, relation: str, values: Iterable[object]) -> tuple[Value, ...]:
        """An outside row as ``insert`` takes it: a known relation, one scalar
        per field, each normalized by ``ensure_value``."""
        decl = self.relations.get(relation)
        if decl is None:
            raise _unknown_relation(relation)
        fields = decl.fields
        checked = tuple(map(ensure_value, values))
        if len(checked) != len(fields):
            raise _arity_error(relation, len(fields), len(checked))
        return checked

    def insert(
        self,
        relation: str,
        values: tuple[Value, ...],
        t: int,
        log: PersistenceLog | None = None,
    ) -> Record:
        """Append one record of checked values; with a ``log``, the record is
        written there first, and the store is unchanged when that write raises."""
        window = self.windows[relation]
        seq = self.next_seq  # only the writing thread changes it
        record = _record((t, seq, values))
        if log is not None:
            log.append(relation, record)
        with self.lock:
            window.append(record)  # evicts the oldest at capacity
            self.next_seq = seq + 1
        return record

    def latest(self, relation: str, field: str, offset: int = 0) -> Value:
        """Field of the newest record (offset 0) or of the k-th previous one
        (offset -k). ``T`` reads the timestamp as a number. It takes no lock,
        so only the writing thread may call it on a live store."""
        window = self.windows[relation]
        try:
            record = window[offset - 1]
        except IndexError:
            raise history_unavailable(relation, window, offset) from None
        if field == "T":
            return float(record.t)
        return record.values[self.relations[relation].fields.index(field)]

    def read(self, relation: str, limit: int) -> list[Record]:
        """Newest-first prefix of the window, at most ``limit`` records; a
        limit past the window, however large, reads the whole window."""
        if limit < 1:
            raise ValueError(f"limit must be positive, got {limit}")
        records = self.window(relation)
        with self.lock:
            return list(islice(reversed(records), min(limit, len(records))))

    def size(self, relation: str) -> int:
        with self.lock:
            return len(self.window(relation))

    def snapshot(self) -> dict[str, list[Record]]:
        """Deep-comparable copy of every window plus the seq counter."""
        with self.lock:
            return {name: list(w) for name, w in self.windows.items()}


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
    Any malformed line, one that is not UTF-8 among them, aborts the replay
    with its line number and leaves both the store and the file as they
    were: each window's tail is collected apart, at most its capacity, and
    each window is refilled with its tail only once the whole log is read.

    The file is read once. A last line without its newline that is not one
    JSON value was torn by a crash in the middle of an append. It is never
    replayed: it is cut off the file with a warning, so that the next append
    starts on a line of its own. A whole last line without its newline is
    replayed like any other and then given its newline.
    """
    windows = store.windows
    tails = {name: deque(w, maxlen=w.maxlen) for name, w in windows.items()}
    next_seq = store.next_seq
    count = line_number = 0
    raw = b""
    torn = False
    with open(path, "r+b") as handle:
        for line_number, raw in enumerate(handle, start=1):
            try:
                line = raw.decode().strip()
            except UnicodeDecodeError as exc:
                if not raw.endswith(b"\n"):  # only the last line can lack it
                    torn = True
                    break
                raise ReplayError(f"log line {line_number}: not UTF-8: {exc}", line_number) from None
            if not line:
                continue
            try:
                entry = load_json_line(line)
            except ValueError as exc:
                if not raw.endswith(b"\n"):
                    torn = True
                    break
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
                    elif not (kind is str and v.isascii() or kind is float and isfinite(v)):
                        v = value_from_json(v)  # boolean, null, non-ASCII text, or the error
                    values.append(v)
                store.window(relation)  # refuses an unknown relation
                fields = store.relations[relation].fields
                if len(values) != len(fields):
                    raise _arity_error(relation, len(fields), len(values))
            except (LiotError, OverflowError) as exc:  # OverflowError: float() of a huge integer
                raise ReplayError(f"log line {line_number}: {exc}", line_number) from None
            tails[relation].append(_record((t, seq, tuple(values))))
            next_seq = (seq if seq > next_seq else next_seq) + 1  # past every seq seen
            count += 1
        if raw and not raw.endswith(b"\n"):
            if torn or not line:  # blank counts as torn: it is not one JSON value
                handle.truncate(handle.tell() - len(raw))
                logger.warning("log line %d was torn (%d bytes, no newline): cut off the log",
                               line_number, len(raw))
            else:
                handle.write(b"\n")
    with store.lock:
        for name, window in windows.items():
            window.clear()
            window.extend(tails[name])
        store.next_seq = next_seq
    return count
