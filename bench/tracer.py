"""Traced launcher for the liot CLI, and the reader of what it records.

``python tracer.py SPANS_OUT liot-args...`` wraps the public functions of each
layer, then calls ``liot.cli.main(liot-args)``. Each wrapper patches the name
where its caller looks it up (``liot.engine.eval_condition``, not only
``liot.evaluator.eval_condition``). A span is (name, start, end, parent,
request id); spans stay in per-thread buffers in memory and are written to
SPANS_OUT when ``main`` returns, together with a few counters that only the
running process can see.

The file is one JSON header line followed by, per thread, five arrays of
signed 64-bit integers: name id, start ns, end ns, parent index, request id.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from array import array
from pathlib import Path

ARRAY_FIELDS = ("name", "start", "end", "parent", "req")


class _Buffer:
    def __init__(self):
        self.arrays = [array("q") for _ in ARRAY_FIELDS]
        self.stack: list[int] = []
        self.req = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.buffers: list[_Buffer] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self.engine = None
        self.submit_ns: dict[int, int] = {}
        self.event_start_ns: dict[int, int] = {}
        self.in_replay = False

    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self.buffers.append(buf)
        return buf

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self.names:
                self.names.append(name)
            return self.names.index(name)

    def bump(self, counter: str, by: float = 1) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + by

    def span(self, fn, name_for, req_for=None):
        """Wrap ``fn``; ``name_for(args)`` gives the span's name id."""
        now = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            buf = self.buffer()
            names, starts, ends, parents, reqs = buf.arrays
            index = len(names)
            previous_req = buf.req
            if req_for is not None:
                buf.req = req_for(args)
            names.append(name_for(args))
            parents.append(buf.stack[-1] if buf.stack else -1)
            reqs.append(buf.req)
            ends.append(0)
            buf.stack.append(index)
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = now()
                buf.stack.pop()
                buf.req = previous_req

        return wrapper

    def install(self) -> None:
        import liot.cli
        import liot.engine
        import liot.gateway
        import liot.runtime
        import liot.store

        def fixed(name):
            nid = self.name_id(name)
            return lambda args: nid

        def patch(owner, attr, name, req_for=None):
            setattr(owner, attr, self.span(getattr(owner, attr), fixed(name), req_for))

        patch(liot.cli, "parse_program", "parser.parse_program")
        patch(liot.cli, "load_script", "cli.load_script")
        patch(liot.cli, "export_firing_log", "engine.export_firing_log")
        patch(liot.store.Store, "latest", "store.latest")
        patch(liot.store.Store, "read", "store.read")
        patch(liot.store.PersistenceLog, "append", "store.persist_append")

        process_event = self.span(liot.engine.Engine.process_event,
                                  fixed("engine.process_event"),
                                  req_for=lambda args: args[1].arrival_seq)

        def traced_process_event(engine, event):
            self.engine = engine
            if event.arrival_seq:
                self.event_start_ns[event.arrival_seq] = time.perf_counter_ns()
            return process_event(engine, event)

        liot.engine.Engine.process_event = traced_process_event

        eval_condition = self.span(liot.engine.eval_condition, fixed("evaluator.eval_condition"))

        def traced_eval_condition(*args):
            result = eval_condition(*args)
            if result is True:
                self.bump("evaluator.true")
            return result

        liot.engine.eval_condition = traced_eval_condition

        # replay re-inserts every logged record; its inserts are part of the
        # replay span, not of the per-event store.insert figures
        store_insert = liot.store.Store.insert
        traced_insert = self.span(store_insert, fixed("store.insert"))
        liot.store.Store.insert = (
            lambda *a, **k: store_insert(*a, **k) if self.in_replay else traced_insert(*a, **k))

        replay_log = self.span(liot.engine.replay_log, fixed("store.replay"))

        def traced_replay(*args):
            self.in_replay = True
            try:
                count = replay_log(*args)
            finally:
                self.in_replay = False
            self.bump("store.replayed_records", count)
            return count

        liot.engine.replay_log = traced_replay

        submit_insert = liot.runtime.EngineRuntime.submit_insert

        def traced_submit_insert(runtime, *args):
            start = time.perf_counter_ns()
            arrival = submit_insert(runtime, *args)
            self.submit_ns[arrival] = start
            depth = runtime.events.qsize()
            with self._lock:
                if depth > self.counters.get("runtime.queue_depth_max", 0):
                    self.counters["runtime.queue_depth_max"] = depth
            return arrival

        liot.runtime.EngineRuntime.submit_insert = traced_submit_insert

        handler_ids = {kind: self.name_id(f"gateway.{kind}_handler")
                       for kind in ("insert", "read", "other")}

        def handler_name(args):
            path = args[0].path.split("?", 1)[0]
            if path.endswith("/insert"):
                return handler_ids["insert"]
            if path.endswith("/read"):
                return handler_ids["read"]
            return handler_ids["other"]

        requests = itertools.count(1)
        liot.gateway._Handler.do_GET = self.span(liot.gateway._Handler.do_GET, handler_name,
                                                 req_for=lambda args: -next(requests))

        outbound_get = self.span(liot.gateway.OutboundClient.get, fixed("gateway.outbound_get"))

        def traced_outbound_get(*args):
            status, body = outbound_get(*args)
            if 200 <= status < 300:
                self.bump("gateway.outbound_ok")
            return status, body

        liot.gateway.OutboundClient.get = traced_outbound_get

    def write(self, path: Path) -> None:
        waits = [self.event_start_ns[a] - s for a, s in self.submit_ns.items()
                 if a in self.event_start_ns]
        counters = dict(self.counters)
        counters["runtime.queue_wait_ns_sum"] = sum(waits)
        counters["runtime.queue_wait_n"] = len(waits)
        if self.engine is not None:
            counters["engine.firings"] = len(self.engine.firing_log)
        header = {
            "names": self.names,
            "counters": counters,
            "spans_per_thread": [len(b.arrays[0]) for b in self.buffers],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for buf in self.buffers:
                for arr in buf.arrays:
                    arr.tofile(out)


# -- reading a span file --------------------------------------------------------------


class LayerStats:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0

    def mean_total(self, scale: float) -> float:
        return self.total_ns / self.calls / scale if self.calls else 0.0

    def mean_self(self, scale: float) -> float:
        return self.self_ns / self.calls / scale if self.calls else 0.0


def summarize(path: Path) -> tuple[dict[str, LayerStats], dict[str, float]]:
    """Per span name: calls, total time, and self time (total minus the time
    its direct children cover); plus the process's counters."""
    stats: dict[str, LayerStats] = {}
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        names = header["names"]
        for n in header["spans_per_thread"]:
            arrays = []
            for _ in ARRAY_FIELDS:
                arr = array("q")
                arr.fromfile(handle, n)
                arrays.append(arr)
            name_ids, starts, ends, parents, _ = arrays
            children_ns = [0] * n
            durations = [ends[i] - starts[i] if ends[i] else 0 for i in range(n)]
            for i in range(n):
                if parents[i] >= 0:
                    children_ns[parents[i]] += durations[i]
            for i in range(n):
                entry = stats.setdefault(names[name_ids[i]], LayerStats())
                entry.calls += 1
                entry.total_ns += durations[i]
                entry.self_ns += durations[i] - children_ns[i]
    return stats, header["counters"]


def main(argv: list[str]) -> int:
    span_path = Path(argv[0])
    tracer = Tracer()
    tracer.install()
    import liot.cli

    try:
        return liot.cli.main(argv[1:])
    finally:
        tracer.write(span_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
