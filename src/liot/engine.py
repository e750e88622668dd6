"""The serialized rule engine.

One engine owns all mutable state and processes events strictly in arrival
order, each to completion. An insert flows through: row check (external
inserts only), remote forward (for mapped relations), persistence, store
append, webhook, the relation's trigger body, and finally every rule whose
condition mentions the relation, in declaration order. Statement-driven
inserts and CHECKs nest; the per-event cascade depth limit guarantees every
event terminates.

Rule matching uses an alpha-layer dependency index (relation name -> rules in
declaration order). ``NaiveEngine``, which ``naive_oracle`` runs, is the
identical machinery without the index, re-evaluating every active rule after
every insert; equality of the two firing logs is the correctness contract for
the index.

The engine resolves the program it is given (so one built as a syntax tree
is checked too), then compiles every rule condition and every block (rule,
timer, endpoint, trigger and top-level statements) to generated functions in
one go (``evaluator``). What a statement does stays here: each is handed over
as a call of one of the engine's actions, which the block makes with the
statement's row, computed when the statement's turn comes. An action looks
up the rule, timer or module its statement names when it runs. A block's
names are its function's locals: an endpoint body takes the call's values
as its parameters, and every other body takes none.

The engine owns the timer rule for both clocks: ``run_due_timers`` ticks the
timers due now. Under the wall clock the runtime's loop only asks
``next_timer_ms`` when to wake and then calls it; under a virtual clock
``advance_to`` calls it at each instant a timer comes due.

Each firing is appended to ``firing_log`` as it happens, an aborted event's
too; ``process_event`` returns only the error, if any, that aborted the event.
That log is a list unless its owner puts something else in its place before
``load``: ``EngineRuntime`` a ring of the recent firings, and ``liot script``
a ``FiringStream``, which writes the firings out a chunk at a time.
"""

from __future__ import annotations

import json
import logging
import os
from collections import deque
from functools import partial
from typing import Callable, Iterable, NamedTuple, Protocol
from urllib.parse import urljoin, urlsplit

from . import ast
from .clock import Clock, VirtualClock, WallClock
from .config import EngineConfig
from .errors import (
    ArityError,
    CascadeLimitError,
    ConfigError,
    EngineRuntimeError,
    ModuleCallError,
    ScalarError,
    UnknownNameError,
)
from .evaluator import Body, Call, Condition, compile_functions, eval_condition
from .parser import resolve_program
from .store import PersistenceLog, Record, Store, replay_log
from .values import Value, dump_json, ensure_value, parse_query_value, type_name, value_to_param

logger = logging.getLogger("liot.engine")

# Bytes a module's reply body may hold; a longer one is a malformed-body error.
BODY_LIMIT = 1024 * 1024


# -- events ---------------------------------------------------------------------


_set = object.__setattr__


class ExternalInsert(ast.Node):
    FIELDS = (("relation", str), ("values", tuple), ("arrival_seq", int, 0))

    def __init__(self, relation: str, values: tuple[Value, ...], arrival_seq: int = 0):
        # one per inserted row: set directly, not through the base's field loop
        _set(self, "relation", relation)
        _set(self, "values", values)
        _set(self, "arrival_seq", arrival_seq)


class EndpointCall(ast.Node):
    FIELDS = (("name", str), ("args", tuple), ("arrival_seq", int, 0))


class TimerTick(ast.Node):
    FIELDS = (("name", str), ("arrival_seq", int, 0))


Event = ExternalInsert | EndpointCall | TimerTick


# dump_json of {"seq", "kind", "name", "t"}: seq and t are integers, kind is
# "trigger" or "rule", and a name is a lexer identifier (letters, digits and
# "_"), which JSON never escapes; Engine refuses names that would need it.
_FIRING_JSON = '{"seq":%d,"kind":"%s","name":"%s","t":%d}'


class Firing(NamedTuple):
    seq: int
    kind: str  # "trigger" | "rule"
    name: str
    t: int


# Firing((seq, kind, name, t)) without the Python-level __new__ namedtuple adds
_firing = partial(tuple.__new__, Firing)


def export_firing_log(firings: Iterable[Firing]) -> str:
    line = _FIRING_JSON + "\n"
    return "".join([line % f for f in firings])


# Firings a FiringStream holds before it writes them out. One write per chunk,
# not per line: with PYTHONUNBUFFERED set, every write is a system call.
FIRING_CHUNK = 1024


class FiringStream:
    """A firing log that keeps at most one chunk: when it holds
    ``FIRING_CHUNK`` firings, it hands them to ``write`` as the text
    ``export_firing_log`` makes of them, in one call. ``pending`` holds the
    firings not written yet; ``len`` counts every firing appended."""

    __slots__ = ("pending", "written", "_write")

    def __init__(self, write: Callable[[str], object]):
        self.pending: list[Firing] = []
        self.written = 0
        self._write = write

    def append(self, firing: Firing) -> None:
        pending = self.pending
        pending.append(firing)
        if len(pending) == FIRING_CHUNK:
            self._write(export_firing_log(pending))
            self.written += FIRING_CHUNK
            pending.clear()

    def __len__(self) -> int:
        return self.written + len(self.pending)


class EventResult(ast.Node):
    # error: why the event was aborted; what it fired is in firing_log
    FIELDS = (("error", str, None),)


_COMPLETED = EventResult()  # what every event that raised nothing returns


# -- engine-side state ------------------------------------------------------------


class RuleState:
    __slots__ = ("decl", "condition", "body", "active", "depends_on")

    def __init__(self, decl: ast.RuleDecl, condition: Condition, body: Body,
                 depends_on: frozenset[str]):
        self.decl, self.condition, self.body = decl, condition, body
        self.active = True
        self.depends_on = depends_on


class TimerState:
    __slots__ = ("decl", "body", "running", "next_fire")

    def __init__(self, decl: ast.TimerDecl, body: Body):
        self.decl, self.body = decl, body
        self.running = True
        self.next_fire = 0


class Outbound(Protocol):
    """What the engine needs from the HTTP side; ``gateway.AsyncDelivery``
    implements it."""

    def get(self, url: str, params: list[tuple[str, str]], timeout_ms: int) -> tuple[int, bytes]: ...

    def submit_async(self, url: str, params: list[tuple[str, str]]) -> None: ...


class _NoOutbound:
    def get(self, url, params, timeout_ms):
        raise ModuleCallError("target", f"no outbound HTTP client configured for {url}")

    def submit_async(self, url, params):
        logger.warning("async GET dropped (no outbound client): %s", url)


def _row_params(fields: tuple[str, ...], values: Iterable[Value]) -> list[tuple[str, str]]:
    """Query parameters of one row, as a forward or a webhook sends it."""
    return [(f, value_to_param(v)) for f, v in zip(fields, values)]


def resolve_target(target: str, base_url: str | None) -> str:
    """Absolute targets pass through; relative ones need a base URL."""
    if urlsplit(target).scheme in ("http", "https"):
        return target
    if base_url is None:
        raise ModuleCallError(
            "target", f"relative target {target!r} needs a configured base_url"
        )
    return urljoin(base_url.rstrip("/") + "/", target)


# -- the engine -------------------------------------------------------------------


class Engine:
    def __init__(
        self,
        program: ast.Program,
        config: EngineConfig | None = None,
        clock: Clock | None = None,
        outbound: Outbound | None = None,
    ):
        program = resolve_program(program)
        for name in [r.name for r in program.relations] + [r.name for r in program.rules]:
            if dump_json(name) != f'"{name}"':  # see _FIRING_JSON
                raise ValueError(f"name {name!r} would need escaping in the firing log")
        self.program = program
        self.config = config or EngineConfig()
        self.config.validate()
        declared = {r.name for r in program.relations}
        per_relation = {"window": self.config.window_overrides, "webhook": self.config.webhooks}
        for key, names in per_relation.items():
            for name in names:
                if name not in declared:
                    raise ConfigError(f"{key}.{name} names no declared relation")
        self.clock: Clock = clock or WallClock()
        self.outbound: Outbound = outbound or _NoOutbound()

        self.store = Store(
            program.relations,
            window_default=self.config.window_default,
            window_overrides=self.config.window_overrides,
        )
        self._module_outputs = {m.name: m.outputs for m in program.modules}
        # the names a CALL of each module binds, in the order _call_module returns them
        binds = {m.name: tuple(f"{m.name}.{o}" for o in m.outputs) for m in program.modules}
        # each statement kind's action (ast.STATEMENTS)
        actions = {
            "INSERT": self._insert,
            "START": partial(self._set_running, True),
            "STOP": partial(self._set_running, False),
            "ACTIVATE": partial(self._set_active, True),
            "DEACTIVATE": partial(self._set_active, False),
            "CHECK": self._check_rule,
            "CALL": self._call_module,
            "ACALL": self._acall_module,
        }

        def calls(block: ast.Block,
                  params: tuple[str, ...] = ()) -> tuple[tuple[str, ...], list[Call]]:
            return params, [(actions[stmt.kind], stmt.target, stmt.args,
                             binds[stmt.target] if stmt.kind == "CALL" else ()) for stmt in block]

        # One compile makes every condition and every block, blocks in this order.
        blocks = [calls(program.top_level_statements), *[calls(r.body) for r in program.rules],
                  *[calls(t.body) for t in program.timers],
                  *[calls(e.body, e.params) for e in program.endpoints],
                  *[calls(t.body) for t in program.triggers]]
        conditions, bodies = compile_functions(self.store, [r.condition for r in program.rules],
                                               blocks)
        bodies = iter(bodies)
        self._top_level = next(bodies)
        self.rule_states: list[RuleState] = [
            RuleState(decl=r, condition=condition, body=next(bodies),
                      depends_on=frozenset(ast.relations_mentioned(r.condition)))
            for r, condition in zip(program.rules, conditions)
        ]
        self.timer_states: dict[str, TimerState] = {
            t.name: TimerState(decl=t, body=next(bodies)) for t in program.timers
        }
        self._endpoints_by_name = {e.name: (e.params, next(bodies)) for e in program.endpoints}
        triggers = {t.relation: next(bodies) for t in program.triggers}
        self._rules_by_name = {rs.decl.name: rs for rs in self.rule_states}
        # alpha layer: relation -> rules mentioning it, declaration order.
        # A rule mentioning no relation at all is treated as depending on
        # every relation, which keeps it equivalent to the naive scan. The
        # resolver proved that every relation a condition mentions is declared.
        self.dependency_index: dict[str, list[RuleState]] = {r.name: [] for r in program.relations}
        for rs in self.rule_states:
            for relation in rs.depends_on or self.dependency_index:
                self.dependency_index[relation].append(rs)

        # per relation, what an insert does besides storing the row: its
        # fields, then its MAP RELATION, webhook URL and trigger body or None
        forwards = {m.name: m for m in program.mappings if m.kind == "relation"}
        webhooks = self.config.webhooks
        self._on_insert = {r.name: (r.fields, forwards.get(r.name), webhooks.get(r.name),
                                    triggers.get(r.name)) for r in program.relations}
        self._module_maps = {m.name: m for m in program.mappings if m.kind == "module"}

        # Full history by default; EngineRuntime, which serves indefinitely,
        # swaps in bounded deques that keep only the recent entries, and
        # liot script a FiringStream.
        self.firing_log: list[Firing] | deque[Firing] | FiringStream = []
        self.event_errors: list[str] | deque[str] = []
        self._cascade_depth = 0  # the running event's nesting of inserts and CHECKs
        self.condition_evaluations = 0
        self.persistence: PersistenceLog | None = None
        self.replayed_records = 0
        self.loaded = False

    # -- lifecycle ---------------------------------------------------------

    def load(self) -> None:
        """Replay persistence, start timers, run top-level statements once."""
        if self.loaded:
            raise RuntimeError("engine already loaded")
        self.loaded = True
        if self.config.log_path:
            path = self.config.log_path
            if os.path.exists(path) and os.path.getsize(path) > 0:
                self.replayed_records = replay_log(self.store, path)
            self.persistence = PersistenceLog(path)
        now = self.clock.now_ms()
        for ts in self.timer_states.values():
            ts.running = True
            ts.next_fire = now + ts.decl.interval_ms
        # initialization statements are skipped when a previous run was
        # restored: replaying state and re-running the init would double it
        if self.replayed_records == 0:
            self._cascade_depth = 0
            try:
                self._top_level()
            except EngineRuntimeError as exc:
                self._log_event_error(f"top-level statement failed: {exc}")

    def close(self) -> None:
        if self.persistence is not None:
            self.persistence.close()

    # -- event processing -----------------------------------------------------

    def process_event(self, event: Event) -> EventResult:
        if not self.loaded:
            raise RuntimeError("engine not loaded")
        self._cascade_depth = 0
        try:
            if isinstance(event, ExternalInsert):
                self._do_insert(event.relation, self.store.check(event.relation, event.values))
            elif isinstance(event, EndpointCall):
                self._run_endpoint(event)
            elif isinstance(event, TimerTick):
                self._run_timer(event.name)
            else:
                raise AssertionError(f"unhandled event {event!r}")
        except EngineRuntimeError as exc:
            error = f"{type(exc).__name__}: {exc}"
            self._log_event_error(f"event {event!r} aborted: {error}")
            return EventResult(error)
        return _COMPLETED

    def _log_event_error(self, message: str) -> None:
        self.event_errors.append(message)
        logger.error("%s", message)

    def _run_endpoint(self, event: EndpointCall) -> None:
        endpoint = self._endpoints_by_name.get(event.name)
        if endpoint is None:
            raise UnknownNameError(f"unknown endpoint {event.name}")
        params, body = endpoint
        if len(event.args) != len(params):
            raise ArityError(
                f"endpoint {event.name} takes {len(params)} parameters, "
                f"got {len(event.args)}"
            )
        body(*map(ensure_value, event.args))

    def _run_timer(self, name: str) -> None:
        ts = self.timer_states.get(name)
        if ts is None:
            raise UnknownNameError(f"unknown timer {name}")
        if not ts.running:
            return  # a tick of a stopped timer does nothing
        ts.body()

    def _cascade_exceeded(self, what: str) -> CascadeLimitError:
        """What an INSERT or a CHECK raises when it would take the event's
        cascade one level past the limit. Each goes one level deeper and steps
        back up only on a normal return, since a raise ends the event."""
        return CascadeLimitError(
            f"{what} cascade exceeded depth {self.config.cascade_limit}; aborting event"
        )

    # -- statements ---------------------------------------------------------

    # An action runs one statement, called as action(target, values) with the
    # name the statement gives and its row's values.

    def _insert(self, relation: str, values: tuple[Value, ...]) -> None:
        self._cascade_depth += 1
        if self._cascade_depth > self.config.cascade_limit:
            raise self._cascade_exceeded("insert")
        self._do_insert(relation, values)
        self._cascade_depth -= 1

    def _set_running(self, running: bool, name: str, values: tuple[()]) -> None:
        ts = self.timer_states[name]
        ts.running = running
        if running:
            ts.next_fire = self.clock.now_ms() + ts.decl.interval_ms

    def _set_active(self, active: bool, name: str, values: tuple[()]) -> None:
        self._rules_by_name[name].active = active

    def _do_insert(self, relation: str, values: tuple[Value, ...]) -> None:
        fields, mapping, webhook, trigger = self._on_insert[relation]
        if mapping is not None:
            self._forward_insert(mapping, relation, fields, values)
        record = self.store.insert(relation, values, self.clock.now_ms(), self.persistence)
        if webhook is not None:
            params = _row_params(fields, record.values)
            self.outbound.submit_async(webhook, [("T", str(record.t))] + params)
        if trigger is not None:
            self.firing_log.append(_firing((record.seq, "trigger", relation, record.t)))
            trigger()
        self._run_rules(relation, record)

    def _run_rules(self, relation: str, record: Record) -> None:
        for rs in self.dependency_index.get(relation, ()):
            if not rs.active:
                continue
            self.condition_evaluations += 1
            if eval_condition(rs.condition) is True:
                self._fire_rule(rs, record.seq, record.t)

    def _fire_rule(self, rs: RuleState, seq: int, t: int) -> None:
        self.firing_log.append(_firing((seq, "rule", rs.decl.name, t)))
        rs.body()

    def _check_rule(self, name: str, values: tuple[()]) -> None:
        """CHECK is an explicit command: it ignores the active flag."""
        rs = self._rules_by_name[name]
        self.condition_evaluations += 1
        if eval_condition(rs.condition) is True:
            seq = self.store.next_seq - 1  # latest record overall, 0 if none
            self.firing_log.append(_firing((seq, "rule", name, self.clock.now_ms())))
            self._cascade_depth += 1
            if self._cascade_depth > self.config.cascade_limit:
                raise self._cascade_exceeded("check")
            rs.body()
            self._cascade_depth -= 1

    # -- outbound HTTP --------------------------------------------------------

    def _get(self, url: str, params: list[tuple[str, str]], what: str) -> tuple[int, bytes]:
        """One synchronous GET; a timeout or a transport failure becomes a
        ModuleCallError whose message starts with ``what`` and the URL."""
        try:
            return self.outbound.get(url, params, self.config.call_timeout_ms)
        except TimeoutError as exc:
            raise ModuleCallError("timeout", f"{what} {url} timed out") from exc
        except OSError as exc:
            raise ModuleCallError("transport", f"{what} {url} failed: {exc}") from exc

    def _forward_insert(self, mapping: ast.MapDecl, relation: str, fields: tuple[str, ...],
                        values: tuple[Value, ...]) -> None:
        url = resolve_target(mapping.target, self.config.base_url).rstrip("/") + "/insert"
        params = _row_params(fields, values)
        for (field, text), value in zip(params, values):
            back = parse_query_value(text)
            if back != value:  # null, or text that reads as a number or a boolean
                raise ScalarError(f"{relation}.{field} holds {type_name(value)} {text!r}, which "
                                  f"{url} would read as {type_name(back)}; row not forwarded")
        status, _ = self._get(url, params, "forward to")
        if not 200 <= status < 300:
            raise ModuleCallError(
                "http-status", f"forward to {url} returned {status}, record not applied"
            )

    def _module_request(self, name: str,
                        values: tuple[Value, ...]) -> tuple[str, list[tuple[str, str]]]:
        """URL and ``p1..pn`` parameters of a CALL or ACALL."""
        mapping = self._module_maps.get(name)
        if mapping is None:
            raise ModuleCallError("target", f"module {name} has no mapping")
        url = resolve_target(mapping.target, self.config.base_url)
        return url, [(f"p{i}", value_to_param(v)) for i, v in enumerate(values, 1)]

    def _call_module(self, name: str, values: tuple[Value, ...]) -> tuple[Value, ...]:
        """GET the module and give the values of exactly its declared outputs
        in its JSON reply, in declaration order, which its block binds as
        ``NAME.output``."""
        url, params = self._module_request(name, values)
        status, body = self._get(url, params, "module call")
        if status != 200:
            raise ModuleCallError("http-status", f"module call {url} returned {status}")
        if len(body) > BODY_LIMIT:
            raise ModuleCallError("malformed-body", f"module response exceeds {BODY_LIMIT} bytes")
        outputs = self._module_outputs[name]
        if not outputs:
            return ()

        def _reject_constant(text: str):
            raise ModuleCallError("malformed-body", f"non-finite number {text} in module response")

        try:
            payload = json.loads(body.decode("utf-8"), parse_constant=_reject_constant)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModuleCallError("malformed-body", f"module response is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ModuleCallError("malformed-body", "module response is not a JSON object")
        bound = []
        for output in outputs:
            if output not in payload:
                raise ModuleCallError("missing-output", f"module response lacks output {output!r}")
            raw = payload[output]
            if isinstance(raw, (dict, list)):
                raise ModuleCallError("malformed-body", f"output {output!r} is not a scalar")
            bound.append(ensure_value(raw))
        return tuple(bound)

    def _acall_module(self, name: str, values: tuple[Value, ...]) -> None:
        self.outbound.submit_async(*self._module_request(name, values))

    # -- timers ---------------------------------------------------------------

    def next_timer_ms(self) -> int | None:
        """When the earliest running timer is due; None when none runs."""
        due = None
        for ts in self.timer_states.values():
            if ts.running and (due is None or ts.next_fire < due):
                due = ts.next_fire
        return due

    def run_due_timers(self) -> None:
        """One tick of each running timer due now, in declaration order.

        A timer is ticked once however many of its slots were missed (a
        suspend, a clock jump), and its next slot is the first after now. A
        tick's body may stop a timer later in the order, which then does not
        tick in this pass, or start one, which is then not due until a full
        interval from now."""
        now = self.clock.now_ms()
        for ts in self.timer_states.values():
            if ts.running and ts.next_fire <= now:
                interval = ts.decl.interval_ms
                ts.next_fire += ((now - ts.next_fire) // interval + 1) * interval
                self.process_event(TimerTick(ts.decl.name))

    def advance_to(self, target_ms: int) -> None:
        """Move a virtual clock to the target, stopping at each instant a
        running timer comes due on the way to run the due timers there."""
        clock = self.clock
        if not isinstance(clock, VirtualClock):
            raise RuntimeError("advance_to requires a virtual clock")
        if target_ms < clock.now_ms():
            raise ValueError("cannot advance backwards")
        while True:
            due = self.next_timer_ms()
            if due is None or due > target_ms:
                break
            # a slot is missed only if the clock was set past it directly;
            # then the timer ticks once, as under the wall clock
            clock.set_ms(max(due, clock.now_ms()))
            self.run_due_timers()
        clock.set_ms(target_ms)

    def advance(self, delta_ms: int) -> None:
        self.advance_to(self.clock.now_ms() + delta_ms)


# -- the naive twin ---------------------------------------------------------------


class NaiveEngine(Engine):
    """The engine with no dependency index: every active rule is re-evaluated
    after every insert. A rule still only *fires* for inserts into a relation
    its condition mentions; evaluations of unrelated rules are advisory, so
    errors they raise cannot abort the event either."""

    def _run_rules(self, relation: str, record: Record) -> None:
        for rs in self.rule_states:
            if not rs.active:
                continue
            self.condition_evaluations += 1
            if not rs.depends_on or relation in rs.depends_on:
                if eval_condition(rs.condition) is True:
                    self._fire_rule(rs, record.seq, record.t)
            else:
                try:
                    eval_condition(rs.condition)
                except EngineRuntimeError:
                    pass


def naive_oracle(
    program: ast.Program,
    events: Iterable[Event],
    config: EngineConfig | None = None,
    clock: Clock | None = None,
    outbound: Outbound | None = None,
) -> list[Firing]:
    """Run the same semantics with no dependency index: after every insert,
    every active rule is re-evaluated. The firing log must match the indexed
    engine's exactly."""
    engine = NaiveEngine(program, config=config, clock=clock or VirtualClock(), outbound=outbound)
    engine.load()
    for event in events:
        engine.process_event(event)
    engine.close()
    return engine.firing_log
