"""The timer rule, which the engine owns for both clocks.

``Engine.run_due_timers`` ticks each running timer due now, in declaration
order; ``Engine.advance_to`` jumps a virtual clock from one due instant to
the next and applies the same rule there. The reference for the jumps
stops at every millisecond and ticks the due timers in declaration order.
"""

import random

from liot import ast
from liot.clock import VirtualClock
from liot.config import EngineConfig
from liot.engine import EndpointCall, Engine, TimerTick, export_firing_log
from liot.parser import parse_program

from .helpers import SettableWallClock

INTERVALS = [2, 3, 4, 6, 12]  # common multiples make ties frequent


def timer_program(rng: random.Random) -> ast.Program:
    """Two to four timers whose bodies log, start and stop timers; rules and
    endpoints that start and stop them too."""
    names = [f"T{i}" for i in range(rng.randint(2, 4))]

    def switch() -> ast.Statement:
        kind = rng.choice(["START", "STOP"])
        return ast.Statement(kind, rng.choice(names))

    def timer_body(i: int) -> ast.Block:
        log = ast.Statement("INSERT", "LOG", (ast.Literal(float(i)),))
        body = [log] if rng.random() < 0.8 else []
        body += [switch() for _ in range(rng.randint(0, 2))]
        rng.shuffle(body)
        return tuple(body)

    log_n = ast.FieldRef("LOG", "N", 0)
    return ast.Program(
        relations=(ast.RelationDecl("LOG", ("N",)),),
        timers=tuple(
            ast.TimerDecl(name, rng.choice(INTERVALS), timer_body(i)) for i, name in enumerate(names)
        ),
        rules=tuple(
            ast.RuleDecl(f"R{i}", ast.Binary("==", log_n, ast.Literal(float(rng.randrange(len(names))))),
                         (switch(),))
            for i in range(rng.randint(0, 2))
        ),
        endpoints=tuple(ast.EndpointDecl(f"E{i}", (), (switch(),)) for i in range(2)),
    )


def timer_actions(rng: random.Random) -> list[tuple[str, object]]:
    return [("advance", rng.randint(0, 40)) if rng.random() < 0.7 else ("call", f"E{rng.randrange(2)}")
            for _ in range(rng.randint(10, 40))]


def tick_each_millisecond(engine: Engine, target_ms: int) -> None:
    """The reference: stop at every millisecond up to the target and tick
    the timers due there, in declaration order."""
    clock = engine.clock
    for now in range(clock.now_ms() + 1, target_ms + 1):
        clock.set_ms(now)
        for ts in engine.timer_states.values():
            if ts.running and ts.next_fire <= now:
                ts.next_fire = now + ts.decl.interval_ms
                engine.process_event(TimerTick(ts.decl.name))


def drive(program: ast.Program, actions, advance) -> Engine:
    engine = Engine(program, config=EngineConfig(), clock=VirtualClock(0))
    engine.load()
    for kind, arg in actions:
        if kind == "advance":
            advance(engine, engine.clock.now_ms() + arg)
        else:
            engine.process_event(EndpointCall(arg, ()))
    return engine


def timer_states(engine: Engine) -> dict[str, tuple[bool, int]]:
    return {name: (ts.running, ts.next_fire) for name, ts in engine.timer_states.items()}


def test_advance_to_matches_a_millisecond_by_millisecond_reference():
    ties = stopped = 0
    for seed in range(300):
        rng = random.Random(seed)
        program = timer_program(rng)
        actions = timer_actions(rng)
        jumped = drive(program, actions, Engine.advance_to)
        stepped = drive(program, actions, tick_each_millisecond)
        assert export_firing_log(jumped.firing_log) == export_firing_log(stepped.firing_log), seed
        assert jumped.event_errors == stepped.event_errors, seed
        assert jumped.store.snapshot() == stepped.store.snapshot(), seed
        assert timer_states(jumped) == timer_states(stepped), seed
        assert jumped.clock.now_ms() == stepped.clock.now_ms(), seed
        times = [r.t for r in jumped.store.snapshot()["LOG"]]
        ties += len(times) - len(set(times))
        stopped += not all(running for running, _ in timer_states(jumped).values())
    # the programs exercise what the rule has to get right
    assert ties > 100 and stopped > 100


def test_run_due_timers_ticks_one_instant_in_declaration_order():
    src = """
RELATION LOG (N)
TIMER B (1000) { LOG(2) }
TIMER A (1000) { LOG(1) STOP (C) }
TIMER C (1000) { LOG(3) }
TIMER D (300) { LOG(4) }
"""
    clock = SettableWallClock(0)
    engine = Engine(parse_program(src), config=EngineConfig(), clock=clock)
    engine.load()
    assert engine.next_timer_ms() == 300
    clock.now = 1000
    engine.run_due_timers()
    # B and A tie and tick in declaration order; A's STOP silences C in the
    # same pass; D missed its slots at 300, 600 and 900 and ticks once
    assert [r.values[0] for r in reversed(engine.store.read("LOG", 10))] == [2.0, 1.0, 4.0]
    assert timer_states(engine) == {
        "B": (True, 2000), "A": (True, 2000), "C": (False, 1000), "D": (True, 1200)}
    assert engine.next_timer_ms() == 1200
    engine.run_due_timers()  # nothing more is due at 1000
    assert engine.store.size("LOG") == 3


def test_next_timer_ms_is_none_when_no_timer_runs():
    engine = Engine(parse_program("TIMER A (5) { STOP (A) }"), clock=VirtualClock(0))
    engine.load()
    assert engine.next_timer_ms() == 5
    engine.advance_to(100)
    assert engine.next_timer_ms() is None
