"""Indexed engine vs naive full-scan twin on randomized programs.

The dependency index must be a pure optimization: for any program and any
event sequence the two firing logs are byte-identical after export, and so is
the final store state.
"""

import random

from liot.clock import VirtualClock
from liot.config import EngineConfig
from liot.engine import EndpointCall, Engine, ExternalInsert, NaiveEngine, export_firing_log

from .generators import random_actions, runnable_program


ENGINES = {"indexed": Engine, "all": NaiveEngine}


def drive(program, actions, rule_selection):
    engine = ENGINES[rule_selection](program, config=EngineConfig(), clock=VirtualClock(0))
    engine.load()
    for action in actions:
        if action[0] == "insert":
            engine.process_event(ExternalInsert(action[1], action[2]))
        elif action[0] == "endpoint":
            engine.process_event(EndpointCall(action[1], action[2]))
        else:
            engine.advance(action[1])
    return engine


def assert_equivalent(seed, max_events=200):
    rng = random.Random(seed)
    program = runnable_program(rng)
    actions = random_actions(rng, program, rng.randint(1, max_events))
    indexed = drive(program, actions, "indexed")
    naive = drive(program, actions, "all")
    assert export_firing_log(indexed.firing_log) == export_firing_log(naive.firing_log), (
        f"firing logs diverge for seed {seed}"
    )
    assert indexed.store.snapshot() == naive.store.snapshot(), (
        f"store state diverges for seed {seed}"
    )
    assert indexed.store.next_seq == naive.store.next_seq
    return indexed, naive


def test_fifty_random_programs_equivalent():
    for seed in range(50):
        assert_equivalent(seed)


def test_indexed_engine_evaluates_no_more_than_naive():
    saved = 0
    for seed in range(50, 70):
        indexed, naive = assert_equivalent(seed)
        assert indexed.condition_evaluations <= naive.condition_evaluations
        saved += naive.condition_evaluations - indexed.condition_evaluations
    assert saved > 0  # across 20 programs the index must skip something


def test_equivalence_with_deep_cascades():
    # trigger chains that hit the cascade limit must abort identically
    rng = random.Random(777)
    for _ in range(10):
        program = runnable_program(rng, max_relations=3, max_rules=5)
        actions = random_actions(rng, program, 50)
        indexed = drive(program, actions, "indexed")
        naive = drive(program, actions, "all")
        assert export_firing_log(indexed.firing_log) == export_firing_log(naive.firing_log)
        assert indexed.event_errors == naive.event_errors
