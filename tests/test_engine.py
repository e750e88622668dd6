import math

import pytest

from liot import ast
from liot.clock import VirtualClock
from liot.config import EngineConfig
from liot.engine import (
    EndpointCall,
    Engine,
    ExternalInsert,
    Firing,
    NaiveEngine,
    TimerTick,
    export_firing_log,
    naive_oracle,
    resolve_target,
)
from liot.errors import ConfigError, ModuleCallError, SemanticError
from liot.parser import parse_program
from liot.values import dump_json

from .helpers import module_call_error


class FakeOutbound:
    """Scripted outbound transport: records every request."""

    def __init__(self, responses=None):
        self.responses = responses or {}
        self.sync_calls = []
        self.async_calls = []

    def get(self, url, params, timeout_ms):
        self.sync_calls.append((url, params))
        response = self.responses.get(url, (200, b"{}"))
        if isinstance(response, Exception):
            raise response
        return response

    def submit_async(self, url, params):
        self.async_calls.append((url, params))


def process(engine, event):
    """Process ``event``; returns its result and what it appended to the firing log."""
    before = len(engine.firing_log)
    result = engine.process_event(event)
    return result, engine.firing_log[before:]


def make_engine(source, config=None, outbound=None, engine_class=Engine):
    engine = engine_class(
        parse_program(source),
        config=config or EngineConfig(),
        clock=VirtualClock(0),
        outbound=outbound,
    )
    engine.load()
    return engine


COMPOSITE = """
RELATION R (MAC, RSSI)
TRIGGER (R)
{
}
ENDPOINT NEW_RECORD (M, RS)
{
    R(M, RS)
}
TIMER TM (1000)
{
}
RULE R1 R.RSSI < -60
{
}
MODULE COUNTER (count)
MAP MODULE COUNTER : "module2.jsp"
"""


def test_load_composite_program():
    engine = make_engine(COMPOSITE)
    assert set(engine.store.windows) == {"R"}
    assert [rs.decl.name for rs in engine.rule_states] == ["R1"]
    assert engine.rule_states[0].active is True
    timer = engine.timer_states["TM"]
    assert timer.running is True and timer.next_fire == 1000
    assert {k: [r.decl.name for r in v] for k, v in engine.dependency_index.items()} == {
        "R": ["R1"]
    }


def test_load_empty_program():
    engine = make_engine("")
    assert engine.store.windows == {}
    assert engine.firing_log == []


def test_dependency_index_covers_every_mentioned_relation():
    engine = make_engine(
        "RELATION R (X)\nRELATION Q (Y)\nRELATION Z (W)\nRULE A R.X < Q.Y {}"
    )
    index = {k: [r.decl.name for r in v] for k, v in engine.dependency_index.items()}
    assert index == {"R": ["A"], "Q": ["A"], "Z": []}
    assert engine.rule_states[0].depends_on == frozenset({"R", "Q"})


def test_relation_free_condition_depends_on_everything():
    engine = make_engine("RELATION R (X)\nRELATION Q (Y)\nRULE A 1 < 2 {}")
    index = {k: [r.decl.name for r in v] for k, v in engine.dependency_index.items()}
    assert index == {"R": ["A"], "Q": ["A"]}


def test_insert_fires_matching_rule():
    engine = make_engine(COMPOSITE)
    result, firings = process(engine, ExternalInsert("R", ("38:E7:D8:D3:18:68", -87.0)))
    assert result.error is None
    assert [(f.kind, f.name) for f in firings] == [("trigger", "R"), ("rule", "R1")]
    assert firings[-1] == Firing(seq=1, kind="rule", name="R1", t=0)


def test_insert_with_false_condition_fires_nothing():
    engine = make_engine(COMPOSITE)
    _, firings = process(engine, ExternalInsert("R", ("aa", -50.0)))
    assert [(f.kind, f.name) for f in firings] == [("trigger", "R")]


def test_trigger_runs_strictly_before_rules():
    # the trigger writes into LOG; the rule then sees the trigger's record
    src = """
RELATION R (X)
RELATION LOG (N)
TRIGGER (R)
{
  LOG(1)
}
RULE R1 R.X > 0
{
  LOG(2)
}
"""
    engine = make_engine(src)
    _, firings = process(engine, ExternalInsert("R", (5.0,)))
    assert [(f.kind, f.name) for f in firings] == [("trigger", "R"), ("rule", "R1")]
    values = [r.values[0] for r in engine.store.read("LOG", 10)]
    assert values == [2.0, 1.0]  # newest first: rule ran after trigger


def test_endpoint_binds_params_positionally():
    engine = make_engine(COMPOSITE)
    _, firings = process(engine, EndpointCall("NEW_RECORD", ("aa:bb", -70.0)))
    assert engine.store.latest("R", "MAC") == "aa:bb"
    assert engine.store.latest("R", "RSSI") == -70.0
    assert [(f.kind, f.name) for f in firings] == [("trigger", "R"), ("rule", "R1")]


def test_endpoint_arity_mismatch_is_event_error():
    engine = make_engine(COMPOSITE)
    result = engine.process_event(EndpointCall("NEW_RECORD", ("only",)))
    assert result.error is not None
    assert engine.store.size("R") == 0


def test_trigger_runs_once_per_inserted_row():
    src = """
RELATION R (X)
RELATION OUT (N)
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
    engine = make_engine(src)
    _, firings = process(engine, EndpointCall("THREE", ()))
    assert [(f.kind, f.name) for f in firings] == [("trigger", "OUT")] * 3


def test_deactivate_gates_propagation_but_not_check():
    src = """
RELATION R (MAC, RSSI)
RELATION ALARM (N)
RULE R1 R.RSSI < -60
{
  ALARM(1)
}
ENDPOINT OFF () { DEACTIVATE (R1) }
ENDPOINT KICK () { CHECK (R1) }
"""
    engine = make_engine(src)
    engine.process_event(EndpointCall("OFF", ()))
    _, firings = process(engine, ExternalInsert("R", ("aa", -87.0)))
    assert firings == []  # inactive rule never fires from propagation
    _, firings = process(engine, EndpointCall("KICK", ()))
    assert [(f.kind, f.name) for f in firings] == [("rule", "R1")]
    assert engine.store.size("ALARM") == 1


def test_check_does_not_fire_on_unavailable_condition():
    src = """
RELATION R (MAC, RSSI)
RULE R1 R.RSSI < -60 {}
ENDPOINT KICK () { CHECK (R1) }
"""
    engine = make_engine(src)
    result, firings = process(engine, EndpointCall("KICK", ()))
    assert firings == [] and result.error is None


def test_activate_restores_propagation():
    src = """
RELATION R (X)
RULE R1 R.X > 0 {}
ENDPOINT OFF () { DEACTIVATE (R1) }
ENDPOINT ON () { ACTIVATE (R1) }
"""
    engine = make_engine(src)
    engine.process_event(EndpointCall("OFF", ()))
    assert process(engine, ExternalInsert("R", (1.0,)))[1] == []
    engine.process_event(EndpointCall("ON", ()))
    _, firings = process(engine, ExternalInsert("R", (1.0,)))
    assert [(f.kind, f.name) for f in firings] == [("rule", "R1")]


def test_an_event_the_cascade_limit_aborts_keeps_its_firings_in_order():
    engine = make_engine("RELATION R (X)\nTRIGGER (R) { R(1) }",
                         config=EngineConfig(cascade_limit=64))
    before = len(engine.firing_log)
    result = engine.process_event(ExternalInsert("R", (0.0,)))
    assert result.error.startswith("CascadeLimitError")
    assert [(f.seq, f.kind, f.name) for f in engine.firing_log[before:]] == [
        (seq, "trigger", "R") for seq in range(1, 66)
    ]


def test_rules_run_in_declaration_order():
    src = """
RELATION R (X)
RELATION LOG (N)
RULE B R.X > 0 { LOG(2) }
RULE A R.X > 0 { LOG(1) }
"""
    engine = make_engine(src)
    _, firings = process(engine, ExternalInsert("R", (5.0,)))
    assert [f.name for f in firings] == ["B", "A"]


def test_stop_timer_silences_ticks():
    src = """
RELATION TICKS (N)
TIMER TM (1000)
{
  TICKS(1)
}
ENDPOINT HALT () { STOP (TM) }
"""
    engine = make_engine(src)
    engine.advance_to(2000)
    assert engine.store.size("TICKS") == 2
    engine.process_event(EndpointCall("HALT", ()))
    engine.advance_to(10000)
    assert engine.store.size("TICKS") == 2


def test_start_restarts_a_stopped_timer():
    src = """
RELATION TICKS (N)
TIMER TM (1000)
{
  TICKS(1)
}
ENDPOINT HALT () { STOP (TM) }
ENDPOINT GO () { START (TM) }
"""
    engine = make_engine(src)
    engine.process_event(EndpointCall("HALT", ()))
    engine.advance_to(5000)
    assert engine.store.size("TICKS") == 0
    engine.process_event(EndpointCall("GO", ()))  # next fire at 6000
    engine.advance_to(8000)
    assert engine.store.size("TICKS") == 3


def test_stale_tick_after_stop_is_ignored():
    src = "RELATION TICKS (N)\nTIMER TM (1000) { TICKS(1) }\nENDPOINT HALT () { STOP (TM) }"
    engine = make_engine(src)
    engine.process_event(EndpointCall("HALT", ()))
    result = engine.process_event(TimerTick("TM"))
    assert result.error is None
    assert engine.store.size("TICKS") == 0


def test_timer_ties_break_by_declaration_order():
    src = """
RELATION LOG (N)
TIMER B (1000) { LOG(2) }
TIMER A (1000) { LOG(1) }
"""
    engine = make_engine(src)
    engine.advance_to(1000)
    assert [r.values[0] for r in engine.store.read("LOG", 10)] == [1.0, 2.0]


def test_self_feeding_trigger_hits_cascade_limit():
    src = "RELATION R (X)\nTRIGGER (R) { R(1) }"
    engine = make_engine(src)
    result = engine.process_event(ExternalInsert("R", (0.0,)))
    assert result.error is not None and "cascade" in result.error.lower()
    # the initial record plus exactly limit cascade-produced records survive
    assert engine.store.size("R") == 1 + engine.config.cascade_limit


def test_cascade_limit_configurable():
    src = "RELATION R (X)\nTRIGGER (R) { R(1) }"
    engine = make_engine(src, config=EngineConfig(cascade_limit=5))
    engine.process_event(ExternalInsert("R", (0.0,)))
    assert engine.store.size("R") == 6


def test_error_in_body_keeps_prior_effects():
    src = """
RELATION R (X)
RELATION OUT (N)
ENDPOINT E ()
{
  OUT(1)
  OUT(R.X)
  OUT(3)
}
"""
    engine = make_engine(src)  # R is empty: R.X raises HistoryUnavailable
    result = engine.process_event(EndpointCall("E", ()))
    assert result.error is not None
    assert [r.values[0] for r in engine.store.read("OUT", 10)] == [1.0]


def test_top_level_statements_skipped_after_replay(tmp_path):
    src = 'RELATION R (MAC, RSSI)\nR ("init", -1)'
    log = str(tmp_path / "run.jsonl")
    first = make_engine(src, config=EngineConfig(log_path=log))
    assert first.store.size("R") == 1
    first.close()
    # restart: replay restores the record, the init statement must not rerun
    second = make_engine(src, config=EngineConfig(log_path=log))
    assert second.store.size("R") == 1
    assert second.store.snapshot() == first.store.snapshot()
    second.close()


def test_compiled_conditions_and_rows_read_the_replayed_history(tmp_path):
    """The engine compiles before it replays, so replay must fill the windows
    its conditions and rows read, not new ones."""
    src = "RELATION R (V)\nRELATION OUT (V)\nRULE up R.V > R.V[-1] { OUT(R.V[-1]) }"
    log = str(tmp_path / "run.jsonl")
    first = make_engine(src, config=EngineConfig(log_path=log))
    first.process_event(ExternalInsert("R", (1.0,)))
    first.close()
    second = make_engine(src, config=EngineConfig(log_path=log))
    _, firings = process(second, ExternalInsert("R", (2.0,)))
    second.close()
    assert [f.name for f in firings] == ["up"]
    assert second.store.latest("OUT", "V") == 1.0


def test_restart_after_a_torn_last_line_replays_every_whole_record(tmp_path):
    src = "RELATION R (MAC, RSSI)"
    log = tmp_path / "run.jsonl"
    log.write_text('{"rel":"R","t":1,"seq":1,"v":["aa",-1]}\n{"rel":"R","t":2,"se',
                   encoding="utf-8")
    first = make_engine(src, config=EngineConfig(log_path=str(log)))
    assert first.replayed_records == 1
    first.process_event(ExternalInsert("R", ("bb", -2.0)))
    first.close()
    # the insert was not glued onto the torn bytes: the second replay is clean
    second = make_engine(src, config=EngineConfig(log_path=str(log)))
    assert second.replayed_records == 2
    assert [r.values for r in second.store.read("R", 10)] == [("bb", -2.0), ("aa", -1.0)]
    assert second.store.snapshot() == first.store.snapshot()
    second.close()


def test_replay_fires_no_webhooks(tmp_path):
    src = "RELATION R (MAC, RSSI)"
    log = str(tmp_path / "run.jsonl")
    config = EngineConfig(log_path=log, webhooks={"R": "http://hook.example/cb"})
    outbound = FakeOutbound()
    first = make_engine(src, config=config, outbound=outbound)
    first.process_event(ExternalInsert("R", ("aa", -87.0)))
    first.close()
    assert len(outbound.async_calls) == 1

    replay_outbound = FakeOutbound()
    second = make_engine(
        src,
        config=EngineConfig(log_path=log, webhooks={"R": "http://hook.example/cb"}),
        outbound=replay_outbound,
    )
    assert second.store.size("R") == 1
    assert replay_outbound.async_calls == []
    assert second.firing_log == []
    second.close()


def test_top_level_statements_execute_once_in_order():
    src = """
RELATION R (MAC, RSSI)
RULE R1 R.RSSI < -60 {}
R ("aa", -87)
R ("bb", -50)
"""
    engine = make_engine(src)
    assert engine.store.size("R") == 2
    assert [(f.kind, f.name) for f in engine.firing_log] == [("rule", "R1")]


def test_top_level_statements_share_one_scope():
    src = """
RELATION OUT (N)
MODULE COUNTER (count)
MAP MODULE COUNTER : http://mod.example/counter
CALL COUNTER ()
OUT (COUNTER.count)
"""
    outbound = FakeOutbound({"http://mod.example/counter": (200, b'{"count": 7}')})
    engine = make_engine(src, outbound=outbound)
    assert engine.event_errors == []
    assert engine.store.latest("OUT", "N") == 7.0


def test_trigger_body_reads_freshly_inserted_record():
    src = """
RELATION R (MAC, RSSI)
RELATION COPY (MAC, RSSI)
TRIGGER (R)
{
  COPY(R.MAC, R.RSSI)
}
"""
    engine = make_engine(src)
    engine.process_event(ExternalInsert("R", ("aa:bb", -87.0)))
    copied = engine.store.read("COPY", 1)[0]
    assert copied.values == ("aa:bb", -87.0)


def test_each_row_is_computed_when_its_statement_runs():
    """A row reads the store as the statements before it in the block left it."""
    src = """
RELATION A (X)
RELATION B (X)
ENDPOINT E () { A(1) B(A.X) A(2) B(A.X) }
"""
    engine = make_engine(src)
    assert engine.process_event(EndpointCall("E", ())).error is None
    assert [r.values for r in reversed(engine.store.read("B", 10))] == [(1.0,), (2.0,)]


# -- module calls and mappings ----------------------------------------------------


def test_call_module_binds_outputs_into_scope():
    src = """
RELATION OUT (N)
MODULE COUNTER (count)
MAP MODULE COUNTER : http://mod.example/counter
ENDPOINT E ()
{
  CALL COUNTER (1, "x")
  OUT(COUNTER.count)
}
"""
    outbound = FakeOutbound({"http://mod.example/counter": (200, b'{"count": 7}')})
    engine = make_engine(src, outbound=outbound)
    result = engine.process_event(EndpointCall("E", ()))
    assert result.error is None
    assert engine.store.latest("OUT", "N") == 7.0
    url, params = outbound.sync_calls[0]
    assert params == [("p1", "1"), ("p2", "x")]


def test_call_module_with_no_outputs_accepts_any_body():
    src = """
MODULE PING ()
MAP MODULE PING : http://mod.example/ping
ENDPOINT E () { CALL PING () }
"""
    outbound = FakeOutbound({"http://mod.example/ping": (200, b"whatever, not json")})
    engine = make_engine(src, outbound=outbound)
    assert engine.process_event(EndpointCall("E", ())).error is None


def test_call_module_missing_output_is_error():
    src = """
MODULE COUNTER (count)
MAP MODULE COUNTER : http://mod.example/counter
ENDPOINT E () { CALL COUNTER () }
"""
    outbound = FakeOutbound({"http://mod.example/counter": (200, b'{"other": 1}')})
    engine = make_engine(src, outbound=outbound)
    result = engine.process_event(EndpointCall("E", ()))
    assert "lacks output" in result.error


def test_call_module_error_kinds():
    src = """
RELATION OUT (V)
MODULE M (v)
MAP MODULE M : http://mod.example/m
ENDPOINT E () { CALL M () OUT(M.v) }
"""
    for response, fragment in [
        ((500, b"{}"), "500"),
        ((200, b"not json"), "not JSON"),
        ((200, b"[1,2]"), "not a JSON object"),
        ((200, b'{"v": [1]}'), "not a scalar"),
        ((200, b'{"v": NaN}'), "non-finite"),
        ((200, b'{"v": "\\ud800"}'), "ScalarError: text with no UTF-8 form rejected: '\\ud800'"),
        (TimeoutError("deadline"), "timed out"),
    ]:
        outbound = FakeOutbound({"http://mod.example/m": response})
        engine = make_engine(src, outbound=outbound)
        result = engine.process_event(EndpointCall("E", ()))
        assert result.error is not None and fragment in result.error
        assert engine.store.size("OUT") == 0


@pytest.mark.parametrize("src, event, what, url", [
    ("RELATION R (X)\nMAP RELATION R : http://backend.example/r",
     ExternalInsert("R", (5.0,)), "forward to", "http://backend.example/r/insert"),
    ("MODULE M (v)\nMAP MODULE M : http://mod.example/m\nENDPOINT E () { CALL M () }",
     EndpointCall("E", ()), "module call", "http://mod.example/m"),
], ids=["forward", "call"])
@pytest.mark.parametrize("failure, kind, tail", [
    (TimeoutError("deadline"), "timeout", "timed out"),
    (OSError("no route"), "transport", "failed: no route"),
], ids=["timeout", "oserror"])
def test_get_failures_map_to_module_call_errors(src, event, what, url, failure, kind, tail):
    engine = make_engine(src, outbound=FakeOutbound({url: failure}))
    message = f"{what} {url} {tail}"
    assert engine.process_event(event).error == f"ModuleCallError: {message}"
    err = module_call_error(engine, event)
    assert (err.kind, str(err)) == (kind, message)
    assert isinstance(err.__cause__, type(failure))


def test_acall_is_fire_and_forget():
    src = """
MODULE M ()
MAP MODULE M : http://mod.example/m
ENDPOINT E () { ACALL M ("test") }
"""
    outbound = FakeOutbound()
    engine = make_engine(src, outbound=outbound)
    result = engine.process_event(EndpointCall("E", ()))
    assert result.error is None
    assert outbound.async_calls == [("http://mod.example/m", [("p1", "test")])]
    assert outbound.sync_calls == []


def test_webhook_fires_per_inserted_record():
    src = "RELATION R (MAC, RSSI)"
    config = EngineConfig(webhooks={"R": "http://hook.example/cb"})
    outbound = FakeOutbound()
    engine = make_engine(src, config=config, outbound=outbound)
    engine.process_event(ExternalInsert("R", ("aa", -87.0)))
    assert outbound.async_calls == [
        ("http://hook.example/cb", [("T", "0"), ("MAC", "aa"), ("RSSI", "-87")])
    ]


@pytest.mark.parametrize("config, key", [
    (EngineConfig(window_overrides={"r": 3}), "window.r"),
    (EngineConfig(webhooks={"NOPE": "http://hook.example/cb"}), "webhook.NOPE"),
])
def test_config_entry_for_an_undeclared_relation_is_refused(config, key):
    with pytest.raises(ConfigError, match=f"^{key} names no declared relation$"):
        make_engine("RELATION R (X)", config=config)


def test_mapped_relation_forwards_before_applying():
    src = "RELATION R (X)\nMAP RELATION R : http://backend.example/r"
    outbound = FakeOutbound({"http://backend.example/r/insert": (200, b"ok")})
    engine = make_engine(src, outbound=outbound)
    result = engine.process_event(ExternalInsert("R", (5.0,)))
    assert result.error is None
    assert outbound.sync_calls == [("http://backend.example/r/insert", [("X", "5")])]
    assert engine.store.size("R") == 1


def test_mapped_relation_forward_failure_keeps_record_out():
    src = "RELATION R (X)\nMAP RELATION R : http://backend.example/r"
    outbound = FakeOutbound({"http://backend.example/r/insert": (503, b"down")})
    engine = make_engine(src, outbound=outbound)
    result = engine.process_event(ExternalInsert("R", (5.0,)))
    assert result.error is not None
    assert engine.store.size("R") == 0


@pytest.mark.parametrize("values, error", [
    ((5.0,), "ArityError: relation R takes 2 values, got 1"),
    ((5.0, 1.0, 2.0), "ArityError: relation R takes 2 values, got 3"),
    ((5.0, math.nan), "ScalarError: non-finite number rejected: nan"),
    (("\ud800", 1.0), "ScalarError: text with no UTF-8 form rejected: '\\ud800'"),
    (("12", 1.0), "ScalarError: R.X holds text '12', which http://b.example/r/insert "
                  "would read as number; row not forwarded"),
], ids=["short row", "long row", "NaN", "lone surrogate", "text that reads as a number"])
def test_a_refused_row_of_a_mapped_relation_is_neither_forwarded_nor_logged(
        tmp_path, values, error):
    src = "RELATION R (X, Y)\nMAP RELATION R : http://b.example/r"
    outbound = FakeOutbound()
    log = tmp_path / "run.jsonl"
    engine = make_engine(src, config=EngineConfig(log_path=str(log)), outbound=outbound)
    result = engine.process_event(ExternalInsert("R", values))
    engine.close()
    assert result.error == error
    assert outbound.sync_calls == []
    assert engine.store.size("R") == 0 and log.read_text() == ""


def test_resolve_target():
    assert resolve_target("http://a/b", None) == "http://a/b"
    assert resolve_target("module1.jsp", "http://base:9") == "http://base:9/module1.jsp"
    assert resolve_target("svc/m.jsp", "http://base:9/app/") == "http://base:9/app/svc/m.jsp"
    with pytest.raises(ModuleCallError):
        resolve_target("module1.jsp", None)


# -- firing log export -------------------------------------------------------------


def test_firing_json_line_matches_dump_json():
    # non-ASCII identifiers the lexer accepts, both kinds, seq and t past 2**31
    engine = make_engine("RELATION Ä (V)\nTRIGGER (Ä)\n{\n}\nRULE Ölçüm_2 Ä.V > 0\n{\n}\n")
    engine.clock.set_ms(2**41 + 3)
    engine.store.next_seq = 2**33 + 7
    engine.process_event(ExternalInsert("Ä", (1.0,)))
    firings = engine.firing_log + [Firing(seq=2**63 - 1, kind="rule", name="x_1", t=0)]
    assert [(f.kind, f.name) for f in firings[:2]] == [("trigger", "Ä"), ("rule", "Ölçüm_2")]
    assert export_firing_log(firings) == "".join(
        dump_json({"seq": f.seq, "kind": f.kind, "name": f.name, "t": f.t}) + "\n"
        for f in firings
    )
    assert firings[0].seq == 2**33 + 7 and firings[0].t == 2**41 + 3


def test_engine_refuses_names_json_would_escape():
    # a program built as a syntax tree skips the lexer
    program = ast.Program(relations=(ast.RelationDecl('R"1', ("V",)),))
    with pytest.raises(ValueError):
        Engine(program, config=EngineConfig(), clock=VirtualClock(0))


R_XY = ast.RelationDecl("R", ("X", "Y"))


def rule_over(condition):
    return ast.Program(relations=(R_XY,), rules=(ast.RuleDecl("A", condition, ()),))


def insert_of(*args):
    return ast.Program(relations=(R_XY,),
                       top_level_statements=(ast.Statement("INSERT", "R", args),))


def above(ref, literal=0.0):
    return ast.Binary(">", ref, ast.Literal(literal))


@pytest.mark.parametrize("program, message", [
    (rule_over(above(ast.FieldRef("NOPE", "X"))), "rule A: unknown relation NOPE in condition"),
    (rule_over(above(ast.FieldRef("R", "Z"))), "relation R has no field Z"),
    (rule_over(above(ast.FieldRef("R", "X", 1))),
     "history offset of R.X must be a non-positive integer, got 1"),
    (insert_of(ast.Literal(1.0)), "relation R takes 2 values, got 1"),
    (rule_over(above(ast.FieldRef("R", "X"), math.nan)),
     "literal nan is not a text, a finite number, a boolean or null"),
    (insert_of(ast.Literal(1), ast.Literal(2.0)),
     "literal 1 is not a text, a finite number, a boolean or null"),
], ids=["unknown relation", "unknown field", "positive offset", "insert arity",
        "NaN literal", "int literal"])
def test_engine_refuses_a_tree_built_program_the_resolver_refuses(program, message):
    with pytest.raises(SemanticError) as err:
        Engine(program, config=EngineConfig(), clock=VirtualClock(0))
    assert err.value.message == message


@pytest.mark.parametrize("statement, message", [
    (ast.Statement("DELETE", "R", pos=ast.Pos(3, 5)), "unknown statement kind 'DELETE'"),
    (ast.Statement("START", "TM", (ast.Literal(1.0),), pos=ast.Pos(3, 5)),
     "START takes no arguments, got 1"),
    (ast.Statement("CHECK", "A", (ast.Literal(1.0), ast.Literal(2.0)), pos=ast.Pos(3, 5)),
     "CHECK takes no arguments, got 2"),
    (ast.Statement(["INSERT"], "R", pos=ast.Pos(3, 5)), "statement kind must be a str, got list"),
    (ast.Statement("START", ["TM"], pos=ast.Pos(3, 5)),
     "statement target must be a str, got list"),
    (ast.Statement("INSERT", "R", [ast.Literal(1.0), ast.Literal(2.0)], pos=ast.Pos(3, 5)),
     "statement args must be a tuple, got list"),
], ids=["unknown kind", "row on START", "row on CHECK", "list kind", "list target",
        "list args"])
def test_engine_refuses_a_statement_only_a_tree_can_build(statement, message):
    program = ast.Program(relations=(R_XY,), timers=(ast.TimerDecl("TM", 10, ()),),
                          rules=(ast.RuleDecl("A", above(ast.FieldRef("R", "X")), ()),),
                          endpoints=(ast.EndpointDecl("E", (), (statement,)),))
    with pytest.raises(SemanticError) as err:
        Engine(program, config=EngineConfig(), clock=VirtualClock(0))
    assert (err.value.line, err.value.column, err.value.message) == (3, 5, message)


def test_engine_runs_a_tree_built_program_as_the_resolver_rewrites_it():
    # COUNTER.count names no relation: the resolver makes it a scope reference
    program = ast.Program(
        relations=(ast.RelationDecl("OUT", ("N",)),),
        modules=(ast.ModuleDecl("COUNTER", ("count",)),),
        mappings=(ast.MapDecl("module", "COUNTER", "http://m.example/c"),),
        endpoints=(ast.EndpointDecl("E", (), (
            ast.Statement("CALL", "COUNTER"),
            ast.Statement("INSERT", "OUT", (ast.FieldRef("COUNTER", "count"),)),
        )),),
    )
    outbound = FakeOutbound({"http://m.example/c": (200, b'{"count": 7}')})
    engine = Engine(program, config=EngineConfig(), clock=VirtualClock(0), outbound=outbound)
    engine.load()
    assert engine.process_event(EndpointCall("E", ())).error is None
    assert engine.store.latest("OUT", "N") == 7.0


# -- determinism ------------------------------------------------------------------


def run_composite_session():
    engine = make_engine(COMPOSITE + "\nRELATION OTHER (A)\nRULE R2 OTHER.A > 3 {}")
    events = [
        ExternalInsert("R", ("aa", -87.0)),
        ExternalInsert("OTHER", (5.0,)),
        EndpointCall("NEW_RECORD", ("bb", -99.0)),
        ExternalInsert("OTHER", (1.0,)),
    ]
    for event in events:
        engine.process_event(event)
    engine.advance_to(3500)
    return export_firing_log(engine.firing_log), engine.store.snapshot()


def test_identical_runs_produce_identical_logs_and_state():
    log_a, state_a = run_composite_session()
    log_b, state_b = run_composite_session()
    assert log_a == log_b
    assert state_a == state_b


def test_naive_oracle_matches_on_single_relation_program():
    events = [ExternalInsert("R", ("aa", -87.0)), ExternalInsert("R", ("bb", -10.0))]
    engine = make_engine(COMPOSITE)
    for event in events:
        engine.process_event(event)
    oracle_log = naive_oracle(parse_program(COMPOSITE), events, clock=VirtualClock(0))
    assert export_firing_log(engine.firing_log) == export_firing_log(oracle_log)


def test_oracle_evaluates_more_but_fires_the_same():
    src = "RELATION R (X)\nRELATION Q (Y)\nRULE A Q.Y > 0 {}"
    events = [ExternalInsert("R", (1.0,)) for _ in range(5)]
    indexed = make_engine(src)
    for event in events:
        indexed.process_event(event)
    assert indexed.condition_evaluations == 0  # rule only depends on Q

    naive = make_engine(src, engine_class=NaiveEngine)
    for event in events:
        naive.process_event(event)
    assert naive.condition_evaluations == 5

    assert export_firing_log(indexed.firing_log) == export_firing_log(naive.firing_log) == ""


def test_evaluations_are_counted_up_to_a_condition_that_raises():
    # Q.Y + 1 and R.Y + 1 raise on text. Per insert, the conditions each engine
    # evaluates, in declaration order (naive: B on R and A on Q are advisory,
    # so an error B raises there is swallowed but still counted):
    #   Q("t")    indexed: B raises          1    naive: A, B raises           2
    #   R(1, "t") indexed: A, C raises       2    naive: A, B, C raises        3
    #   R(7, 2)   indexed: A, C, D           3    naive: A, B, C, D            4
    src = """
RELATION R (X, Y)
RELATION Q (Y)
RULE A R.X > 0 {}
RULE B Q.Y + 1 > 0 {}
RULE C R.Y + 1 > 0 {}
RULE D R.X > 5 {}
"""
    events = [ExternalInsert("Q", ("t",)), ExternalInsert("R", (1, "t")),
              ExternalInsert("R", (7, 2))]
    for engine_class, counts in [(Engine, [1, 3, 6]), (NaiveEngine, [2, 5, 9])]:
        engine = make_engine(src, engine_class=engine_class)
        seen = []
        for event in events:
            engine.process_event(event)
            seen.append(engine.condition_evaluations)
        assert seen == counts, engine_class.__name__
        assert engine.event_errors == [
            f"event ExternalInsert(relation={relation!r}, values={values!r}, arrival_seq=0) "
            "aborted: EvalTypeError: + needs a number, got text"
            for relation, values in [("Q", ("t",)), ("R", (1, "t"))]]
        assert export_firing_log(engine.firing_log) == "".join(
            f'{{"seq":{seq},"kind":"rule","name":"{name}","t":0}}\n'
            for seq, name in [(2, "A"), (3, "A"), (3, "C"), (3, "D")])
