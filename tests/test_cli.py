import gc
import http.client
import json
import logging
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.parse
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import liot.cli
import liot.engine
from liot.cli import (
    ScriptAction,
    generate_requests,
    load_script,
    main,
    parse_gen_spec,
    run_script,
)
from liot.clock import VirtualClock
from liot.config import EngineConfig, RunConfig, apply_config_pairs, read_config_file
from liot.engine import Engine, ExternalInsert
from liot.errors import ConfigError
from liot.gateway import GatewayServer
from liot.parser import parse_program
from liot.runtime import EngineRuntime
from liot.values import parse_query_value

from .helpers import get_json, http_get, liot_threads, record_wire, running_stack, stub_server

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


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- check ------------------------------------------------------------------


def test_check_valid_program(tmp_path):
    assert main(["check", write(tmp_path, "ok.liot", COMPOSITE)]) == 0


def test_check_empty_file_is_valid(tmp_path):
    assert main(["check", write(tmp_path, "empty.liot", "")]) == 0


def test_check_duplicate_relation_diagnostic(tmp_path, capsys):
    path = write(tmp_path, "dup.liot", "RELATION R (X)\nRELATION R (Y)\n")
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:2:1:")
    assert "duplicate relation R" in err


def test_check_syntax_error_position(tmp_path, capsys):
    path = write(tmp_path, "bad.liot", "RELATION R (MAC RSSI)\n")
    assert main(["check", path]) == 1
    assert f"{path}:1:17:" in capsys.readouterr().err


def test_check_missing_file(tmp_path):
    assert main(["check", str(tmp_path / "gone.liot")]) == 1


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--count", "5"])  # missing required --target
    assert err.value.code == 2


# -- config file ----------------------------------------------------------------


def test_config_file_round_trip(tmp_path):
    path = write(
        tmp_path,
        "engine.conf",
        """
# comment
port = 9911
window = 64
window.R = 8
cascade = 10
webhook.R = http://hook.example/cb
log = /tmp/run.jsonl
""",
    )
    config = RunConfig()
    apply_config_pairs(config, read_config_file(path))
    assert config.port == 9911
    assert config.window_default == 64
    assert config.window_overrides == {"R": 8}
    assert config.cascade_limit == 10
    assert config.webhooks == {"R": "http://hook.example/cb"}
    assert config.log_path == "/tmp/run.jsonl"


def test_config_rejects_unknown_key(tmp_path):
    path = write(tmp_path, "bad.conf", "nope = 1\n")
    with pytest.raises(ConfigError):
        apply_config_pairs(RunConfig(), read_config_file(path))


def test_config_rejects_non_positive(tmp_path):
    path = write(tmp_path, "bad.conf", "window = 0\n")
    with pytest.raises(ConfigError):
        apply_config_pairs(RunConfig(), read_config_file(path))


def test_config_accepts_port_zero(tmp_path):
    config = RunConfig()
    apply_config_pairs(config, read_config_file(write(tmp_path, "run.conf", "port = 0\n")))
    assert config.port == 0


# -- simulate -----------------------------------------------------------------


def test_gen_spec_parsing():
    rng = random.Random(3)
    field, draw = parse_gen_spec("MAC=constant:aa:bb")
    state = rng.getstate()
    assert (field, draw(rng)) == ("MAC", "aa:bb")
    assert rng.getstate() == state  # a constant draws nothing
    field, draw = parse_gen_spec("RSSI=uniform:-90:-30")
    assert field == "RSSI" and draw(rng) == random.Random(3).uniform(-90.0, -30.0)
    assert all(-90.0 <= draw(rng) <= -30.0 for _ in range(200))
    field, draw = parse_gen_spec("S=choice:x,y,1")
    assert field == "S" and {draw(rng) for _ in range(200)} == {"x", "y", 1.0}
    with pytest.raises(ConfigError):
        parse_gen_spec("nonsense")
    with pytest.raises(ConfigError):
        parse_gen_spec("F=uniform:1")


def test_seeded_generation_is_reproducible():
    gens = [parse_gen_spec(spec) for spec in ("MAC=constant:aa", "RSSI=uniform:-90:-30",
                                              "S=uniform:0:1e-9")]
    first = generate_requests(gens, 500, 42)
    second = generate_requests(gens, 500, 42)
    assert first == second
    assert len(first) == 500
    values = [float(dict(p)["RSSI"]) for p in first]
    assert all(-90 <= v <= -30 for v in values)
    assert len(set(values)) > 400  # actually random, not constant
    # digits only, so the server types even a tiny draw as a number
    tiny = [parse_query_value(dict(p)["S"]) for p in first]
    assert all(isinstance(v, float) and 0 <= v <= 1e-9 for v in tiny)


def test_simulate_against_running_engine(capsys, monkeypatch):
    wire = record_wire(monkeypatch)
    with running_stack("RELATION R (MAC, RSSI)") as (runtime, base):
        code = main(
            [
                "simulate",
                "--target", base,
                "--relation", "R",
                "--count", "20",
                "--seed", "7",
                "--gen", "MAC=constant:aa:bb",
                "--gen", "RSSI=uniform:-90:-30",
            ]
        )
        runtime.wait_idle()
        assert code == 0
        assert capsys.readouterr().out.strip() == "sent=20 ok=20 err=0"
        assert runtime.engine.store.size("R") == 20
    assert len(wire.peers) == 1  # one keep-alive connection for every request


class SinkHandler(BaseHTTPRequestHandler):
    """Keep-alive handler that answers 202 and records each request's peer."""

    protocol_version = "HTTP/1.1"
    seen: list = []

    def log_message(self, *args):
        pass

    def do_GET(self):
        self.seen.append(self.client_address)
        self.send_response_only(202)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")


@contextmanager
def serving(handler):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    # a short poll: shutdown() waits up to one poll interval
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


# The first three requests of seed 42, pinned as data: the draw order (one
# RNG, fields in --gen order, constant drawing nothing) is part of the contract.
SEED_42 = [
    [("MAC", "aa"), ("RSSI", "-51.63439209252697"), ("S", "x")],
    [("MAC", "aa"), ("RSSI", "-45.50697001441003"), ("S", "x")],
    [("MAC", "aa"), ("RSSI", "-76.60735571107064"), ("S", "z")],
]


def simulated(*specs, count=3, seed=42):
    """The query parameters of each request ``liot simulate`` sends, in order."""
    class Handler(SinkHandler):
        seen = []
        queries = []

        def do_GET(self):
            self.queries.append(urllib.parse.parse_qsl(urllib.parse.urlsplit(self.path).query))
            super().do_GET()

    with serving(Handler) as url:
        argv = ["simulate", "--target", url, "--relation", "R", "--count", str(count),
                "--seed", str(seed)]
        for spec in specs:
            argv += ["--gen", spec]
        assert main(argv) == 0
    return Handler.queries


def test_simulate_sends_the_pinned_sequence_of_a_seed(capsys):
    assert simulated("MAC=constant:aa", "RSSI=uniform:-90:-30", "S=choice:x,y,z") == SEED_42


def test_a_constant_field_leaves_the_other_draws_unchanged(capsys):
    without_mac = [[p for p in request if p[0] != "MAC"] for request in SEED_42]
    assert simulated("RSSI=uniform:-90:-30", "S=choice:x,y,z") == without_mac
    moved = simulated("RSSI=uniform:-90:-30", "MAC=constant:aa", "S=choice:x,y,z")
    assert [sorted(request) for request in moved] == [sorted(request) for request in SEED_42]


def test_simulate_never_resends_a_dropped_request(capsys):
    class Handler(SinkHandler):
        seen = []

        def do_GET(self):
            if len(self.seen) == 1:  # close without answering: applied or not, unknown
                self.seen.append(self.client_address)
                self.close_connection = True
                return
            super().do_GET()

    with serving(Handler) as target:
        code = main(["simulate", "--target", target, "--relation", "R",
                     "--count", "4", "--gen", "X=constant:1"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "sent=4 ok=3 err=1"
    assert len(Handler.seen) == 4  # the dropped request was not sent again
    assert len(set(Handler.seen)) == 2  # a new connection after the server closed the first


def test_simulate_reconnects_after_the_server_closes_an_idle_connection(capsys):
    class Handler(SinkHandler):
        seen = []
        timeout = 0.1  # the server drops a connection idle this long

    with serving(Handler) as target:
        code = main(["simulate", "--target", target, "--relation", "R", "--count", "3",
                     "--period", "400", "--gen", "X=constant:1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "sent=3 ok=3 err=0"
    assert len(set(Handler.seen)) == 3


def test_simulate_zero_count(capsys):
    code = main(["simulate", "--target", "http://127.0.0.1:1", "--relation", "R",
                 "--count", "0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "sent=0 ok=0 err=0"


def test_simulate_target_down(capsys):
    code = main(
        ["simulate", "--target", "http://127.0.0.1:9", "--relation", "R",
         "--count", "3", "--gen", "X=constant:1"]
    )
    assert code == 1
    assert capsys.readouterr().out.strip() == "sent=3 ok=0 err=3"


def test_simulate_endpoint_target(capsys):
    src = "RELATION R (MAC, RSSI)\nENDPOINT NEW_RECORD (M, RS) { R(M, RS) }"
    with running_stack(src) as (runtime, base):
        code = main(
            ["simulate", "--target", base, "--endpoint", "NEW_RECORD",
             "--count", "5", "--gen", "M=constant:aa", "--gen", "RS=uniform:-90:-30"]
        )
        runtime.wait_idle()
        assert code == 0
        assert runtime.engine.store.size("R") == 5


# -- script --------------------------------------------------------------------


def script_lines(*entries):
    return "".join(json.dumps(e) + "\n" for e in entries)


def test_script_timer_fires_ten_times(tmp_path, capsys):
    program = write(tmp_path, "t.liot", "RELATION TICKS (N)\nTRIGGER (TICKS) {}\nTIMER TM (1000) { TICKS(1) }")
    script = write(tmp_path, "s.jsonl", script_lines({"at": 0, "advance": 10000}))
    assert main(["script", program, script]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 10
    firing = json.loads(lines[0])
    assert firing == {"seq": 1, "kind": "trigger", "name": "TICKS", "t": 1000}
    assert json.loads(lines[-1])["t"] == 10000


def test_script_empty_yields_empty_log(tmp_path, capsys):
    program = write(tmp_path, "t.liot", COMPOSITE)
    script = write(tmp_path, "s.jsonl", "")
    assert main(["script", program, script]) == 0
    assert capsys.readouterr().out == ""


def test_script_reproduces_rssi_rule_firing(tmp_path, capsys):
    program = write(tmp_path, "t.liot", COMPOSITE)
    script = write(
        tmp_path,
        "s.jsonl",
        script_lines({"at": 5, "insert": {"rel": "R", "v": ["38:E7:D8:D3:18:68", -87]}}),
    )
    assert main(["script", program, script]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert {"seq": 1, "kind": "rule", "name": "R1", "t": 5} in lines


def test_script_output_identical_across_runs(tmp_path):
    program = write(
        tmp_path,
        "t.liot",
        COMPOSITE + "\nTIMER T2 (700) { R(\"t2\", -70) }\n",
    )
    script = write(
        tmp_path,
        "s.jsonl",
        script_lines(
            {"at": 100, "insert": {"rel": "R", "v": ["aa", -61]}},
            {"at": 100, "advance": 5000},
            {"at": 6000, "insert": {"rel": "R", "v": ["bb", -59]}},
            {"at": 6000, "advance": 4000},
        ),
    )
    runs = [
        subprocess.run(
            [sys.executable, "-m", "liot", "script", program, script],
            capture_output=True, check=True,
        ).stdout
        for _ in range(3)
    ]
    assert runs[0] and all(r == runs[0] for r in runs)


# Loaded by http.server; OpenSSL alone is ~4.6 MB of a process's memory. The
# gateway serves connections from its own accept loop, without socketserver.
HEAVY_MODULES = ("http.server", "http.client", "email", "ssl", "socketserver")


def heavy_imports(importtime_stderr):
    """Modules of HEAVY_MODULES (or inside them) named in ``-X importtime`` output."""
    names = {line.rsplit("|", 1)[1].strip()
             for line in importtime_stderr.splitlines() if line.startswith("import time:")}
    assert "liot.cli" in names
    return sorted(n for n in names if n in HEAVY_MODULES or n.split(".")[0] in ("email", "ssl"))


def test_check_script_and_run_do_not_import_the_http_stack(tmp_path):
    program = write(tmp_path, "t.liot", COMPOSITE)
    script = write(tmp_path, "s.jsonl", script_lines({"at": 5, "insert": {"rel": "R", "v": ["aa", -87]}}))
    env = {**os.environ, "PYTHONPROFILEIMPORTTIME": "1"}
    liot = [sys.executable, "-m", "liot"]
    for args in (["check", program], ["script", program, script]):
        result = subprocess.run(liot + args, capture_output=True, text=True, env=env,
                                timeout=20, check=True)
        assert heavy_imports(result.stderr) == [], args
    process = subprocess.Popen(liot + ["run", program, "--port", "0"], stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True, env=env)
    try:
        stderr = ""
        while "listening on " not in stderr and process.poll() is None:
            stderr += process.stderr.readline()
        base = stderr.split("listening on ", 1)[1].strip()
        assert http_get(f"{base}/rel/R/insert?MAC=aa&RSSI=-87")[0] == 202
        assert http_get(f"{base}/rel/R/read")[0] == 200
        process.send_signal(signal.SIGINT)
        stderr += process.communicate(timeout=10)[1]
    finally:
        process.kill()
        process.wait()
        process.stderr.close()
    assert process.returncode == 0, stderr
    assert heavy_imports(stderr) == []


def test_script_delivers_every_acall_before_it_returns(tmp_path, capsys):
    with stub_server() as stub:
        program = write(tmp_path, "t.liot", f"""
RELATION R (X)
MODULE M ()
MAP MODULE M : {stub.url}/m
TRIGGER (R) {{ ACALL M (R.X) }}
""")
        script = write(tmp_path, "s.jsonl", script_lines(
            *({"at": i, "insert": {"rel": "R", "v": [i]}} for i in range(5))))
        assert main(["script", program, script]) == 0
        assert sorted(params for _, params in stub.requests) == [[("p1", str(i))] for i in range(5)]
    assert [json.loads(line)["t"] for line in capsys.readouterr().out.splitlines()] == list(range(5))


def test_script_refuses_text_with_no_utf8_form_and_applies_the_next_row(tmp_path, capsys, caplog):
    program = write(tmp_path, "t.liot", "RELATION R (X)\nTRIGGER (R) {}")
    script = write(tmp_path, "s.jsonl", script_lines(
        {"at": 1, "insert": {"rel": "R", "v": ["\ud800"]}},
        {"at": 2, "insert": {"rel": "R", "v": ["ok"]}}))
    log = tmp_path / "run.jsonl"
    with caplog.at_level(logging.ERROR, logger="liot.engine"):
        assert main(["script", program, script, "--log", str(log)]) == 0
    assert len(caplog.records) == 1
    assert "ScalarError: text with no UTF-8 form rejected: '\\ud800'" in caplog.records[0].message
    assert capsys.readouterr().out == '{"seq":1,"kind":"trigger","name":"R","t":2}\n'
    assert log.read_text(encoding="utf-8") == '{"rel":"R","t":2,"seq":1,"v":["ok"]}\n'


def test_script_rejects_bad_actions(tmp_path):
    program = write(tmp_path, "t.liot", COMPOSITE)
    bad = write(tmp_path, "bad.jsonl", '{"insert": {}}\n')
    assert main(["script", program, bad]) == 1
    decreasing = write(
        tmp_path, "dec.jsonl",
        script_lines({"at": 10, "advance": 1}, {"at": 5, "advance": 1}),
    )
    assert main(["script", program, decreasing]) == 1


@pytest.mark.parametrize("insert", [
    {"rel": "R", "v": "ab"},
    {"rel": "R", "v": {"a": 1, "b": 2}},
    {"rel": "R", "v": 5},
    {"rel": ["R"], "v": ["aa", -70]},
], ids=["v text", "v object", "v number", "rel array"])
def test_script_refuses_an_insert_whose_rel_or_v_has_the_wrong_type(tmp_path, capsys, insert):
    program = write(tmp_path, "t.liot", COMPOSITE)
    script = write(tmp_path, "s.jsonl", script_lines({"at": 0, "advance": 1},
                                                      {"at": 1, "insert": insert}))
    assert main(["script", program, script]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f'error: {script}:2: insert needs a string "rel" '
                            'and an array "v" of values\n')


def test_script_rejects_at_inside_a_preceding_advance(tmp_path, capsys):
    # the advance left the clock at 1000; going back to 500 is refused with
    # the line number instead of failing inside the engine
    program = write(tmp_path, "t.liot", COMPOSITE)
    script = write(
        tmp_path, "s.jsonl",
        script_lines({"at": 0, "advance": 1000},
                     {"at": 500, "insert": {"rel": "R", "v": ["aa", -70]}}),
    )
    assert main(["script", program, script]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{script}:2:" in captured.err and "1000" in captured.err
    assert "Traceback" not in captured.err
    at_end = write(
        tmp_path, "end.jsonl",
        script_lines({"at": 0, "advance": 1000},
                     {"at": 1000, "insert": {"rel": "R", "v": ["aa", -70]}}),
    )
    assert main(["script", program, at_end]) == 0


def test_script_rejects_boolean_times(tmp_path):
    # a boolean would reach the virtual clock and the firing log's "t"
    program = write(tmp_path, "t.liot", COMPOSITE)
    at_true = write(tmp_path, "at.jsonl", script_lines({"at": True, "advance": 1}))
    assert main(["script", program, at_true]) == 1
    advance_true = write(tmp_path, "adv.jsonl", script_lines({"at": 0, "advance": True}))
    assert main(["script", program, advance_true]) == 1


def test_load_script_shapes(tmp_path):
    path = write(
        tmp_path, "s.jsonl",
        script_lines({"at": 0, "insert": {"rel": "R", "v": [1, "x"]}}, {"at": 3, "advance": 7}),
    )
    actions = load_script(path)
    assert actions[0].insert == ("R", (1, "x"))
    assert actions[1].advance == 7
    # built by keyword, as callers outside the loader build them
    insert = ScriptAction(at=0, insert=("R", (1, "x")))
    advance = ScriptAction(at=3, advance=7)
    assert actions == [insert, advance]
    assert (insert.at, insert.insert, insert.advance) == (0, ("R", (1, "x")), None)
    assert (advance.at, advance.insert, advance.advance) == (3, None, 7)
    assert repr(advance) == "ScriptAction(at=3, insert=None, advance=7)"


@pytest.mark.parametrize("line, error", [
    ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ('{"at":0} {"at":1}', "invalid JSON: Extra data: line 1 column 10 (char 9)"),
    ('{"at": ' + "1" * 5000 + "}",
     "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
     "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
    ("[1]", 'action needs an "at" time'),
    ('   {"at": 2, "advance": 3}   ', None),
], ids=["not JSON", "two values", "digit limit", "not an object", "padded"])
def test_load_script_error_text(tmp_path, line, error):
    path = write(tmp_path, "s.jsonl", f'{{"at": 1, "advance": 0}}\n{line}\n')
    if error is None:
        assert load_script(path)[1] == ScriptAction(at=2, advance=3)
    else:
        with pytest.raises(ConfigError) as caught:
            load_script(path)
        assert str(caught.value) == f"{path}:2: {error}"


def test_script_with_persistence_log(tmp_path, capsys):
    program = write(tmp_path, "t.liot", "RELATION TICKS (N)\nTIMER TM (500) { TICKS(1) }")
    script = write(tmp_path, "s.jsonl", script_lines({"at": 0, "advance": 2000}))
    log = str(tmp_path / "run.jsonl")
    assert main(["script", program, script, "--log", log]) == 0
    capsys.readouterr()
    with open(log, encoding="utf-8") as handle:
        entries = [json.loads(line) for line in handle]
    assert len(entries) == 4
    assert entries[0] == {"rel": "TICKS", "t": 500, "seq": 1, "v": [1]}


def test_script_insert_of_a_huge_integer_aborts_only_that_event(tmp_path, capsys, caplog):
    program = write(tmp_path, "t.liot", "RELATION R (X)\nTRIGGER (R) { }")
    script = write(tmp_path, "s.jsonl", script_lines(
        {"at": 1, "insert": {"rel": "R", "v": [int("9" * 400)]}},
        {"at": 2, "insert": {"rel": "R", "v": [7]}},
    ))
    assert main(["script", program, script]) == 0
    assert capsys.readouterr().out == '{"seq":1,"kind":"trigger","name":"R","t":2}\n'
    assert any("ScalarError: int too large to convert to float" in r.getMessage()
               for r in caplog.records)


# -- the collector policy of run and script -----------------------------------


def collector_settings():
    return gc.get_threshold(), gc.get_freeze_count()


POLICY_PROGRAM = "RELATION R (X)\nTRIGGER (R) { }"


def test_script_runs_under_the_collector_policy_and_restores_the_settings(
        tmp_path, monkeypatch, capsys):
    seen = []
    export = liot.cli.export_firing_log

    def recording_export(firing_log):  # called once every action has run
        seen.append(collector_settings())
        return export(firing_log)

    monkeypatch.setattr(liot.cli, "export_firing_log", recording_export)
    program = write(tmp_path, "t.liot", POLICY_PROGRAM)
    script = write(tmp_path, "s.jsonl", script_lines({"at": 1, "insert": {"rel": "R", "v": [7]}}))
    before = collector_settings()
    assert main(["script", program, script]) == 0
    assert collector_settings() == before
    [(threshold, frozen)] = seen
    assert threshold == (10000, 10, 10) and frozen > before[1]
    assert capsys.readouterr().out == '{"seq":1,"kind":"trigger","name":"R","t":1}\n'


def test_run_runs_under_the_collector_policy_and_restores_the_settings(tmp_path, monkeypatch):
    seen = []
    serving = liot.cli.serving

    class StopAtOnce:  # in place of ``runtime.stopped``: notes the settings, returns
        def wait(self):
            seen.append(collector_settings())

    @contextmanager
    def recording_serving(program, config):
        with serving(program, config) as (runtime, base_url):
            runtime.stopped = StopAtOnce()
            yield runtime, base_url

    monkeypatch.setattr(liot.cli, "serving", recording_serving)
    program = write(tmp_path, "t.liot", POLICY_PROGRAM)
    before = collector_settings()
    assert main(["run", program, "--port", "0"]) == 0
    assert collector_settings() == before
    [(threshold, frozen)] = seen
    assert threshold == (10000, 10, 10) and frozen > before[1]


@pytest.mark.parametrize("broken", ["program", "script"])
def test_a_script_that_fails_to_load_restores_the_collector_settings(tmp_path, capsys, broken):
    program = write(tmp_path, "t.liot", "RELATION" if broken == "program" else POLICY_PROGRAM)
    script = write(tmp_path, "s.jsonl", "{}\n" if broken == "script" else "")
    before = collector_settings()
    assert main(["script", program, script]) == 1
    assert collector_settings() == before
    assert capsys.readouterr().out == ""


def test_a_host_freeze_is_left_as_the_host_made_it(tmp_path):
    program = write(tmp_path, "t.liot", POLICY_PROGRAM)
    script = write(tmp_path, "s.jsonl", script_lines({"at": 1, "insert": {"rel": "R", "v": [7]}}))
    gc.freeze()
    try:
        threshold, frozen = collector_settings()
        assert main(["script", program, script]) == 0
        # a frozen object is still freed when its last reference goes, so
        # the count may fall; unfrozen, it would be 0, and frozen again, larger
        assert gc.get_threshold() == threshold and 0 < gc.get_freeze_count() <= frozen
    finally:
        gc.unfreeze()


def test_library_callers_keep_the_default_collector():
    before = collector_settings()
    program = parse_program(POLICY_PROGRAM)
    engine = Engine(program, config=EngineConfig(), clock=VirtualClock(0))
    engine.load()
    engine.process_event(ExternalInsert("R", (1.0,)))
    engine.close()
    run_script(program, [ScriptAction(at=1, insert=("R", (2.0,)))], RunConfig())
    runtime = EngineRuntime(Engine(program, config=EngineConfig()))
    runtime.start()
    try:
        runtime.submit_insert("R", (3.0,))
        runtime.wait_idle()
    finally:
        runtime.shutdown()
    assert collector_settings() == before


# -- run (in process) ---------------------------------------------------------


def run_fails_to_start(args, capsys):
    """main(["run", ...]) for a start that must fail: its stderr, after
    checking that it returned 1 and left no thread of its own running."""
    assert main(["run", *args]) == 1
    assert liot_threads() == []
    return capsys.readouterr().err


def test_failed_start_on_an_undeclared_relation_leaves_nothing_running(tmp_path, capsys):
    program = write(tmp_path, "t.liot", "RELATION R (X)")
    config = write(tmp_path, "run.conf", "window.r = 3\n")
    err = run_fails_to_start([program, "--port", "0", "--config", config], capsys)
    assert err == "error: window.r names no declared relation\n"


def test_failed_start_on_a_taken_port_leaves_nothing_running(tmp_path, capsys):
    program = write(tmp_path, "t.liot", COMPOSITE)
    with socket.create_server(("127.0.0.1", 0)) as blocker:
        port = blocker.getsockname()[1]
        err = run_fails_to_start([program, "--port", str(port)], capsys)
    assert err == (f"error: cannot listen on 127.0.0.1:{port}: [Errno 98] Address already in use"
                   f" (while attempting to bind on address ('127.0.0.1', {port}))\n")


def test_failed_start_on_a_malformed_log_leaves_nothing_running(tmp_path, capsys):
    program = write(tmp_path, "t.liot", COMPOSITE)
    log = write(tmp_path, "run.jsonl", "not json\n")
    err = run_fails_to_start([program, "--port", "0", "--log", log], capsys)
    assert err == "error: log line 1: invalid JSON: Expecting value: line 1 column 1 (char 0)\n"


def test_failed_start_on_a_log_that_cannot_be_opened_leaves_nothing_running(tmp_path, capsys):
    program = write(tmp_path, "t.liot", COMPOSITE)
    log = str(tmp_path / "missing" / "run.jsonl")
    err = run_fails_to_start([program, "--port", "0", "--log", log], capsys)
    assert err == f"error: [Errno 2] No such file or directory: {log!r}\n"


@pytest.mark.parametrize("port, where", [("70000", "flag"), ("-1", "flag"), ("65536", "file")])
def test_run_refuses_a_port_out_of_range(tmp_path, capsys, port, where):
    program = write(tmp_path, "t.liot", COMPOSITE)
    if where == "flag":
        args = ["--port", port]
    else:
        args = ["--config", write(tmp_path, "run.conf", f"port = {port}\n")]
    err = run_fails_to_start([program, *args], capsys)
    assert err == f"error: port must be in 0..65535, got {port}\n"


def test_interrupt_during_replay_exits_0_and_closes_everything(tmp_path, monkeypatch, capsys):
    program = write(tmp_path, "t.liot", COMPOSITE)
    log = write(tmp_path, "run.jsonl", '{"rel":"R","t":1,"seq":1,"v":["aa",-87]}\n')
    servers = []

    class RecordingServer(GatewayServer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            servers.append(self)

    def interrupted_replay(store, path):
        raise KeyboardInterrupt

    monkeypatch.setattr(liot.cli, "GatewayServer", RecordingServer)
    monkeypatch.setattr(liot.engine, "replay_log", interrupted_replay)
    try:
        code = main(["run", program, "--port", "0", "--log", log])
    except KeyboardInterrupt:  # uncaught, it would end the whole test session
        pytest.fail("KeyboardInterrupt escaped main")
    assert code == 0
    assert capsys.readouterr().err == ""
    assert len(servers) == 1 and servers[0].listener.fileno() == -1
    assert liot_threads() == []


# -- run (subprocess) ---------------------------------------------------------


def start_run(args):
    process = subprocess.Popen(
        [sys.executable, "-m", "liot", "run", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    base = None
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        line = process.stderr.readline()
        if line.startswith("listening on "):
            base = line.split("listening on ", 1)[1].strip()
            break
        if process.poll() is not None:
            break
    assert base, "run subcommand did not report its address"
    return process, base


def stop_run(process):
    """Stop ``liot run`` with SIGINT and return its exit code. A child that
    does not stop within 10 s is killed and reaped before the timeout
    propagates, so the test fails without leaving it running."""
    process.send_signal(signal.SIGINT)
    try:
        return process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise
    finally:
        process.stdout.close()
        process.stderr.close()


def test_run_serves_and_persists_across_restart(tmp_path):
    program = write(tmp_path, "t.liot", COMPOSITE)
    log = str(tmp_path / "run.jsonl")

    process, base = start_run([program, "--port", "0", "--log", log])
    try:
        status, _ = http_get(f"{base}/rel/R/insert?MAC=aa&RSSI=-87")
        assert status == 202
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if get_json(f"{base}/rel/R/read")[1]:
                break
            time.sleep(0.02)
    finally:
        assert stop_run(process) == 0

    process, base = start_run([program, "--port", "0", "--log", log])
    try:
        records = get_json(f"{base}/rel/R/read?limit=10")[1]
        assert [r["MAC"] for r in records] == ["aa"]
    finally:
        assert stop_run(process) == 0


def test_run_with_busy_port_fails_cleanly(tmp_path):
    program = write(tmp_path, "t.liot", COMPOSITE)
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        result = subprocess.run(
            [sys.executable, "-m", "liot", "run", program, "--port", str(port)],
            capture_output=True, text=True, timeout=20,
        )
        assert result.returncode == 1
        assert "cannot listen" in result.stderr
    finally:
        blocker.close()


def test_run_refuses_a_config_key_for_an_undeclared_relation(tmp_path):
    program = write(tmp_path, "t.liot", "RELATION R (X)")
    config = write(tmp_path, "run.conf", "window.r = 3\n")
    result = subprocess.run(
        [sys.executable, "-m", "liot", "run", program, "--port", "0", "--config", config],
        capture_output=True, text=True, timeout=20,
    )
    assert result.returncode == 1
    assert result.stderr == "error: window.r names no declared relation\n"


@pytest.mark.parametrize("line, message", [
    ('{"rel":"R","t":1,"seq":1,"v":["aa",%s]}' % ("9" * 400), "int too large to convert to float"),
    ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
])
def test_run_refuses_a_malformed_log_and_exits(tmp_path, line, message):
    # the listening socket is closed without waiting for a server loop
    # that never started
    program = write(tmp_path, "t.liot", COMPOSITE)
    log = tmp_path / "run.jsonl"
    log.write_text(line + "\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "liot", "run", program, "--port", "0", "--log", str(log)],
        capture_output=True, text=True, timeout=20,
    )
    assert result.returncode == 1
    assert result.stderr == f"error: log line 1: {message}\n"


def test_run_starts_on_a_log_whose_last_line_is_torn(tmp_path):
    program = write(tmp_path, "t.liot", COMPOSITE)
    log = tmp_path / "run.jsonl"
    whole = '{"rel":"R","t":1,"seq":1,"v":["aa",-87]}\n'
    log.write_text(whole + '{"rel":"R","t":2,"se', encoding="utf-8")
    process, base = start_run([program, "--port", "0", "--log", str(log)])
    try:
        assert http_get(f"{base}/rel/R/insert?MAC=bb&RSSI=-1")[0] == 202
    finally:
        assert stop_run(process) == 0
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[0] == whole and len(lines) == 2
    assert json.loads(lines[1])["v"] == ["bb", -1]


def send_inserts(base, name, sent):
    """Insert rows C=name, N=0, 1, ... on one keep-alive connection until it
    fails; ``sent[name]`` counts the rows put on the wire, answered or not."""
    host, port = base.removeprefix("http://").split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=5)
    try:
        while True:
            sent[name] += 1
            connection.request("GET", f"/rel/R/insert?C={name}&N={sent[name] - 1}")
            response = connection.getresponse()
            response.read()
            assert response.status == 202
    except (OSError, http.client.HTTPException):
        pass  # the server was killed
    finally:
        connection.close()


def test_run_restarts_on_its_log_after_each_kill_under_load(tmp_path):
    """Three times: kill ``liot run`` with SIGKILL while two keep-alive
    connections insert, then start it again on the same log. Every start
    succeeds, and the rows logged from each connection are, in order, a
    prefix of the rows it sent: a kill may lose rows and tear the last line,
    but never reorders, duplicates or corrupts a logged row."""
    program = write(tmp_path, "t.liot", "RELATION R (C, N)\n")
    log = tmp_path / "run.jsonl"
    sent = {}
    for kill in range(3):
        size = log.stat().st_size if log.exists() else 0
        process, base = start_run([program, "--port", "0", "--log", str(log)])
        names = [f"k{kill}c{i}" for i in range(2)]
        sent.update(dict.fromkeys(names, 0))
        senders = [threading.Thread(target=send_inserts, args=(base, name, sent))
                   for name in names]
        for sender in senders:
            sender.start()
        deadline = time.monotonic() + 5
        while log.stat().st_size < size + 2000 and time.monotonic() < deadline:
            time.sleep(0.01)
        process.kill()
        process.wait()
        process.stdout.close()
        process.stderr.close()
        for sender in senders:
            sender.join(timeout=10)
    process, base = start_run([program, "--port", "0", "--log", str(log)])
    assert stop_run(process) == 0
    logged = {name: [] for name in sent}
    for line in log.read_text(encoding="utf-8").splitlines():
        name, n = json.loads(line)["v"]
        logged[name].append(n)
    assert all(logged[name] == list(range(len(logged[name]))) for name in sent)
    assert all(len(logged[name]) <= sent[name] for name in sent)
    assert all(logged[f"k{kill}c0"] or logged[f"k{kill}c1"] for kill in range(3))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_run_exits_1_with_the_reason_when_the_log_cannot_be_written(tmp_path):
    # every write to /dev/full fails with ENOSPC
    program = write(tmp_path, "t.liot", COMPOSITE)
    process, base = start_run([program, "--port", "0", "--log", "/dev/full"])
    try:
        assert http_get(f"{base}/rel/R/insert?MAC=aa&RSSI=-87")[0] == 202
        assert process.wait(timeout=10) == 1
        stderr = process.stderr.read()
    finally:
        process.kill()
        process.wait()
        process.stdout.close()
        process.stderr.close()
    reason = "OSError: [Errno 28] No space left on device"
    assert stderr.splitlines()[-1] == f"error: event loop stopped: {reason}"
