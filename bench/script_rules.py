"""script_rules: a generated rule-heavy program run by ``liot script``.

Eight sensor relations with five rules each (thresholds, history deltas and
timestamp gaps), two rules joining a heartbeat relation the one timer feeds,
and rule bodies that insert into D, whose trigger inserts into AUDIT. The
script holds INSERTS inserts with advances. No HTTP and no log: the time goes
to the parser, engine, evaluator, store and firing-log export.
"""

from __future__ import annotations

import statistics
import time

import refs
from common import Phase, Report, Scaler, Session, count_event_errors
from inputs import script_actions, script_program, script_spec, write_jsonl

INSERTS = 25_000
MIN_CALLS = 2  # the output of two runs is compared byte for byte


def measure(seed: int, seconds: float, session: Session, report: Report, setups: int,
            traced: bool) -> Phase:
    tag = "traced" if traced else "plain"
    spec = script_spec(seed)
    program = session / "rules.liot"
    program.write_text(script_program(spec), encoding="utf-8")
    actions = script_actions(seed, INSERTS)
    script = session / "script.jsonl"
    write_jsonl(script, actions)
    empty = session / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    expected, events = refs.expected_firing_log(spec, actions)
    expected_bytes = expected.encode("utf-8")
    stderr = session / f"script-{tag}.stderr"

    span_path = session / "script.spans" if traced else None
    # every call is CPU work, so all its figures are scaled to the reference machine
    scaler = Scaler()
    setup_s, scaled_setup_s, walls, scaled_walls, outputs, codes = [], [], [], [], [], []
    rss = 0.0

    def set_up() -> None:
        nonlocal rss
        wall, peak, code = session.run_cli(["script", str(program), str(empty)],
                                           session / "empty.out", stderr)
        setup_s.append(wall)
        scaled_setup_s.append(scaler.scale(wall))
        codes.append(code)
        rss = max(rss, peak)

    # a set-up before each call, so the set-ups are spread over the run
    start = time.perf_counter()
    scaler.mark()
    while len(walls) < (1 if traced else MIN_CALLS) or (
            not traced and time.perf_counter() - start < seconds):
        if len(setup_s) < setups:
            set_up()
        out = session / f"script-{len(walls)}.out"
        wall, peak, code = session.run_cli(["script", str(program), str(script)], out, stderr,
                                           span_path=span_path)
        walls.append(wall)
        scaled_walls.append(scaler.scale(wall))
        codes.append(code)
        rss = max(rss, peak)
        outputs.append(out.read_bytes())
    while len(setup_s) < setups:
        set_up()
    errors = count_event_errors(stderr.read_text(encoding="utf-8").splitlines())

    report.check(f"{tag}: every call exits 0", [f"exit code {c}" for c in codes if c])
    report.check(f"{tag}: firing log equals the reference evaluator's",
                 [] if outputs[0] == expected_bytes
                 else [_first_difference(outputs[0], expected_bytes)])
    report.check(f"{tag}: calls are byte-identical",
                 [f"call {i + 1} differs from call 1" for i, o in enumerate(outputs)
                  if o != outputs[0]])

    report.count("script_events", events * len(walls), errors)
    Report.line("script_events_per_s", events * len(walls) / sum(walls), "1/s",
                f"unscaled; {events} events, {expected.count(chr(10))} firings per call")
    Report.line("call_p50_ms", statistics.median(walls) * 1000.0, "ms",
                f"unscaled; n={len(walls)}")
    Report.line("setup_s_unscaled", statistics.median(setup_s), "s", f"n={len(setup_s)}")
    scaler.report()
    # A run makes fewer than forty calls, too few for any percentile above the
    # median to be a tail, so both latency figures are the median call time,
    # and the rate is that of the median call: over six runs the mean rate's
    # quartile spread was 0.13, the median call's 0.07.
    call_s = statistics.median(scaled_walls)
    return Phase(setup_s=statistics.median(scaled_setup_s), throughput_per_s=events / call_s,
                 latency_p50_ms=call_s * 1000.0, latency_p95_ms=call_s * 1000.0,
                 peak_rss_mb=rss, span_path=span_path)


def _first_difference(got: bytes, expected: bytes) -> str:
    got_lines, expected_lines = got.splitlines(), expected.splitlines()
    for i, (a, b) in enumerate(zip(got_lines, expected_lines)):
        if a != b:
            return f"line {i + 1}: {a.decode()!r} != {b.decode()!r}"
    return f"{len(got_lines)} lines, expected {len(expected_lines)}"
