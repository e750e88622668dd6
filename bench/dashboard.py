"""dashboard_mixed: dashboard reads on a replayed 65536-record window.

The benchmark writes a persistence log of HISTORY R records and restarts
``liot run`` on it with ``window.R = 65536``. Then one load thread sends
sensor inserts open-loop at INSERT_RATE per second, each timed from when it
was due, and another polls ``read?limit=10`` closed-loop. Both open a new
connection per request, as ``liot simulate`` does.
"""

from __future__ import annotations

import json
import statistics
import threading
import time

import refs
from common import (Phase, Report, Server, Session, count_event_errors, get_once, insert_path,
                    p50, p95, read_log, Scaler)
from inputs import ALARM_BELOW, SERVER_PROGRAM, SensorStream, write_history_log

HISTORY = 200_000
WINDOW = 65536
INSERT_RATE = 40  # per second; the server keeps up with it while the reader polls
READ_LIMIT = 10
SENT_CONNECTION = 0x5E
SENT_FIRST_N = 1_000_000


def _inserter(port: int, stream: SensorStream, start: float, count: int, out: dict) -> None:
    sent, acked, latencies, send_ms, lateness, failed = {}, [], [], [], [], 0
    for k in range(count):
        due = start + k / INSERT_RATE
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        reading = next(stream)
        sent[reading[2]] = (reading[0], reading[1])
        path = insert_path("R", [("MAC", reading[0]), ("RSSI", reading[1]), ("N", reading[2])])
        begin = time.perf_counter()
        lateness.append((begin - due) * 1000.0)
        try:
            status, _ = get_once(port, path)
        except OSError:
            status = 0
        done = time.perf_counter()
        if status == 202:
            acked.append(reading)
            latencies.append((done - due) * 1000.0)
            send_ms.append((done - begin) * 1000.0)
        else:
            failed += 1
    out.update(sent=sent, acked=acked, latencies=latencies, send_ms=send_ms,
               lateness=lateness, failed=failed, end=time.perf_counter())


def _reader(port: int, deadline: float, out: dict) -> None:
    bodies, latencies, failed = [], [], 0
    while time.perf_counter() < deadline:
        begin = time.perf_counter()
        try:
            status, body = get_once(port, f"/rel/R/read?limit={READ_LIMIT}")
        except OSError:
            status = 0
        if status == 200:
            latencies.append((time.perf_counter() - begin) * 1000.0)
            bodies.append(body)
        else:
            failed += 1
    out.update(bodies=bodies, latencies=latencies, failed=failed, end=time.perf_counter())


def measure(seed: int, seconds: float, session: Session, report: Report, setups: int,
            traced: bool) -> Phase:
    tag = "traced" if traced else "plain"
    program = session / "server.liot"
    program.write_text(SERVER_PROGRAM, encoding="utf-8")
    config = session / "dashboard.conf"
    config.write_text(f"window.R = {WINDOW}\n", encoding="utf-8")
    log = session / f"dashboard-{tag}.jsonl"
    written = write_history_log(log, seed, HISTORY)
    history_bytes = log.stat().st_size
    stderr = session / f"dashboard-{tag}.stderr"
    span_path = session / "dashboard.spans" if traced else None

    scaler = Scaler()  # set-up is CPU work (a replay) and is scaled
    setup_s, scaled_setup_s = [], []
    for i in range(setups):
        scaler.mark()
        server = Server(session, program, log, stderr, config=config,
                        span_path=span_path if i == setups - 1 else None)
        setup_s.append(server.start())
        scaled_setup_s.append(scaler.scale(setup_s[-1]))
        if i < setups - 1:
            code = server.stop()
            report.check(f"{tag}: restart {i + 1} shuts down cleanly",
                         [] if code == 0 else [f"liot run exited with {code}"])

    try:
        status, body = get_once(server.port, f"/rel/R/read?limit={WINDOW}", timeout_s=60.0)
        report.check(f"{tag}: full-window read after start-up is the written history",
                     refs.check_full_window(json.loads(body), written, WINDOW)
                     if status == 200 else [f"full-window read answered {status}"])

        count = int(INSERT_RATE * seconds)
        ins, rd = {}, {}
        start = time.perf_counter() + 0.01
        threads = [
            threading.Thread(target=_inserter, args=(
                server.port, SensorStream(seed, SENT_CONNECTION, first_n=SENT_FIRST_N, macs=64),
                start, count, ins)),
            threading.Thread(target=_reader, args=(server.port, start + seconds, rd)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = max(ins["end"], rd["end"]) - start
    finally:
        code = server.stop()

    report.check(f"{tag}: clean shutdown", [] if code == 0 else [f"liot run exited with {code}"])
    by_n = {n: (t, m, rssi) for t, m, rssi, n in written}
    read_problems = []
    for body in rd["bodies"]:
        read_problems += refs.check_read(json.loads(body), READ_LIMIT, by_n, ins["sent"])
    report.check(f"{tag}: every read is newest-first and holds only written or sent rows",
                 read_problems)
    grown = read_log(log, skip_lines=HISTORY)
    report.check(f"{tag}: the log grew by exactly the acknowledged inserts",
                 refs.check_log_growth(grown, ins["acked"], ALARM_BELOW))

    Report.line("ingest_p50_ms", p50(ins["latencies"]), "ms", "from when each insert was due")
    Report.line("ingest_p95_ms", p95(ins["latencies"]), "ms")
    Report.line("generator_lateness_p50_ms", p50(ins["lateness"]), "ms")
    Report.line("generator_lateness_max_ms", max(ins["lateness"]), "ms")
    Report.line("read_rps", len(rd["bodies"]) / elapsed, "1/s")
    Report.line("read_p50_ms", p50(rd["latencies"]), "ms", f"n={len(rd['latencies'])}")
    Report.line("read_p95_ms", p95(rd["latencies"]), "ms")
    report.count("inserts", count, ins["failed"])
    report.count("reads", len(rd["bodies"]) + rd["failed"], rd["failed"])
    report.count("event_errors", len(ins["acked"]), count_event_errors(server.stderr_lines()))
    latencies = ins["latencies"] + rd["latencies"]
    Report.line("setup_s_unscaled", statistics.median(setup_s), "s", f"n={len(setup_s)}")
    scaler.report()
    return Phase(setup_s=statistics.median(scaled_setup_s),
                 throughput_per_s=(len(ins["acked"]) + len(rd["bodies"])) / elapsed,
                 latency_p50_ms=p50(latencies), latency_p95_ms=p95(latencies),
                 peak_rss_mb=server.peak_rss_mb,
                 span_path=span_path, insert_send_ms=ins["send_ms"],
                 log_bytes=log.stat().st_size - history_bytes, log_records=len(grown))
