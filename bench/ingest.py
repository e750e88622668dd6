"""ingest_keepalive: two closed-loop sensors on persistent connections.

The server starts on a persistence log holding HISTORY records the benchmark
wrote, so set-up includes a replay, and has a webhook on ALARMS to a
single-threaded sink. The run is split into one segment per set-up: start
the server, let each of two load threads keep one HTTP/1.1 connection open
and send only inserts, the next one as soon as the previous 202 arrives,
read the newest rows back (READ_BACKS reads of ``limit=10``), stop it with
SIGINT. Afterwards the log and the sink are checked against what was
acknowledged.
"""

from __future__ import annotations

import json
import statistics
import threading
import time

import refs
from common import (KeepAliveClient, Phase, Report, Server, Session, WebhookSink,
                    count_event_errors, count_webhook_failures, get_once, insert_path, p50, p95,
                    read_log, Scaler)
from inputs import ALARM_BELOW, SERVER_PROGRAM, SensorStream, write_history_log

CONNECTIONS = 2
HISTORY = 50_000
READ_BACKS = 4  # per segment
READ_LIMIT = 10


def _client(port: int, stream: SensorStream, deadline: float, out: dict) -> None:
    client = KeepAliveClient(port)
    acked, latencies, failed = [], [], 0
    try:
        while time.perf_counter() < deadline:
            reading = next(stream)
            path = insert_path("R", [("MAC", reading[0]), ("RSSI", reading[1]), ("N", reading[2])])
            start = time.perf_counter()
            try:
                status, _ = client.get(path)
            except OSError:
                status = 0
                client.close()
                client = KeepAliveClient(port)
            if status == 202:
                latencies.append((time.perf_counter() - start) * 1000.0)
                acked.append(reading)
            else:
                failed += 1
    finally:
        client.close()
        out.update(acked=acked, latencies=latencies, failed=failed, end=time.perf_counter())


def measure(seed: int, seconds: float, session: Session, report: Report, setups: int,
            traced: bool) -> Phase:
    tag = "traced" if traced else "plain"
    program = session / "server.liot"
    program.write_text(SERVER_PROGRAM, encoding="utf-8")
    sink = WebhookSink()
    config = session / "ingest.conf"
    config.write_text(f"webhook.ALARMS = {sink.url}\n", encoding="utf-8")
    log = session / f"ingest-{tag}.jsonl"
    written = write_history_log(log, seed, HISTORY)
    history_bytes = log.stat().st_size
    stderr = session / f"ingest-{tag}.stderr"
    span_path = session / "ingest.spans" if traced else None
    # set-up is CPU work (a replay) and is scaled; the inserts wait on the reply stall and are not
    scaler = Scaler()
    setup_s, scaled_setup_s, codes, reads, elapsed, rss = [], [], [], [], 0.0, 0.0
    acked = {c: [] for c in range(CONNECTIONS)}
    latencies, failed = [], 0
    streams = [SensorStream(seed, c, first_n=(c + 1) * 1_000_000) for c in range(CONNECTIONS)]
    try:
        # each segment restarts the server, so the set-ups are spread over the run
        for _ in range(setups):
            scaler.mark()
            server = Server(session, program, log, stderr, config=config, span_path=span_path)
            setup_s.append(server.start())
            scaled_setup_s.append(scaler.scale(setup_s[-1]))
            try:
                results = [{} for _ in range(CONNECTIONS)]
                start = time.perf_counter()
                threads = [threading.Thread(target=_client, args=(
                    server.port, streams[c], start + seconds / setups, results[c]))
                    for c in range(CONNECTIONS)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                elapsed += max(r["end"] for r in results) - start
                reads += [get_once(server.port, f"/rel/R/read?limit={READ_LIMIT}")
                          for _ in range(READ_BACKS)]
            finally:
                codes.append(server.stop())
                rss = max(rss, server.peak_rss_mb)
            for c, r in enumerate(results):
                acked[c] += r["acked"]
                latencies += r["latencies"]
                failed += r["failed"]
    finally:
        sink.close()

    n_acked = sum(len(a) for a in acked.values())
    entries = read_log(log, skip_lines=HISTORY)
    stderr_lines = server.stderr_lines()
    report.check(f"{tag}: clean shutdowns", [f"liot run exited with {c}" for c in codes if c])
    by_n = {n: (t, m, rssi) for t, m, rssi, n in written}
    sent = {n: (m, rssi) for readings in acked.values() for m, rssi, n in readings}
    read_problems = []
    for status, body in reads:
        read_problems += (refs.check_read(json.loads(body), READ_LIMIT, by_n, sent)
                          if status == 200 else [f"read answered {status}"])
    report.check(f"{tag}: read-back is newest-first and holds only acknowledged rows",
                 read_problems)
    report.check(f"{tag}: log holds the acknowledged inserts in connection order",
                 refs.check_ingest_log(entries, acked, ALARM_BELOW))
    report.check(f"{tag}: one webhook per ALARMS row", refs.check_webhooks(entries, sink.received))

    ingest_rps = n_acked / elapsed
    Report.line("ingest_rps", ingest_rps, "1/s")
    Report.line("ingest_p50_ms", p50(latencies), "ms", f"n={len(latencies)}")
    Report.line("ingest_p95_ms", p95(latencies), "ms")
    alarms = sum(1 for e in entries if e["rel"] == "ALARMS")
    webhook_failed = max(alarms - len(sink.received), count_webhook_failures(stderr_lines))
    report.count("inserts", n_acked + failed, failed)
    report.count("reads", len(reads), sum(1 for status, _ in reads if status != 200))
    report.count("webhooks", alarms, webhook_failed)
    report.count("event_errors", n_acked, count_event_errors(stderr_lines))
    Report.line("setup_s_unscaled", statistics.median(setup_s), "s", f"n={len(setup_s)}")
    scaler.report()
    return Phase(setup_s=statistics.median(scaled_setup_s), throughput_per_s=ingest_rps,
                 latency_p50_ms=p50(latencies), latency_p95_ms=p95(latencies), peak_rss_mb=rss,
                 span_path=span_path, insert_send_ms=latencies,
                 log_bytes=log.stat().st_size - history_bytes, log_records=len(entries))
