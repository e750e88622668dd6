"""The liot benchmark: one workload per call, every metric by name and unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it sets the program up nine times (``setup_s`` is the
median), measures for S seconds and reports the end-to-end metrics. With
``--trace 1`` it measures S/2 seconds untraced and S/2 seconds through
``tracer.py`` and reports the per-layer metrics plus the tracing overhead.
Every run checks the program's outputs against references computed here.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import dashboard
import ingest
import script_rules
from common import BenchError, Phase, Report, Session, require_program
from tracer import LayerStats, summarize

WORKLOADS = {
    "ingest_keepalive": ingest,
    "dashboard_mixed": dashboard,
    "script_rules": script_rules,
}
SETUPS = 9


def end_to_end(phase: Phase) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (phase.setup_s, "s"),
        "throughput_per_s": (phase.throughput_per_s, "1/s"),
        "latency_p50_ms": (phase.latency_p50_ms, "ms"),
        "latency_p95_ms": (phase.latency_p95_ms, "ms"),
        "peak_rss_mb": (phase.peak_rss_mb, "MB"),
    }


def per_layer(plain: Phase, traced: Phase) -> dict[str, tuple[float, str]]:
    stats, counters = summarize(traced.span_path)

    def layer(name: str):
        return stats.get(name, LayerStats())

    handler = layer("gateway.insert_handler")
    evaluations = layer("evaluator.eval_condition").calls
    replay = layer("store.replay")
    replayed = counters.get("store.replayed_records", 0)
    waits = counters.get("runtime.queue_wait_n", 0)
    gap = 0.0
    if traced.insert_send_ms and handler.calls:
        gap = statistics.fmean(traced.insert_send_ms) - handler.mean_total(1e6)
    return {
        "parser.parse_program_ms": (layer("parser.parse_program").mean_total(1e6), "ms"),
        "cli.load_script_ms": (layer("cli.load_script").mean_total(1e6), "ms"),
        "engine.process_event_us": (layer("engine.process_event").mean_self(1e3), "us"),
        "engine.events": (layer("engine.process_event").calls, "count"),
        "engine.export_firing_log_ms": (layer("engine.export_firing_log").mean_total(1e6), "ms"),
        "engine.firings": (counters.get("engine.firings", 0), "count"),
        "evaluator.eval_condition_us": (layer("evaluator.eval_condition").mean_self(1e3), "us"),
        "evaluator.condition_evaluations": (evaluations, "count"),
        "evaluator.fire_ratio": (counters.get("evaluator.true", 0) / evaluations
                                 if evaluations else 0.0, "ratio"),
        "store.insert_us": (layer("store.insert").mean_self(1e3), "us"),
        "store.insert_calls": (layer("store.insert").calls, "count"),
        "store.latest_us": (layer("store.latest").mean_self(1e3), "us"),
        "store.latest_calls": (layer("store.latest").calls, "count"),
        "store.read_us": (layer("store.read").mean_self(1e3), "us"),
        "store.persist_append_us": (layer("store.persist_append").mean_self(1e3), "us"),
        "store.log_bytes_per_record": (traced.log_bytes / traced.log_records
                                       if traced.log_records else 0.0, "B"),
        "store.replay_us_per_record": (replay.total_ns / 1e3 / replayed if replayed else 0.0, "us"),
        "runtime.queue_wait_us": (counters.get("runtime.queue_wait_ns_sum", 0) / 1e3 / waits
                                  if waits else 0.0, "us"),
        "runtime.queue_depth_max": (counters.get("runtime.queue_depth_max", 0), "count"),
        "gateway.insert_handler_us": (handler.mean_total(1e3), "us"),
        "gateway.read_handler_us": (layer("gateway.read_handler").mean_total(1e3), "us"),
        "gateway.transport_gap_ms": (gap, "ms"),
        "gateway.outbound_get_ms": (layer("gateway.outbound_get").mean_total(1e6), "ms"),
        "gateway.webhooks_delivered": (counters.get("gateway.outbound_ok", 0), "count"),
        "trace.overhead_pct": ((plain.throughput_per_s / traced.throughput_per_s - 1.0) * 100.0,
                               "%"),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    module = WORKLOADS[args.workload]
    report = Report()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    session = Session()
    try:
        if args.trace:
            plain = module.measure(args.seed, args.seconds / 2, session, report, 1, traced=False)
            traced = module.measure(args.seed, args.seconds / 2, session, report, 1, traced=True)
            metrics = per_layer(plain, traced)
        else:
            metrics = end_to_end(module.measure(args.seed, args.seconds, session, report, SETUPS,
                                                traced=False))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()
    for name, (value, unit) in metrics.items():
        Report.line(name, value, unit)
    result = report.result(metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
