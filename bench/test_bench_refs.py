"""Tests of the benchmark's reference checks and percentile on hand-worked inputs.

Run with ``python3 -m pytest bench`` (or ``python3 -m unittest discover bench``).
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import inputs  # noqa: E402
import refs  # noqa: E402

A, B = "00:AA:AA:AA:AA:AA", "01:BB:BB:BB:BB:BB"


def r(t, mac, rssi, n):
    return {"rel": "R", "t": t, "seq": 0, "v": [mac, rssi, n]}


def alarm(t, mac, rssi):
    return {"rel": "ALARMS", "t": t, "seq": 0, "v": [mac, rssi]}


class IngestLogTest(unittest.TestCase):
    acked = {0: [(A, -70, 0), (A, -50, 1)], 1: [(B, -65, 0)]}

    def test_log_matching_the_acknowledged_inserts_passes(self):
        entries = [r(1, A, -70, 0), alarm(1, A, -70), r(2, B, -65, 0), alarm(2, B, -65),
                   r(3, A, -50, 1)]
        self.assertEqual(refs.check_ingest_log(entries, self.acked, -60), [])

    def test_connection_order_is_checked_but_interleaving_is_free(self):
        entries = [r(1, A, -50, 1), r(2, B, -65, 0), alarm(2, B, -65), r(3, A, -70, 0),
                   alarm(3, A, -70)]
        problems = refs.check_ingest_log(entries, self.acked, -60)
        self.assertEqual(problems, ["connection 0: log order differs from send order"])

    def test_missing_insert_and_alarm_are_reported(self):
        entries = [r(1, A, -70, 0), r(3, A, -50, 1)]
        problems = refs.check_ingest_log(entries, self.acked, -60)
        self.assertEqual(len(problems), 4)
        self.assertIn("ALARMS has 0 rows, expected 2", problems)

    def test_unacknowledged_record_is_reported(self):
        entries = [r(1, A, -50, 1)]
        problems = refs.check_ingest_log(entries, {0: []}, -60)
        self.assertIn("1 unexpected", problems[0])


class WebhookTest(unittest.TestCase):
    entries = [r(1, A, -70, 0), alarm(7, A, -70), alarm(9, B, -61.5)]

    def test_one_matching_webhook_per_row_passes(self):
        received = [{"T": "9", "MAC": B, "RSSI": "-61.5"}, {"T": "7", "MAC": A, "RSSI": "-70"}]
        self.assertEqual(refs.check_webhooks(self.entries, received), [])

    def test_missing_and_mismatched_webhooks_fail(self):
        received = [{"T": "8", "MAC": A, "RSSI": "-70"}]
        self.assertEqual(refs.check_webhooks(self.entries, received),
                         ["2 ALARMS rows without a matching webhook, "
                          "1 webhooks without a matching row"])

    def test_malformed_query_fails(self):
        self.assertEqual(len(refs.check_webhooks(self.entries, [{"T": "x"}])), 1)


def row(t, mac, rssi, n):
    return {"T": t, "MAC": mac, "RSSI": rssi, "N": n}


class DashboardTest(unittest.TestCase):
    written = [(100, A, -70, 0), (150, A, -60, 1), (200, B, -50, 2)]
    by_n = {n: (t, m, rssi) for t, m, rssi, n in written}
    sent = {1000: (B, -40)}

    def test_full_window_is_the_newest_records_newest_first(self):
        rows = [row(200, B, -50, 2), row(150, A, -60, 1)]
        self.assertEqual(refs.check_full_window(rows, self.written, 2), [])
        self.assertEqual(len(refs.check_full_window(rows[::-1], self.written, 2)), 1)
        self.assertEqual(refs.check_full_window(rows[:1], self.written, 2),
                         ["full-window read returned 1 rows, expected 2"])

    def test_read_of_written_and_sent_rows_passes(self):
        rows = [row(900, B, -40, 1000), row(200, B, -50, 2)]
        self.assertEqual(refs.check_read(rows, 2, self.by_n, self.sent), [])

    def test_read_out_of_order_or_unknown_rows_fails(self):
        self.assertEqual(refs.check_read([row(150, A, -60, 1), row(200, B, -50, 2)], 2,
                                         self.by_n, self.sent), ["read is not newest-first"])
        self.assertEqual(refs.check_read([row(150, A, -61, 1)], 1, self.by_n, self.sent),
                         ["row N=1 differs from the written record"])
        self.assertEqual(refs.check_read([row(900, B, -41, 1000)], 1, self.by_n, self.sent),
                         ["row N=1000 was neither written nor sent"])
        self.assertEqual(refs.check_read([row(200, B, -50, 2)], 2, self.by_n, self.sent),
                         ["read returned 1 rows, expected 2"])

    def test_log_growth_is_the_acknowledged_inserts_and_their_alarms(self):
        grown = [r(5, B, -70, 1000), alarm(5, B, -70), r(6, B, -40, 1001)]
        acked = [(B, -70, 1000), (B, -40, 1001)]
        self.assertEqual(refs.check_log_growth(grown, acked, -60), [])
        self.assertEqual(refs.check_log_growth(grown[:2], acked, -60),
                         ["log grew by 1 R records for 2 acknowledged inserts"])
        self.assertEqual(refs.check_log_growth(grown[::2], acked, -60),
                         ["log grew by 0 ALARMS rows, expected 1"])


class FiringLogTest(unittest.TestCase):
    spec = {
        "sensors": ["S0"],
        "timer_ms": 100,
        "rules": [
            {"name": "S0_R0", "kind": "gt", "rel": "S0", "c": 50, "derive": True},
            {"name": "S0_R1", "kind": "delta", "rel": "S0", "c": 10, "derive": False},
            {"name": "S0_R2", "kind": "gap", "rel": "S0", "c": 30, "derive": False},
            {"name": "S0_R3", "kind": "lt", "rel": "S0", "c": 40, "derive": False},
            {"name": "HB_S0", "kind": "hb", "rel": "S0", "c": 40, "derive": False},
            {"name": "D_HIGH", "kind": "dhigh", "rel": "D", "c": 60, "derive": False},
        ],
    }
    actions = [
        {"at": 0, "insert": {"rel": "S0", "v": [55]}},
        {"at": 50, "insert": {"rel": "S0", "v": [70]}},
        {"at": 120, "insert": {"rel": "S0", "v": [30]}},
        {"at": 120, "advance": 100},
    ]

    def test_hand_worked_firing_log(self):
        # seq 1 S0=55: R0 fires and derives D (seq 2, trigger -> AUDIT seq 3);
        #   R1 and R2 lack history, HB_S0 lacks a heartbeat.
        # seq 4 S0=70 at 50: R0 -> D seq 5 (trigger, AUDIT 6, D_HIGH 70 > 60),
        #   then R1 (70 - 55 > 10) and R2 (50 - 0 > 30).
        # tick at 100: HB seq 7, HB_S0 (1 > 0 and 70 > 40).
        # seq 8 S0=30 at 120: R2 (120 - 50 > 30) and R3 (30 < 40).
        # tick at 200: HB seq 9, HB_S0 false (30 > 40 fails).
        expected = "".join(
            '{"seq":%d,"kind":"%s","name":"%s","t":%d}\n' % line for line in [
                (1, "rule", "S0_R0", 0),
                (2, "trigger", "D", 0),
                (4, "rule", "S0_R0", 50),
                (5, "trigger", "D", 50),
                (5, "rule", "D_HIGH", 50),
                (4, "rule", "S0_R1", 50),
                (4, "rule", "S0_R2", 50),
                (7, "rule", "HB_S0", 100),
                (8, "rule", "S0_R2", 120),
                (8, "rule", "S0_R3", 120),
            ])
        self.assertEqual(refs.expected_firing_log(self.spec, self.actions), (expected, 5))

    def test_generated_program_renders_every_rule(self):
        spec = inputs.script_spec(3)
        text = inputs.script_program(spec)
        self.assertEqual(text.count("\nRULE "), len(spec["rules"]))
        self.assertEqual(inputs.script_spec(3), spec)
        self.assertEqual(inputs.script_actions(3, 600), inputs.script_actions(3, 600))


class PercentileTest(unittest.TestCase):
    def test_p95_of_200_samples_leaves_ten_beyond_it(self):
        values = [float(v) for v in range(200, 0, -1)]
        self.assertAlmostEqual(common.p95(values), 190.05)

    def test_p95_refuses_too_few_samples(self):
        with self.assertRaises(common.BenchError):
            common.p95([1.0] * 199)


class EngineAgreementTest(unittest.TestCase):
    def test_reference_matches_liot_on_a_generated_script(self):
        sys.path.insert(0, str(BENCH.parent / "src"))
        try:
            from liot.cli import ScriptAction, run_script
            from liot.config import RunConfig
            from liot.engine import export_firing_log
            from liot.parser import parse_program
        except ImportError:
            self.skipTest("liot sources not importable")
        spec = inputs.script_spec(5)
        actions = inputs.script_actions(5, 3000)
        program = parse_program(inputs.script_program(spec))
        script = [ScriptAction(at=a["at"], advance=a.get("advance"),
                               insert=(a["insert"]["rel"], tuple(a["insert"]["v"]))
                               if "insert" in a else None) for a in actions]
        engine = run_script(program, script, RunConfig())
        expected, events = refs.expected_firing_log(spec, actions)
        self.assertEqual(export_firing_log(engine.firing_log), expected)
        self.assertEqual(len(engine.event_errors), 0)
        self.assertGreater(events, 3000)


if __name__ == "__main__":
    unittest.main()
