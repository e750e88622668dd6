"""Programs and inputs of the three workloads, all made from the seed.

The program under test sees only what these functions produce. Nothing here
imports liot: the references in ``refs.py`` work from the same plain data.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# -- the sensor program of ingest_keepalive and dashboard_mixed ------------------

ALARM_BELOW = -60
RSSI_RANGE = (-80, -20)

SERVER_PROGRAM = f"""\
# One sensor relation with a trigger and ten threshold rules; ALARM feeds
# ALARMS, which has a webhook in ingest_keepalive.
RELATION R (MAC, RSSI, N)
RELATION ALARMS (MAC, RSSI)

TRIGGER (R)
{{
}}

RULE ALARM R.RSSI < {ALARM_BELOW}
{{
    ALARMS(R.MAC, R.RSSI)
}}
RULE BELOW_90 R.RSSI < -90 {{ }}
RULE BELOW_80 R.RSSI < -80 {{ }}
RULE BELOW_70 R.RSSI < -70 {{ }}
RULE ABOVE_30 R.RSSI > -30 {{ }}
RULE ABOVE_40 R.RSSI > -40 {{ }}
RULE ABOVE_50 R.RSSI > -50 {{ }}
RULE BAND_60 R.RSSI > -65 AND R.RSSI < -55 {{ }}
RULE JUMP R.RSSI - R.RSSI[-1] > 30 {{ }}
RULE DROP R.RSSI[-1] - R.RSSI > 30 {{ }}
"""


def mac(prefix: int, rng: random.Random) -> str:
    return ":".join([f"{prefix:02X}"] + [f"{rng.randrange(256):02X}" for _ in range(5)])


class SensorStream:
    """Readings (MAC, RSSI, N) of one load connection: its own MAC pool, whose
    first byte names the connection, and N counting up from ``first_n``."""

    def __init__(self, seed: int, connection: int, first_n: int = 0, macs: int = 8):
        self.rng = random.Random(f"{seed}/{connection}")
        self.macs = [mac(connection, self.rng) for _ in range(macs)]
        self.n = first_n

    def __next__(self) -> tuple[str, int, int]:
        reading = (self.macs[self.rng.randrange(len(self.macs))],
                   self.rng.randint(*RSSI_RANGE), self.n)
        self.n += 1
        return reading

    def __iter__(self):
        return self


# -- the persistence log dashboard_mixed restarts on ------------------------------

LOG_T0_MS = 1_700_000_000_000
LOG_STEP_MS = 50
LOG_CONNECTION = 0xDB  # MAC prefix of the pre-written history


def write_history_log(path: Path, seed: int, count: int) -> list[tuple[int, str, int, int]]:
    """Write ``count`` R records as a liot persistence log; returns (T, MAC, RSSI, N)."""
    stream = SensorStream(seed, LOG_CONNECTION, macs=64)
    rows = []
    with open(path, "w", encoding="utf-8") as out:
        for i in range(count):
            m, rssi, n = next(stream)
            t = LOG_T0_MS + i * LOG_STEP_MS
            rows.append((t, m, rssi, n))
            out.write('{"rel":"R","t":%d,"seq":%d,"v":["%s",%d,%d]}\n' % (t, i + 1, m, rssi, n))
    return rows


# -- script_rules: the generated rule family and its script -----------------------

SENSORS = 8
TIMER_MS = 250


# Per sensor, in declaration order: (kind, centre of its constant, derives D).
# The shape is fixed and only the constants move with the seed, so every seed
# costs about the same.
SENSOR_RULES = [("gt", 70, True), ("lt", 25, False), ("delta", 10, True),
                ("delta", 25, False), ("gap", 35, False)]


def script_spec(seed: int) -> dict:
    """The rule family, as plain data: rules in declaration order."""
    rng = random.Random(f"{seed}/rules")
    sensors = [f"S{i}" for i in range(SENSORS)]
    rules = []
    for s in sensors:
        for j, (kind, centre, derive) in enumerate(SENSOR_RULES):
            rules.append({"name": f"{s}_R{j}", "kind": kind, "rel": s,
                          "c": centre + rng.randint(-3, 3), "derive": derive})
    for s in rng.sample(sensors, 2):
        rules.append({"name": f"HB_{s}", "kind": "hb", "rel": s, "c": 80 + rng.randint(-3, 3),
                      "derive": False})
    rules.append({"name": "D_HIGH", "kind": "dhigh", "rel": "D", "c": 90 + rng.randint(-3, 3),
                  "derive": False})
    return {"sensors": sensors, "rules": rules, "timer_ms": TIMER_MS}


def condition_text(rule: dict) -> str:
    s, c = rule["rel"], rule["c"]
    return {
        "gt": f"{s}.V > {c}",
        "lt": f"{s}.V < {c}",
        "delta": f"{s}.V - {s}.V[-1] > {c}",
        "gap": f"{s}.T - {s}.T[-1] > {c}",
        "hb": f"HB.N > 0 AND {s}.V > {c}",
        "dhigh": f"D.V > {c}",
    }[rule["kind"]]


def script_program(spec: dict) -> str:
    lines = [f"RELATION {s} (V)" for s in spec["sensors"]]
    lines += [
        "RELATION D (SRC, V)",
        "RELATION AUDIT (SRC, V)",
        "RELATION HB (N)",
        "TRIGGER (D)",
        "{",
        "    AUDIT(D.SRC, D.V)",
        "}",
        f"TIMER TK ({spec['timer_ms']})",
        "{",
        "    HB(1)",
        "}",
    ]
    for rule in spec["rules"]:
        body = f'D("{rule["rel"]}", {rule["rel"]}.V)' if rule["derive"] else ""
        lines += [f"RULE {rule['name']} {condition_text(rule)}", "{", f"    {body}".rstrip(), "}"]
    return "\n".join(lines) + "\n"


def script_actions(seed: int, inserts: int) -> list[dict]:
    """Script actions: readings uniform in [0, 100] from a random sensor,
    0-20 ms apart, with a 1 s ``advance`` every 500 inserts."""
    rng = random.Random(f"{seed}/script")
    actions: list[dict] = []
    at = 0
    for k in range(inserts):
        if k and k % 500 == 0:
            actions.append({"at": at, "advance": 1000})
            at += 1000
        at += rng.randint(0, 20)
        actions.append({"at": at, "insert": {"rel": f"S{rng.randrange(SENSORS)}",
                                             "v": [rng.randint(0, 100)]}})
    return actions


def write_jsonl(path: Path, entries: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for entry in entries:
            out.write(json.dumps(entry) + "\n")
