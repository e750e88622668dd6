"""Reference checks, computed apart from the program.

Each function takes plain data (parsed log entries, HTTP bodies, what the
load generator sent) and returns a list of problems; an empty list means the
check passed. ``expected_firing_log`` is an independent evaluator of the
rule family ``inputs.script_spec`` generates; it shares no code with liot.
"""

from __future__ import annotations

from collections import Counter

Reading = tuple[str, int, int]  # (MAC, RSSI, N)


def _values(entries: list[dict], relation: str) -> list[tuple]:
    return [tuple(e["v"]) for e in entries if e["rel"] == relation]


# -- ingest_keepalive ------------------------------------------------------------


def check_ingest_log(entries: list[dict], acked: dict[int, list[Reading]],
                     alarm_below: int) -> list[str]:
    """After shutdown the log's R records are exactly the acknowledged inserts,
    each connection's in the order it sent them, and ALARMS holds one row per
    acknowledged reading below ``alarm_below``."""
    problems = []
    logged = _values(entries, "R")
    sent = [r for readings in acked.values() for r in readings]
    if Counter(logged) != Counter(sent):
        missing = Counter(sent) - Counter(logged)
        extra = Counter(logged) - Counter(sent)
        problems.append(f"R holds {len(logged)} records for {len(sent)} acknowledged inserts "
                        f"({sum(missing.values())} missing, {sum(extra.values())} unexpected)")
    owner = {r: conn for conn, readings in acked.items() for r in readings}
    for conn, readings in acked.items():
        in_log = [r for r in logged if owner.get(r) == conn]
        if in_log != readings:
            problems.append(f"connection {conn}: log order differs from send order")
    expected_alarms = sum(1 for r in sent if r[1] < alarm_below)
    alarms = _values(entries, "ALARMS")
    if len(alarms) != expected_alarms:
        problems.append(f"ALARMS has {len(alarms)} rows, expected {expected_alarms}")
    if alarms != [(m, rssi) for m, rssi, _ in logged if rssi < alarm_below]:
        problems.append("ALARMS rows do not follow the R readings below the threshold")
    return problems


def check_webhooks(entries: list[dict], received: list[dict[str, str]]) -> list[str]:
    """One webhook per ALARMS row, carrying its T, MAC and RSSI."""
    expected = Counter((e["t"], e["v"][0], float(e["v"][1])) for e in entries
                       if e["rel"] == "ALARMS")
    try:
        got = Counter((int(q["T"]), q["MAC"], float(q["RSSI"])) for q in received)
    except (KeyError, ValueError) as exc:
        return [f"malformed webhook query: {exc}"]
    if got == expected:
        return []
    return [f"{sum((expected - got).values())} ALARMS rows without a matching webhook, "
            f"{sum((got - expected).values())} webhooks without a matching row"]


# -- dashboard_mixed -----------------------------------------------------------------


def _row(obj: dict) -> tuple:
    return (obj["T"], obj["MAC"], obj["RSSI"], obj["N"])


def check_full_window(rows: list[dict], written: list[tuple[int, str, int, int]],
                      window: int) -> list[str]:
    """A full-window read right after start-up is the newest ``window`` records written."""
    expected = list(reversed(written[-window:]))
    got = [_row(r) for r in rows]
    if got == expected:
        return []
    if len(got) != len(expected):
        return [f"full-window read returned {len(got)} rows, expected {len(expected)}"]
    first = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
    return [f"full-window read differs first at row {first}: {got[first]} != {expected[first]}"]


def check_read(rows: list[dict], limit: int, written: dict[int, tuple[int, str, int]],
               sent: dict[int, tuple[str, int]]) -> list[str]:
    """A read is ``limit`` rows newest-first (T non-increasing), each one a row
    that was written to the log (same T) or sent by the load generator."""
    problems = []
    if len(rows) != limit:
        problems.append(f"read returned {len(rows)} rows, expected {limit}")
    times = [r["T"] for r in rows]
    if any(a < b for a, b in zip(times, times[1:])):
        problems.append("read is not newest-first")
    for r in rows:
        n = r["N"]
        if n in written:
            if written[n] != (r["T"], r["MAC"], r["RSSI"]):
                problems.append(f"row N={n} differs from the written record")
        elif sent.get(n) != (r["MAC"], r["RSSI"]):
            problems.append(f"row N={n} was neither written nor sent")
    return problems


def check_log_growth(new_entries: list[dict], acked: list[Reading], alarm_below: int) -> list[str]:
    """The log grew by exactly the acknowledged inserts and their ALARMS rows."""
    problems = []
    logged = _values(new_entries, "R")
    if Counter(logged) != Counter(acked):
        problems.append(f"log grew by {len(logged)} R records "
                        f"for {len(acked)} acknowledged inserts")
    alarms = len(_values(new_entries, "ALARMS"))
    expected = sum(1 for r in acked if r[1] < alarm_below)
    if alarms != expected:
        problems.append(f"log grew by {alarms} ALARMS rows, expected {expected}")
    other = {e["rel"] for e in new_entries} - {"R", "ALARMS"}
    if other:
        problems.append(f"log grew by records of {sorted(other)}")
    return problems


# -- script_rules: independent evaluator of the generated rule family ------------


class _Unavailable(Exception):
    """The rule reads history the window does not hold yet: it does not fire."""


def expected_firing_log(spec: dict, actions: list[dict]) -> tuple[str, int]:
    """The firing log ``liot script`` must print, and the number of events.

    Semantics modelled: one global seq per stored record; an insert runs its
    relation's trigger, then every rule that mentions the relation in
    declaration order, each logged with the seq and t of that insert; a rule
    reading past the window is suppressed; the timer fires at every multiple
    of its interval up to each action's time, in time order, before the
    action; rule bodies insert D, whose trigger inserts AUDIT.
    """
    by_relation: dict[str, list[dict]] = {}  # relation -> rules mentioning it, in order
    for r in spec["rules"]:
        for rel in ({"HB", r["rel"]} if r["kind"] == "hb" else {r["rel"]}):
            by_relation.setdefault(rel, []).append(r)
    history: dict[str, list[tuple[int, tuple]]] = {}
    out: list[str] = []
    state = {"seq": 0, "clock": 0, "events": 0}

    def latest(rel: str, back: int = 0) -> tuple[int, tuple]:
        records = history.get(rel, [])
        if len(records) <= back:
            raise _Unavailable
        return records[-1 - back]

    def holds(rule: dict) -> bool:
        s, c, kind = rule["rel"], float(rule["c"]), rule["kind"]
        try:
            if kind == "gt":
                return latest(s)[1][0] > c
            if kind == "lt":
                return latest(s)[1][0] < c
            if kind == "delta":
                return latest(s)[1][0] - latest(s, 1)[1][0] > c
            if kind == "gap":
                return float(latest(s)[0]) - float(latest(s, 1)[0]) > c
            if kind == "hb":
                return latest("HB")[1][0] > 0.0 and latest(s)[1][0] > c
            if kind == "dhigh":
                return latest("D")[1][1] > c
        except _Unavailable:
            return False
        raise ValueError(f"unknown rule kind {kind}")

    def insert(rel: str, values: tuple) -> None:
        state["seq"] += 1
        seq, t = state["seq"], state["clock"]
        records = history.setdefault(rel, [])
        records.append((t, values))
        del records[:-2]
        if rel == "D":
            out.append('{"seq":%d,"kind":"trigger","name":"D","t":%d}\n' % (seq, t))
            insert("AUDIT", values)
        for rule in by_relation.get(rel, []):
            if holds(rule):
                out.append('{"seq":%d,"kind":"rule","name":"%s","t":%d}\n' % (seq, rule["name"], t))
                if rule["derive"]:
                    insert("D", (rule["rel"], latest(rule["rel"])[1][0]))

    interval = spec["timer_ms"]
    next_fire = interval

    def advance_to(target: int) -> None:
        nonlocal next_fire
        while next_fire <= target:
            state["clock"] = max(next_fire, state["clock"])
            next_fire += interval
            state["events"] += 1
            insert("HB", (1.0,))
        state["clock"] = target

    for action in actions:
        advance_to(action["at"])
        if "insert" in action:
            state["events"] += 1
            insert(action["insert"]["rel"], tuple(float(v) for v in action["insert"]["v"]))
        else:
            advance_to(action["at"] + action["advance"])
    return "".join(out), state["events"]
