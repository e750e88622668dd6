import json
import logging
import random
from itertools import accumulate

import pytest

from liot.ast import RelationDecl
from liot.errors import (
    ArityError,
    HistoryUnavailableError,
    ReplayError,
    UnknownRelationError,
    ScalarError,
)
from liot.store import PersistenceLog, Record, Store, log_line, replay_log
from liot.values import ensure_value, value_from_json

R = RelationDecl("R", ("MAC", "RSSI"))
Q = RelationDecl("Q", ("N",))


def make_store(window=1024, overrides=None):
    return Store([R, Q], window_default=window, window_overrides=overrides)


class GrowingListOracle:
    """Unbounded append-only model; the window is just its truncated tail."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.rows = []

    def insert(self, values):
        self.rows.append(values)

    def latest(self, field_index, offset):
        window = self.rows[-self.capacity :] if self.capacity else []
        index = len(window) - 1 + offset
        if index < 0:
            return None  # history unavailable
        return window[index][field_index]

    def read(self, limit):
        window = self.rows[-self.capacity :]
        return list(reversed(window))[:limit]


def test_insert_returns_stored_record():
    store = make_store()
    record = store.insert("R", store.check("R", ["38:E7:D8:D3:18:68", -87]), t=1000)
    assert record == Record(t=1000, seq=1, values=("38:E7:D8:D3:18:68", -87.0))


def test_arity_mismatch_rejected():
    store = make_store()
    with pytest.raises(ArityError):
        store.check("R", ["only-one"])


def test_unknown_relation_rejected():
    store = make_store()
    with pytest.raises(UnknownRelationError):
        store.check("NOPE", [1])
    with pytest.raises(UnknownRelationError):
        store.read("NOPE", 1)


def test_non_finite_number_rejected():
    store = make_store()
    with pytest.raises(ScalarError):
        store.check("Q", [float("nan")])
    with pytest.raises(ScalarError):
        store.check("Q", [float("inf")])


def test_latest_with_offsets():
    store = make_store()
    store.insert("R", ["a", -50], t=1)
    store.insert("R", ["b", -70], t=2)
    assert store.latest("R", "RSSI", 0) == -70
    assert store.latest("R", "RSSI", -1) == -50
    assert store.latest("R", "MAC", -1) == "a"


def test_latest_t_reads_timestamp():
    store = make_store()
    store.insert("R", ["a", -50], t=1000)
    assert store.latest("R", "T", 0) == 1000.0


def test_latest_on_empty_relation_unavailable():
    store = make_store()
    with pytest.raises(HistoryUnavailableError):
        store.latest("R", "RSSI", 0)


def test_eviction_is_oldest_first():
    window = 4
    store = make_store(window=window)
    for i in range(window + 1):
        store.insert("Q", [i], t=i)
    assert store.size("Q") == window
    # the first record is gone; reaching the full window depth now errors
    with pytest.raises(HistoryUnavailableError):
        store.latest("Q", "N", -window)
    assert store.latest("Q", "N", -(window - 1)) == 1.0


def test_read_newest_first_and_limits():
    store = make_store()
    assert store.read("R", 10) == []
    for i in range(3):
        store.insert("Q", [i], t=i)
    two = store.read("Q", 2)
    assert [r.values[0] for r in two] == [2.0, 1.0]
    assert [r.seq for r in two] == [3, 2]
    assert [r.values[0] for r in store.read("Q", 100)] == [2.0, 1.0, 0.0]


def test_seq_strictly_increases_across_relations():
    store = make_store()
    a = store.insert("R", ["a", 1], t=0)
    b = store.insert("Q", [2], t=0)
    c = store.insert("R", ["c", 3], t=0)
    assert [a.seq, b.seq, c.seq] == [1, 2, 3]


def test_randomized_window_reads_match_growable_list_oracle():
    rng = random.Random(99)
    for capacity in (1, 2, 5, 64):
        store = Store([Q], window_default=capacity)
        oracle = GrowingListOracle(capacity)
        for step in range(300):
            value = float(rng.randint(-100, 100))
            store.insert("Q", [value], t=step)
            oracle.insert((value,))
            offset = -rng.randint(0, capacity + 1)
            expected = oracle.latest(0, offset)
            if expected is None:
                with pytest.raises(HistoryUnavailableError):
                    store.latest("Q", "N", offset)
            else:
                assert store.latest("Q", "N", offset) == expected
            limit = rng.randint(1, capacity + 2)
            got = [r.values[0] for r in store.read("Q", limit)]
            assert got == [row[0] for row in oracle.read(limit)]


# -- persistence -------------------------------------------------------------


def test_append_then_replay_reproduces_state(tmp_path):
    path = tmp_path / "run.jsonl"
    store = make_store(window=8)
    log = PersistenceLog(path)
    values = [
        ["38:E7:D8:D3:18:68", -87],
        ["aa:bb", True],
        [None, 2.5],
        ["x", 9],
    ]
    for i, row in enumerate(values):
        record = store.insert("R", store.check("R", row), t=100 + i)
        log.append("R", record)
    record = store.insert("Q", (42.0,), t=200)
    log.append("Q", record)
    log.close()

    fresh = make_store(window=8)
    count = replay_log(fresh, path)
    assert count == 5
    assert fresh.snapshot() == store.snapshot()
    assert fresh.next_seq == store.next_seq


def test_replay_respects_window_capacity(tmp_path):
    path = tmp_path / "run.jsonl"
    store = Store([Q], window_default=100)
    log = PersistenceLog(path)
    for i in range(10):
        log.append("Q", store.insert("Q", (float(i),), t=i))
    log.close()

    small = Store([Q], window_default=3)
    replay_log(small, path)
    assert [r.values[0] for r in small.read("Q", 10)] == [9.0, 8.0, 7.0]
    assert small.next_seq == 11


def test_replay_of_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    store = make_store()
    assert replay_log(store, path) == 0
    assert store.next_seq == 1


def test_replay_error_names_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = '{"rel":"Q","t":1,"seq":1,"v":[5]}'
    path.write_text(good + "\n" + '{"rel":"Q","t":2,"seq":2,"v":[1,2]}\n')
    store = make_store()
    with pytest.raises(ReplayError) as err:
        replay_log(store, path)
    assert err.value.line_number == 2
    assert "2" in str(err.value)


def test_replay_rejects_unknown_relation(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"rel":"NOPE","t":1,"seq":1,"v":[5]}\n')
    with pytest.raises(ReplayError):
        replay_log(make_store(), path)


def test_replay_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ReplayError) as err:
        replay_log(make_store(), path)
    assert err.value.line_number == 1


TORN = '{"rel":"R","t":2,"se'


def test_torn_last_line_is_cut_off_with_a_warning(tmp_path, caplog):
    path = tmp_path / "run.jsonl"
    good = '{"rel":"Q","t":1,"seq":1,"v":[5]}\n'
    path.write_text(good + "\n" + TORN, encoding="utf-8")
    store = make_store()
    with caplog.at_level(logging.WARNING, logger="liot.store"):
        assert replay_log(store, path) == 1
    assert [r.message for r in caplog.records] == [
        "log line 3 was torn (20 bytes, no newline): cut off the log"]
    assert path.read_text(encoding="utf-8") == good + "\n"
    assert store.snapshot()["Q"] == [Record(1, 1, (5.0,))] and store.next_seq == 2


@pytest.mark.parametrize("tail", [
    b'{"rel":"Q","t":2,"seq":2,"v":["\xc3',  # cut inside a two-byte character
    b'{"rel":"Q","t":2,"seq":2,"v":["' + b"x" * 200_000,  # longer than one read back
    b"not json",
], ids=["inside a character", "long line", "not json"])
def test_any_unterminated_last_line_that_is_not_json_is_cut_off(tmp_path, tail):
    path = tmp_path / "run.jsonl"
    good = b'{"rel":"Q","t":1,"seq":1,"v":[5]}\n'
    path.write_bytes(good + tail)
    assert replay_log(make_store(), path) == 1
    assert path.read_bytes() == good


def test_a_log_that_is_one_torn_line_is_emptied(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text(TORN, encoding="utf-8")
    store = make_store()
    assert replay_log(store, path) == 0
    assert path.read_bytes() == b"" and store.next_seq == 1


def test_whole_last_record_without_newline_is_replayed_and_given_one(tmp_path):
    path = tmp_path / "run.jsonl"
    lines = '{"rel":"Q","t":1,"seq":1,"v":[5]}\n{"rel":"Q","t":2,"seq":2,"v":[6]}'
    path.write_text(lines, encoding="utf-8")
    assert replay_log(make_store(), path) == 2
    assert path.read_text(encoding="utf-8") == lines + "\n"


def test_every_byte_prefix_of_a_log_replays_its_whole_records(tmp_path):
    # a crash can stop an append after any byte, inside a character too
    rng = random.Random(12)
    store = make_store()
    lines, snapshots = [], [store.snapshot()]
    for t in range(40):
        text = rng.choice(["38:E7:D8:D3:18:68", "été", "温度計", "🙂", 'quo"te'])
        relation, row = rng.choice([("R", (text, float(rng.randint(-99, 0)))), ("Q", (text,))])
        lines.append((log_line(relation, store.insert(relation, row, t=t)) + "\n").encode())
        snapshots.append(store.snapshot())
    data = b"".join(lines)
    ends = [total - 1 for total in accumulate(map(len, lines))]  # where each newline sits
    path = tmp_path / "run.jsonl"
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        replayed = make_store()
        whole = sum(end <= cut for end in ends)  # complete lines, or a record missing its newline
        assert replay_log(replayed, path) == whole, cut
        assert path.read_bytes() == b"".join(lines[:whole]), cut
        assert replayed.snapshot() == snapshots[whole] and replayed.next_seq == whole + 1, cut


def test_unterminated_bad_record_is_still_refused(tmp_path):
    # one whole JSON value is not torn: it is checked like any other line
    path = tmp_path / "run.jsonl"
    path.write_text('{"rel":"NOPE","t":1,"seq":1,"v":[5]}', encoding="utf-8")
    with pytest.raises(ReplayError, match="log line 1: unknown relation NOPE"):
        replay_log(make_store(), path)


@pytest.mark.parametrize("content, line_number", [
    (b'{"rel":"Q","t":1,"seq":1,"v":[5]}\n{"rel":"NOPE","t":2,"seq":2,"v":[6]}\n' + TORN.encode(), 2),
    (b'{"rel":"Q","t":1,"seq":1,"v":[5]}\n{"rel":"Q","t":2,"seq":2,"v":[6,7]}', 2),
], ids=["bad line ahead of a torn tail", "unterminated bad last record"])
def test_a_failed_replay_leaves_the_log_byte_identical(tmp_path, content, line_number):
    path = tmp_path / "run.jsonl"
    path.write_bytes(content)
    with pytest.raises(ReplayError) as err:
        replay_log(make_store(), path)
    assert err.value.line_number == line_number
    assert path.read_bytes() == content


def test_log_line_shape_is_exact(tmp_path):
    path = tmp_path / "run.jsonl"
    store = make_store()
    log = PersistenceLog(path)
    log.append("R", store.insert("R", ("38:E7:D8:D3:18:68", -87.0), t=1000))
    log.close()
    assert path.read_text() == '{"rel":"R","t":1000,"seq":1,"v":["38:E7:D8:D3:18:68",-87]}\n'


# -- replay against inserting each logged record in turn ------------------------


def random_value(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return float(rng.randint(-10**6, 10**6))
    if kind == 1:
        return rng.uniform(-1e9, 1e9)
    if kind == 2:
        return rng.choice(["", "38:E7:D8:D3:18:68", 'quo"te\\', "été\u2028", "\x00\n"])
    if kind == 3:
        return rng.random() < 0.5
    if kind == 4:
        return None
    return float(2**53 + rng.randint(0, 5))


def write_random_log(rng, path, records, increasing=True):
    lines = []
    seq = 10  # past the records a test inserts before replaying
    for _ in range(records):
        decl = rng.choice([R, Q])
        seq = seq + rng.randint(1, 3) if increasing else rng.randint(-2, 40)
        values = tuple(random_value(rng) for _ in decl.fields)
        line = log_line(decl.name, Record(rng.randint(-5, 10**12), seq, values))
        lines.append(rng.choice(["", " ", "\t"]) + line)
        if rng.random() < 0.05:
            lines.append("   ")
    path.write_text("\n".join(lines) + rng.choice(["", "\n"]), encoding="utf-8")


def insert_each_logged_record(store, path):
    """What replay means: every logged record appended to its window in log
    order, and the seq counter moved past every seq seen."""
    for line in path.read_text(encoding="utf-8").split("\n"):  # not at U+2028
        if line.strip():
            entry = json.loads(line)
            values = tuple(value_from_json(v) for v in entry["v"])
            store.windows[entry["rel"]].append(Record(entry["t"], entry["seq"], values))
            store.next_seq = max(store.next_seq, entry["seq"]) + 1


@pytest.mark.parametrize("increasing", [True, False], ids=["increasing seqs", "seqs out of order"])
def test_replay_equals_inserting_each_record_on_random_logs(tmp_path, increasing):
    rng = random.Random(7 if increasing else 8)
    path = tmp_path / "run.jsonl"
    for trial in range(40):
        records = rng.randint(0, 300)
        write_random_log(rng, path, records, increasing)
        window = rng.choice([1, 3, 50, 1024])
        replayed, inserted = make_store(window, {"Q": 2}), make_store(window, {"Q": 2})
        if trial % 5 == 0:  # replay onto a store that already holds records
            for store in (replayed, inserted):
                store.insert("Q", (1.0,), t=0)
        insert_each_logged_record(inserted, path)
        assert replay_log(replayed, path) == records, trial
        assert replayed.snapshot() == inserted.snapshot(), trial
        assert replayed.next_seq == inserted.next_seq, trial


MALFORMED = {
    "invalid json": ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    "split object, first half": (
        '{"x":[1', "invalid JSON: Expecting ',' delimiter: line 1 column 8 (char 7)"),
    "not an object": ("[1, 2]", "not an object"),
    "missing key": ('{"rel":"Q","t":1,"seq":5}', "missing key 'v'"),
    "relation not text": ('{"rel":5,"t":1,"seq":5,"v":[1]}', "malformed entry"),
    "values not a list": ('{"rel":"Q","t":1,"seq":5,"v":1}', "malformed entry"),
    "float t": ('{"rel":"Q","t":1.5,"seq":5,"v":[1]}', "t must be an integer"),
    "boolean t": ('{"rel":"Q","t":true,"seq":5,"v":[1]}', "t must be an integer"),
    "text seq": ('{"rel":"Q","t":1,"seq":"5","v":[1]}', "seq must be an integer"),
    "boolean seq": ('{"rel":"Q","t":1,"seq":false,"v":[1]}', "seq must be an integer"),
    "unknown relation": ('{"rel":"NOPE","t":1,"seq":5,"v":[1]}', "unknown relation NOPE"),
    "arity": ('{"rel":"Q","t":1,"seq":5,"v":[1,2]}', "relation Q takes 1 values, got 2"),
    "infinite number": ('{"rel":"Q","t":1,"seq":5,"v":[1e400]}', "non-finite number rejected: inf"),
    "NaN": ('{"rel":"Q","t":1,"seq":5,"v":[NaN]}', "non-finite number rejected: nan"),
    "integer too large for a number": (
        '{"rel":"Q","t":1,"seq":5,"v":[%s]}' % ("9" * 400), "int too large to convert to float"),
    "integer past the digit limit": (
        '{"rel":"Q","t":1,"seq":5,"v":[%s]}' % ("9" * 5000),
        "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
        "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
    "nested value": ('{"rel":"Q","t":1,"seq":5,"v":[{"x":1}]}', "not a scalar JSON value: {'x': 1}"),
    "value checked before relation": (
        '{"rel":"NOPE","t":1,"seq":5,"v":[[1]]}', "not a scalar JSON value: [1]"),
    "trailing text": (
        '{"rel":"Q","t":1,"seq":5,"v":[1]} x', "invalid JSON: Extra data: line 1 column 35 (char 34)"),
    "two objects": (
        '{"rel":"Q","t":1,"seq":5,"v":[1]}{"rel":"Q","t":1,"seq":6,"v":[1]}',
        "invalid JSON: Extra data: line 1 column 34 (char 33)"),
    "byte order mark": (
        '\ufeff{"rel":"Q","t":1,"seq":5,"v":[1]}',
        "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_replay_names_the_malformed_line_and_leaves_the_store(tmp_path, case):
    line, message = MALFORMED[case]
    path = tmp_path / "bad.jsonl"
    good = '{"rel":"Q","t":1,"seq":1,"v":[5]}'
    path.write_text(f"{good}\n\n{line}\n{good}\n", encoding="utf-8")
    store = make_store()
    store.insert("R", ["aa", 1], t=0)
    before = store.snapshot()
    with pytest.raises(ReplayError) as err:
        replay_log(store, path)
    assert err.value.line_number == 3
    assert str(err.value) == f"log line 3: {message}"
    assert store.snapshot() == before and store.next_seq == 2


def test_replay_names_a_line_that_is_not_utf8_and_leaves_the_store(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"rel":"Q","t":1,"seq":1,"v":[5]}\n{"rel":"R","t":1,"seq":2,"v":["\xff",1]}\n')
    store = make_store()
    with pytest.raises(ReplayError) as err:
        replay_log(store, path)
    assert err.value.line_number == 2
    assert str(err.value).startswith("log line 2: not UTF-8: 'utf-8' codec can't decode byte 0xff")
    assert store.snapshot() == make_store().snapshot() and store.next_seq == 1


def test_insert_writes_ahead_and_a_failed_write_leaves_the_store(tmp_path):
    store = make_store()
    seen = []

    class Log:
        def append(self, relation, record):
            seen.append((relation, record, store.size(relation)))
            if len(seen) == 2:
                raise OSError(28, "No space left on device")

    record = store.insert("Q", (1.0,), t=5, log=Log())
    assert seen == [("Q", record, 0)]  # logged before it entered its window
    with pytest.raises(OSError):
        store.insert("Q", (2.0,), t=6, log=Log())
    assert store.read("Q", 10) == [record] and store.next_seq == 2


def test_window_capacity_below_one_is_refused():
    with pytest.raises(ValueError, match="window capacity must be positive, got 0"):
        make_store(overrides={"Q": 0})


def test_replay_does_not_join_a_split_line(tmp_path):
    # as one JSON array the two lines would parse into two valid objects
    path = tmp_path / "split.jsonl"
    path.write_text('{"x":[1\n2]},{}\n', encoding="utf-8")
    store = make_store()
    with pytest.raises(ReplayError) as err:
        replay_log(store, path)
    assert err.value.line_number == 1
    assert "invalid JSON" in str(err.value)
    assert store.snapshot() == make_store().snapshot() and store.next_seq == 1


def test_integer_too_large_for_a_number_is_a_scalar_error():
    with pytest.raises(ScalarError, match="int too large to convert to float"):
        ensure_value(int("9" * 400))
    store = make_store()
    with pytest.raises(ScalarError):
        store.check("Q", [int("9" * 400)])
    assert store.size("Q") == 0
