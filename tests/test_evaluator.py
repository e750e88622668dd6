import math
import random

import pytest

from liot import ast
from liot.ast import Binary, FieldRef, Literal, ScopeRef, Unary
from liot.errors import (
    DivisionByZeroError,
    EvalTypeError,
    HistoryUnavailableError,
    UnknownNameError,
    ScalarError,
)
from liot.evaluator import UNAVAILABLE, compile_functions, eval_condition
from liot.parser import parse_expression
from liot.store import Store

R = ast.RelationDecl("R", ("MAC", "RSSI"))
Q = ast.RelationDecl("Q", ("N", "S", "B"))


def store_with(*rssi_values, window=1024):
    store = Store([R, Q], window_default=window)
    for i, v in enumerate(rssi_values):
        store.insert("R", (f"mac{i}", float(v)), t=1000 + i)
    return store


def compile_rows(store, conditions, rows, params=()):
    """Conditions and rows compiled as an engine compiles them: each row is
    the one call of a block with parameters ``params``, whose action hands
    the row's values back; a row is called with the parameters' values."""
    handed = []

    def hand_back(target, values):
        handed.append(values)

    def row(body):
        def values(*args):
            body(*args)
            return handed.pop()
        return values

    blocks = [(params, [(hand_back, None, row_nodes, ())]) for row_nodes in rows]
    conditions, bodies = compile_functions(store, conditions, blocks)
    return conditions, [row(body) for body in bodies]


def evaluate(expr, store, scope):
    """An expression evaluated as the one value of a statement's row, in a
    block whose parameters are the names of ``scope``."""
    return compile_rows(store, [], [(expr,)], tuple(scope))[1][0](*scope.values())[0]


def condition(expr, store):
    return compile_functions(store, [expr], [])[0][0]


# -- an independent reference evaluator ------------------------------------------
#
# Deliberately different shape from the production one: no exceptions, every
# step returns ('ok', value) or ('err', kind). Only the *kind* of error is
# compared, except that missing history carries the message ``Store.latest``
# gives, which a statement's row must raise word for word.


def ref_eval(expr, store, scope):
    if isinstance(expr, Literal):
        return ("ok", expr.value)
    if isinstance(expr, FieldRef):
        try:
            return ("ok", store.latest(expr.relation, expr.field, expr.offset))
        except HistoryUnavailableError as exc:
            return ("err", f"history: {exc}")
    if isinstance(expr, ScopeRef):
        if expr.name in scope:
            return ("ok", scope[expr.name])
        return ("err", "name")
    if isinstance(expr, Unary):
        status, value = ref_eval(expr.operand, store, scope)
        if status == "err":
            return (status, value)
        if expr.op == "NOT":
            return ("ok", not value) if type(value) is bool else ("err", "type")
        if type(value) is float:
            return ("ok", -value)
        return ("err", "type")
    assert isinstance(expr, Binary)
    op = expr.op
    if op in ("AND", "OR"):
        status, left = ref_eval(expr.left, store, scope)
        if status == "err":
            return (status, left)
        if type(left) is not bool:
            return ("err", "type")
        if (op == "AND" and not left) or (op == "OR" and left):
            return ("ok", left)
        status, right = ref_eval(expr.right, store, scope)
        if status == "err":
            return (status, right)
        return ("ok", right) if type(right) is bool else ("err", "type")
    status, left = ref_eval(expr.left, store, scope)
    if status == "err":
        return (status, left)
    status, right = ref_eval(expr.right, store, scope)
    if status == "err":
        return (status, right)

    def tag(v):
        return {bool: "b", float: "f", str: "s", type(None): "n"}[type(v)]

    if op == "==":
        return ("ok", tag(left) == tag(right) and left == right)
    if op == "!=":
        return ("ok", not (tag(left) == tag(right) and left == right))
    if op in ("<", "<=", ">", ">="):
        if tag(left) != tag(right) or tag(left) == "n":
            return ("err", "type")
        table = {
            "<": left < right,
            "<=": left <= right,
            ">": left > right,
            ">=": left >= right,
        }
        return ("ok", table[op])
    if tag(left) != "f" or tag(right) != "f":
        return ("err", "type")
    if op == "/" and right == 0.0:
        return ("err", "zero")
    result = {"+": left + right, "-": left - right, "*": left * right, "/": left / right if right else 0.0}[op]
    if not math.isfinite(result):
        return ("err", "finite")
    return ("ok", result)


_ERROR_KINDS = {
    HistoryUnavailableError: "history",
    UnknownNameError: "name",
    EvalTypeError: "type",
    DivisionByZeroError: "zero",
    ScalarError: "finite",
}


def outcome(call):
    """('ok', repr of the result) or ('err', kind) as the reference gives
    them; repr tells 1.0 from True and -0.0 from 0.0."""
    try:
        return ("ok", repr(call()))
    except tuple(_ERROR_KINDS) as exc:
        kind = _ERROR_KINDS[type(exc)]
        return ("err", f"{kind}: {exc}" if kind == "history" else kind)


def ref_outcome(expr, store, scope):
    status, value = ref_eval(expr, store, scope)
    return (status, repr(value)) if status == "ok" else (status, value)


def ref_row(exprs, store, scope):
    values = []
    for expr in exprs:
        status, value = ref_eval(expr, store, scope)
        if status == "err":
            return (status, value)
        values.append(value)
    return ("ok", repr(tuple(values)))


def ref_condition(expr, store):
    """A rule has no scope, and missing history makes it UNAVAILABLE."""
    status, value = ref_eval(expr, store, {})
    if status == "err":
        return ("ok", "UNAVAILABLE") if value.startswith("history") else (status, value)
    return ("ok", repr(value)) if type(value) is bool else ("err", "type")


def production_outcome(expr, store, scope):
    return outcome(lambda: evaluate(expr, store, scope))


# -- example-driven cases ---------------------------------------------------------


def test_rssi_rule_condition_true_for_weak_signal():
    store = store_with(-87)
    assert evaluate(Binary("<", FieldRef("R", "RSSI"), Literal(-60.0)), store, {}) is True


def test_identity_and_cross_type_equality():
    store = store_with()
    assert evaluate(Binary("==", Literal(1.0), Literal(1.0)), store, {}) is True
    assert evaluate(Binary("==", Literal("a"), Literal(1.0)), store, {}) is False
    assert evaluate(Binary("!=", Literal("a"), Literal(1.0)), store, {}) is True
    assert evaluate(Binary("==", Literal(True), Literal(1.0)), store, {}) is False
    assert evaluate(Binary("==", Literal(None), Literal(None)), store, {}) is True


def test_text_compares_lexicographically():
    store = store_with()
    assert evaluate(Binary("<", Literal("abc"), Literal("abd")), store, {}) is True


def test_booleans_order_false_before_true():
    store = store_with()
    assert evaluate(Binary("<", Literal(False), Literal(True)), store, {}) is True


def test_type_errors():
    store = store_with()
    with pytest.raises(EvalTypeError):
        evaluate(Binary("+", Literal("a"), Literal(1.0)), store, {})
    with pytest.raises(EvalTypeError):
        evaluate(Unary("NOT", Literal(5.0)), store, {})
    with pytest.raises(EvalTypeError):
        evaluate(Binary("<", Literal("a"), Literal(1.0)), store, {})


def test_division_by_zero():
    store = store_with()
    with pytest.raises(DivisionByZeroError):
        evaluate(Binary("/", Literal(1.0), Literal(0.0)), store, {})


def test_scope_lookup():
    store = store_with()
    assert evaluate(ScopeRef("x"), store, {"x": 5.0}) == 5.0
    assert evaluate(ScopeRef("COUNTER.count"), store, {"COUNTER.count": 7.0}) == 7.0
    with pytest.raises(UnknownNameError):
        evaluate(ScopeRef("missing"), store, {})


def test_short_circuit_skips_unavailable_history():
    store = store_with()  # R is empty: any FieldRef would raise
    probe = Binary("<", FieldRef("R", "RSSI"), Literal(0.0))
    assert evaluate(Binary("AND", Literal(False), probe), store, {}) is False
    assert evaluate(Binary("OR", Literal(True), probe), store, {}) is True
    with pytest.raises(HistoryUnavailableError):
        evaluate(Binary("AND", Literal(True), probe), store, {})


# -- condition semantics ------------------------------------------------------


def test_condition_on_empty_window_is_unavailable():
    store = store_with()
    cond = Binary("<", FieldRef("R", "RSSI"), Literal(-60.0))
    assert eval_condition(condition(cond, store)) is UNAVAILABLE


def test_condition_with_insufficient_history_is_unavailable():
    store = store_with(-87)
    cond = Binary("<", FieldRef("R", "RSSI", -1), Literal(-60.0))
    assert eval_condition(condition(cond, store)) is UNAVAILABLE


def test_condition_two_records_hand_trace():
    # records -50 then -70: latest < -60 is true, previous < -60 is false
    store = store_with(-50, -70)
    cond = Binary(
        "AND",
        Binary("<", FieldRef("R", "RSSI"), Literal(-60.0)),
        Binary("<", FieldRef("R", "RSSI", -1), Literal(-60.0)),
    )
    assert eval_condition(condition(cond, store)) is False


def test_condition_type_error_still_raises():
    store = store_with(-87)
    cond = Binary("AND", Binary("<", FieldRef("R", "RSSI"), Literal(-60.0)), Literal(5.0))
    with pytest.raises(EvalTypeError):
        eval_condition(condition(cond, store))


def test_condition_non_boolean_result_raises():
    store = store_with(-87)
    with pytest.raises(EvalTypeError):
        eval_condition(condition(FieldRef("R", "RSSI"), store))


# -- randomized equivalence with the reference evaluator ---------------------------


def random_expr(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.45:
            return Literal(float(rng.randint(-5, 5)))
        if roll < 0.6:
            return Literal(rng.choice(["a", "b", "abc", ""]))
        if roll < 0.7:
            return Literal(rng.choice([True, False, None]))
        if roll < 0.9:
            relation, field = rng.choice(
                [("R", "MAC"), ("R", "RSSI"), ("R", "T"), ("Q", "N"), ("Q", "S"), ("Q", "B")]
            )
            return FieldRef(relation, field, -rng.randint(0, 3))
        return ScopeRef(rng.choice(["x", "y", "missing"]))
    roll = rng.random()
    if roll < 0.15:
        return Unary(rng.choice(["-", "NOT"]), random_expr(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=", "AND", "OR"])
    return Binary(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))


def random_store(newest_n=0.0):
    store = Store([R, Q], window_default=4)
    store.insert("R", ("aa", -87.0), t=1000)
    store.insert("R", ("bb", -50.0), t=1001)
    store.insert("Q", (3.0, "abc", True), t=1002)
    store.insert("Q", (newest_n, "", False), t=1003)
    return store


def test_random_equivalence_with_reference_evaluator():
    rng = random.Random(4242)
    store = random_store()
    scope = {"x": 2.0, "y": "text"}
    for i in range(10000):
        expr = random_expr(rng, rng.randint(1, 4))
        expected = ref_outcome(expr, store, scope)
        got = production_outcome(expr, store, scope)
        assert got == expected, f"case {i}: {expr}"


def test_conditions_and_rows_compiled_as_one_program_match_the_reference():
    """Many functions from one source, as an engine compiles its program:
    conditions against the reference with no scope, and rows of one to three
    values, with the exact message of missing history. Q.N holds a number
    near the float maximum, so that arithmetic can overflow."""
    rng = random.Random(17)
    store = random_store(newest_n=1e308)
    scope = {"x": 2.0, "y": "text"}
    conditions = [random_expr(rng, rng.randint(1, 4)) for _ in range(3000)]
    rows = [tuple(random_expr(rng, rng.randint(0, 3)) for _ in range(rng.randint(1, 3)))
            for _ in range(3000)]
    compiled_conditions, compiled_rows = compile_rows(store, conditions, rows, tuple(scope))
    got_conditions = [outcome(lambda: eval_condition(c)) for c in compiled_conditions]
    for i, (expr, got) in enumerate(zip(conditions, got_conditions)):
        assert got == ref_condition(expr, store), f"condition {i}: {expr}"
    got_rows = [outcome(lambda: compiled_rows[i](*scope.values())) for i in range(len(rows))]
    for i, (row, got) in enumerate(zip(rows, got_rows)):
        assert got == ref_row(row, store, scope), f"row {i}: {row}"
    # both ways of meeting missing history, and an overflow, were drawn
    assert ("ok", "UNAVAILABLE") in got_conditions
    assert ("err", "history: R holds 2 records, offset -2 reaches past the window") in got_rows
    assert ("err", "finite") in got_rows


def test_long_and_deep_expressions_compile_and_match_the_reference():
    """Chains of any length compile, as the parser builds them in a loop: a
    mean of 150 field reads, OR and AND chains of 300 comparisons, and an
    AND/OR alternation nested 120 deep on the right, past the 100 levels of
    indentation CPython accepts. Each runs as a condition and as a row of a
    block with parameters, and a last row reads a parameter at the bottom of
    the alternation, in the functions its deep levels become."""
    terms = " + ".join(("R.RSSI", "R.RSSI[-1]")[k % 2] for k in range(150))

    def alternation(innermost):
        nested = innermost
        for k in range(120):  # no left operand decides, so every level runs
            op, bound = ("AND", -1000.0) if k % 2 else ("OR", 1000.0)
            nested = Binary(op, Binary(">", FieldRef("R", "RSSI"), Literal(bound)), nested)
        return nested

    nested = alternation(Binary(">", FieldRef("R", "RSSI"), Literal(0.0)))
    exprs = [parse_expression(f"({terms}) / 150 < -60"),
             parse_expression(" OR ".join(f"R.RSSI > {k}" for k in range(299)) + " OR R.RSSI < 0"),
             parse_expression(" AND ".join(f"R.RSSI < {k}" for k in range(299))
                              + " AND R.RSSI[-2] < 0"),
             nested]
    reads_x = alternation(Binary("==", ScopeRef("x"), Literal(2.0)))
    store, scope = random_store(), {"x": 2.0, "y": "text"}
    conditions, rows = compile_rows(store, exprs, [(e,) for e in exprs + [reads_x]],
                                    tuple(scope))
    got = [outcome(lambda: eval_condition(c)) for c in conditions]
    assert got == [ref_condition(e, store) for e in exprs]
    assert got == [("ok", "True"), ("ok", "True"), ("ok", "UNAVAILABLE"), ("ok", "False")]
    got = [outcome(lambda: row(*scope.values())) for row in rows]
    assert got == [ref_row((e,), store, scope) for e in exprs + [reads_x]]
    assert got[2] == ("err", "history: R holds 2 records, offset -2 reaches past the window")
    assert got[4] == ("ok", "(True,)")


def test_functions_that_differ_only_in_values_share_one_text():
    """Conditions or blocks of one shape, as a generated family of rules has,
    are compiled once; each function still reads its own window and
    constants, and calls its own action with its own target."""
    store = random_store()
    handed = []
    conditions, bodies = compile_functions(
        store, [parse_expression("R.RSSI < -60"), parse_expression('Q.S < "b"')],
        [((), [(lambda target, values: handed.append(("first", target, values)), "A",
                 (Literal("a"), FieldRef("R", "RSSI")), ())]),
         ((), [(lambda target, values: handed.append(("second", target, values)), "B",
                 (Literal("b"), FieldRef("Q", "S")), ())])])
    assert [eval_condition(c) for c in conditions] == [False, True]
    for body in bodies:
        body()
    assert handed == [("first", "A", ("a", -50.0)), ("second", "B", ("b", ""))]
    assert conditions[0].__code__ is conditions[1].__code__
    assert bodies[0].__code__ is bodies[1].__code__


def test_evaluation_is_deterministic():
    rng = random.Random(7)
    store = store_with(-50, -70, -10)
    exprs = [random_expr(rng, 4) for _ in range(200)]
    first = [production_outcome(e, store, {"x": 1.0}) for e in exprs]
    second = [production_outcome(e, store, {"x": 1.0}) for e in exprs]
    assert first == second


@pytest.mark.parametrize("text", [
    "'", '"', "'''", '"""', "\\", "\\'", "a\nb", "\r\n", "x\\\n)", "{0}{v1}{K12}", "%s%d",
    "\x00 ", "'); __import__('os').system('exit 3'); ('", '" + __import__("sys").exit(3) + "',
])
def test_program_text_comes_back_as_data(text):
    """Literals, parameter and unbound names, relation and field names, and
    the timer, rule and module names a statement targets never become code."""
    odd = ast.RelationDecl(f"R{text}", (f"F{text}",))
    store = Store([odd], window_default=2)
    store.insert(odd.name, (text,), t=5)
    literal, name, field = Literal(text), ScopeRef(text), FieldRef(odd.name, f"F{text}")
    handed = []

    def hand_back(target, values):
        handed.append((target, values))

    conditions, bodies = compile_functions(
        store,
        [Binary("==", field, literal), Binary("<", literal, field), Binary("==", literal, name)],
        [((text,), [(hand_back, f"timer{text}", (), ()), (hand_back, f"rule{text}", (), ()),
                    (hand_back, f"module{text}",
                     (literal, name, field, FieldRef(odd.name, "T")), ())]),
         ((), [(hand_back, odd.name, (FieldRef(odd.name, f"F{text}", -1),), ())])])
    assert eval_condition(conditions[0]) is True
    assert eval_condition(conditions[1]) is False
    with pytest.raises(UnknownNameError) as unknown:
        eval_condition(conditions[2])
    assert str(unknown.value) == f"unknown name {text}"
    bodies[0](1.0)
    assert handed == [(f"timer{text}", ()), (f"rule{text}", ()),
                      (f"module{text}", (text, 1.0, text, 5.0))]
    with pytest.raises(HistoryUnavailableError) as missing:
        bodies[1]()
    assert str(missing.value) == f"R{text} holds 1 records, offset -1 reaches past the window"
    assert len(handed) == 3  # a row that fails calls no action
