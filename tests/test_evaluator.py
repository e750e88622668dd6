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
from liot.evaluator import UNAVAILABLE, compile_expr, eval_condition
from liot.store import Store

R = ast.RelationDecl("R", ("MAC", "RSSI"))
Q = ast.RelationDecl("Q", ("N", "S", "B"))


def store_with(*rssi_values, window=1024):
    store = Store([R, Q], window_default=window)
    for i, v in enumerate(rssi_values):
        store.insert("R", (f"mac{i}", float(v)), t=1000 + i)
    return store


def evaluate(expr, store, scope):
    return compile_expr(expr)(store, scope)


# -- an independent reference evaluator ------------------------------------------
#
# Deliberately different shape from the production one: no exceptions, every
# step returns ('ok', value) or ('err', kind). Only the *kind* of error is
# compared, never messages.


def ref_eval(expr, store, scope):
    if isinstance(expr, Literal):
        return ("ok", expr.value)
    if isinstance(expr, FieldRef):
        try:
            return ("ok", store.latest(expr.relation, expr.field, expr.offset))
        except HistoryUnavailableError:
            return ("err", "history")
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


def production_outcome(expr, store, scope):
    try:
        return ("ok", evaluate(expr, store, scope))
    except tuple(_ERROR_KINDS) as exc:
        return ("err", _ERROR_KINDS[type(exc)])


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
    assert eval_condition(compile_expr(cond), store, {}) is UNAVAILABLE


def test_condition_with_insufficient_history_is_unavailable():
    store = store_with(-87)
    cond = Binary("<", FieldRef("R", "RSSI", -1), Literal(-60.0))
    assert eval_condition(compile_expr(cond), store, {}) is UNAVAILABLE


def test_condition_two_records_hand_trace():
    # records -50 then -70: latest < -60 is true, previous < -60 is false
    store = store_with(-50, -70)
    cond = Binary(
        "AND",
        Binary("<", FieldRef("R", "RSSI"), Literal(-60.0)),
        Binary("<", FieldRef("R", "RSSI", -1), Literal(-60.0)),
    )
    assert eval_condition(compile_expr(cond), store, {}) is False


def test_condition_type_error_still_raises():
    store = store_with(-87)
    cond = Binary("AND", Binary("<", FieldRef("R", "RSSI"), Literal(-60.0)), Literal(5.0))
    with pytest.raises(EvalTypeError):
        eval_condition(compile_expr(cond), store, {})


def test_condition_non_boolean_result_raises():
    store = store_with(-87)
    with pytest.raises(EvalTypeError):
        eval_condition(compile_expr(FieldRef("R", "RSSI")), store, {})


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


def test_random_equivalence_with_reference_evaluator():
    rng = random.Random(4242)
    store = Store([R, Q], window_default=4)
    store.insert("R", ("aa", -87.0), t=1000)
    store.insert("R", ("bb", -50.0), t=1001)
    store.insert("Q", (3.0, "abc", True), t=1002)
    store.insert("Q", (0.0, "", False), t=1003)
    scope = {"x": 2.0, "y": "text"}
    for i in range(10000):
        expr = random_expr(rng, rng.randint(1, 4))
        expected = ref_eval(expr, store, scope)
        got = production_outcome(expr, store, scope)
        assert got == expected, f"case {i}: {expr}"


def test_evaluation_is_deterministic():
    rng = random.Random(7)
    store = store_with(-50, -70, -10)
    exprs = [random_expr(rng, 4) for _ in range(200)]
    first = [production_outcome(e, store, {"x": 1.0}) for e in exprs]
    second = [production_outcome(e, store, {"x": 1.0}) for e in exprs]
    assert first == second
