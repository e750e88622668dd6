"""Expression evaluation against a store snapshot and a block scope.

Typing is dynamic and strict: arithmetic wants numbers, NOT wants a boolean,
ordering comparisons want two values of the same orderable type. Equality is
defined across all types and values of different types are simply unequal.
AND/OR evaluate left to right and short-circuit, so an unavailable field
reference on the right is never touched once the left side decides. Every
other binary operator evaluates both operands before checking their types.

An expression is compiled once into a closure ``fn(store, scope)``; the
engine compiles every rule condition and statement argument when a program
is loaded, so no event walks a syntax tree. Field reads go through
``Store.latest``. The resolver checked every field reference and literal when
the engine was built; only what depends on the data (history, types, scope
names, arithmetic) is checked on each evaluation.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

from . import ast
from .errors import (
    DivisionByZeroError,
    EvalTypeError,
    HistoryUnavailableError,
    UnknownNameError,
    ScalarError,
)
from .store import Store
from .values import Value, type_name

Scope = dict[str, Value]
Compiled = Callable[[Store, Scope], Value]


class _Unavailable:
    """Condition result when the window lacks the history a rule needs."""

    def __repr__(self) -> str:
        return "UNAVAILABLE"


UNAVAILABLE = _Unavailable()

_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _wrong_type(op: str, wanted: str, value: Value) -> EvalTypeError:
    return EvalTypeError(f"{op} needs {wanted}, got {type_name(value)}")


def compile_expr(expr: ast.Expression) -> Compiled:
    if isinstance(expr, ast.FieldRef):
        relation, field, offset = expr.relation, expr.field, expr.offset
        return lambda store, scope: store.latest(relation, field, offset)
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda store, scope: value
    if isinstance(expr, ast.ScopeRef):
        name = expr.name

        def scope_ref(store: Store, scope: Scope) -> Value:
            try:
                return scope[name]
            except KeyError:
                raise UnknownNameError(f"unknown name {name}") from None

        return scope_ref
    if isinstance(expr, ast.Unary):
        return _compile_unary(expr.op, compile_expr(expr.operand))
    if isinstance(expr, ast.Binary):
        return _compile_binary(expr.op, compile_expr(expr.left), compile_expr(expr.right))
    raise AssertionError(f"unhandled expression {expr!r}")


def _compile_unary(op: str, operand: Compiled) -> Compiled:
    if op == "NOT":

        def negation(store: Store, scope: Scope) -> Value:
            value = operand(store, scope)
            if value is True or value is False:
                return not value
            raise _wrong_type("NOT", "a boolean", value)

        return negation

    def minus(store: Store, scope: Scope) -> Value:
        value = operand(store, scope)
        if type(value) is float:
            return -value  # the negation of a finite number is finite
        raise _wrong_type("unary -", "a number", value)

    return minus


def _compile_binary(op: str, left: Compiled, right: Compiled) -> Compiled:
    if op == "AND" or op == "OR":
        decides = op == "OR"  # the left value that settles the result alone
        continues = not decides

        def connective(store: Store, scope: Scope) -> Value:
            a = left(store, scope)
            if a is decides:
                return a
            if a is not continues:
                raise _wrong_type(op, "a boolean", a)
            b = right(store, scope)
            if b is True or b is False:
                return b
            raise _wrong_type(op, "a boolean", b)

        return connective
    if op == "==" or op == "!=":
        differs = op == "!="

        def equality(store: Store, scope: Scope) -> Value:
            a = left(store, scope)
            b = right(store, scope)
            return (type(a) is type(b) and a == b) is not differs

        return equality
    if op in _ORDERINGS:
        compare = _ORDERINGS[op]

        def ordering(store: Store, scope: Scope) -> Value:
            a = left(store, scope)
            b = right(store, scope)
            if type(a) is not type(b) or a is None:
                raise EvalTypeError(f"cannot compare {type_name(a)} {op} {type_name(b)}")
            return compare(a, b)

        return ordering
    if op in _ARITHMETIC:
        apply = _ARITHMETIC[op]
        isfinite = math.isfinite

        def arithmetic(store: Store, scope: Scope) -> Value:
            a = left(store, scope)
            b = right(store, scope)
            if type(a) is not float:
                raise _wrong_type(op, "a number", a)
            if type(b) is not float:
                raise _wrong_type(op, "a number", b)
            try:
                result = apply(a, b)
            except ZeroDivisionError:
                raise DivisionByZeroError("division by zero") from None
            if isfinite(result):
                return result
            raise ScalarError("arithmetic produced a non-finite number")

        return arithmetic
    raise AssertionError(f"unhandled operator {op!r}")


def eval_condition(condition: Compiled, store: Store, scope: Scope) -> bool | _Unavailable:
    """Rule-condition evaluation: missing history suppresses the rule.

    ``condition`` is what ``compile_expr`` made of a syntax tree. Returns
    True, False, or UNAVAILABLE. Type errors still raise; only the
    window-not-filled-yet case is silenced, so a freshly started program does
    not fail before its sensors have reported.
    """
    try:
        result = condition(store, scope)
    except HistoryUnavailableError:
        return UNAVAILABLE
    if result is True or result is False:
        return result
    raise EvalTypeError(f"condition evaluated to {type_name(result)}, not boolean")
