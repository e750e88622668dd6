"""Expressions compiled to generated Python functions.

Typing is dynamic and strict: arithmetic wants numbers, NOT wants a boolean,
ordering comparisons want two values of the same orderable type. Equality is
defined across all types and values of different types are simply unequal.
AND/OR evaluate left to right and short-circuit, so an unavailable field
reference on the right is never touched once the left side decides. Every
other binary operator evaluates both operands before checking their types.

An engine compiles its rule conditions and statement blocks once, to one
generated Python source, as ``dataclasses`` builds its methods. A block is
given as its parameters and its calls ``(action, target, args, binds)``: its
function computes each call's row of ``args`` when that call's turn comes and
then calls ``action(target, row)``, so what a statement does stays with the
engine. Names are bound when the block is compiled: each parameter, and each
name in a call's ``binds`` after that call (its action returns their values),
is a local, and a name read where none is bound raises ``unknown name`` at
that point of the row. Each node is a few statements that leave its value in
a local, so no chain of operators nests; a field read indexes a window's
deque and type checks are inline statements. The source holds only indices,
operators and the names of values passed in, never a relation name, a name a
block reads, a literal, an action or a target of the program.
"""

from __future__ import annotations

from itertools import count
from math import isfinite
from operator import index
from typing import Callable, NoReturn, Sequence

from . import ast
from .errors import (DivisionByZeroError, EngineRuntimeError, EvalTypeError, ScalarError,
                     UnknownNameError)
from .store import Store, history_unavailable
from .values import Value, type_name


class _Unavailable:
    """Condition result when the window lacks the history a rule needs."""

    def __repr__(self) -> str:
        return "UNAVAILABLE"


UNAVAILABLE = _Unavailable()

# A condition takes no names, since a rule has none, and returns True, False,
# or UNAVAILABLE when a window lacks the history it reads, so that a freshly
# started program does not fail before its sensors have reported. A block
# takes its parameters' values and runs its calls in order; an action takes
# its target and its row's values and returns the values its call binds.
Condition = Callable[[], "bool | _Unavailable"]
Action = Callable[[object, tuple[Value, ...]], "tuple[Value, ...] | None"]
Call = tuple[Action, object, Sequence[ast.Expression], Sequence[str]]
Body = Callable[..., None]

# What a failed check raises, by the name the generated source gives ``_fail``.
_FAILURES: dict[str, Callable[..., EngineRuntimeError]] = {
    "boolean": lambda op, v: EvalTypeError(f"{op} needs a boolean, got {type_name(v)}"),
    "number": lambda op, v: EvalTypeError(f"{op} needs a number, got {type_name(v)}"),
    "numbers": lambda op, a, b: _FAILURES["number"](op, b if type(a) is float else a),
    "zero": lambda: DivisionByZeroError("division by zero"),
    "finite": lambda: ScalarError("arithmetic produced a non-finite number"),
    "compare": lambda o, a, b: EvalTypeError(f"cannot compare {type_name(a)} {o} {type_name(b)}"),
    "condition": lambda v: EvalTypeError(f"condition evaluated to {type_name(v)}, not boolean"),
    "name": lambda name: UnknownNameError(f"unknown name {name}"),
    "history": history_unavailable,
}


def _fail(failure: str, *values: object) -> NoReturn:
    raise _FAILURES[failure](*values)


# A right operand of AND or OR is indented one level under its left; this
# deep, it becomes a function of its own, as CPython refuses more than 100
# levels of indentation.
_MAX_INDENT = 50


class _Generator:
    """Writes the source of one program's functions.

    Each node becomes statements that leave its value in a local, so that a
    long chain of operators nests nothing. A function names the values it
    reads (windows, relation names, literals, unbound names, actions, targets)
    K0, K1, ... in order, and is written inside a factory that takes them, so
    that functions differing only in those values, as a family of generated
    rules does, share one text that is compiled once."""

    def __init__(self, store: Store):
        self.store = store
        self.factories: dict[str, tuple[str, int]] = {}  # text -> factory name, arity
        self.made: list[tuple[str, list[object]]] = []  # per function: factory, values

    def bind(self, value: object) -> str:
        """The name of a value in the function being written."""
        self.values.append(value)
        return f"K{len(self.values) - 1}"

    def start(self, bound: dict[str, str] | None) -> None:
        self.values: list[object] = []
        self.names = count()
        self.nested: list[str] = []  # functions the one being written calls
        # in a block, the local of each name bound so far; None in a condition
        self.bound = bound

    def finish(self, lines: list[str]) -> None:
        """Files the function ``f`` under the factory of its text."""
        text = "".join(f" {line}\n" for line in self.nested + lines)
        name, _ = self.factories.setdefault(text, (f"m{len(self.factories)}", len(self.values)))
        self.made.append((name, self.values))

    def condition(self, node: ast.Expression) -> None:
        """Missing history makes a condition return UNAVAILABLE."""
        self.start(None)
        lines = ["def f():", " try:"]
        v = self.emit(node, lines, "  ")
        self.check_boolean(node, v, "'condition'", lines, "  ")
        self.finish(lines + [f"  return {v}", " except IndexError:", "  return UNAVAILABLE"])

    def block(self, params: Sequence[str], calls: Sequence[Call]) -> None:
        """Missing history makes a row raise, before its action is called.
        A call binds fresh locals, so a later call rebinds the same names."""
        self.start({name: f"P{i}" for i, name in enumerate(params)})
        lines = [f"def f({', '.join(self.bound.values())}):", " pass"]  # may have no statements
        for action, target, args, binds in calls:
            values = "".join(self.emit(node, lines, " ") + "," for node in args)
            call = f"{self.bind(action)}({self.bind(target)}, ({values}))"
            if binds:
                names = [f"v{next(self.names)}" for _ in binds]
                self.bound.update(zip(binds, names))
                call = f"{', '.join(names)}, = {call}"
            lines.append(f" {call}")
        self.finish(lines)

    def emit(self, node: ast.Expression, lines: list[str], pad: str) -> str:
        """Appends the statements that compute ``node``, each indented by
        ``pad``, and gives the name that holds its value. Operands are
        computed left first, and both before their types are checked, except
        that AND and OR compute the right one only when the left does not
        decide."""
        if isinstance(node, ast.Literal):
            return self.bind(node.value)
        if isinstance(node, ast.ScopeRef) and node.name in (self.bound or ()):
            return self.bound[node.name]  # a parameter, or an output of a CALL before
        v = f"v{next(self.names)}"
        if isinstance(node, ast.FieldRef):
            fields = self.store.relations[node.relation].fields
            w, offset = self.bind(self.store.windows[node.relation]), index(node.offset)
            if self.bound is not None:
                lines.append(f"{pad}if len({w}) < {1 - offset}: "
                             f"_fail('history', {self.bind(node.relation)}, {w}, {offset})")
            record = f"{w}[{offset - 1}]"  # offset 0 reads the newest record
            read = (f"float({record}.t)" if node.field == "T"
                    else f"{record}.values[{fields.index(node.field)}]")
            lines.append(f"{pad}{v} = {read}")
        elif isinstance(node, ast.ScopeRef):  # nothing binds the name here
            lines.append(f"{pad}{v} = _fail('name', {self.bind(node.name)})")
        elif isinstance(node, ast.Unary):
            x = self.emit(node.operand, lines, pad)
            if node.op == "NOT":
                self.check_boolean(node.operand, x, "'boolean', 'NOT'", lines, pad)
                lines.append(f"{pad}{v} = not {x}")
            else:  # the negation of a finite number is finite
                lines.append(f"{pad}if type({x}) is not float: _fail('number', 'unary -', {x})")
                lines.append(f"{pad}{v} = -{x}")
        elif isinstance(node, ast.Binary) and node.op in ("AND", "OR"):
            a = self.emit(node.left, lines, pad)
            failure = f"'boolean', {node.op!r}"
            self.check_boolean(node.left, a, failure, lines, pad)
            inner = pad + " "
            lines += [f"{pad}{v} = {a}", f"{pad}if {'' if node.op == 'AND' else 'not '}{a}:"]
            if len(inner) < _MAX_INDENT:
                b = self.emit(node.right, lines, inner)
            else:  # the right operand in a function of its own, called here
                call, body = f"g{next(self.names)}({', '.join((self.bound or {}).values())})", []
                result = self.emit(node.right, body, " ")
                self.nested += [f"def {call}:", *body, f" return {result}"]
                b = f"v{next(self.names)}"
                lines.append(f"{inner}{b} = {call}")
            self.check_boolean(node.right, b, failure, lines, inner)
            lines.append(f"{inner}{v} = {b}")
        elif isinstance(node, ast.Binary):
            op = node.op
            a, b = self.emit(node.left, lines, pad), self.emit(node.right, lines, pad)
            if op in ast.ARITHMETIC_OPS:
                lines.append(f"{pad}if type({a}) is not float or type({b}) is not float: "
                             f"_fail('numbers', {op!r}, {a}, {b})")
                if op == "/":
                    lines.append(f"{pad}if not {b}: _fail('zero')")
                lines += [f"{pad}{v} = {a} {op} {b}", f"{pad}if not isfinite({v}): _fail('finite')"]
            elif op == "==" or op == "!=":
                same = f"(type({a}) is type({b}) and {a} == {b})"
                lines.append(f"{pad}{v} = {same if op == '==' else 'not ' + same}")
            else:
                lines.append(f"{pad}if type({a}) is not type({b}) or {a} is None: "
                             f"_fail('compare', {op!r}, {a}, {b})")
                lines.append(f"{pad}{v} = {a} {op} {b}")
        else:
            raise AssertionError(f"unhandled expression {node!r}")
        return v

    def check_boolean(self, node: ast.Expression, v: str, failure: str, lines: list[str],
                      pad: str) -> None:
        """Unless ``node`` gives a boolean whatever the data, a check that its
        value ``v`` is one, calling ``_fail(failure, v)`` when it is not."""
        if not ast.gives_boolean(node):
            lines.append(f"{pad}if type({v}) is not bool: _fail({failure}, {v})")


def compile_functions(store: Store, conditions: Sequence[ast.Expression],
                      blocks: Sequence[tuple[Sequence[str], Sequence[Call]]]
                      ) -> tuple[list[Condition], list[Body]]:
    """From one compiled source, a function per condition and one per block
    (its parameters' names and its calls), in the order given; all of them
    read the windows of ``store``."""
    generator = _Generator(store)
    for node in conditions:
        generator.condition(node)
    for params, calls in blocks:
        generator.block(params, calls)
    source = "".join(f"def {name}({', '.join(f'K{i}' for i in range(arity))}):\n{text} return f\n"
                     for text, (name, arity) in generator.factories.items())
    namespace = {"_fail": _fail, "UNAVAILABLE": UNAVAILABLE, "isfinite": isfinite}
    exec(compile(source, "<liot program>", "exec"), namespace)
    functions = [namespace[name](*values) for name, values in generator.made]
    return functions[:len(conditions)], functions[len(conditions):]


def eval_condition(condition: Condition) -> bool | _Unavailable:
    """One evaluation of a rule's condition: the call bench/tracer.py counts."""
    return condition()
