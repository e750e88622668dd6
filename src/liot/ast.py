"""AST for parsed programs.

Structural equality deliberately ignores source positions so that
``parse(format(program)) == program`` holds for any valid program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .values import Value


@dataclass(frozen=True)
class Pos:
    line: int
    column: int

    def __repr__(self) -> str:  # keeps assertion diffs short
        return f"{self.line}:{self.column}"


NO_POS = Pos(0, 0)


# --- expressions -------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: Value


@dataclass(frozen=True)
class FieldRef:
    """``R.F`` (offset 0) or ``R.F[-k]`` (offset -k); field may be T."""

    relation: str
    field: str
    offset: int = 0


@dataclass(frozen=True)
class ScopeRef:
    """A name resolved from the enclosing block scope at run time.

    Either a bare identifier (endpoint parameter) or a dotted name such as
    ``COUNTER.count`` bound by a preceding module call.
    """

    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "-" | "NOT"
    operand: Expression


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / < <= > >= == != AND OR
    left: Expression
    right: Expression


Expression = Union[Literal, FieldRef, ScopeRef, Unary, Binary]

COMPARISON_OPS = ("<", "<=", ">", ">=", "==", "!=")
ARITHMETIC_OPS = ("+", "-", "*", "/")
BOOLEAN_OPS = ("AND", "OR")


# --- statements --------------------------------------------------------------


@dataclass(frozen=True)
class Insert:
    relation: str
    args: tuple[Expression, ...]
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class StartTimer:
    name: str
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class StopTimer:
    name: str
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class Activate:
    rule: str
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class Deactivate:
    rule: str
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class Check:
    rule: str
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class CallModule:
    name: str
    args: tuple[Expression, ...]
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class AcallModule:
    name: str
    args: tuple[Expression, ...]
    pos: Pos = field(default=NO_POS, compare=False)


Statement = Union[
    Insert, StartTimer, StopTimer, Activate, Deactivate, Check, CallModule, AcallModule
]

Block = tuple[Statement, ...]


# --- declarations ------------------------------------------------------------


@dataclass(frozen=True)
class RelationDecl:
    name: str
    fields: tuple[str, ...]
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class TriggerDecl:
    relation: str
    body: Block
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class EndpointDecl:
    name: str
    params: tuple[str, ...]
    body: Block
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class TimerDecl:
    name: str
    interval_ms: int
    body: Block
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class RuleDecl:
    name: str
    condition: Expression
    body: Block
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class ModuleDecl:
    name: str
    outputs: tuple[str, ...]
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class MapDecl:
    kind: str  # "relation" | "module"
    name: str
    target: str
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class Program:
    relations: tuple[RelationDecl, ...] = ()
    triggers: tuple[TriggerDecl, ...] = ()
    endpoints: tuple[EndpointDecl, ...] = ()
    timers: tuple[TimerDecl, ...] = ()
    rules: tuple[RuleDecl, ...] = ()
    modules: tuple[ModuleDecl, ...] = ()
    mappings: tuple[MapDecl, ...] = ()
    top_level_statements: tuple[Statement, ...] = ()


def walk_expression(expr: Expression):
    """Yield every node of an expression tree, preorder."""
    yield expr
    if isinstance(expr, Unary):
        yield from walk_expression(expr.operand)
    elif isinstance(expr, Binary):
        yield from walk_expression(expr.left)
        yield from walk_expression(expr.right)


def relations_mentioned(expr: Expression) -> set[str]:
    """Relation names appearing in FieldRefs anywhere in the tree."""
    return {node.relation for node in walk_expression(expr) if isinstance(node, FieldRef)}
