"""AST for parsed programs.

Structural equality deliberately ignores source positions so that
``parse(format(program)) == program`` holds for any valid program.

Every statement is one node, ``Statement(kind, target, args)``. Its kind is
its keyword, or INSERT for a bare relation name. The table ``STATEMENTS``
maps each kind to what its target names (a relation, timer, rule or module)
and whether it takes an argument row; the parser, the resolver, the
formatter and the engine all dispatch on ``kind`` through it.
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
    """A name a statement's row reads from its block, bound when the block
    is compiled.

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

# How tightly each operator binds, loosest first; the parser and the formatter
# both read it. "NOT" and "neg" (unary minus) are prefix operators, the rest
# binary ones.
PRECEDENCE = {"OR": 1, "AND": 2, "NOT": 3, **dict.fromkeys(COMPARISON_OPS, 4),
              "+": 5, "-": 5, "*": 6, "/": 6, "neg": 7}
# The key in PRECEDENCE of each prefix operator (Unary.op).
PREFIXES = {"NOT": "NOT", "-": "neg"}

# The deepest expression the parser accepts, counting each operand, operator
# and pair of parentheses (but one around a lone literal) on the way down,
# each rule condition on its own; every later stage walks a tree
# this deep within CPython's default recursion limit.
MAX_DEPTH = 400


def gives_boolean(expr: Expression) -> bool:
    """Whether ``expr`` gives a boolean whatever the data: NOT, a comparison,
    AND or OR."""
    if isinstance(expr, Unary):
        return expr.op == "NOT"
    return isinstance(expr, Binary) and expr.op not in ARITHMETIC_OPS


# --- statements --------------------------------------------------------------


# kind -> (what its target names, whether it takes an argument row)
STATEMENTS = {
    "INSERT": ("relation", True),
    "START": ("timer", False),
    "STOP": ("timer", False),
    "ACTIVATE": ("rule", False),
    "DEACTIVATE": ("rule", False),
    "CHECK": ("rule", False),
    "CALL": ("module", True),
    "ACALL": ("module", True),
}


@dataclass(frozen=True)
class Statement:
    """``kind`` (a key of STATEMENTS) acting on ``target``, with ``args`` as its row."""

    kind: str
    target: str
    args: tuple[Expression, ...] = ()
    pos: Pos = field(default=NO_POS, compare=False)


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
