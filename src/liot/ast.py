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

from .values import Value

_set = object.__setattr__


class _Text(str):
    """Text of a repr already made, as ``Node.__repr__`` stacks it."""


class _Fields(type):
    """Gives a Node class that lists its FIELDS their names as ``__slots__``."""

    def __new__(mcs, name, bases, namespace):
        if "FIELDS" in namespace:
            namespace["__slots__"] = tuple(field[0] for field in namespace["FIELDS"])
        return super().__new__(mcs, name, bases, namespace)


class Node(metaclass=_Fields):
    """The base of the tree's classes and of the other frozen records (the
    lexer's tokens, the engine's events). ``FIELDS`` lists a class's fields in
    order, each ``(name, type)`` or ``(name, type, default)``. They become its
    ``__slots__``, and the resolver's shape check reads their types: a class,
    ``"Expression"`` for any expression node, or ``(T, ...)`` for a tuple of T.

    A node is built from its fields by position or by name, equals a node of
    its class whose fields but ``pos`` are equal, and refuses assignment.
    ``==`` and ``repr`` follow a chain of nodes in a loop, not by recursion,
    so a tree MAX_DEPTH deep takes them no deeper into the interpreter's stack.
    """

    FIELDS: tuple = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._fill(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)

    def _fill(self, args: tuple, kwargs: dict) -> tuple:
        """Every field's value: ``args`` by position, then each later field
        from ``kwargs`` or its default."""
        if len(args) > len(self.FIELDS) or kwargs.keys() - self.__slots__[len(args):]:
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, _, *default in self.FIELDS[len(args):]:
            if name not in kwargs and not default:
                raise TypeError(f"{type(self).__name__} needs a value for {name}")
            args += (kwargs.get(name, *default),)
        return args

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _compared(self) -> list:
        return [getattr(self, field[0]) for field in self.FIELDS if field[0] != "pos"]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if isinstance(a, Node):
                if type(b) is not type(a):
                    return False
                pairs += zip(a._compared(), b._compared())
            elif not (a is b or a == b):  # a tuple compares its nodes with ==
                return False
        return True

    def __hash__(self):
        return hash(tuple(self._compared()))

    def __repr__(self):
        parts, todo = [], [self]
        while todo:
            item = todo.pop()
            if type(item) is _Text:
                parts.append(item)
            elif type(item).__repr__ is Node.__repr__:
                todo.append(_Text(")"))
                for i in reversed(range(len(item.FIELDS))):
                    name = item.FIELDS[i][0]
                    todo += [getattr(item, name), _Text(f"{', ' if i else ''}{name}=")]
                todo.append(_Text(f"{type(item).__qualname__}("))
            else:  # a tuple writes each of its nodes with repr
                parts.append(repr(item))
        return "".join(parts)

    def replace(self, **changes) -> Node:
        """A copy with ``changes``, by field name, in place of some fields."""
        return type(self)(*[changes.get(f[0], getattr(self, f[0])) for f in self.FIELDS])


class Pos(Node):
    FIELDS = (("line", int), ("column", int))

    def __repr__(self) -> str:  # keeps assertion diffs short
        return f"{self.line}:{self.column}"


NO_POS = Pos(0, 0)


# --- expressions -------------------------------------------------------------


class Literal(Node):
    FIELDS = (("value", Value),)


class FieldRef(Node):
    """``R.F`` (offset 0) or ``R.F[-k]`` (offset -k); field may be T."""

    FIELDS = (("relation", str), ("field", str), ("offset", int, 0))


class ScopeRef(Node):
    """A name a statement's row reads from its block, bound when the block
    is compiled.

    Either a bare identifier (endpoint parameter) or a dotted name such as
    ``COUNTER.count`` bound by a preceding module call.
    """

    FIELDS = (("name", str),)


class Unary(Node):
    FIELDS = (("op", str), ("operand", "Expression"))  # op: "-" | "NOT"


class Binary(Node):
    # op: + - * / < <= > >= == != AND OR
    FIELDS = (("op", str), ("left", "Expression"), ("right", "Expression"))


Expression = Literal | FieldRef | ScopeRef | Unary | Binary

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


class Statement(Node):
    """``kind`` (a key of STATEMENTS) acting on ``target``, with ``args`` as its row."""

    FIELDS = (("kind", str), ("target", str), ("args", ("Expression", ...), ()),
              ("pos", Pos, NO_POS))


Block = tuple[Statement, ...]


# --- declarations ------------------------------------------------------------


class RelationDecl(Node):
    FIELDS = (("name", str), ("fields", (str, ...)), ("pos", Pos, NO_POS))


class TriggerDecl(Node):
    FIELDS = (("relation", str), ("body", (Statement, ...)), ("pos", Pos, NO_POS))


class EndpointDecl(Node):
    FIELDS = (("name", str), ("params", (str, ...)), ("body", (Statement, ...)),
              ("pos", Pos, NO_POS))


class TimerDecl(Node):
    FIELDS = (("name", str), ("interval_ms", int), ("body", (Statement, ...)),
              ("pos", Pos, NO_POS))


class RuleDecl(Node):
    FIELDS = (("name", str), ("condition", "Expression"), ("body", (Statement, ...)),
              ("pos", Pos, NO_POS))


class ModuleDecl(Node):
    FIELDS = (("name", str), ("outputs", (str, ...)), ("pos", Pos, NO_POS))


class MapDecl(Node):
    # kind: "relation" | "module"
    FIELDS = (("kind", str), ("name", str), ("target", str), ("pos", Pos, NO_POS))


class Program(Node):
    FIELDS = (("relations", (RelationDecl, ...), ()), ("triggers", (TriggerDecl, ...), ()),
              ("endpoints", (EndpointDecl, ...), ()), ("timers", (TimerDecl, ...), ()),
              ("rules", (RuleDecl, ...), ()), ("modules", (ModuleDecl, ...), ()),
              ("mappings", (MapDecl, ...), ()), ("top_level_statements", (Statement, ...), ()))


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
