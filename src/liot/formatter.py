"""Pretty-printer producing canonical source text.

The contract is round-trip identity: ``parse_program(format_program(p))`` is
structurally equal to ``p`` for every valid program. Declarations are emitted
grouped by kind (name resolution is program-wide, so regrouping cannot change
meaning), blocks open their brace on its own line, statements indent two
spaces.
"""

from __future__ import annotations

from . import ast
from .values import format_number

_PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    "NOT": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "==": 4,
    "!=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "neg": 7,
}
_ATOM = 8


def _escape(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
    return f'"{out}"'


def format_literal(value) -> str:
    if isinstance(value, bool) or value is None:
        # no boolean/null literal syntax exists; such values only flow in
        # from the wire, never from source, so a valid AST never holds them
        raise ValueError(f"literal {value!r} has no source form")
    if isinstance(value, float):
        return format_number(value)
    return _escape(value)


def _precedence(expr: ast.Expression) -> int:
    if isinstance(expr, ast.Binary):
        return _PRECEDENCE[expr.op]
    if isinstance(expr, ast.Unary):
        return _PRECEDENCE["NOT" if expr.op == "NOT" else "neg"]
    return _ATOM


def format_expression(expr: ast.Expression) -> str:
    if isinstance(expr, ast.Literal):
        return format_literal(expr.value)
    if isinstance(expr, ast.ScopeRef):
        return expr.name
    if isinstance(expr, ast.FieldRef):
        suffix = f"[{expr.offset}]" if expr.offset != 0 else ""
        return f"{expr.relation}.{expr.field}{suffix}"
    if isinstance(expr, ast.Unary):
        if expr.op == "NOT":
            inner = _child(expr.operand, minimum=_PRECEDENCE["NOT"])
            return f"NOT {inner}"
        # a negated number literal must be parenthesized: -(5) is negation,
        # -5 would re-lex as one literal token
        if isinstance(expr.operand, ast.Literal):
            return f"-({format_expression(expr.operand)})"
        return f"-{_child(expr.operand, minimum=_PRECEDENCE['neg'])}"
    if isinstance(expr, ast.Binary):
        own = _PRECEDENCE[expr.op]
        if expr.op in ast.COMPARISON_OPS:
            left = _child(expr.left, minimum=own + 1)
            right = _child(expr.right, minimum=own + 1)
        else:
            left = _child(expr.left, minimum=own)
            right = _child(expr.right, minimum=own + 1)
        return f"{left} {expr.op} {right}"
    raise AssertionError(f"unhandled expression {expr!r}")


def _child(expr: ast.Expression, minimum: int) -> str:
    text = format_expression(expr)
    return text if _precedence(expr) >= minimum else f"({text})"


def _format_args(args: tuple[ast.Expression, ...]) -> str:
    return ", ".join(format_expression(a) for a in args)


def format_statement(stmt: ast.Statement) -> str:
    if isinstance(stmt, ast.Insert):
        return f"{stmt.relation}({_format_args(stmt.args)})"
    if isinstance(stmt, ast.StartTimer):
        return f"START ({stmt.name})"
    if isinstance(stmt, ast.StopTimer):
        return f"STOP ({stmt.name})"
    if isinstance(stmt, ast.Activate):
        return f"ACTIVATE ({stmt.rule})"
    if isinstance(stmt, ast.Deactivate):
        return f"DEACTIVATE ({stmt.rule})"
    if isinstance(stmt, ast.Check):
        return f"CHECK ({stmt.rule})"
    if isinstance(stmt, ast.CallModule):
        return f"CALL {stmt.name} ({_format_args(stmt.args)})"
    if isinstance(stmt, ast.AcallModule):
        return f"ACALL {stmt.name} ({_format_args(stmt.args)})"
    raise AssertionError(f"unhandled statement {stmt!r}")


def _format_block(body: ast.Block, lines: list[str]) -> None:
    lines.append("{")
    for stmt in body:
        lines.append(f"  {format_statement(stmt)}")
    lines.append("}")


def _needs_quoting(target: str) -> bool:
    if not target or target.startswith('"'):
        return True
    return any(ch in " \t\r\n;" for ch in target) or "#" in target[:1]


def format_program(program: ast.Program) -> str:
    lines: list[str] = []
    for rel in program.relations:
        lines.append(f"RELATION {rel.name} ({', '.join(rel.fields)})")
    for trig in program.triggers:
        lines.append(f"TRIGGER ({trig.relation})")
        _format_block(trig.body, lines)
    for ep in program.endpoints:
        lines.append(f"ENDPOINT {ep.name} ({', '.join(ep.params)})")
        _format_block(ep.body, lines)
    for timer in program.timers:
        lines.append(f"TIMER {timer.name} ({timer.interval_ms})")
        _format_block(timer.body, lines)
    for rule in program.rules:
        condition = format_expression(rule.condition)
        if condition.startswith("-"):
            # after the rule-name identifier a leading minus would lex as an
            # operator, turning a negative literal into a unary node
            condition = f"({condition})"
        lines.append(f"RULE {rule.name} {condition}")
        _format_block(rule.body, lines)
    for module in program.modules:
        lines.append(f"MODULE {module.name} ({', '.join(module.outputs)})")
    for mapping in program.mappings:
        target = _escape(mapping.target) if _needs_quoting(mapping.target) else mapping.target
        lines.append(f"MAP {mapping.kind.upper()} {mapping.name} : {target}")
    for stmt in program.top_level_statements:
        lines.append(format_statement(stmt))
    return "\n".join(lines) + "\n" if lines else ""
