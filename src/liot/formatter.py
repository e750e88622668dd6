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


def format_expression(expr: ast.Expression, floor: int = 0) -> str:
    """The text of ``expr``, in parentheses when its operator binds less
    tightly than ``floor`` (``ast.PRECEDENCE``) so that it parses back whole."""
    if isinstance(expr, ast.Literal):
        return format_literal(expr.value)
    if isinstance(expr, ast.ScopeRef):
        return expr.name
    if isinstance(expr, ast.FieldRef):
        suffix = f"[{expr.offset}]" if expr.offset != 0 else ""
        return f"{expr.relation}.{expr.field}{suffix}"
    if isinstance(expr, ast.Unary):
        level = ast.PRECEDENCE[ast.PREFIXES[expr.op]]
        if expr.op == "NOT":
            text = f"NOT {format_expression(expr.operand, level)}"
        elif isinstance(expr.operand, ast.Literal):
            # -(5) is negation, -5 would re-lex as one literal token; the
            # parser gives a lone literal's parentheses no level of depth
            text = f"-({format_expression(expr.operand)})"
        else:
            text = f"-{format_expression(expr.operand, level)}"
    elif isinstance(expr, ast.Binary):
        level = ast.PRECEDENCE[expr.op]
        # comparisons do not chain, so neither operand may be one unparenthesized
        left = format_expression(expr.left, level + (expr.op in ast.COMPARISON_OPS))
        text = f"{left} {expr.op} {format_expression(expr.right, level + 1)}"
    else:
        raise AssertionError(f"unhandled expression {expr!r}")
    return f"({text})" if level < floor else text


def _format_args(args: tuple[ast.Expression, ...]) -> str:
    return ", ".join(format_expression(a) for a in args)


def format_statement(stmt: ast.Statement) -> str:
    if stmt.kind == "INSERT":
        return f"{stmt.target}({_format_args(stmt.args)})"
    if ast.STATEMENTS[stmt.kind][1]:  # CALL or ACALL: takes a row
        return f"{stmt.kind} {stmt.target} ({_format_args(stmt.args)})"
    return f"{stmt.kind} ({stmt.target})"


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
        if condition[:1] == "-" and condition[1:2].isdigit():
            # the condition opens with a negative literal, whose minus would
            # lex as an operator after the rule name; in parentheses it stays
            # a literal at no cost in depth
            literal, space, rest = condition.partition(" ")
            condition = f"({literal}){space}{rest}"
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
