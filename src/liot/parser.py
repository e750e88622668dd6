"""Recursive-descent parser and program validation.

The grammar lives in GRAMMAR.md. Every item is self-delimiting, so newlines
never reach the parser and ``;`` tokens are skipped as optional separators
between items and between statements inside a block. Expressions are parsed
by precedence climbing over ``ast.PRECEDENCE``, no deeper than
``ast.MAX_DEPTH``.

Parsing happens in two passes: a purely syntactic pass builds the tree, then a
resolution pass checks every name against the declaration tables and rewrites
dotted references that do not name a relation (``COUNTER.count``) into scope
references. ``Engine`` resolves its program too, for one built as a tree,
whose nodes the resolver checks for shape before it reads them.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from math import isfinite
from typing import NoReturn

from . import ast
from .errors import ParseError, SemanticError
from .lexer import Token, TokenKind, tokenize


class _Parser:
    def __init__(self, source: str):
        # the end token sits just past the last character of the source
        line = source.count("\n") + 1
        column = len(source) - source.rfind("\n")
        self.tokens = tokenize(source) + [Token(TokenKind.EOF, "<eof>", line, column)]
        self.pos = 0

    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.current()
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def at(self, kind: TokenKind, value: object = None) -> bool:
        token = self.current()
        return token.kind is kind and (value is None or token.value == value)

    def expect(self, kind: TokenKind, value: object = None, what: str | None = None) -> Token:
        token = self.current()
        if not self.at(kind, value):
            wanted = what or (repr(value) if value is not None else kind.value)
            raise ParseError(
                f"expected {wanted}, got {token.value!r}", token.line, token.column
            )
        return self.advance()

    def skip_separators(self) -> None:
        while self.at(TokenKind.PUNCT, ";"):
            self.advance()

    # -- program structure -------------------------------------------------

    def parse_program(self) -> ast.Program:
        # each declaration's keyword -> the Program field it goes in, and its parser
        declarations = {
            "RELATION": ("relations", self.parse_relation),
            "TRIGGER": ("triggers", self.parse_trigger),
            "ENDPOINT": ("endpoints", self.parse_endpoint),
            "TIMER": ("timers", self.parse_timer),
            "RULE": ("rules", self.parse_rule),
            "MODULE": ("modules", self.parse_module),
            "MAP": ("mappings", self.parse_map),
        }
        found: dict[str, list] = {name: [] for name, _ in declarations.values()}
        statements: list[ast.Statement] = []
        while True:
            self.skip_separators()
            token = self.current()
            if token.kind is TokenKind.EOF:
                break
            if token.kind is TokenKind.KEYWORD and token.value in declarations:
                name, parse = declarations[token.value]  # type: ignore[index]
                self.advance()
                found[name].append(parse(ast.Pos(token.line, token.column)))
            elif token.kind in (TokenKind.KEYWORD, TokenKind.IDENT):
                statements.append(self.parse_statement())
            else:
                raise ParseError(
                    f"expected a declaration or statement, got {token.value!r}",
                    token.line,
                    token.column,
                )
        return ast.Program(**{name: tuple(decls) for name, decls in found.items()},
                           top_level_statements=tuple(statements))

    def parse_ident(self, what: str) -> str:
        token = self.expect(TokenKind.IDENT, what=what)
        return token.value  # type: ignore[return-value]

    def parse_names(self, empty: bool = False) -> tuple[str, ...]:
        """``( NAME, ... )``, or ``()`` where ``empty`` allows it."""
        self.expect(TokenKind.PUNCT, "(")
        names = []
        if not (empty and self.at(TokenKind.PUNCT, ")")):
            names.append(self.parse_ident("an identifier"))
            while self.at(TokenKind.PUNCT, ","):
                self.advance()
                names.append(self.parse_ident("an identifier"))
        self.expect(TokenKind.PUNCT, ")")
        return tuple(names)

    # each declaration's parser starts past its keyword, at ``pos``

    def parse_relation(self, pos: ast.Pos) -> ast.RelationDecl:
        return ast.RelationDecl(self.parse_ident("a relation name"), self.parse_names(), pos)

    def parse_trigger(self, pos: ast.Pos) -> ast.TriggerDecl:
        self.expect(TokenKind.PUNCT, "(")
        relation = self.parse_ident("a relation name")
        self.expect(TokenKind.PUNCT, ")")
        return ast.TriggerDecl(relation, self.parse_block(), pos)

    def parse_endpoint(self, pos: ast.Pos) -> ast.EndpointDecl:
        name = self.parse_ident("an endpoint name")
        return ast.EndpointDecl(name, self.parse_names(empty=True), self.parse_block(), pos)

    def parse_timer(self, pos: ast.Pos) -> ast.TimerDecl:
        name = self.parse_ident("a timer name")
        self.expect(TokenKind.PUNCT, "(")
        interval_token = self.expect(TokenKind.NUMBER, what="an interval in milliseconds")
        self.expect(TokenKind.PUNCT, ")")
        interval = interval_token.value
        if not float(interval).is_integer() or interval < 1:
            raise SemanticError(
                "timer interval must be a positive integer of milliseconds",
                interval_token.line,
                interval_token.column,
            )
        return ast.TimerDecl(name, int(interval), self.parse_block(), pos)

    def parse_rule(self, pos: ast.Pos) -> ast.RuleDecl:
        name = self.parse_ident("a rule name")
        condition, _ = self.parse_expression()
        return ast.RuleDecl(name, condition, self.parse_block(), pos)

    def parse_module(self, pos: ast.Pos) -> ast.ModuleDecl:
        return ast.ModuleDecl(self.parse_ident("a module name"), self.parse_names(empty=True), pos)

    def parse_map(self, pos: ast.Pos) -> ast.MapDecl:
        kind_token = self.current()
        if self.at(TokenKind.KEYWORD, "RELATION"):
            kind = "relation"
        elif self.at(TokenKind.KEYWORD, "MODULE"):
            kind = "module"
        else:
            raise ParseError(
                "expected RELATION or MODULE after MAP", kind_token.line, kind_token.column
            )
        self.advance()
        name = self.parse_ident("a declaration name")
        self.expect(TokenKind.PUNCT, ":")
        target_token = self.current()
        if target_token.kind in (TokenKind.URI, TokenKind.STRING):
            self.advance()
            target = target_token.value
        else:
            raise ParseError(
                "expected a mapping target", target_token.line, target_token.column
            )
        if not target:
            raise ParseError("mapping target is empty", target_token.line, target_token.column)
        return ast.MapDecl(kind, name, target, pos)

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> ast.Block:
        self.expect(TokenKind.PUNCT, "{")
        statements: list[ast.Statement] = []
        while True:
            self.skip_separators()
            if self.at(TokenKind.PUNCT, "}"):
                self.advance()
                return tuple(statements)
            if self.current().kind is TokenKind.EOF:
                token = self.current()
                raise ParseError("unterminated block, expected '}'", token.line, token.column)
            statements.append(self.parse_statement())

    def parse_statement(self) -> ast.Statement:
        token = self.current()
        pos = ast.Pos(token.line, token.column)
        if token.kind is TokenKind.IDENT:
            kind = "INSERT"  # the relation name is the target, read below
        elif token.kind is TokenKind.KEYWORD and token.value in ast.STATEMENTS:
            kind = self.advance().value
        else:
            raise ParseError(f"expected a statement, got {token.value!r}",
                             token.line, token.column)
        names, takes_row = ast.STATEMENTS[kind]  # type: ignore[index]
        if takes_row:  # NAME ( row ) and CALL NAME ( row )
            target = self.parse_ident(f"a {names} name")
            self.expect(TokenKind.PUNCT, "(")
            args = self.parse_args()
        else:  # KEYWORD ( NAME )
            self.expect(TokenKind.PUNCT, "(")
            target, args = self.parse_ident("a name"), ()
        self.expect(TokenKind.PUNCT, ")")
        return ast.Statement(kind, target, args, pos)  # type: ignore[arg-type]

    def parse_args(self) -> tuple[ast.Expression, ...]:
        if self.at(TokenKind.PUNCT, ")"):
            return ()
        args = [self.parse_arg()]
        while self.at(TokenKind.PUNCT, ","):
            self.advance()
            args.append(self.parse_arg())
        return tuple(args)

    def parse_arg(self) -> ast.Expression:
        token = self.current()
        if self.at_literal():
            return ast.Literal(self.advance().value)  # type: ignore[arg-type]
        if token.kind is TokenKind.IDENT:
            return self.parse_name_ref()
        raise ParseError(
            f"expected a literal or name argument, got {token.value!r}",
            token.line,
            token.column,
        )

    def parse_name_ref(self) -> ast.Expression:
        """``NAME``, ``NAME.FIELD`` or ``NAME.FIELD[-k]``.

        Dotted forms parse as field references; program resolution later turns
        the ones whose base is not a relation into scope references.
        """
        base = self.parse_ident("a name")
        if not self.at(TokenKind.PUNCT, "."):
            return ast.ScopeRef(base)
        self.advance()
        field = self.parse_ident("a field name")
        offset = 0
        if self.at(TokenKind.PUNCT, "["):
            bracket = self.advance()
            number_token = self.expect(TokenKind.NUMBER, what="a negative offset")
            self.expect(TokenKind.PUNCT, "]")
            value = number_token.value
            if not float(value).is_integer() or value > -1:
                raise ParseError(
                    "history offset must be a negative integer like [-1]",
                    bracket.line,
                    bracket.column,
                )
            offset = int(value)
        return ast.FieldRef(base, field, offset)

    # -- expressions ---------------------------------------------------------

    def parse_expression(self, floor: int = 1, depth: int = 1) -> tuple[ast.Expression, int]:
        """An expression of operators that bind at least as tightly as
        ``floor`` (``ast.PRECEDENCE``), and its height, by precedence climbing:
        a prefix operator or a parenthesis parses its operand at its own level,
        and a run of binary operators builds its left-leaning chain in a loop.

        ``depth`` is the depth of the expression's root, the height the number
        of levels under it; a pair of parentheses counts as a level, except
        around a lone literal, as the formatter writes a negated one ``-(5)``."""
        token = self.current()
        self.check_depth(depth, token)
        prefix = (ast.PREFIXES.get(token.value)  # type: ignore[arg-type]
                  if token.kind in (TokenKind.KEYWORD, TokenKind.OP) else None)
        if prefix is not None and ast.PRECEDENCE[prefix] >= floor:
            self.advance()
            operand, height = self.parse_expression(ast.PRECEDENCE[prefix], depth + 1)
            left: ast.Expression = ast.Unary(token.value, operand)  # type: ignore[arg-type]
            height += 1
        elif self.at(TokenKind.PUNCT, "("):
            self.advance()
            if self.at_literal() and self.tokens[self.pos + 1].kind is TokenKind.PUNCT \
                    and self.tokens[self.pos + 1].value == ")":
                left, height = ast.Literal(self.advance().value), 0  # type: ignore[arg-type]
            else:
                left, height = self.parse_expression(1, depth + 1)
                height += 1
            self.expect(TokenKind.PUNCT, ")")
        elif self.at_literal():
            left, height = ast.Literal(self.advance().value), 0  # type: ignore[arg-type]
        elif token.kind is TokenKind.IDENT:
            left, height = self.parse_name_ref(), 0
        else:
            raise ParseError(f"expected an expression, got {token.value!r}",
                             token.line, token.column)
        while True:
            token = self.current()
            binary = (token.kind is TokenKind.OP
                      or token.kind is TokenKind.KEYWORD and token.value in ast.BOOLEAN_OPS)
            level = ast.PRECEDENCE[token.value] if binary else 0  # type: ignore[index]
            if level < floor:
                return left, height
            self.advance()
            height += 1  # the new node goes over the left operand
            self.check_depth(depth + height, token)
            right, right_height = self.parse_expression(level + 1, depth + 1)
            height = max(height, right_height + 1)
            left = ast.Binary(token.value, left, right)  # type: ignore[arg-type]
            after = self.current()
            if token.value in ast.COMPARISON_OPS and after.kind is TokenKind.OP \
                    and after.value in ast.COMPARISON_OPS:
                raise ParseError("comparisons are non-associative; parenthesize to chain them",
                                 after.line, after.column)

    def at_literal(self) -> bool:
        return self.current().kind in (TokenKind.NUMBER, TokenKind.STRING)

    def check_depth(self, depth: int, token: Token) -> None:
        """Past ``ast.MAX_DEPTH`` a node at ``depth`` is a ParseError at
        ``token``, before any later stage recurses that deep."""
        if depth > ast.MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {ast.MAX_DEPTH} levels",
                             token.line, token.column)


# -- resolution & validation ----------------------------------------------------


_WHAT = {str: "a str", int: "an int", "Expression": "an expression"}


@cache
def _field_shapes(cls: type) -> list[tuple[str, bool, tuple[type, ...], str]]:
    """Each field of a node class (``ast.Node.FIELDS``), but its position and
    a literal's value (``check_literal`` checks that): its name, whether it
    holds a tuple, the types it or each of its items may have, and those
    types in words."""
    shapes = []
    for name, kind, *_ in cls.FIELDS:
        if name == "pos" or kind is ast.Value:
            continue
        many = type(kind) is tuple  # (T, ...)
        if many:
            kind = kind[0]
        kinds = ast.Expression.__args__ if kind == "Expression" else (kind,)
        shapes.append((name, many, kinds, _WHAT.get(kind) or f"a {kind.__name__}"))
    return shapes


def _shape_error(node: object) -> str | None:
    """Which field of ``node`` holds what its class does not declare, or None.
    The parser builds only well-shaped nodes; a tree built by hand may not be."""
    for name, many, kinds, what in _field_shapes(type(node)):
        value = getattr(node, name)
        if many and type(value) is not tuple:
            many, kinds, what = False, (tuple,), "a tuple"
        for i, item in enumerate(value if many else (value,)):
            if type(item) not in kinds:
                label = type(node).__name__.removesuffix("Decl").lower()
                where = f"{name}[{i}]" if many else name
                return f"{label} {where} must be {what}, got {type(item).__name__}"
    return None


_BINARY_OPS = ast.COMPARISON_OPS + ast.ARITHMETIC_OPS + ast.BOOLEAN_OPS


class _Resolver:
    """Checks the parsed tree against declaration tables and rewrites names."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.check_shape(program, ast.NO_POS)
        for decl in chain(program.relations, program.triggers, program.endpoints,
                          program.timers, program.rules, program.modules, program.mappings):
            self.check_shape(decl, decl.pos)
        self.relations = {d.name: d for d in program.relations}
        self.modules = {d.name: d for d in program.modules}
        # the names each statement target may take, by what it names
        self.declared = {"relation": self.relations, "timer": {d.name for d in program.timers},
                         "rule": {d.name for d in program.rules}, "module": self.modules}

    def fail(self, message: str, pos: ast.Pos) -> NoReturn:
        raise SemanticError(message, pos.line, pos.column)

    def check_shape(self, node: object, pos: ast.Pos) -> None:
        error = _shape_error(node)
        if error is not None:
            self.fail(error, pos)

    def run(self) -> ast.Program:
        p = self.program
        for kind, decls in (("relation", p.relations), ("endpoint", p.endpoints),
                            ("timer", p.timers), ("rule", p.rules), ("module", p.modules)):
            self.check_unique((d.name for d in decls), kind, decls)
        self.check_unique(((d.kind, d.name) for d in p.mappings), "mapping", p.mappings)

        for relation in p.relations:
            self.check_unique(relation.fields, "field", [relation] * len(relation.fields))
            if "T" in relation.fields:
                self.fail(
                    f"relation {relation.name}: field name T is reserved for the timestamp",
                    relation.pos,
                )

        for module in p.modules:
            self.check_unique(module.outputs, "output", [module] * len(module.outputs))
            if module.name in self.relations:
                self.fail(
                    f"module {module.name} shadows a relation of the same name", module.pos
                )

        seen_trigger_relations: set[str] = set()
        triggers = []
        for trigger in p.triggers:
            if trigger.relation not in self.relations:
                self.fail(f"trigger references unknown relation {trigger.relation}", trigger.pos)
            if trigger.relation in seen_trigger_relations:
                self.fail(f"relation {trigger.relation} already has a trigger", trigger.pos)
            seen_trigger_relations.add(trigger.relation)
            triggers.append(trigger.replace(body=self.resolve_block(trigger.body)))

        endpoints = []
        for endpoint in p.endpoints:
            self.check_unique(endpoint.params, "parameter", [endpoint] * len(endpoint.params))
            for param in endpoint.params:
                if param in self.relations:
                    self.fail(
                        f"endpoint {endpoint.name}: parameter {param} shadows a relation",
                        endpoint.pos,
                    )
            endpoints.append(endpoint.replace(body=self.resolve_block(endpoint.body)))

        for timer in p.timers:  # as the parser checks the interval's token
            if timer.interval_ms < 1:
                self.fail("timer interval must be a positive integer of milliseconds", timer.pos)
        timers = [t.replace(body=self.resolve_block(t.body)) for t in p.timers]

        rules = []
        for rule in p.rules:
            condition = self.resolve_condition(rule.condition, rule)
            rules.append(rule.replace(condition=condition, body=self.resolve_block(rule.body)))

        for mapping in p.mappings:
            if mapping.kind not in ("relation", "module"):
                self.fail(f"mapping kind must be 'relation' or 'module', got {mapping.kind!r}",
                          mapping.pos)
            if not mapping.target:
                self.fail("mapping target is empty", mapping.pos)
            table = self.relations if mapping.kind == "relation" else self.modules
            if mapping.name not in table:
                self.fail(
                    f"mapping references unknown {mapping.kind} {mapping.name}", mapping.pos
                )

        return p.replace(triggers=tuple(triggers), endpoints=tuple(endpoints),
                         timers=tuple(timers), rules=tuple(rules),
                         top_level_statements=self.resolve_block(p.top_level_statements))

    def check_unique(self, names, kind: str, decls) -> None:
        seen: set = set()
        for name, decl in zip(names, decls):
            if name in seen:
                label = name if isinstance(name, str) else f"{name[0].upper()} {name[1]}"
                self.fail(f"duplicate {kind} {label}", decl.pos)
            seen.add(name)

    # expressions in statement-argument position may reach into scope
    def resolve_arg(self, expr: ast.Expression, pos: ast.Pos) -> ast.Expression:
        self.check_shape(expr, pos)
        if isinstance(expr, ast.Literal):
            self.check_literal(expr, pos)
            return expr
        if isinstance(expr, ast.ScopeRef):
            return expr
        if isinstance(expr, ast.FieldRef):
            if expr.relation in self.relations:
                self.check_field(expr, pos)
                return expr
            if expr.offset == 0:
                return ast.ScopeRef(f"{expr.relation}.{expr.field}")
            self.fail(f"unknown relation {expr.relation}", pos)
        self.fail("statement arguments must be literals or names", pos)

    def check_field(self, ref: ast.FieldRef, pos: ast.Pos) -> None:
        decl = self.relations[ref.relation]
        if ref.field != "T" and ref.field not in decl.fields:
            self.fail(f"relation {ref.relation} has no field {ref.field}", pos)
        if ref.offset > 0:
            self.fail(f"history offset of {ref.relation}.{ref.field} must be a non-positive "
                      f"integer, got {ref.offset!r}", pos)

    def check_literal(self, literal: ast.Literal, pos: ast.Pos) -> None:
        value = literal.value
        if not (value is None or type(value) in (str, bool)
                or type(value) is float and isfinite(value)):
            self.fail(f"literal {value!r} is not a text, a finite number, a boolean or null", pos)

    def resolve_condition(self, expr: ast.Expression, rule: ast.RuleDecl) -> ast.Expression:
        for node in ast.walk_expression(expr):  # each node's shape before its operands
            self.check_shape(node, rule.pos)
            if isinstance(node, ast.Unary) and node.op not in ast.PREFIXES \
                    or isinstance(node, ast.Binary) and node.op not in _BINARY_OPS:
                self.fail(f"rule {rule.name}: unknown operator {node.op!r}", rule.pos)
            if isinstance(node, ast.FieldRef):
                if node.relation not in self.relations:
                    self.fail(
                        f"rule {rule.name}: unknown relation {node.relation} in condition",
                        rule.pos,
                    )
                self.check_field(node, rule.pos)
            elif isinstance(node, ast.Literal):
                self.check_literal(node, rule.pos)
            elif isinstance(node, ast.ScopeRef):
                self.fail(
                    f"rule {rule.name}: unknown name {node.name} in condition (rules have no scope)",
                    rule.pos,
                )
        if not (ast.gives_boolean(expr) or isinstance(expr, ast.FieldRef)):
            self.fail(f"rule {rule.name}: condition is not boolean-valued", rule.pos)
        return expr

    def resolve_block(self, block: ast.Block) -> ast.Block:
        return tuple(self.resolve_statement(s) for s in block)

    def resolve_statement(self, stmt: ast.Statement) -> ast.Statement:
        self.check_shape(stmt, stmt.pos)
        entry = ast.STATEMENTS.get(stmt.kind)
        if entry is None:
            self.fail(f"unknown statement kind {stmt.kind!r}", stmt.pos)
        names, takes_row = entry
        if not takes_row and stmt.args:
            self.fail(f"{stmt.kind} takes no arguments, got {len(stmt.args)}", stmt.pos)
        if stmt.target not in self.declared[names]:
            action = "insert into " if stmt.kind == "INSERT" else ""
            self.fail(f"{action}unknown {names} {stmt.target}", stmt.pos)
        if stmt.kind == "INSERT":
            fields = self.relations[stmt.target].fields
            if len(stmt.args) != len(fields):
                self.fail(f"relation {stmt.target} takes {len(fields)} values, "
                          f"got {len(stmt.args)}", stmt.pos)
        return stmt.replace(args=tuple(self.resolve_arg(a, stmt.pos) for a in stmt.args))


def parse_program(source: str) -> ast.Program:
    """Parse and validate source text into a Program."""
    return resolve_program(_Parser(source).parse_program())


def resolve_program(program: ast.Program) -> ast.Program:
    """The resolution pass alone; a resolved program resolves to an equal one."""
    return _Resolver(program).run()


def parse_expression(source: str) -> ast.Expression:
    """Parse a standalone expression; dotted names become field references."""
    parser = _Parser(source)
    expr, _ = parser.parse_expression()
    trailing = parser.current()
    if trailing.kind is not TokenKind.EOF:
        raise ParseError(
            f"unexpected input after expression: {trailing.value!r}",
            trailing.line,
            trailing.column,
        )
    return expr
