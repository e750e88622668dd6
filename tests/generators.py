"""Seeded random generators used as oracles.

Two flavors: fully random valid Programs (built directly as ASTs, used to
check the parse/format round trip) and runnable rule programs with event
scripts (used to check the indexed engine against the naive oracle).
"""

from __future__ import annotations

import random
import string

from liot import ast
from liot.lexer import KEYWORDS

_NAME_ALPHABET = string.ascii_uppercase


def fresh_name(rng: random.Random, taken: set[str], prefix: str = "") -> str:
    while True:
        name = prefix + "".join(rng.choice(_NAME_ALPHABET) for _ in range(rng.randint(2, 6)))
        if name not in taken and name not in KEYWORDS and name != "T":
            taken.add(name)
            return name


def random_text(rng: random.Random) -> str:
    pool = string.ascii_letters + string.digits + ' :._-"\\\n\t'
    return "".join(rng.choice(pool) for _ in range(rng.randint(0, 10)))


def random_number(rng: random.Random) -> float:
    if rng.random() < 0.5:
        return float(rng.randint(-1000, 1000))
    return round(rng.uniform(-500, 500), 3)


# -- random valid Programs (round-trip oracle) ---------------------------------


def random_field_ref(rng: random.Random, relations: list[ast.RelationDecl]) -> ast.FieldRef:
    decl = rng.choice(relations)
    field = rng.choice(list(decl.fields) + ["T"])
    offset = 0 if rng.random() < 0.6 else -rng.randint(1, 4)
    return ast.FieldRef(decl.name, field, offset)


def random_arith(rng: random.Random, relations: list, depth: int) -> ast.Expression:
    if depth <= 0 or rng.random() < 0.4:
        if relations and rng.random() < 0.5:
            return random_field_ref(rng, relations)
        return ast.Literal(random_number(rng))
    roll = rng.random()
    if roll < 0.2:
        return ast.Unary("-", random_arith(rng, relations, depth - 1))
    op = rng.choice(ast.ARITHMETIC_OPS)
    return ast.Binary(op, random_arith(rng, relations, depth - 1), random_arith(rng, relations, depth - 1))


def random_condition(rng: random.Random, relations: list, depth: int = 3) -> ast.Expression:
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        op = rng.choice(ast.COMPARISON_OPS)
        if rng.random() < 0.15:
            return ast.Binary(op, ast.Literal(random_text(rng)), ast.Literal(random_text(rng)))
        return ast.Binary(
            op, random_arith(rng, relations, 2), random_arith(rng, relations, 2)
        )
    if roll < 0.65:
        return ast.Unary("NOT", random_condition(rng, relations, depth - 1))
    op = rng.choice(ast.BOOLEAN_OPS)
    return ast.Binary(
        op, random_condition(rng, relations, depth - 1), random_condition(rng, relations, depth - 1)
    )


def random_arg(rng: random.Random, relations: list, scope_names: list[str]) -> ast.Expression:
    roll = rng.random()
    if roll < 0.4:
        value = random_number(rng) if rng.random() < 0.7 else random_text(rng)
        return ast.Literal(value)
    if roll < 0.7 and relations:
        return random_field_ref(rng, relations)
    if scope_names and rng.random() < 0.8:
        return ast.ScopeRef(rng.choice(scope_names))
    return ast.Literal(random_number(rng))


def random_statement(
    rng: random.Random,
    relations: list[ast.RelationDecl],
    timers: list[str],
    rules: list[str],
    modules: list[ast.ModuleDecl],
    scope_names: list[str],
) -> ast.Statement:
    choices = ["insert"] * 4
    if timers:
        choices += ["start", "stop"]
    if rules:
        choices += ["activate", "deactivate", "check"]
    if modules:
        choices += ["call", "acall"]
    kind = rng.choice(choices)
    if kind == "insert":
        decl = rng.choice(relations)
        args = tuple(random_arg(rng, relations, scope_names) for _ in decl.fields)
        return ast.Statement("INSERT", decl.name, args)
    if kind in ("start", "stop"):
        return ast.Statement(kind.upper(), rng.choice(timers))
    if kind in ("activate", "deactivate", "check"):
        return ast.Statement(kind.upper(), rng.choice(rules))
    decl = rng.choice(modules)
    args = tuple(random_arg(rng, relations, scope_names) for _ in range(rng.randint(0, 3)))
    return ast.Statement(kind.upper(), decl.name, args)


def random_program(rng: random.Random) -> ast.Program:
    taken: set[str] = set()
    relations = []
    for _ in range(rng.randint(1, 5)):
        fields = tuple(fresh_name(rng, taken, "F") for _ in range(rng.randint(1, 4)))
        relations.append(ast.RelationDecl(fresh_name(rng, taken), fields))

    modules = [
        ast.ModuleDecl(
            fresh_name(rng, taken),
            tuple(fresh_name(rng, taken, "O") for _ in range(rng.randint(0, 3))),
        )
        for _ in range(rng.randint(0, 2))
    ]
    timer_names = [fresh_name(rng, taken) for _ in range(rng.randint(0, 2))]
    rule_names = [fresh_name(rng, taken) for _ in range(rng.randint(0, 4))]
    # scope names never collide with relation names: dotted ones would
    # re-resolve as field references and break the round trip
    scope_names = [fresh_name(rng, taken, "v").lower() for _ in range(3)]
    scope_names.append(f"{fresh_name(rng, taken)}.{fresh_name(rng, taken, 'o')}")

    def block() -> ast.Block:
        return tuple(
            random_statement(rng, relations, timer_names, rule_names, modules, scope_names)
            for _ in range(rng.randint(0, 4))
        )

    triggers = tuple(
        ast.TriggerDecl(decl.name, block())
        for decl in relations
        if rng.random() < 0.4
    )
    endpoints = tuple(
        ast.EndpointDecl(
            fresh_name(rng, taken),
            tuple(fresh_name(rng, taken, "p").lower() for _ in range(rng.randint(0, 3))),
            block(),
        )
        for _ in range(rng.randint(0, 2))
    )
    timers = tuple(
        ast.TimerDecl(name, rng.randint(1, 100000), block()) for name in timer_names
    )
    rules = tuple(
        ast.RuleDecl(name, random_condition(rng, relations), block()) for name in rule_names
    )
    mapping_targets = ["module1.jsp", "http://host:8080/mod?x=1", "a b c.jsp", "svc/inner.jsp"]
    mappings = []
    for decl in relations:
        if rng.random() < 0.2:
            mappings.append(ast.MapDecl("relation", decl.name, rng.choice(mapping_targets)))
    for decl in modules:
        if rng.random() < 0.6:
            mappings.append(ast.MapDecl("module", decl.name, rng.choice(mapping_targets)))

    top = tuple(
        random_statement(rng, relations, timer_names, rule_names, modules, scope_names)
        for _ in range(rng.randint(0, 3))
    )
    return ast.Program(
        relations=tuple(relations),
        triggers=triggers,
        endpoints=endpoints,
        timers=timers,
        rules=rules,
        modules=tuple(modules),
        mappings=tuple(mappings),
        top_level_statements=top,
    )


# -- runnable programs + event scripts (naive-oracle equivalence) ----------------


def runnable_program(rng: random.Random, max_relations: int = 10, max_rules: int = 20) -> ast.Program:
    """A program with no outbound HTTP, safe to execute in-process."""
    taken: set[str] = set()
    relations = []
    for _ in range(rng.randint(1, max_relations)):
        fields = tuple(fresh_name(rng, taken, "F") for _ in range(rng.randint(1, 3)))
        relations.append(ast.RelationDecl(fresh_name(rng, taken), fields))

    timer_names = [fresh_name(rng, taken) for _ in range(rng.randint(0, 2))]
    rule_names = [fresh_name(rng, taken) for _ in range(rng.randint(0, max_rules))]

    def numeric_condition() -> ast.Expression:
        decl = rng.choice(relations)
        field = rng.choice(decl.fields)
        offset = 0 if rng.random() < 0.7 else -rng.randint(1, 3)
        left = ast.FieldRef(decl.name, field, offset)
        op = rng.choice(ast.COMPARISON_OPS)
        if rng.random() < 0.3:
            other = rng.choice(relations)
            right: ast.Expression = ast.FieldRef(other.name, rng.choice(other.fields), 0)
        else:
            right = ast.Literal(float(rng.randint(-50, 50)))
        node: ast.Expression = ast.Binary(op, left, right)
        if rng.random() < 0.3:
            node = ast.Binary(rng.choice(ast.BOOLEAN_OPS), node, numeric_condition())
        if rng.random() < 0.15:
            node = ast.Unary("NOT", node)
        return node

    def safe_statement(depth_hint: int) -> ast.Statement:
        choices = ["insert"] * 3 + ["none"]
        if timer_names:
            choices += ["start", "stop"]
        if rule_names:
            choices += ["activate", "deactivate", "check"]
        kind = rng.choice(choices)
        if kind in ("insert", "none"):
            decl = rng.choice(relations)
            args = tuple(
                ast.Literal(float(rng.randint(-50, 50))) for _ in decl.fields
            )
            return ast.Statement("INSERT", decl.name, args)
        if kind in ("start", "stop"):
            return ast.Statement(kind.upper(), rng.choice(timer_names))
        return ast.Statement(kind.upper(), rng.choice(rule_names))

    def block(max_len: int) -> ast.Block:
        return tuple(safe_statement(1) for _ in range(rng.randint(0, max_len)))

    triggers = tuple(
        ast.TriggerDecl(decl.name, block(2)) for decl in relations if rng.random() < 0.3
    )
    endpoints = tuple(
        ast.EndpointDecl(
            fresh_name(rng, taken),
            tuple(fresh_name(rng, taken, "p").lower() for _ in range(rng.randint(0, 2))),
            block(3),
        )
        for _ in range(rng.randint(0, 3))
    )
    timers = tuple(
        ast.TimerDecl(name, rng.choice([50, 100, 250, 500, 1000]), block(2))
        for name in timer_names
    )
    rules = tuple(
        ast.RuleDecl(name, numeric_condition(), block(1)) for name in rule_names
    )
    return ast.Program(
        relations=tuple(relations),
        triggers=triggers,
        endpoints=endpoints,
        timers=timers,
        rules=rules,
    )


def random_actions(rng: random.Random, program: ast.Program, count: int) -> list[tuple]:
    """Driver actions: ("insert", rel, values) | ("endpoint", name, args) |
    ("advance", ms). Values are scalars ready for events."""
    actions: list[tuple] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.7 or not program.endpoints:
            decl = rng.choice(program.relations)
            values = tuple(float(rng.randint(-50, 50)) for _ in decl.fields)
            actions.append(("insert", decl.name, values))
        elif roll < 0.9:
            decl = rng.choice(program.endpoints)
            args = tuple(float(rng.randint(-50, 50)) for _ in decl.params)
            actions.append(("endpoint", decl.name, args))
        else:
            actions.append(("advance", rng.randint(1, 400)))
    return actions
