import pytest

from liot import ast
from liot.errors import ParseError, SemanticError
from liot.parser import parse_expression, parse_program, resolve_program

COMPOSITE = """
RELATION R (MAC, RSSI)
TRIGGER (R)
{
}
ENDPOINT NEW_RECORD (M, RS)
{
    R(M, RS)
}
TIMER TM (1000)
{
}
RULE R1 R.RSSI < -60
{
}
MODULE COUNTER (count)
MAP MODULE COUNTER : "module2.jsp"
"""


def test_composite_program_counts():
    program = parse_program(COMPOSITE)
    assert len(program.relations) == 1
    assert len(program.triggers) == 1
    assert len(program.endpoints) == 1
    assert len(program.timers) == 1
    assert len(program.rules) == 1
    assert len(program.modules) == 1
    assert len(program.mappings) == 1


def test_empty_program_is_valid():
    program = parse_program("")
    assert program == ast.Program()


def test_statement_kinds_parse():
    src = COMPOSITE + """
R ("38:E7:D8:D3:18:68", -87)
STOP (TM)
START (TM)
DEACTIVATE (R1)
ACTIVATE (R1)
CHECK (R1)
CALL COUNTER (index, 2)
ACALL COUNTER (name, "test")
"""
    program = parse_program(src)
    kinds = [type(s).__name__ for s in program.top_level_statements]
    assert kinds == [
        "Insert", "StopTimer", "StartTimer", "Deactivate", "Activate",
        "Check", "CallModule", "AcallModule",
    ]
    insert = program.top_level_statements[0]
    assert insert.args == (ast.Literal("38:E7:D8:D3:18:68"), ast.Literal(-87.0))
    call = program.top_level_statements[6]
    assert call.args == (ast.ScopeRef("index"), ast.Literal(2.0))


def test_reserved_field_t_rejected():
    with pytest.raises(SemanticError, match="reserved"):
        parse_program("RELATION R (T, X)")


def test_trigger_unknown_relation_rejected():
    with pytest.raises(SemanticError, match="unknown relation"):
        parse_program("TRIGGER (Q) {}")


def test_second_trigger_for_relation_rejected():
    with pytest.raises(SemanticError, match="already has a trigger"):
        parse_program("RELATION R (X)\nTRIGGER (R) {}\nTRIGGER (R) {}")


def test_duplicate_names_within_kind_rejected():
    with pytest.raises(SemanticError, match="duplicate relation"):
        parse_program("RELATION R (X)\nRELATION R (Y)")
    with pytest.raises(SemanticError, match="duplicate rule"):
        parse_program("RELATION R (X)\nRULE A R.X < 1 {}\nRULE A R.X > 1 {}")
    with pytest.raises(SemanticError, match="duplicate field"):
        parse_program("RELATION R (X, X)")
    with pytest.raises(SemanticError, match="duplicate mapping"):
        parse_program("RELATION R (X)\nMAP RELATION R : a.jsp\nMAP RELATION R : b.jsp")


def test_insert_arity_checked():
    with pytest.raises(SemanticError, match="takes 2 values"):
        parse_program("RELATION R (A, B)\nR(1)")


def test_statement_references_must_resolve_to_right_kind():
    with pytest.raises(SemanticError, match="unknown timer"):
        parse_program("RELATION R (X)\nRULE TM R.X < 1 {}\nSTOP (TM)")
    with pytest.raises(SemanticError, match="unknown rule"):
        parse_program("CHECK (R1)")
    with pytest.raises(SemanticError, match="unknown module"):
        parse_program("CALL M (1)")
    with pytest.raises(SemanticError, match="unknown relation"):
        parse_program("Q(1)")


def test_mapping_must_reference_declared_name():
    with pytest.raises(SemanticError, match="unknown module"):
        parse_program("MAP MODULE M : a.jsp")


def test_module_shadowing_relation_rejected():
    with pytest.raises(SemanticError, match="shadows a relation"):
        parse_program("RELATION R (X)\nMODULE R (y)")


def test_endpoint_param_shadowing_relation_rejected():
    with pytest.raises(SemanticError, match="shadows a relation"):
        parse_program("RELATION R (X)\nENDPOINT E (R) {}")


def test_names_resolve_program_wide():
    # a statement may reference a timer declared later in the file
    program = parse_program("ENDPOINT E () { STOP (TM) }\nTIMER TM (500) {}")
    assert program.endpoints[0].body[0] == ast.StopTimer("TM")


def test_declarations_not_allowed_inside_blocks():
    with pytest.raises(ParseError):
        parse_program("RELATION R (X)\nTRIGGER (R) { RELATION Q (Y) }")


def test_rule_condition_field_refs_must_resolve():
    with pytest.raises(SemanticError, match="unknown relation"):
        parse_program("RELATION R (X)\nRULE A Q.X < 1 {}")
    with pytest.raises(SemanticError, match="no field"):
        parse_program("RELATION R (X)\nRULE A R.Y < 1 {}")
    with pytest.raises(SemanticError, match="rules have no scope"):
        parse_program("RELATION R (X)\nRULE A x < 1 {}")


def test_rule_condition_must_be_boolean_shaped():
    with pytest.raises(SemanticError, match="not boolean-valued"):
        parse_program("RELATION R (X)\nRULE A R.X + 1 {}")
    with pytest.raises(SemanticError, match="not boolean-valued"):
        parse_program("RELATION R (X)\nRULE A 5 {}")
    # a bare field reference may hold a boolean at run time
    parse_program("RELATION R (X)\nRULE A R.X {}")


def test_rule_condition_may_reference_t():
    program = parse_program("RELATION R (X)\nRULE A R.T > 1000 {}")
    assert program.rules[0].condition.left == ast.FieldRef("R", "T", 0)


def test_timer_interval_must_be_positive_integer():
    with pytest.raises(SemanticError):
        parse_program("TIMER TM (0) {}")
    with pytest.raises(SemanticError):
        parse_program("TIMER TM (10.5) {}")


def test_dotted_scope_arg_resolves_when_base_is_not_relation():
    src = """
RELATION R (X)
MODULE COUNTER (count)
MAP MODULE COUNTER : c.jsp
ENDPOINT E ()
{
  CALL COUNTER ()
  R(COUNTER.count)
}
"""
    program = parse_program(src)
    insert = program.endpoints[0].body[1]
    assert insert.args == (ast.ScopeRef("COUNTER.count"),)
    assert resolve_program(program) == program  # Engine resolves it again


def test_offset_on_scope_ref_rejected():
    with pytest.raises(SemanticError, match="unknown relation"):
        parse_program("RELATION R (X)\nR(M.y[-1])")


# -- expressions ------------------------------------------------------------


def test_rule_condition_expression_shape():
    expr = parse_expression("R.RSSI < -60")
    assert expr == ast.Binary("<", ast.FieldRef("R", "RSSI", 0), ast.Literal(-60.0))


def test_dense_comparison_parses_same():
    assert parse_expression("R.RSSI<=-60") == ast.Binary(
        "<=", ast.FieldRef("R", "RSSI", 0), ast.Literal(-60.0)
    )


def test_not_over_and_precedence():
    # oracle: hand-parenthesized — NOT applies to the whole AND group
    expr = parse_expression("NOT (R.RSSI < -60 AND R.RSSI[-1] < -60)")
    assert expr == ast.Unary(
        "NOT",
        ast.Binary(
            "AND",
            ast.Binary("<", ast.FieldRef("R", "RSSI", 0), ast.Literal(-60.0)),
            ast.Binary("<", ast.FieldRef("R", "RSSI", -1), ast.Literal(-60.0)),
        ),
    )


@pytest.mark.parametrize(
    "source,expected",
    [
        # precedence ladder, verified against hand parenthesization
        ("1 + 2 * 3", ast.Binary("+", ast.Literal(1.0), ast.Binary("*", ast.Literal(2.0), ast.Literal(3.0)))),
        ("1 * 2 + 3", ast.Binary("+", ast.Binary("*", ast.Literal(1.0), ast.Literal(2.0)), ast.Literal(3.0))),
        ("1 - 2 - 3", ast.Binary("-", ast.Binary("-", ast.Literal(1.0), ast.Literal(2.0)), ast.Literal(3.0))),
        (
            "a AND b OR c",
            ast.Binary("OR", ast.Binary("AND", ast.ScopeRef("a"), ast.ScopeRef("b")), ast.ScopeRef("c")),
        ),
        (
            "NOT a AND b",
            ast.Binary("AND", ast.Unary("NOT", ast.ScopeRef("a")), ast.ScopeRef("b")),
        ),
        ("--1", ast.Unary("-", ast.Literal(-1.0))),
        ("-(5)", ast.Unary("-", ast.Literal(5.0))),
    ],
)
def test_precedence_cases(source, expected):
    assert parse_expression(source) == expected


def test_chained_comparison_is_syntax_error():
    with pytest.raises(ParseError, match="non-associative"):
        parse_expression("1 < 2 < 3")


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError, match="unexpected input"):
        parse_expression("1 + 2 3")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_program("RELATION R (MAC RSSI)")
    assert err.value.line == 1
    assert err.value.column == 17


@pytest.mark.parametrize("source, message, position", [
    ("RELATION R (X)\nRULE A R.X >\n", "expected an expression, got '<eof>'", (3, 1)),
    ("RELATION R (X)\nTRIGGER (R) { R(1)", "unterminated block, expected '}'", (2, 19)),
])
def test_end_of_input_errors_point_just_past_the_source(source, message, position):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert (err.value.message, (err.value.line, err.value.column)) == (message, position)


def test_dangling_references_rejected_fuzz():
    # delete the declarations a rule condition depends on; the reparse of the
    # mutilated source must fail with a resolution error, never succeed
    import random

    from liot import ast as liot_ast
    from liot.formatter import format_program

    from .generators import random_program

    rng = random.Random(31337)
    checked = 0
    for _ in range(200):
        program = random_program(rng)
        if not program.rules:
            continue
        mentioned = liot_ast.relations_mentioned(program.rules[0].condition)
        if not mentioned:
            continue
        kept = tuple(r for r in program.relations if r.name not in mentioned)
        mutated = ast.Program(
            relations=kept,
            rules=program.rules[:1],
        )
        with pytest.raises(SemanticError):
            parse_program(format_program(mutated))
        checked += 1
    assert checked > 50


def test_parse_never_aborts_on_garbage():
    for source in ["{", "RULE", "MAP RELATION", "R(", ")", "TIMER TM (", '"']:
        with pytest.raises((ParseError, SemanticError, Exception)) as err:
            parse_program(source)
        assert hasattr(err.value, "line")


_FRAGMENTS = [
    "RELATION R (X, Y)\n", "RULE A R.X > 1 { R(1, 2) }\n", "TIMER TM (100) { STOP (TM) }\n",
    "TRIGGER (R) {", "}", "MAP MODULE M : ", "MAP RELATION R : ", "MODULE M (out)\n",
    "ENDPOINT E (P) {", "CALL M (P)", "R(", ")", "(", ",", ";", ".", "[", "]", "{", ":",
    "R.X", "R.X[-1]", "<=", "!=", "-", "*", "AND", "NOT", "X", "Ä", "Ölçüm_2", "x٣",
    "1", "-7", "2.5", "²", "٣", "½", '"', '"txt"', '"a\\"', "\\", "\\n", "#", "# note\n",
    "\r", "\n", " ", "\t", "@", "=", "http://h:8080/a?x=1",
]


def test_random_sources_parse_or_fail_at_a_position_inside_the_source():
    # every diagnostic names a line that exists and a column no further than
    # just past that line's last character; no other exception escapes
    import random

    from liot.errors import SourceError

    rng = random.Random(2015)
    failures = 0
    for _ in range(3000):
        source = "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(1, 12)))
        try:
            parse_program(source)
        except SourceError as exc:
            failures += 1
            lines = source.split("\n")
            assert 1 <= exc.line <= len(lines), (source, exc.render())
            assert 1 <= exc.column <= len(lines[exc.line - 1]) + 1, (source, exc.render())
    assert 0 < failures < 3000


# -- the depth bound ----------------------------------------------------------------

# A rule condition of each shape whose tree, counting a pair of parentheses as
# a level, is ``depth`` deep; the parser refuses one level more than
# ast.MAX_DEPTH, so that no later stage (resolver, engine compile, formatter)
# recurses past CPython's default limit.
DEEP_CONDITIONS = {
    "parentheses": lambda depth: "(" * (depth - 2) + "R.X > 0" + ")" * (depth - 2),
    "NOT": lambda depth: "NOT " * (depth - 2) + "R.X > 0",
    "unary minus": lambda depth: "R.X > " + "-" * (depth - 2) + "R.X",
    "OR chain": lambda depth: " OR ".join(["R.X > 0"] * (depth - 1)),
    "+ chain": lambda depth: " + ".join(["R.X"] * (depth - 1)) + " > 0",
    # after the rule name -5 lexes as a minus and a 5, formatted -(5)
    "negated literal": lambda depth: " OR ".join(["-5 > R.X"] + ["R.X > 0"] * (depth - 3)),
    # a leading negative literal keeps its parentheses in the formatted text
    "negative literal first": lambda depth: "(-5) > 0 OR " + "NOT " * (depth - 3) + "R.X > 0",
}


def deep_program(shape, depth):
    return f"RELATION R (X)\nRULE A {DEEP_CONDITIONS[shape](depth)}\n{{\n}}\n"


@pytest.mark.parametrize("shape", DEEP_CONDITIONS)
def test_a_condition_at_the_depth_bound_goes_through_every_stage(shape):
    # the text is compared, as dataclass equality recurses past the limit here
    from liot.engine import Engine
    from liot.formatter import format_program

    program = parse_program(deep_program(shape, ast.MAX_DEPTH))
    Engine(program)
    text = format_program(program)
    assert format_program(parse_program(text)) == text


@pytest.mark.parametrize("shape", DEEP_CONDITIONS)
def test_the_depth_bound_applies_to_each_condition_alone(shape):
    rules = "".join(f"RULE A{i} R.X > 0 {{}}\n" for i in range(250))
    source = f"RELATION R (X)\n{rules}RULE B {DEEP_CONDITIONS[shape](ast.MAX_DEPTH)} {{}}\n"
    assert len(parse_program(source).rules) == 251


@pytest.mark.parametrize("shape", DEEP_CONDITIONS)
def test_a_condition_past_the_depth_bound_is_a_positioned_parse_error(shape):
    source = deep_program(shape, ast.MAX_DEPTH + 1)
    with pytest.raises(ParseError, match=f"nested deeper than {ast.MAX_DEPTH}") as err:
        parse_program(source)
    assert err.value.line == 2
    assert 1 <= err.value.column <= len(source.split("\n")[1])


@pytest.mark.parametrize("shape", DEEP_CONDITIONS)
def test_check_reports_a_too_deep_condition_in_one_line(tmp_path, shape):
    import subprocess
    import sys

    path = tmp_path / "deep.liot"
    path.write_text(deep_program(shape, ast.MAX_DEPTH + 1), encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "liot", "check", str(path)],
                            capture_output=True, text=True, timeout=20)
    assert result.returncode == 1
    assert result.stderr.startswith(f"{path}:2:") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
