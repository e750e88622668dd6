import random

import pytest

from liot import ast
from liot.formatter import format_expression, format_program
from liot.parser import parse_expression, parse_program
from liot.values import format_number

from .generators import random_condition, random_program

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
MAP RELATION R : module1.jsp
MAP MODULE COUNTER : module2.jsp
R ("38:E7:D8:D3:18:68", -87)
STOP (TM)
"""


def test_single_relation_exact_text():
    program = ast.Program(relations=(ast.RelationDecl("R", ("MAC", "RSSI")),))
    assert format_program(program) == "RELATION R (MAC, RSSI)\n"


def test_empty_program_formats_to_empty_text():
    assert format_program(ast.Program()) == ""


def test_composite_round_trip():
    program = parse_program(COMPOSITE)
    assert parse_program(format_program(program)) == program


def test_negated_literal_round_trips():
    expr = ast.Unary("-", ast.Literal(5.0))
    assert format_expression(expr) == "-(5)"
    assert parse_expression(format_expression(expr)) == expr


def test_negative_literal_stays_a_literal():
    expr = ast.Binary("-", ast.ScopeRef("a"), ast.Literal(-60.0))
    text = format_expression(expr)
    assert text == "a - -60"
    assert parse_expression(text) == expr


def test_comparison_inside_comparison_parenthesized():
    expr = ast.Binary("<", ast.Binary("==", ast.ScopeRef("a"), ast.ScopeRef("b")), ast.Literal(1.0))
    text = format_expression(expr)
    assert text == "(a == b) < 1"
    assert parse_expression(text) == expr


def test_right_associative_subtraction_parenthesized():
    expr = ast.Binary("-", ast.Literal(1.0), ast.Binary("-", ast.Literal(2.0), ast.Literal(3.0)))
    text = format_expression(expr)
    assert text == "1 - (2 - 3)"
    assert parse_expression(text) == expr


@pytest.mark.parametrize(
    "value,text",
    [(1.0, "1"), (-87.0, "-87"), (2.5, "2.5"), (1e-07, "0.0000001"), (0.0, "0")],
)
def test_number_rendering(value, text):
    assert format_number(value) == text
    assert float(text) == value


def test_string_escaping_round_trips():
    program = ast.Program(
        relations=(ast.RelationDecl("R", ("X",)),),
        top_level_statements=(ast.Statement("INSERT", "R", (ast.Literal('a"b\\c\nd\te'),)),),
    )
    assert parse_program(format_program(program)) == program


def test_map_target_with_spaces_quoted():
    program = ast.Program(
        relations=(ast.RelationDecl("R", ("X",)),),
        mappings=(ast.MapDecl("relation", "R", "has spaces.jsp"),),
    )
    text = format_program(program)
    assert 'MAP RELATION R : "has spaces.jsp"' in text
    assert parse_program(text) == program


def test_random_expression_round_trip():
    rng = random.Random(7)
    relations = [ast.RelationDecl("R", ("A", "B")), ast.RelationDecl("Q", ("C",))]
    for _ in range(500):
        expr = random_condition(rng, relations)
        assert parse_expression(format_expression(expr)) == expr


def test_thousand_random_programs_round_trip():
    rng = random.Random(20260810)
    for i in range(1000):
        program = random_program(rng)
        text = format_program(program)
        reparsed = parse_program(text)
        assert reparsed == program, f"round trip failed for seeded program {i}"
