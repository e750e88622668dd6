"""The node API every syntax-tree class, token and event shares (``ast.Node``),
and the lazily resolved public names of the ``liot`` package."""

import subprocess
import sys

import pytest

import liot
from liot import ast
from liot.engine import EndpointCall, EventResult, ExternalInsert, TimerTick
from liot.lexer import Token, TokenKind


def test_fields_by_position_by_name_and_by_default():
    by_position = ast.FieldRef("R", "X", -2)
    by_name = ast.FieldRef(offset=-2, field="X", relation="R")
    assert (by_position.relation, by_position.field, by_position.offset) == ("R", "X", -2)
    assert by_name == by_position
    assert ast.FieldRef("R", "X").offset == 0
    statement = ast.Statement("START", "TM")
    assert (statement.args, statement.pos) == ((), ast.NO_POS)
    assert ast.Program().rules == () and ast.Program(rules=()).mappings == ()
    assert ExternalInsert("R", (1.0,)).arrival_seq == 0
    assert ExternalInsert("R", (1.0,), arrival_seq=3) == ExternalInsert("R", (1.0,), 3)
    assert EventResult().error is None and TimerTick("TM").arrival_seq == 0


@pytest.mark.parametrize("make", [
    lambda: ast.FieldRef("R"),  # a field without a default left out
    lambda: ast.FieldRef("R", "X", 0, 1),  # one value too many
    lambda: ast.FieldRef("R", "X", offest=1),  # a name that is no field
    lambda: ast.FieldRef("R", "X", relation="Q"),  # a field given twice
], ids=["missing", "too many", "unknown name", "twice"])
def test_a_node_built_with_the_wrong_fields_is_a_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_pos_is_out_of_equality_and_hash():
    a = ast.RelationDecl("R", ("X",), ast.Pos(1, 1))
    b = ast.RelationDecl("R", ("X",), ast.Pos(7, 3))
    assert a == b and hash(a) == hash(b)
    assert ast.RelationDecl("R", ("Y",)) != a
    # a field that is not named pos is compared, whatever it holds
    assert Token(TokenKind.IDENT, "R", 1, 1) != Token(TokenKind.IDENT, "R", 1, 2)


def test_nodes_of_two_classes_with_the_same_values_are_unequal():
    assert ast.ScopeRef("x") != ast.Literal("x")
    assert ast.Binary("+", ast.Literal(1.0), ast.Literal(2.0)) != \
        ast.Binary("+", ast.Literal(1.0), ast.ScopeRef(2.0))
    assert ExternalInsert("E", ()) != EndpointCall("E", ())
    assert ast.Literal(1.0) != (1.0,) and ast.Literal(1.0) != 1.0


@pytest.mark.parametrize("node, field", [
    (ast.FieldRef("R", "X"), "offset"),
    (ast.Program(), "rules"),
    (ast.Statement("START", "TM"), "pos"),
    (Token(TokenKind.IDENT, "R", 1, 1), "value"),
    (ExternalInsert("R", ()), "relation"),
    (ast.FieldRef("R", "X"), "extra"),
])
def test_assigning_a_field_raises_attribute_error(node, field):
    with pytest.raises(AttributeError):
        setattr(node, field, 1)


def test_repr_names_the_class_and_every_field():
    statement = ast.Statement("INSERT", "R", (ast.Literal(1.0), ast.FieldRef("Q", "X", -1)),
                              ast.Pos(3, 5))
    assert repr(statement) == ("Statement(kind='INSERT', target='R', args=(Literal(value=1.0), "
                               "FieldRef(relation='Q', field='X', offset=-1)), pos=3:5)")
    assert repr(ast.Program()).startswith("Program(relations=(), triggers=(), ")
    assert repr(ast.RelationDecl("R", ("X",))) == "RelationDecl(name='R', fields=('X',), pos=0:0)"
    assert repr(ExternalInsert("R", (1.0, "a"), 4)) == \
        "ExternalInsert(relation='R', values=(1.0, 'a'), arrival_seq=4)"
    assert repr(Token(TokenKind.NUMBER, 5.0, 2, 7)) == "Token(number 5.0 @2:7)"


def test_replace_changes_only_the_fields_named():
    rule = ast.RuleDecl("A", ast.FieldRef("R", "X"), (), ast.Pos(2, 1))
    renamed = rule.replace(name="B")
    assert (renamed.name, renamed.condition, renamed.pos) == ("B", rule.condition, rule.pos)
    assert rule.name == "A"


def test_every_public_name_resolves_by_attribute_and_by_star_import():
    namespace = {}
    exec("from liot import *", namespace)
    for name in liot.__all__:
        assert getattr(liot, name) is namespace[name]
        assert getattr(liot, name).__module__.startswith("liot.")
    with pytest.raises(AttributeError):
        liot.no_such_name  # noqa: B018


def test_importing_liot_loads_no_submodule_until_a_name_is_used():
    code = ("import sys, liot\n"
            "print(sorted(m for m in sys.modules if m.startswith('liot')))\n"
            "liot.parse_program\n"
            "print('liot.parser' in sys.modules, 'liot.engine' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, timeout=20)
    assert result.stdout == "['liot']\nTrue False\n"
