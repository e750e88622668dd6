import pytest

from liot.errors import LexError
from liot.lexer import Token, TokenKind, tokenize


def kinds_and_values(source):
    return [(t.kind, t.value) for t in tokenize(source)]


def test_relation_declaration_tokens():
    assert kinds_and_values("RELATION R (MAC, RSSI)") == [
        (TokenKind.KEYWORD, "RELATION"),
        (TokenKind.IDENT, "R"),
        (TokenKind.PUNCT, "("),
        (TokenKind.IDENT, "MAC"),
        (TokenKind.PUNCT, ","),
        (TokenKind.IDENT, "RSSI"),
        (TokenKind.PUNCT, ")"),
    ]


def test_empty_source_yields_no_tokens():
    assert tokenize("") == []
    assert tokenize("   \n\t  # only a comment\n") == []


def test_offset_and_negative_literal_hand_tokenization():
    # hand-derived token stream for the history-offset comparison form
    assert kinds_and_values("R.RSSI[-1] < -60") == [
        (TokenKind.IDENT, "R"),
        (TokenKind.PUNCT, "."),
        (TokenKind.IDENT, "RSSI"),
        (TokenKind.PUNCT, "["),
        (TokenKind.NUMBER, -1.0),
        (TokenKind.PUNCT, "]"),
        (TokenKind.OP, "<"),
        (TokenKind.NUMBER, -60.0),
    ]


def test_minus_after_value_is_binary_operator():
    assert kinds_and_values("A.X - 60") == [
        (TokenKind.IDENT, "A"),
        (TokenKind.PUNCT, "."),
        (TokenKind.IDENT, "X"),
        (TokenKind.OP, "-"),
        (TokenKind.NUMBER, 60.0),
    ]
    # but a minus after an operator starts a literal
    assert kinds_and_values("A.X - -60")[-1] == (TokenKind.NUMBER, -60.0)


def test_dense_comparison_without_spaces():
    assert kinds_and_values("R.RSSI<=-60") == [
        (TokenKind.IDENT, "R"),
        (TokenKind.PUNCT, "."),
        (TokenKind.IDENT, "RSSI"),
        (TokenKind.OP, "<="),
        (TokenKind.NUMBER, -60.0),
    ]


def test_string_escapes_decode():
    tokens = tokenize(r'"a\"b\\c\nd"')
    assert tokens == [Token(TokenKind.STRING, 'a"b\\c\nd', 1, 1)]


def test_unterminated_string_reports_position():
    with pytest.raises(LexError) as err:
        tokenize('\nR("abc')
    assert err.value.line == 2
    assert err.value.column == 3


def test_illegal_character_reports_position():
    with pytest.raises(LexError) as err:
        tokenize("RELATION R (MAC)\n  @")
    assert (err.value.line, err.value.column) == (2, 3)


def test_keywords_are_case_sensitive():
    tokens = tokenize("relation Relation RELATION")
    assert [t.kind for t in tokens] == [TokenKind.IDENT, TokenKind.IDENT, TokenKind.KEYWORD]


def test_comment_runs_to_end_of_line():
    tokens = tokenize("STOP (TM) # stop it\nSTART (TM)")
    values = [t.value for t in tokens]
    assert values == ["STOP", "(", "TM", ")", "START", "(", "TM", ")"]


def test_map_target_lexes_as_one_word():
    tokens = tokenize("MAP RELATION R : module1.jsp")
    assert tokens[-1] == Token(TokenKind.URI, "module1.jsp", 1, 18)


def test_map_target_url_with_query_and_fragment():
    tokens = tokenize("MAP MODULE M : http://h:8080/a?x=1#frag ; STOP (TM)")
    uri = [t for t in tokens if t.kind is TokenKind.URI]
    assert uri[0].value == "http://h:8080/a?x=1#frag"


def test_map_target_may_be_quoted():
    tokens = tokenize('MAP MODULE M : "has spaces.jsp"')
    assert tokens[-1].kind is TokenKind.STRING
    assert tokens[-1].value == "has spaces.jsp"


def test_number_with_decimal_part():
    assert kinds_and_values("1.5 + 2")[0] == (TokenKind.NUMBER, 1.5)


def test_huge_number_literal_rejected():
    with pytest.raises(LexError):
        tokenize("9" * 400)


def test_positions_are_one_based():
    tokens = tokenize("A\n  B")
    assert (tokens[0].line, tokens[0].column) == (1, 1)
    assert (tokens[1].line, tokens[1].column) == (2, 3)


@pytest.mark.parametrize("source, column", [("RULE A R.X > ²", 14), ("1 + ٣", 5), ("-٣", 2)])
def test_non_ascii_digit_outside_an_identifier_is_illegal(source, column):
    # NUMBER is ASCII digits only; '²' passes str.isdigit but not float()
    with pytest.raises(LexError, match="illegal character") as err:
        tokenize(source)
    assert (err.value.line, err.value.column) == (1, column)


def test_non_ascii_digit_inside_an_identifier_is_part_of_it():
    assert kinds_and_values("x٣") == [(TokenKind.IDENT, "x٣")]


@pytest.mark.parametrize("source, message", [
    ('R("ab\\q")', "unknown escape '\\q'"),
    ('R("ab\\\n")', "unknown escape '\\\n'"),
])
def test_unknown_escape_is_reported_at_its_backslash(source, message):
    with pytest.raises(LexError) as err:
        tokenize(source)
    assert (err.value.message, err.value.line, err.value.column) == (message, 1, 6)
