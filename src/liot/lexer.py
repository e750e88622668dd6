"""Tokenizer for `.liot` source text.

Produces a flat token list with 1-based source positions. ``_TOKEN`` has one
named alternative per lexical rule of GRAMMAR.md, and a last one that takes
any other character so that it can be reported. An identifier starts with a
letter or ``_`` and goes on with letters, digits or ``_`` (Unicode ones
included, as ``str.isalnum`` counts them); a number has ASCII digits only.
Keywords are case-sensitive.

Two rules depend on the tokens before, so they are code, not pattern. A ``-``
directly followed by a digit lexes as part of a number literal when it sits in
literal position (start of input, or after an operator, an opening bracket, a
comma, a colon, a semicolon, or a keyword); anywhere else it is the binary
minus operator. And after ``MAP RELATION name :`` or ``MAP MODULE name :`` the
next token is the mapping target, lexed either as an ordinary quoted string or
as a bare URI word (maximal run of characters that are neither whitespace nor
``;``), so that targets like ``module1.jsp`` or ``http://host:8080/path?x=1``
survive as one token.
"""

from __future__ import annotations

import math
import re
from enum import Enum

from .ast import STATEMENTS, Node
from .errors import LexError
from .values import NUMBER

# the declarations', the statements' (INSERT has none: a relation's name
# starts it) and the boolean operators'
KEYWORDS = frozenset(["RELATION", "TRIGGER", "ENDPOINT", "TIMER", "RULE", "MODULE", "MAP",
                      *STATEMENTS.keys() - {"INSERT"}, "AND", "OR", "NOT"])

STRING_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}

# A string always matches from its opening quote; ``close`` is unset when the
# literal runs into a newline, the end of input, or a backslash before either.
_TOKEN = re.compile(
    rf"""
      (?P<blank>[ \t\r\n]+|\#[^\n]*)
    | (?P<string>"(?P<body>(?:[^"\\\n]|\\.)*)(?P<close>")?)
    | (?P<number>{NUMBER.pattern})
    | (?P<word>\w+)
    | (?P<op><=|>=|==|!=|[<>+\-*/])
    | (?P<punct>[(){{}}\[\],:.;])
    | (?P<illegal>.)
    """,
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\(.)")
_URI_WORD = re.compile(r"[^ \t\r\n;]*")


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    URI = "uri"
    OP = "op"
    PUNCT = "punct"
    EOF = "eof"


class Token(Node):
    # value: keyword/op/punct text, identifier, str payload, or float
    FIELDS = (("kind", TokenKind), ("value", object), ("line", int), ("column", int))

    def __repr__(self) -> str:
        return f"Token({self.kind.value} {self.value!r} @{self.line}:{self.column})"


def _in_literal_position(tokens: list[Token]) -> bool:
    if not tokens:
        return True
    prev = tokens[-1]
    if prev.kind in (TokenKind.OP, TokenKind.KEYWORD):
        return True
    return prev.kind is TokenKind.PUNCT and prev.value in "([{,:;"


def _expecting_map_target(tokens: list[Token]) -> bool:
    if len(tokens) < 4 or tokens[-1].value != ":":
        return False
    t4, t3, t2, t1 = tokens[-4:]
    return (
        t1.kind is TokenKind.PUNCT
        and t2.kind is TokenKind.IDENT
        and t3.kind is TokenKind.KEYWORD
        and t3.value in ("RELATION", "MODULE")
        and t4.kind is TokenKind.KEYWORD
        and t4.value == "MAP"
    )


def _string_value(match: re.Match[str], source: str, line: int, column: int) -> str:
    """The decoded payload of a string match, or the LexError it earns."""
    body = match["body"]
    for escape in _ESCAPE.finditer(body):
        if escape[1] not in STRING_ESCAPES:
            raise LexError(f"unknown escape '\\{escape[1]}'", line, column + 1 + escape.start())
    if match["close"] is None:
        if source.startswith("\\\n", match.end()):
            raise LexError("unknown escape '\\\n'", line, column + 1 + len(body))
        raise LexError("unterminated text literal", line, column)
    return _ESCAPE.sub(lambda escape: STRING_ESCAPES[escape[1]], body)


def tokenize(source: str) -> list[Token]:
    """Tokenize source text; raises LexError with position on bad input."""
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(source):
        match = _TOKEN.match(source, pos)
        group, text, end = match.lastgroup, match[0], match.end()  # type: ignore[union-attr]
        if group == "blank":
            if "\n" in text:
                line += text.count("\n")
                line_start = pos + text.rindex("\n") + 1
            pos = end
            continue
        column = pos - line_start + 1
        value: object = text
        if group != "string" and _expecting_map_target(tokens):
            uri = _URI_WORD.match(source, pos)[0]  # type: ignore[index]
            kind, value, end = TokenKind.URI, uri, pos + len(uri)
        elif group == "string":
            value = _string_value(match, source, line, column)  # type: ignore[arg-type]
            kind = TokenKind.STRING
        elif group == "number" and text[0] == "-" and not _in_literal_position(tokens):
            kind, value, end = TokenKind.OP, "-", pos + 1
        elif group == "number":
            number = float(text)
            if not math.isfinite(number):
                raise LexError("number literal out of range", line, column)
            kind, value = TokenKind.NUMBER, number
        elif group == "word" and (text[0].isalpha() or text[0] == "_"):
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        elif group in ("op", "punct"):
            kind = TokenKind(group)
        else:
            raise LexError(f"illegal character {text[0]!r}", line, column)
        tokens.append(Token(kind, value, line, column))
        pos = end
    return tokens
