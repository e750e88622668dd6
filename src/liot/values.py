"""The scalar value model shared by records, expressions and wire payloads.

A value is one of four Python shapes:

    text    -> str
    number  -> float (one numeric type; integers are exact up to 2**53)
    boolean -> bool
    null    -> None

Numbers are always finite; NaN and infinities are rejected wherever a value
enters the system. ``bool`` is checked before ``float`` everywhere because the
two types never mix: ``true`` and ``1`` are different values.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from math import isfinite

from .errors import ScalarError

Value = str | float | bool | None

# Largest integer a 64-bit float represents exactly.
EXACT_INT_LIMIT = 2**53

# GRAMMAR.md's NUMBER: the text of a number in source, in a query string and
# in every GET this program sends.
NUMBER = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")


def ensure_value(raw: object) -> Value:
    """Normalize a raw scalar into a Value, rejecting anything else."""
    kind = type(raw)
    if kind is float and isfinite(raw):  # the common case, first
        return raw
    if kind is not int:  # a JSON integer goes straight to float() below
        if isinstance(raw, str):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:  # a lone surrogate: no log or wire form
                    raise ScalarError(f"text with no UTF-8 form rejected: {raw!r}") from None
            return raw
        if raw is None or isinstance(raw, bool):
            return raw
        if not isinstance(raw, (int, float)):
            raise ScalarError(f"not a scalar value: {kind.__name__}")
    try:
        number = float(raw)
    except OverflowError as exc:  # an integer beyond the float range
        raise ScalarError(str(exc)) from None
    if not isfinite(number):
        raise ScalarError(f"non-finite number rejected: {raw!r}")
    return number


def type_name(value: Value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, float):
        return "number"
    return "text"


def value_to_json(value: Value) -> object:
    """Canonical JSON shape: integral numbers serialize without a fraction."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if value.is_integer() and abs(value) <= EXACT_INT_LIMIT:
        return int(value)
    return value


def value_from_json(raw: object) -> Value:
    """Inverse of value_to_json for persistence replay and module responses."""
    if raw is None or isinstance(raw, (str, bool)):
        return raw
    if isinstance(raw, (int, float)):
        return ensure_value(raw)
    raise ScalarError(f"not a scalar JSON value: {raw!r}")


def format_number(value: float) -> str:
    """The one text form of a number: NUMBER's digits, never an exponent."""
    if value.is_integer():
        return str(int(value))
    text = repr(value)
    if "e" in text:
        text = format(Decimal(text), "f")
    return text


def value_to_param(value: Value) -> str:
    """Render a value as query-parameter text (forwards, webhooks, module calls)."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    return value


def parse_query_value(text: str) -> Value:
    """Typing rule for inbound query parameters.

    Fully numeric text becomes a number, the exact words true/false become
    booleans, everything else stays text.
    """
    if text == "true":
        return True
    if text == "false":
        return False
    if NUMBER.fullmatch(text):
        return ensure_value(float(text))
    return text


def dump_json(obj: object) -> str:
    """The one JSON serialization used on every wire surface (bit-stable)."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"), allow_nan=False)
