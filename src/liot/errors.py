"""Exception hierarchy shared by the parser, store, evaluator and engine."""

from __future__ import annotations


class LiotError(Exception):
    """Base class for every error this package raises on purpose."""


class SourceError(LiotError):
    """A diagnostic tied to a position in source text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.line}:{self.column}: {self.message}"


class LexError(SourceError):
    """Illegal character, unterminated string, malformed number."""


class ParseError(SourceError):
    """Token stream does not match the grammar."""


class SemanticError(SourceError):
    """Grammatically valid program that violates a declaration rule."""


class EngineRuntimeError(LiotError):
    """Base for errors raised while executing statements or conditions."""


class EvalTypeError(EngineRuntimeError):
    """Operator applied to operands of the wrong type."""


class DivisionByZeroError(EngineRuntimeError):
    pass


class HistoryUnavailableError(EngineRuntimeError):
    """A field reference reaches past the records currently in the window."""


class UnknownRelationError(EngineRuntimeError):
    pass


class UnknownNameError(EngineRuntimeError):
    """A scope reference that no binding satisfies at run time."""


class ArityError(EngineRuntimeError):
    """Value count does not match the relation's declared field count."""


class ScalarError(EngineRuntimeError):
    """A scalar rejected at a boundary (non-finite number, wrong shape)."""


class CascadeLimitError(EngineRuntimeError):
    """Insert propagation exceeded the configured nesting limit."""


class ModuleCallError(EngineRuntimeError):
    """Synchronous module call failed; `kind` names the failure class."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind  # "timeout" | "http-status" | "malformed-body" | "missing-output"


class ReplayError(LiotError):
    """Persistence log could not be replayed; carries the offending line."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class ConfigError(LiotError):
    pass
