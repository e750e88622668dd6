"""liot: a small declarative language and HTTP runtime for sensor data.

Programs declare timestamped relations with bounded history windows, triggers
that post-process every inserted record, HTTP-exposed endpoints, millisecond
timers, production rules over windowed values, and external modules reached by
HTTP GET. The engine serializes all work through one event loop, so identical
inputs always produce identical firing logs.

Each public name is imported from its submodule on first use (PEP 562).
"""

from importlib import import_module

# each submodule -> the public names it defines
_SOURCES = {
    "ast": ("Program",),
    "engine": ("Engine", "EndpointCall", "ExternalInsert", "Firing", "TimerTick", "naive_oracle"),
    "errors": ("LiotError",),
    "formatter": ("format_expression", "format_program"),
    "lexer": ("tokenize",),
    "parser": ("parse_expression", "parse_program"),
    "store": ("Record", "Store"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this function
    return value
