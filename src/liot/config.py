"""Runtime configuration and the flat key-value config file format.

The file is one ``key = value`` pair per line, ``#`` starts a comment.
A flag sets the config key of the same name, over the file. Recognized keys:

    host, port, window, window.<RELATION>, cascade, call_timeout_ms,
    queue, log, webhook.<RELATION>, base_url
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError

DEFAULT_CASCADE_LIMIT = 64
DEFAULT_CALL_TIMEOUT_MS = 5000
DEFAULT_WINDOW = 1024


class EngineConfig:
    __slots__ = ("window_default", "window_overrides", "cascade_limit", "call_timeout_ms",
                 "queue_size", "log_path", "webhooks", "base_url")

    def __init__(self, window_default: int = DEFAULT_WINDOW,
                 window_overrides: dict[str, int] | None = None,
                 cascade_limit: int = DEFAULT_CASCADE_LIMIT,
                 call_timeout_ms: int = DEFAULT_CALL_TIMEOUT_MS, queue_size: int = 1024,
                 log_path: str | None = None, webhooks: dict[str, str] | None = None,
                 base_url: str | None = None):
        self.window_default = window_default
        self.window_overrides = {} if window_overrides is None else window_overrides
        self.cascade_limit = cascade_limit
        self.call_timeout_ms = call_timeout_ms
        self.queue_size = queue_size
        self.log_path = log_path
        self.webhooks = {} if webhooks is None else webhooks
        self.base_url = base_url

    def validate(self) -> None:
        for label, value in [
            ("window", self.window_default),
            ("cascade", self.cascade_limit),
            ("call_timeout_ms", self.call_timeout_ms),
            ("queue", self.queue_size),
        ]:
            if value < 1:
                raise ConfigError(f"{label} must be positive, got {value}")
        for name, size in self.window_overrides.items():
            if size < 1:
                raise ConfigError(f"window.{name} must be positive, got {size}")


class RunConfig(EngineConfig):
    __slots__ = ("host", "port")

    def __init__(self, host: str = "127.0.0.1", port: int = 8080, **engine):
        super().__init__(**engine)
        self.host = host
        self.port = port


def read_config_file(path: str | Path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for line_number, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_number}: expected key = value")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def _int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from None


# each plain key -> the attribute it sets, and whether its value is an integer
_KEYS = {"host": ("host", False), "port": ("port", True), "window": ("window_default", True),
         "cascade": ("cascade_limit", True), "call_timeout_ms": ("call_timeout_ms", True),
         "queue": ("queue_size", True), "log": ("log_path", False), "base_url": ("base_url", False)}


def apply_config_pairs(config: RunConfig, pairs: dict[str, str]) -> None:
    """Sets each key's value, then checks the whole config (``validate``)."""
    for key, value in pairs.items():
        if key.startswith("window."):
            config.window_overrides[key.split(".", 1)[1]] = _int(key, value)
        elif key.startswith("webhook."):
            config.webhooks[key.split(".", 1)[1]] = value
        elif key in _KEYS:
            name, integer = _KEYS[key]
            setattr(config, name, _int(key, value) if integer else value)
            if key == "port" and not 0 <= config.port <= 65535:  # 0 picks a free port
                raise ConfigError(f"port must be in 0..65535, got {config.port}")
        else:
            raise ConfigError(f"unknown config key {key!r}")
    config.validate()
