"""Runtime configuration and the flat key-value config file format.

The file is one ``key = value`` pair per line, ``#`` starts a comment.
A flag sets the config key of the same name, over the file. Recognized keys:

    host, port, window, window.<RELATION>, cascade, call_timeout_ms,
    queue, log, webhook.<RELATION>, base_url
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

DEFAULT_CASCADE_LIMIT = 64
DEFAULT_CALL_TIMEOUT_MS = 5000


@dataclass
class EngineConfig:
    window_default: int = 1024
    window_overrides: dict[str, int] = field(default_factory=dict)
    cascade_limit: int = DEFAULT_CASCADE_LIMIT
    call_timeout_ms: int = DEFAULT_CALL_TIMEOUT_MS
    queue_size: int = 1024
    log_path: str | None = None
    webhooks: dict[str, str] = field(default_factory=dict)
    base_url: str | None = None

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


@dataclass
class RunConfig(EngineConfig):
    host: str = "127.0.0.1"
    port: int = 8080


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


def apply_config_pairs(config: RunConfig, pairs: dict[str, str]) -> None:
    """Sets each key's value, then checks the whole config (``validate``)."""
    for key, value in pairs.items():
        if key == "host":
            config.host = value
        elif key == "port":
            config.port = _int(key, value)
            if not 0 <= config.port <= 65535:  # 0 picks a free port
                raise ConfigError(f"port must be in 0..65535, got {config.port}")
        elif key == "window":
            config.window_default = _int(key, value)
        elif key.startswith("window."):
            config.window_overrides[key.split(".", 1)[1]] = _int(key, value)
        elif key == "cascade":
            config.cascade_limit = _int(key, value)
        elif key == "call_timeout_ms":
            config.call_timeout_ms = _int(key, value)
        elif key == "queue":
            config.queue_size = _int(key, value)
        elif key == "log":
            config.log_path = value
        elif key.startswith("webhook."):
            config.webhooks[key.split(".", 1)[1]] = value
        elif key == "base_url":
            config.base_url = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    config.validate()
