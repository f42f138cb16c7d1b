"""Structured key=value / JSON logging.

Every deliberate event in the pipeline — a malformed environment
variable, a failed retrieval attempt, an injected fault — goes through
a :class:`StructuredLogger` so it is greppable
(``event=invalid_shards_env value=...``) and machine-parseable
(``--log-json``).  This replaces the seed code's silent failure paths:
nothing is ever swallowed without at least a structured record at an
appropriate level.

The logger is self-contained (no ``logging`` module handler plumbing):
one process-wide level, one output stream (resolved at emit time so
test harnesses that swap ``sys.stderr`` capture records), and loggers
cached by name.  Default level is ``warning`` — normal runs stay silent
unless something noteworthy happens; ``--log-level info``/``debug`` (or
``REPRO_LOG_LEVEL``) opens up the lifecycle events.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import IO

#: Level names in severity order.
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: Environment variables consulted for the initial configuration.
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"
LOG_JSON_ENV = "REPRO_LOG_JSON"


class _LogConfig:
    __slots__ = ("level", "json_mode", "stream")

    def __init__(self) -> None:
        self.level = LEVELS.get(
            os.environ.get(LOG_LEVEL_ENV, "warning").lower(), LEVELS["warning"]
        )
        self.json_mode = os.environ.get(LOG_JSON_ENV, "").lower() in {
            "1",
            "true",
            "yes",
            "on",
        }
        self.stream: IO[str] | None = None  # None -> sys.stderr at emit time


_CONFIG = _LogConfig()
_LOGGERS: dict[str, "StructuredLogger"] = {}


def configure_logging(
    level: str | int | None = None,
    json_mode: bool | None = None,
    stream: IO[str] | None = None,
) -> None:
    """Update the process-wide logging configuration.

    Args:
        level: a name from :data:`LEVELS` or a numeric threshold; records
            below it are dropped.
        json_mode: True for one JSON object per record, False for
            ``key=value`` text.
        stream: output stream; ``None`` keeps the current one (the
            default resolves ``sys.stderr`` at emit time).

    Raises:
        ValueError: for an unknown level name.
    """
    if level is not None:
        if isinstance(level, str):
            try:
                _CONFIG.level = LEVELS[level.lower()]
            except KeyError:
                raise ValueError(
                    f"unknown log level {level!r}; choose from {sorted(LEVELS)}"
                ) from None
        else:
            _CONFIG.level = int(level)
    if json_mode is not None:
        _CONFIG.json_mode = json_mode
    if stream is not None:
        _CONFIG.stream = stream


def reset_logging() -> None:
    """Restore the environment-derived defaults (used by tests)."""
    global _CONFIG
    _CONFIG = _LogConfig()


def log_level() -> int:
    """The current numeric threshold."""
    return _CONFIG.level


def _format_value(value: object) -> str:
    text = str(value)
    if text == "" or any(ch in text for ch in (" ", "=", '"')):
        return json.dumps(text)
    return text


class StructuredLogger:
    """Emits structured records for one named subsystem."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def log(self, level: str, event: str, **fields: object) -> None:
        if LEVELS[level] < _CONFIG.level:
            return
        stream = _CONFIG.stream if _CONFIG.stream is not None else sys.stderr
        if _CONFIG.json_mode:
            record = {
                "ts": round(time.time(), 3),
                "level": level,
                "logger": self.name,
                "event": event,
            }
            record.update({key: _jsonable(value) for key, value in fields.items()})
            line = json.dumps(record)
        else:
            parts = [f"level={level}", f"logger={self.name}", f"event={event}"]
            parts.extend(
                f"{key}={_format_value(value)}" for key, value in fields.items()
            )
            line = " ".join(parts)
        try:
            print(line, file=stream)
        except (OSError, ValueError):
            pass  # a closed stderr must never take the pipeline down

    def debug(self, event: str, **fields: object) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields: object) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields: object) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields: object) -> None:
        self.log("error", event, **fields)


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def get_logger(name: str) -> StructuredLogger:
    """The cached :class:`StructuredLogger` for a dotted subsystem name."""
    logger = _LOGGERS.get(name)
    if logger is None:
        logger = _LOGGERS[name] = StructuredLogger(name)
    return logger
