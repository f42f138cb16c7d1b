"""Structured exception taxonomy for the whole repository.

Every error the system raises on purpose descends from :class:`ReproError`
and carries a ``stage`` tag naming the pipeline stage it belongs to
(Fig. 1.1's write → store → retrieve → decode loop).  This gives callers —
the CLI, the resilient retrieval loop in :mod:`repro.pipeline.storage`,
and the chaos harness — one root to catch and a machine-readable stage to
report, replacing the ad-hoc ``ValueError``/``RuntimeError`` mix the seed
code used.

Back-compatibility: subclasses multiply inherit from the builtin the old
code raised (``ValueError`` for validation, ``RuntimeError`` for runtime
failures), so existing ``except ValueError`` call sites keep working.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of the repository's exception taxonomy.

    Attributes:
        stage: the pipeline stage the error is tagged with (class-level;
            subclasses override).
    """

    stage: str = "general"

    def tagged(self) -> str:
        """The message prefixed with its stage tag (CLI display form)."""
        return f"[{self.stage}] {self}"


class ConfigError(ReproError, ValueError):
    """Invalid configuration or arguments (bad RS geometry, negative
    rates, unknown reconstructor names, ...)."""

    stage = "config"


class DataFormatError(ReproError, ValueError):
    """A dataset file could not be parsed (malformed evyat input,
    invalid bases, duplicate cluster headers).  Messages include the file
    name and line number."""

    stage = "data"


class EncodeError(ReproError, ValueError):
    """The write path rejected input (duplicate key, empty file,
    payload/index out of range)."""

    stage = "encode"


class ChannelFaultError(ReproError):
    """A fault-injection layer was asked to do something impossible
    (e.g. corrupt an empty pool with a per-cluster budget)."""

    stage = "channel"


class DecodeError(ReproError):
    """The read path could not turn reads back into bytes (codec
    rejection, CRC mismatch, Reed-Solomon budget exceeded)."""

    stage = "decode"


class RetrievalError(DecodeError, RuntimeError):
    """A whole-file retrieval failed even after any configured retries.

    :class:`repro.pipeline.storage.ArchiveError` is the concrete
    archive-level subclass.
    """

    stage = "retrieve"
