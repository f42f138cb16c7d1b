"""The declarative scenario DSL: sweep specs and their expansion.

A :class:`SweepSpec` names a scenario *matrix*: the cross product of
six axes — channel preset × mean coverage × reconstructor ×
fault severity × shard layout × worker layout — plus the spec-level scale knobs every cell shares
(clusters, strand length, seed, profiling copies).  Expansion is a pure
function: the same spec always yields the same
:class:`ScenarioCell` tuple, in the same execution order, with the same
per-cell content digests.  That is what lets the orchestrator treat a
half-finished sweep directory as a cache: a recorded cell is reused only
when the digest recomputed from the *current* spec matches the one
stored with the result.

Specs come from TOML files (:func:`load_sweep_spec`) or are built in
code; both paths run the same validation.  TOML errors follow the CLI's
``[config]`` idiom and carry ``file:line`` positions with did-you-mean
hints, because a sweep spec is exactly the kind of file where a typo'd
axis name would otherwise silently shrink the matrix::

    sweep.toml:12: unknown key 'coverges' in [axes]; did you mean 'coverage'?
"""

from __future__ import annotations

import itertools
import random
import re
import tomllib
from dataclasses import dataclass, field
from difflib import get_close_matches
from pathlib import Path

from repro.data.nanopore import (
    PAPER_MEAN_COVERAGE,
    NanoporeParameters,
    nanopore_parameters,
)
from repro.exceptions import ConfigError
from repro.experiments.common import DATASET_SEED
from repro.observability.bench import content_digest
from repro.reconstruct import RECONSTRUCTORS
from repro.robustness.faults import SEVERITY_LEVELS

#: The matrix axes, in canonical (expansion) order.  Cell indices are
#: positions in the lexicographic cross product over exactly this order,
#: so reordering this tuple is a format change.
AXES = (
    "channel",
    "coverage",
    "algorithm",
    "severity",
    "shards",
    "workers",
)

#: Axes earlier versions accepted.  Naming one is a ``[config]`` error
#: rather than a did-you-mean hint: the alignment and channel paths are
#: chosen from the input shape, and every former value gave the same
#: bytes.
RETIRED_AXES = ("align_backend", "channel_backend")

#: Single-value defaults for axes a spec leaves out: a spec that only
#: names ``coverage`` still expands to a well-formed matrix.
AXIS_DEFAULTS: dict[str, tuple] = {
    "channel": ("paper",),
    "coverage": (PAPER_MEAN_COVERAGE,),
    "algorithm": ("majority",),
    "severity": ("none",),
    "shards": (1,),
    "workers": (1,),
}

#: Execution orders :class:`SweepSpec.order` accepts.  ``shuffled``
#: visits cells in a seed-deterministic random order (long axes first
#: would otherwise serialise the slow cells); indices and results are
#: identical either way.
ORDERS = ("lexicographic", "shuffled")

#: Keys of the ``[sweep]`` table (TOML name -> attribute).
_SWEEP_KEYS = {
    "name": "name",
    "seed": "seed",
    "clusters": "n_clusters",
    "strand_length": "strand_length",
    "max_copies": "max_copies",
    "order": "order",
}

#: The built-in channel preset: the paper-calibrated defaults of
#: :class:`repro.data.NanoporeParameters`, with no overrides.
DEFAULT_CHANNEL = "paper"

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class _Source:
    """Line lookup over the raw TOML text (tomllib reports no positions)."""

    def __init__(self, text: str, name: str) -> None:
        self.name = name
        self.lines = text.splitlines()

    def _table_line(self, table: str) -> int | None:
        pattern = re.compile(
            r"^\s*\[\s*" + re.escape(table).replace("\\.", r"\s*\.\s*") + r"\s*\]"
        )
        for number, line in enumerate(self.lines, start=1):
            if pattern.match(line):
                return number
        return None

    def _key_line(self, table: str | None, key: str) -> int | None:
        start = 0
        if table is not None:
            table_line = self._table_line(table)
            if table_line is None:
                return None
            start = table_line
        pattern = re.compile(
            r"^\s*(['\"]?)" + re.escape(str(key)) + r"\1\s*="
        )
        for number, line in enumerate(
            self.lines[start:], start=start + 1
        ):
            if table is not None and re.match(r"^\s*\[", line):
                break
            if pattern.match(line):
                return number
        return None

    def error(
        self, message: str, table: str | None = None, key: str | None = None
    ) -> ConfigError:
        """A ``ConfigError`` prefixed ``file:line:`` (best-effort line)."""
        line = None
        if key is not None:
            line = self._key_line(table, key)
        if line is None and table is not None:
            line = self._table_line(table)
        position = f"{self.name}:{line or 1}"
        return ConfigError(f"{position}: {message}")


def _plain_error(
    message: str, table: str | None = None, key: str | None = None
) -> ConfigError:
    where = f" in [{table}]" if table else ""
    return ConfigError(f"{message}{where}")


def _suggest(word: str, candidates) -> str:
    hit = get_close_matches(str(word), [str(c) for c in candidates], n=1)
    return f"; did you mean {hit[0]!r}?" if hit else ""


@dataclass(frozen=True)
class ScenarioCell:
    """One fully-resolved point of the scenario matrix.

    Self-contained: a cell carries both its axis values and the
    spec-level scale parameters, so running it and
    :meth:`digest` need nothing but the cell.  ``index`` is the cell's
    position in the lexicographic cross product — stable across
    execution orders, which is what keys a resumed sweep back onto its
    records.
    """

    index: int
    sweep: str
    channel: str
    coverage: float
    algorithm: str
    severity: str
    shards: int
    workers: int
    seed: int
    n_clusters: int
    strand_length: int | None
    max_copies: int | None
    #: Sorted ``(field, value)`` overrides of the channel preset
    #: (empty for the built-in ``paper`` channel).
    channel_parameters: tuple[tuple[str, float], ...] = ()

    def scenario(self) -> dict:
        """The cell's axis values only (the matrix coordinates)."""
        return {axis: getattr(self, axis) for axis in AXES}

    def config(self) -> dict:
        """The complete resolved configuration (what the digest covers)."""
        return {
            "sweep": self.sweep,
            **self.scenario(),
            "seed": self.seed,
            "n_clusters": self.n_clusters,
            "strand_length": self.strand_length,
            "max_copies": self.max_copies,
            "channel_parameters": dict(self.channel_parameters),
        }

    def digest(self) -> str:
        """Content digest of :meth:`config` (the cache/provenance key)."""
        return content_digest(self.config())

    @property
    def cell_id(self) -> str:
        """Path-safe record name, unique within a sweep."""
        return (
            f"cell-{self.index:03d}-{self.channel}-{self.algorithm}"
            f"-{self.digest()[:8]}"
        )

    def parameters(self) -> NanoporeParameters | None:
        """The cell's channel parameters (``None`` = paper defaults)."""
        return nanopore_parameters(dict(self.channel_parameters))


@dataclass
class SweepSpec:
    """A named scenario matrix (the parsed form of a sweep TOML file).

    Equality is structural, and :func:`parse_sweep_spec` ∘
    :meth:`to_toml` is the identity — the round-trip property the DSL
    tests pin down.
    """

    name: str
    seed: int = DATASET_SEED
    n_clusters: int = 40
    strand_length: int | None = None
    max_copies: int | None = 4
    order: str = "lexicographic"
    axes: dict = field(default_factory=dict)
    channels: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        normalised = _validate(
            name=self.name,
            seed=self.seed,
            n_clusters=self.n_clusters,
            strand_length=self.strand_length,
            max_copies=self.max_copies,
            order=self.order,
            axes=self.axes,
            channels=self.channels,
            src=None,
        )
        self.axes = normalised["axes"]
        self.channels = normalised["channels"]

    # ------------------------------------------------------------- #
    # Expansion
    # ------------------------------------------------------------- #

    @property
    def n_cells(self) -> int:
        product = 1
        for axis in AXES:
            product *= len(self.axes[axis])
        return product

    def expand(self) -> tuple[ScenarioCell, ...]:
        """The matrix, as cells in execution order.

        Cell ``index`` is always the lexicographic position over
        :data:`AXES`; ``order == "shuffled"`` permutes only the
        *visit* order, deterministically from the spec seed.
        """
        cells = [
            ScenarioCell(
                index=index,
                sweep=self.name,
                seed=self.seed,
                n_clusters=self.n_clusters,
                strand_length=self.strand_length,
                max_copies=self.max_copies,
                channel_parameters=tuple(
                    sorted(self.channels.get(values["channel"], {}).items())
                ),
                **values,
            )
            for index, values in enumerate(
                dict(zip(AXES, combo))
                for combo in itertools.product(
                    *(self.axes[axis] for axis in AXES)
                )
            )
        ]
        if self.order == "shuffled":
            random.Random(self.seed).shuffle(cells)
        return tuple(cells)

    @classmethod
    def from_cells(
        cls, cells, order: str = "lexicographic"
    ) -> "SweepSpec":
        """Reconstruct the spec an expanded matrix came from.

        The inverse of :meth:`expand` for complete matrices: per-axis
        values are recovered in first-seen lexicographic order, channel
        presets from the cells' parameters.  Used by the round-trip
        property tests and by tooling that regenerates a spec from a
        results store.
        """
        ordered = sorted(cells, key=lambda cell: cell.index)
        if not ordered:
            raise ConfigError("cannot rebuild a sweep spec from zero cells")
        axes: dict[str, list] = {axis: [] for axis in AXES}
        channels: dict[str, dict] = {}
        for cell in ordered:
            for axis in AXES:
                value = getattr(cell, axis)
                if value not in axes[axis]:
                    axes[axis].append(value)
            if cell.channel_parameters:
                channels[cell.channel] = dict(cell.channel_parameters)
        first = ordered[0]
        return cls(
            name=first.sweep,
            seed=first.seed,
            n_clusters=first.n_clusters,
            strand_length=first.strand_length,
            max_copies=first.max_copies,
            order=order,
            axes={axis: tuple(values) for axis, values in axes.items()},
            channels=channels,
        )

    # ------------------------------------------------------------- #
    # Serialisation
    # ------------------------------------------------------------- #

    def digest(self) -> str:
        """Content digest of the canonical JSON form."""
        return content_digest(self.to_json())

    def to_json(self) -> dict:
        """JSON form (what the sweep manifest embeds)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "n_clusters": self.n_clusters,
            "strand_length": self.strand_length,
            "max_copies": self.max_copies,
            "order": self.order,
            "axes": {axis: list(self.axes[axis]) for axis in AXES},
            "channels": {
                name: dict(parameters)
                for name, parameters in sorted(self.channels.items())
            },
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SweepSpec":
        known = {
            "name",
            "seed",
            "n_clusters",
            "strand_length",
            "max_copies",
            "order",
            "axes",
            "channels",
        }
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                f"sweep spec JSON has unknown fields {sorted(unknown)}"
            )
        return cls(**payload)

    def to_toml(self) -> str:
        """The canonical TOML rendering (parses back to an equal spec)."""

        def literal(value) -> str:
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, (int, float)):
                return repr(value)
            return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = ["[sweep]", f"name = {literal(self.name)}"]
        lines.append(f"seed = {literal(self.seed)}")
        lines.append(f"clusters = {literal(self.n_clusters)}")
        if self.strand_length is not None:
            lines.append(f"strand_length = {literal(self.strand_length)}")
        if self.max_copies is not None:
            lines.append(f"max_copies = {literal(self.max_copies)}")
        lines.append(f"order = {literal(self.order)}")
        lines.append("")
        lines.append("[axes]")
        for axis in AXES:
            values = ", ".join(literal(value) for value in self.axes[axis])
            lines.append(f"{axis} = [{values}]")
        for name in sorted(self.channels):
            lines.append("")
            lines.append(f"[channels.{name}]")
            for parameter, value in sorted(self.channels[name].items()):
                lines.append(f"{parameter} = {literal(value)}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- #
# Validation (shared by the TOML and programmatic paths)
# ----------------------------------------------------------------- #


def _error(src: _Source | None, message, table=None, key=None) -> ConfigError:
    if src is not None:
        return src.error(message, table=table, key=key)
    return _plain_error(message, table=table, key=key)


def _check_int(value, minimum, what, src, table, key) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _error(src, f"{what} must be an integer, got {value!r}", table, key)
    if value < minimum:
        raise _error(src, f"{what} must be >= {minimum}, got {value}", table, key)
    return value


def _validate(
    name,
    seed,
    n_clusters,
    strand_length,
    max_copies,
    order,
    axes,
    channels,
    src: _Source | None,
) -> dict:
    """Validate + normalise a spec's fields; returns normalised axes/channels.

    Raises:
        ConfigError: with ``file:line`` positions when ``src`` is given.
    """
    if not isinstance(name, str) or not _NAME_RE.match(name or ""):
        raise _error(
            src,
            f"sweep name must match {_NAME_RE.pattern}, got {name!r}",
            "sweep",
            "name",
        )
    _check_int(seed, 0, "seed", src, "sweep", "seed")
    _check_int(n_clusters, 1, "clusters", src, "sweep", "clusters")
    if strand_length is not None:
        _check_int(strand_length, 1, "strand_length", src, "sweep", "strand_length")
    if max_copies is not None:
        _check_int(max_copies, 1, "max_copies", src, "sweep", "max_copies")
    if order not in ORDERS:
        raise _error(
            src,
            f"unknown order {order!r}{_suggest(order, ORDERS)} "
            f"(choose from {list(ORDERS)})",
            "sweep",
            "order",
        )

    if not isinstance(axes, dict):
        raise _error(src, f"axes must be a table, got {type(axes).__name__}", "axes")
    for axis in axes:
        if axis in RETIRED_AXES:
            raise _error(
                src,
                f"axis {axis!r} was removed: the alignment and channel "
                "paths are chosen from the input shape; delete it",
                "axes",
                axis,
            )
        if axis not in AXES:
            raise _error(
                src,
                f"unknown key {axis!r} in [axes]{_suggest(axis, AXES)}",
                "axes",
                axis,
            )
    if not isinstance(channels, dict):
        raise _error(
            src, f"channels must be a table, got {type(channels).__name__}", "channels"
        )

    normalised_channels: dict[str, dict] = {}
    for channel_name, overrides in channels.items():
        table = f"channels.{channel_name}"
        if channel_name == DEFAULT_CHANNEL:
            raise _error(
                src,
                f"channel preset {DEFAULT_CHANNEL!r} is built in (the "
                "paper-calibrated defaults) and cannot be redefined",
                table,
            )
        if not _NAME_RE.match(str(channel_name)):
            raise _error(
                src,
                f"channel preset name must match {_NAME_RE.pattern}, "
                f"got {channel_name!r}",
                table,
            )
        if not isinstance(overrides, dict) or not overrides:
            raise _error(
                src,
                f"channel preset {channel_name!r} must be a non-empty "
                "table of NanoporeParameters overrides",
                table,
            )
        try:
            nanopore_parameters(overrides)
        except ConfigError as error:
            bad_key = next(iter(overrides))
            for parameter in overrides:
                if str(parameter) in str(error):
                    bad_key = parameter
                    break
            raise _error(src, str(error), table, bad_key) from None
        normalised_channels[str(channel_name)] = {
            parameter: float(value) for parameter, value in overrides.items()
        }

    normalised_axes: dict[str, tuple] = {}
    for axis in AXES:
        raw = axes.get(axis, AXIS_DEFAULTS[axis])
        if not isinstance(raw, (list, tuple)):
            raw = [raw]
        if not raw:
            raise _error(src, f"axis {axis!r} must not be empty", "axes", axis)
        values = [
            _axis_value(axis, value, normalised_channels, src) for value in raw
        ]
        seen = set()
        for value in values:
            if value in seen:
                raise _error(
                    src,
                    f"duplicate value {value!r} in axis {axis!r} would "
                    "expand to duplicate scenario cells",
                    "axes",
                    axis,
                )
            seen.add(value)
        normalised_axes[axis] = tuple(values)

    for channel_name in normalised_channels:
        if channel_name not in normalised_axes["channel"]:
            raise _error(
                src,
                f"channel preset {channel_name!r} is defined but never "
                "referenced by axes.channel",
                f"channels.{channel_name}",
            )

    return {"axes": normalised_axes, "channels": normalised_channels}


def _axis_value(axis, value, channels: dict, src: _Source | None):
    """Validate + normalise one axis entry."""
    if axis == "channel":
        if not isinstance(value, str) or not _NAME_RE.match(value):
            raise _error(
                src, f"channel names must be strings, got {value!r}", "axes", axis
            )
        if value != DEFAULT_CHANNEL and value not in channels:
            known = (DEFAULT_CHANNEL, *channels)
            raise _error(
                src,
                f"unknown channel {value!r}{_suggest(value, known)} "
                f"(define it as [channels.{value}] or use one of "
                f"{list(known)})",
                "axes",
                axis,
            )
        return value
    if axis == "coverage":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _error(
                src, f"coverage values must be numbers, got {value!r}", "axes", axis
            )
        if value <= 0:
            raise _error(
                src, f"coverage values must be > 0, got {value!r}", "axes", axis
            )
        return float(value)
    if axis == "algorithm":
        if value not in RECONSTRUCTORS:
            raise _error(
                src,
                f"unknown algorithm {value!r}"
                f"{_suggest(value, RECONSTRUCTORS)} "
                f"(choose from {sorted(RECONSTRUCTORS)})",
                "axes",
                axis,
            )
        return value
    if axis == "severity":
        if value not in SEVERITY_LEVELS:
            raise _error(
                src,
                f"unknown severity {value!r}"
                f"{_suggest(value, SEVERITY_LEVELS)} "
                f"(choose from {sorted(SEVERITY_LEVELS)})",
                "axes",
                axis,
            )
        return value
    # shards / workers
    return _check_int(value, 1, f"{axis} values", src, "axes", axis)


# ----------------------------------------------------------------- #
# TOML loading
# ----------------------------------------------------------------- #


def parse_sweep_spec(text: str, source: str = "<sweep>") -> SweepSpec:
    """Parse TOML text into a validated :class:`SweepSpec`.

    Raises:
        ConfigError: invalid TOML, unknown keys (with did-you-mean
            hints), or invalid values — all positioned ``source:line``.
    """
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise ConfigError(f"{source}: invalid TOML: {error}") from None
    src = _Source(text, source)

    for key in doc:
        if key not in ("sweep", "axes", "channels"):
            raise src.error(
                f"unknown table or key {key!r}"
                f"{_suggest(key, ('sweep', 'axes', 'channels'))}",
                key=key,
            )
    sweep_table = doc.get("sweep")
    if not isinstance(sweep_table, dict):
        raise src.error("missing required [sweep] table")
    for key in sweep_table:
        if key not in _SWEEP_KEYS:
            raise src.error(
                f"unknown key {key!r} in [sweep]"
                f"{_suggest(key, _SWEEP_KEYS)}",
                table="sweep",
                key=key,
            )
    if "name" not in sweep_table:
        raise src.error("missing required key 'name' in [sweep]", table="sweep")

    settings = {
        _SWEEP_KEYS[key]: value for key, value in sweep_table.items()
    }
    axes = doc.get("axes", {})
    channels = doc.get("channels", {})
    _validate(
        name=settings.get("name"),
        seed=settings.get("seed", DATASET_SEED),
        n_clusters=settings.get("n_clusters", 40),
        strand_length=settings.get("strand_length"),
        max_copies=settings.get("max_copies", 4),
        order=settings.get("order", "lexicographic"),
        axes=axes,
        channels=channels,
        src=src,
    )
    return SweepSpec(axes=axes, channels=channels, **settings)


def load_sweep_spec(path) -> SweepSpec:
    """Load and validate a sweep spec from a TOML file.

    Raises:
        ConfigError: unreadable file or invalid spec (``file:line``).
    """
    spec_path = Path(path)
    try:
        text = spec_path.read_text(encoding="utf-8")
    except OSError as error:
        raise ConfigError(f"cannot read sweep spec {spec_path}: {error}") from None
    return parse_sweep_spec(text, source=str(spec_path))
