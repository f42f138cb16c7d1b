"""Vectorised channel sweep: sparse-event NumPy walk, bit-identical to
the serial transmit loop.

:class:`repro.core.channel.Channel` walks every transmitted base in a
Python loop with one ``random.Random.random()`` call per position.  That
draw order is a reproducibility contract — the same seed must keep
producing byte-identical pools — so a faster path cannot simply batch
its own randomness.  This module makes the channel fast *without
touching a single draw*:

* **Bulk uniform draws from the same stream.**  CPython's
  ``random.Random`` and NumPy's ``MT19937`` bit generator share both
  the Mersenne-Twister state layout and the 53-bit double construction
  ``((a >> 5) * 2^26 + (b >> 6)) / 2^53``.  :class:`UniformBulkSource`
  transplants the channel RNG's state into a NumPy generator, draws
  uniforms thousands at a time (identical values, identical order), and
  on close replays the exact number consumed so the Python RNG lands on
  the same state the serial loop would have left it in.  A
  per-cluster-seeded cluster owns a fresh ``random.Random(seed)``
  stream that nothing reads afterwards, so its source skips both ends:
  it seeds the NumPy generator the way ``random.seed(int)`` does
  (``init_by_array`` over the seed's 32-bit words) and writes nothing
  back on close.

* **Sparse-event fast path.**  At paper rates ~94% of positions take no
  event: the roll is simply ``>=`` the position's cumulative ladder
  total, and the reference base is copied through.  Each copy is one
  walk with two stop-finders and one event handler.  In the interior
  the finder jumps between candidate sites, which come from one
  vectorised ``rolls < t_cand`` comparison per buffer refill.  The
  paper's terminal skew puts high thresholds at both strand ends, so
  the few hottest positions there form two *hot zones* (a head zone
  and a tail zone, under one shared budget), where the finder tests
  each roll against its own position's exact threshold.  ``t_cand``
  then only bounds the flat interior, and the walk stops only where the
  serial loop takes an event (or at an interior candidate that misses
  its exact threshold).  The error-free runs between events are copied
  as whole string slices.

* **Resolved per-reference ladders.**  Each reference carries its
  per-position ladders with every rung resolved to an integer action
  and, for the events that draw again (substitution and insertion
  bases, long-deletion lengths), the precomputed cumulative draw table.
  An event costs one list index, one ``bisect`` and an integer
  dispatch; its extra draw is read inline from the buffer, and only a
  draw at the buffer end, or a burst, runs the serial loop's own event
  code.

* **Exact effective thresholds.**  The serial loop shrinks the roll at
  homopolymer positions (``roll / factor``) before comparing against
  the ladder total.  Division then comparison is not bit-equivalent to
  comparing against ``total * factor``, so the sweep precomputes, per
  (base, position), the *minimal double* ``T`` with
  ``fl(T / factor) >= total`` — making ``roll < T`` decide the event
  exactly as the serial loop does, to the last ulp.

The candidate filter is alignment-independent (``rolls < t_cand`` does
not depend on which reference position a roll lands on), so the
candidate index built per refill stays valid no matter how many extra
draws earlier events consumed — no re-vectorisation at event sites.
The walk tracks the draw-to-position alignment as one integer offset,
which the finders re-derive each time the walk enters them; events
that consume extra draws (substitutions, insertions, long deletions,
bursts) shift it, while deletions and second-order errors consume
exactly the one roll and leave it untouched.

The channel picks the path from the call's shape, with no other
selection: a serial-stream call on a plain ``random.Random`` worth at
least :data:`AUTO_MIN_DRAWS` uniform draws runs this sweep, and
anything smaller — or any RNG whose state cannot be mirrored — runs
the reference loop.  A per-cluster-seeded cluster
(``Channel.transmit_seeded``) has no transplant to amortise and always
runs the sweep.  Both paths are bit-identical, so the choice is purely
about speed.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right

import numpy as np

from repro.core.alphabet import BASES

#: A serial-stream call (``transmit_many``, ``transmit_pool``, a
#: ``bulk_window``) worth fewer uniform draws than this runs the
#: reference loop: transplanting MT19937 state into NumPy and back costs
#: ~150 µs per open/close, and the reference loop clears ~5 draws/µs —
#: the sweep only wins once the transplant amortises across a couple of
#: thousand draws (a handful of paper-length transmissions).  Seeded
#: sources have no transplant, so ``Channel.transmit_seeded`` ignores it.
AUTO_MIN_DRAWS = 2048

#: Uniform variates drawn per buffer refill.
_CHUNK = 8192

#: Draws between anchor-state captures.  ``MT19937.state`` costs ~50 µs
#: per read, so the source snapshots the generator only this often and
#: replays at most this many draws (vectorised) when closing.
_ANCHOR_SPAN = 8 * _CHUNK

#: Per strand length, at most ``max(_HOT_MIN, length // _HOT_DIVISOR)``
#: positions at the two strand ends form the hot zones, where each roll
#: meets its own exact threshold; the interior candidate filter
#: threshold only has to cover the remaining positions, keeping the
#: candidate rate near the true event rate even under heavy terminal
#: skew.
_HOT_MIN = 8
_HOT_DIVISOR = 8

#: Reusable ``MT19937`` bit generators.  Constructing one runs ~130 µs
#: of SeedSequence entropy mixing — pure waste here, since the state is
#: overwritten by the transplant or the seeding — so sources borrow
#: from this pool on open and return on close.  Bounded: concurrent
#: sources beyond the cap simply construct (and drop) their own.
_MT_FREELIST: list = []
_MT_FREELIST_CAP = 16


def _borrow_mt():
    try:
        return _MT_FREELIST.pop()
    except IndexError:
        return np.random.MT19937(0)


def channel_backend() -> str:
    """Always ``"auto"``: the channel picks its path from the call's
    shape, and there is no other selection.  Kept so run records that
    note the backend stay comparable across versions."""
    return "auto"


def rng_supports_bulk(rng) -> bool:
    """True if ``rng``'s uniform stream can be mirrored bit-exactly.

    Only plain ``random.Random`` instances qualify: the bulk source
    mirrors the version-3 Mersenne-Twister state, and a subclass may
    override ``random()`` or carry extra state the transplant cannot
    see.  Incompatible RNGs run the reference loop — the
    outputs are bit-identical either way, so this is a speed decision,
    not a correctness one.
    """
    return type(rng) is random.Random


# ------------------------------------------------------------------ #
# Bulk uniform source (shared draw stream, chunked)
# ------------------------------------------------------------------ #


class UniformBulkSource:
    """Drains a ``random.Random``'s uniform stream in vectorised chunks.

    The source owns the stream between :meth:`__init__` and
    :meth:`close`: every variate the channel consumes in that window
    must come from here (``values[cursor]`` on the fast path, or
    :meth:`random` from scalar event code).  ``close()`` then advances
    the underlying Python RNG by exactly the number of variates
    consumed, so code running after the channel — coverage draws, other
    transmissions, user code — sees the same stream the serial loop
    would have left behind.

    Opened with ``seed=`` instead of an RNG, the source draws the stream
    of a fresh ``random.Random(seed)`` that nothing reads afterwards:
    no state to transplant in, and nothing for ``close()`` to write
    back.  Such a source's stream ends at ``close()``.

    The walk reads ``values`` (a memoryview: zero-copy scalar access to
    the chunk) and the paired candidate lists ``cand_idx``/``cand_val``
    (buffer indices with ``roll < t_cand``, plus their rolls, ending in
    an ``(n, 2.0)`` sentinel).  :func:`transmit_batch` keeps these in locals,
    writes ``cursor``/``cand_ptr`` back before any scalar draw it hands
    to the source and on return, and reloads them after every refill or
    scalar draw.  This is a
    deliberate hot-path contract with that walk, not a public API.
    """

    __slots__ = (
        "rng",
        "array",
        "values",
        "n",
        "cursor",
        "cand_idx",
        "cand_val",
        "cand_ptr",
        "t_cand",
        "_mt",
        "_gen",
        "_anchor_state",
        "_anchor_behind",
        "_gauss",
        "_hint_left",
        "_drawn",
    )

    def __init__(
        self,
        rng: random.Random | None = None,
        hint: int | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        self.rng = rng
        if rng is None:
            self._seed(seed)
        else:
            self._attach()
        self._drawn = False
        # Chunks are sized to the caller's expected total consumption so
        # a short transmit_many neither pays for nor replays 8k draws;
        # past the hint (events consume extras) modest tail chunks keep
        # the overdraw bounded.
        self._hint_left = hint
        self.array: np.ndarray | None = None
        self.values = memoryview(b"").cast("d")
        self.n = 0
        self.cursor = 0
        self.cand_idx: list[int] = [0]
        self.cand_val: list[float] = [2.0]
        self.cand_ptr = 0
        self.t_cand: float | None = None

    def _seed(self, seed: int) -> None:
        """Seed a borrowed NumPy bit generator exactly as
        ``random.Random(seed)`` seeds itself: ``init_by_array`` over
        ``abs(seed)``'s little-endian 32-bit words, one zero word for 0.

        The key goes to NumPy as a list, which always takes its
        ``init_by_array`` path; an int seed below 2**32 would take
        ``init_genrand`` instead, which CPython never runs for an int.
        """
        value = abs(seed)
        key = [value & 0xFFFFFFFF]
        value >>= 32
        while value:
            key.append(value & 0xFFFFFFFF)
            value >>= 32
        mt = _borrow_mt()
        mt._legacy_seeding(key)
        self._mt = mt
        self._gen = np.random.Generator(mt)
        self._gauss = None
        self._anchor_state = None
        self._anchor_behind = 0

    def _attach(self) -> None:
        """Transplant ``rng``'s Mersenne-Twister state into a borrowed
        NumPy bit generator positioned at the same stream point."""
        if self.rng is None:
            raise RuntimeError("a seeded source's stream ends at close()")
        state = self.rng.getstate()  # (3, 624 words + index, gauss_next)
        self._gauss = state[2]
        key = np.array(state[1][:624], dtype=np.uint32)
        mt = _borrow_mt()
        # The anchor is a known generator state at most ``_ANCHOR_SPAN``
        # draws behind the stream head; close() replays the difference.
        # The setter copies the dict's contents, so the dict itself
        # doubles as the anchor without a ~50 µs ``state`` read-back.
        self._anchor_state = {
            "bit_generator": "MT19937",
            "state": {"key": key, "pos": state[1][624]},
        }
        mt.state = self._anchor_state
        self._mt = mt
        self._gen = np.random.Generator(mt)
        self._anchor_behind = 0  # draws generated since the anchor

    def refill(self, t_cand: float | None = None) -> None:
        """Draw the next chunk (the previous one must be fully consumed)."""
        if self._gen is None:  # closed source: re-attach to the stream
            self._attach()
        if self.rng is not None and self._anchor_behind >= _ANCHOR_SPAN:
            self._anchor_state = self._mt.state
            self._anchor_behind = 0
        hint_left = self._hint_left
        if hint_left is None:
            size = _CHUNK
        else:
            size = min(_CHUNK, max(256, hint_left))
            self._hint_left = hint_left - size
        array = self._gen.random(size)
        self._anchor_behind += size
        self._drawn = True
        self.array = array
        self.values = memoryview(array)  # zero-copy float access
        self.n = size
        self.cursor = 0
        self.t_cand = t_cand
        self._index(array, 0, t_cand)

    def recandidate(self, t_cand: float | None) -> None:
        """Rebuild the candidate lists for a different filter threshold
        (the strand length — and so the prepared tables — changed
        mid-buffer)."""
        self.t_cand = t_cand
        if self.array is not None:
            self._index(self.array, self.cursor, t_cand)

    def _index(self, array, start: int, t_cand) -> None:
        if t_cand is not None and t_cand > 0.0:
            if start:
                hits = np.flatnonzero(array[start:] < t_cand) + start
            else:
                hits = np.flatnonzero(array < t_cand)
            idx = hits.tolist()
            val = array[hits].tolist()
        else:
            idx = []
            val = []
        idx.append(self.n)  # sentinel: walks stop at the buffer end
        val.append(2.0)
        self.cand_idx = idx
        self.cand_val = val
        self.cand_ptr = 0

    def random(self) -> float:
        """Scalar shim: the next uniform variate, exactly as
        ``rng.random()`` would have returned it.  Event code
        (:meth:`Channel._apply_event`, model draw helpers) receives the
        source in place of the RNG."""
        if self.cursor >= self.n:
            self.refill(self.t_cand)
        value = self.values[self.cursor]
        self.cursor += 1
        return value

    def close(self) -> None:
        """Advance the Python RNG past every consumed variate.

        Replays the consumed prefix from the anchor state (vectorised,
        at most :data:`_ANCHOR_SPAN` draws), then installs the
        resulting state — bit-identical to having called
        ``rng.random()`` once per consumed variate.  A seeded source has
        no RNG behind it and only returns its generator to the pool.
        """
        mt = self._mt
        if self._drawn and mt is not None and self.rng is not None:
            mt.state = self._anchor_state
            # Generated-but-unconsumed tail of the current chunk.
            overdraw = self.n - self.cursor
            consumed_behind = self._anchor_behind - overdraw
            if consumed_behind:
                np.random.Generator(mt).random(consumed_behind)
            state = mt.state["state"]
            self.rng.setstate(
                (3, tuple(state["key"].tolist()) + (int(state["pos"]),), self._gauss)
            )
        self._drawn = False
        # Return the bit generator to the pool; a later refill (unusual,
        # but allowed) re-attaches to the RNG's then-current state.
        if mt is not None and len(_MT_FREELIST) < _MT_FREELIST_CAP:
            _MT_FREELIST.append(mt)
        self._mt = None
        self._gen = None
        self._anchor_state = None
        self._anchor_behind = 0
        self.values = memoryview(b"").cast("d")
        self.array = None
        self.n = 0
        self.cursor = 0
        self.cand_idx = [0]
        self.cand_val = [2.0]
        self.cand_ptr = 0


# ------------------------------------------------------------------ #
# Precomputed threshold tables
# ------------------------------------------------------------------ #


def _masked_threshold(total: float, factor: float) -> float:
    """The minimal double ``T`` with ``fl(T / factor) >= total``.

    At a homopolymer-masked position the serial loop decides "no event"
    via ``(roll / factor) >= total`` (IEEE double division, then
    comparison).  ``fl(x / factor)`` is monotone in ``x``, so there is
    an exact cutoff ``T``: ``roll < T`` reproduces the serial decision
    bit for bit.  ``total * factor`` is within an ulp or two of ``T``;
    the ``nextafter`` walks correct the rounding.
    """
    if factor <= 0.0:
        # The serial loop replaces the roll with 2.0: an event happens
        # iff 2.0 < total (degenerate ladders only); otherwise never.
        return 1.1 if total > 2.0 else 0.0
    if total <= 0.0:
        return 0.0
    t = total * factor
    if not math.isfinite(t):
        return math.inf
    while t > 0.0 and math.nextafter(t, 0.0) / factor >= total:
        t = math.nextafter(t, 0.0)
    while t / factor < total:
        t = math.nextafter(t, math.inf)
    return t


def _cumulative_draw_table(weights: dict) -> tuple[float, list, list] | None:
    """Precompute ``_draw_from(weights, rng)`` as ``(total, cums, keys)``.

    The running sums accumulate in dict order with the same float
    additions as the reference helper.  The reference scans for the
    first ``point < cum``; ``bisect_right(cums, point)`` lands on the
    same index (first ``cum > point``) in C.  ``keys`` carries one
    trailing duplicate of the last key: the reference helper falls
    through to the last key when floating-point accumulation leaves
    ``point`` at or past the top of the ladder.  Returns ``None`` for
    all-zero weights: ``ErrorModel`` rejects a positive rate over such a
    table, so no ladder has a rung that draws from it.
    """
    total = sum(weights.values())
    if total <= 0:
        return None
    cumulative = 0.0
    cums = []
    keys = []
    for key, weight in weights.items():
        cumulative += weight
        cums.append(cumulative)
        keys.append(key)
    keys.append(keys[-1])
    return (total, cums, keys)


#: Byte-value -> totals-matrix row, -1 for non-alphabet bytes.
_ROW_LUT = np.full(256, -1, dtype=np.intp)
for _row, _base in enumerate(BASES):
    _ROW_LUT[ord(_base)] = _row


def homopolymer_mask_fast(reference: str) -> list | None:
    """``alphabet.homopolymer_mask(reference)`` (min_length=2) without
    the Python run scan: a position sits inside a >=2 homopolymer run
    exactly when it equals a neighbour.  Returns ``None`` for non-ASCII
    strands (the caller falls back to the reference implementation)."""
    length = len(reference)
    if length < 2:
        return [False] * length
    try:
        codes = np.frombuffer(reference.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    same = codes[1:] == codes[:-1]
    mask = np.zeros(length, dtype=bool)
    mask[1:] = same
    mask[:-1] |= same
    return mask.tolist()


#: Rung actions of a resolved ladder.  The three draw actions read one
#: more uniform for a key from their rung's cumulative draw table (a
#: substitution base, an inserted base, a long-deletion length);
#: ``_EMIT`` appends its rung's fixed text and moves one position on
#: (a deletion emits nothing, a second-order error its replacement, the
#: floating-point edge above the top rung the base itself); ``_CALL``
#: runs the serial loop's own event code (bursts).
_SUB, _INS, _LONG, _EMIT, _CALL = range(5)

_DRAW_CODES = {"substitution": _SUB, "insertion": _INS, "long_deletion": _LONG}


def _resolve_rung(event: tuple, base: str, draws: dict) -> tuple:
    """One ladder rung as the walk's ``(code, payload, event)`` action."""
    tag = event[0]
    if tag == "deletion":
        return (_EMIT, "", event)
    if tag == "second_order":
        error = event[1]
        if error.kind == "insertion":
            return (_EMIT, base + error.replacement, event)
        return (_EMIT, error.replacement, event)  # "" for a deletion
    if tag == "burst":
        return (_CALL, None, event)
    return (_DRAW_CODES[tag], draws[tag, base], event)


class VectorTables:
    """Per-(model, length) tables for the vectorised walk.

    Built once per strand length and shared through the model-keyed
    channel cache (the same cache that shares the event ladders), so
    every ``Channel`` over the same model object — including the fresh
    per-cluster channels of ``per_cluster_seeds`` workers — reuses them.

    The strand splits into three zones.  The *head zone* ``[0,
    head_end)`` and the *tail zone* ``[tail_start, length)`` are the
    contiguous runs of hottest positions at the two strand ends, where
    the paper's terminal skew concentrates events; together they hold at
    most ``max(_HOT_MIN, length // _HOT_DIVISOR)`` positions, and the
    walk tests every roll there against its position's exact threshold.
    The *interior* ``[head_end, tail_start)`` is covered by the candidate
    filter at ``t_cand``, the maximum effective threshold any base can
    have at any interior position, masked or not.  A strand no longer
    than the budget is one hot zone (``head_end == tail_start == 0``).

    ``totals_mat``/``masked_mat`` hold the exact effective thresholds
    and ``ladder_mat`` the resolved ladders, both per (base, position),
    for :class:`ReferencePrep` to gather per reference.
    """

    __slots__ = (
        "length",
        "factor",
        "t_cand",
        "head_end",
        "tail_start",
        "totals_mat",
        "masked_mat",
        "ladder_mat",
    )

    def __init__(self, model, tables, length: int) -> None:
        factor = model.homopolymer_factor
        self.length = length
        self.factor = factor
        totals = [
            [tables[base][i][0] for i in range(length)] for base in BASES
        ]
        self.totals_mat = np.array(totals, dtype=np.float64).reshape(
            len(BASES), length
        )
        if factor != 1.0:
            masked = [
                [_masked_threshold(t, factor) for t in row] for row in totals
            ]
            self.masked_mat = np.array(masked, dtype=np.float64).reshape(
                len(BASES), length
            )
            upper_mat = np.maximum(self.totals_mat, self.masked_mat)
        else:
            self.masked_mat = None
            upper_mat = self.totals_mat
        # Upper bound of any reference's effective threshold per position.
        upper = upper_mat.max(axis=0).tolist() if length else []
        hot_budget = max(_HOT_MIN, length // _HOT_DIVISOR)
        head_end = tail_start = 0  # short strand: all one hot zone
        if hot_budget < length:
            # At most ``hot_budget`` positions lie strictly above the
            # cut, so both runs stop short of each other.
            cut = sorted(upper, reverse=True)[hot_budget]
            tail_start = length
            while upper[tail_start - 1] > cut:
                tail_start -= 1
            while upper[head_end] > cut:
                head_end += 1
        self.head_end = head_end
        self.tail_start = tail_start
        self.t_cand = max(upper[head_end:tail_start], default=0.0)
        # Ladders resolved for the walk: per (base, position), the rung
        # cums and one action per rung.  The reference scans for the
        # first ``roll < cum``; ``bisect_right(cums, roll)`` lands on the
        # same rung, and the trailing action keeps the base for the
        # floating-point edge where the roll beats the total but no rung.
        draws = {
            ("substitution", base): _cumulative_draw_table(row)
            for base, row in model.substitution_matrix.items()
        }
        insertion = _cumulative_draw_table(model.insertion_base_probs)
        lengths = _cumulative_draw_table(model.long_deletion_lengths)
        for base in BASES:
            draws[("insertion", base)] = insertion
            draws[("long_deletion", base)] = lengths
        # A base's ladders repeat one event sequence at almost every
        # position (the tag tuples, and the ``SecondOrderError`` behind
        # each second-order rung), so each sequence is resolved once and
        # its action list shared.
        resolved: dict = {}
        ladders = []
        for base in BASES:
            for _, ladder in tables[base]:
                key = (base, *[id(event[-1]) for _, event in ladder])
                actions = resolved.get(key)
                if actions is None:
                    actions = resolved[key] = [
                        _resolve_rung(event, base, draws) for _, event in ladder
                    ] + [(_EMIT, base, None)]
                ladders.append(([cum for cum, _ in ladder], actions))
        self.ladder_mat = np.fromiter(
            ladders, dtype=object, count=len(ladders)
        ).reshape(len(BASES), length)


class ReferencePrep:
    """Per-reference view of :class:`VectorTables`: the exact effective
    threshold and the resolved ladder per position of one strand, plus
    the walk's working set bundled for a single tuple unpack.
    ``reference`` must already be validated (``Channel.transmit_many``
    rejects non-ACGT strands before any draw)."""

    __slots__ = ("reference", "vector", "thr", "ladders", "mask", "bundle")

    def __init__(self, reference: str, vector: VectorTables, mask) -> None:
        self.reference = reference
        self.vector = vector
        self.mask = mask if vector.factor != 1.0 else None
        length = len(reference)
        if length:
            rows = _ROW_LUT[np.frombuffer(reference.encode("ascii"), np.uint8)]
            cols = np.arange(length, dtype=np.intp)
            thr = vector.totals_mat[rows, cols]
            if self.mask is not None:
                thr = np.where(
                    np.array(self.mask, dtype=bool),
                    vector.masked_mat[rows, cols],
                    thr,
                )
            self.thr = thr.tolist()
            self.ladders = vector.ladder_mat[rows, cols].tolist()
        else:
            self.thr = []
            self.ladders = []
        self.bundle = (
            self.thr,
            self.ladders,
            self.mask,
            vector.factor,
            vector.t_cand,
            vector.head_end,
            vector.tail_start,
        )


# ------------------------------------------------------------------ #
# The vectorised walk
# ------------------------------------------------------------------ #


def _walk_state(source: UniformBulkSource) -> tuple:
    """The buffer state :func:`transmit_batch` keeps in locals, reloaded
    after a refill or an out-of-line draw through the source."""
    return (
        source.values,
        source.n,
        source.cursor,
        source.cand_idx,
        source.cand_val,
        source.cand_ptr,
    )


def transmit_batch(
    channel,
    reference: str,
    coverage: int,
    source: UniformBulkSource,
    prep: ReferencePrep,
) -> list[str]:
    """``coverage`` transmissions of one strand, bit-identical to the
    serial loop on the same draw stream.

    Each copy is one walk with two stop-finders and one event handler.
    In the *interior* ``[head_end, tail_start)`` the finder jumps
    straight between candidate rolls (``roll < t_cand``, indexed per
    buffer refill); in the two *hot zones* at the strand ends it tests
    each roll against its position's exact threshold.  Either finder
    stops at the first roll below its position's exact effective
    threshold, where the serial loop would take an event, and hands it
    to the handler: the rung via ``bisect`` over the position's resolved
    ladder, the error-free run before it copied as one string slice,
    then the rung's action — a fixed emit, or a key drawn inline from
    the rung's cumulative draw table.  A draw at the buffer end, or a
    burst, runs the serial loop's event code, drawing through the source.

    The draw-to-position alignment is one integer ``offset``; the
    finders re-derive it (and the candidate pointer, and the zone or
    buffer limit) each time the walk enters them, so events that consume
    extra draws — substitutions, insertions, long deletions, bursts —
    need no resync of their own.  All buffer state lives in locals; the
    source is synced only around refills, out-of-line event draws, and
    on return.
    """
    length = len(reference)
    if coverage <= 0:
        return []
    if length == 0:
        return [""] * coverage
    thr, ladders, mask, factor, t_cand, head_end, tail_start = prep.bundle
    bisect = bisect_right
    if source.t_cand != t_cand:
        source.recandidate(t_cand)
    values, n, cursor, cand_idx, cand_val, ci = _walk_state(source)
    outputs: list[str] = []
    for _ in range(coverage):
        out: list[str] = []
        append = out.append
        position = 0
        run_start = 0
        while True:
            # ---- find the next event: roll < thr[j + offset] ---- #
            if position < tail_start and position >= head_end:
                # Interior: walk the candidate list.
                j = cand_idx[ci]
                while j < cursor:
                    ci += 1  # candidates swallowed by earlier draws
                    j = cand_idx[ci]
                offset = position - cursor
                limit = tail_start - offset
                if limit > n:
                    limit = n
                while j < limit:
                    roll = cand_val[ci]
                    ci += 1
                    if roll < thr[j + offset]:
                        break
                    j = cand_idx[ci]
                else:
                    # Error-free up to the zone or the buffer end.
                    position = limit + offset
                    cursor = limit
                    if position < tail_start:
                        source.refill(t_cand)
                        values, n, cursor, cand_idx, cand_val, ci = _walk_state(
                            source
                        )
                    continue
            elif position < length:
                # A hot zone: every roll against its exact threshold.
                zone_end = head_end if position < head_end else length
                offset = position - cursor
                end = zone_end - offset
                if end > n:
                    end = n
                for roll in values[cursor:end]:
                    if roll < thr[position]:
                        break
                    position += 1
                else:
                    # Error-free up to the zone or the buffer end.
                    cursor = end
                    if position < zone_end:
                        source.refill(t_cand)
                        values, n, cursor, cand_idx, cand_val, ci = _walk_state(
                            source
                        )
                    continue
                j = position - offset
            else:
                break
            # ---- the event at position j + offset, roll drawn at j ---- #
            position = j + offset
            cursor = j + 1
            if mask is not None and mask[position]:
                roll = roll / factor if factor > 0.0 else 2.0
            cums, actions = ladders[position]
            code, payload, event = actions[bisect(cums, roll)]
            if position > run_start:
                append(reference[run_start:position])
            if code == _EMIT:
                append(payload)
                position += 1
            elif code != _CALL and cursor < n:
                # The rung's extra draw sits in the buffer: inline it.
                key = payload[2][bisect(payload[1], values[cursor] * payload[0])]
                cursor += 1
                if code == _LONG:
                    position += key
                else:
                    if code == _INS:
                        append(reference[position])
                    append(key)
                    position += 1
            else:
                # A draw at the buffer end, or a burst: the serial loop's
                # own event code, drawing through the source.
                source.cursor = cursor
                source.cand_ptr = ci
                position = channel._apply_event(
                    event, reference, position, out, source
                )
                values, n, cursor, cand_idx, cand_val, ci = _walk_state(source)
            run_start = position
        if length > run_start:
            append(reference[run_start:length])
        outputs.append("".join(out))
    source.cursor = cursor
    source.cand_ptr = ci
    return outputs
