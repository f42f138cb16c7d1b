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
  vectorised ``rolls < t_cand`` comparison per buffer refill; in the
  high-threshold terminal positions (the paper's end-of-strand skew) it
  scans a second, coarser comparison plane with C-speed ``bytes.find``.
  Only the finders' stops run the exact per-position comparison, the
  error-free runs between events are copied as whole string slices, and
  only actual events run the serial loop's ladder scan and event code.

* **Exact effective thresholds.**  The serial loop shrinks the roll at
  homopolymer positions (``roll / factor``) before comparing against
  the ladder total.  Division then comparison is not bit-equivalent to
  comparing against ``total * factor``, so the sweep precomputes, per
  (base, position), the *minimal double* ``T`` with
  ``fl(T / factor) >= total`` — making ``roll < T`` decide the event
  exactly as the serial loop does, to the last ulp.

Both planes are alignment-independent (``rolls < t_cand`` does not
depend on which reference position a roll lands on), so the candidate
index built per refill stays valid no matter how many extra draws
earlier events consumed — no re-vectorisation at event sites.  The walk
tracks the draw-to-position alignment as one integer offset, which the
finders re-derive each time the walk enters them; events that consume
extra draws (substitutions, insertions, long deletions, bursts) shift
it, while deletions and second-order errors consume exactly the one
roll and leave it untouched.

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
#: terminal positions are routed to the coarse-plane scan; the interior
#: candidate filter threshold only has to cover the remaining
#: positions, keeping the candidate rate near the true event rate even
#: under heavy terminal skew.
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
    the chunk), the paired candidate lists ``cand_idx``/``cand_val``
    (buffer indices with ``roll < t_cand``, plus their rolls, ending in
    an ``(n, 2.0)`` sentinel), and the coarse byte plane ``hi_plane``
    (``roll < t_hi`` as ``\\x01`` bytes, scanned with ``bytes.find`` in
    the terminal zone).  :func:`transmit_batch` keeps these in locals,
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
        "hi_plane",
        "t_cand",
        "t_hi",
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
        self.hi_plane = b""
        self.t_cand: float | None = None
        self.t_hi: float | None = None

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

    def refill(self, t_cand: float | None = None, t_hi: float | None = None) -> None:
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
        self.t_hi = t_hi
        self._index(array, 0, t_cand, t_hi)

    def recandidate(self, t_cand: float | None, t_hi: float | None) -> None:
        """Rebuild the candidate structures for different filter
        thresholds (the strand length — and so the prepared tables —
        changed mid-buffer)."""
        self.t_cand = t_cand
        self.t_hi = t_hi
        if self.array is not None:
            self._index(self.array, self.cursor, t_cand, t_hi)

    def _index(self, array, start: int, t_cand, t_hi) -> None:
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
        if t_hi is not None and t_hi > 0.0:
            self.hi_plane = (array < t_hi).tobytes()
        else:
            self.hi_plane = b""  # no terminal zone (or zero-rate model)

    def random(self) -> float:
        """Scalar shim: the next uniform variate, exactly as
        ``rng.random()`` would have returned it.  Event code
        (:meth:`Channel._apply_event`, model draw helpers) receives the
        source in place of the RNG."""
        if self.cursor >= self.n:
            self.refill(self.t_cand, self.t_hi)
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
        self.hi_plane = b""


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
    all-zero weights — the reference raises before drawing, and the
    caller must do the same.
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


class VectorTables:
    """Per-(model, length) threshold tables for the vectorised walk.

    Built once per strand length and shared through the model-keyed
    channel cache (the same cache that shares the event ladders), so
    every ``Channel`` over the same model object — including the fresh
    per-cluster channels of ``per_cluster_seeds`` workers — reuses them.

    The strand splits into two zones: the *interior* ``[0,
    tail_start)``, covered by the candidate filter at ``t_cand`` (the
    maximum effective threshold any base can have at any interior
    position, masked or not), and the *terminal zone* ``[tail_start,
    length)`` — the contiguous run of high-threshold positions at the
    strand end where the paper's terminal skew concentrates events —
    scanned through the coarser ``t_hi`` byte plane.
    """

    __slots__ = (
        "length",
        "factor",
        "t_cand",
        "t_hi",
        "tail_start",
        "totals_mat",
        "masked_mat",
        "flat",
        "sub_draws",
        "ins_draw",
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
        if hot_budget < length:
            cut = sorted(upper, reverse=True)[hot_budget]
        else:
            cut = -1.0  # short strand: the whole strand is terminal zone
        tail_start = length
        while tail_start > 0 and upper[tail_start - 1] > cut:
            tail_start -= 1
        self.tail_start = tail_start
        # Exact interior bound: positions whose threshold exceeds the
        # budget cut but sit away from the end are folded into the
        # filter rate rather than the terminal zone.
        interior = upper[:tail_start]
        self.t_cand = max(interior) if interior else 0.0
        # The coarse plane is only scanned inside the terminal zone;
        # zero it when that zone is empty so refills skip building it.
        self.t_hi = max(upper) if tail_start < length else 0.0
        # Ladders flattened for C-speed rung selection: per (base,
        # position), parallel cum-threshold and event lists.  The
        # reference scans for the first ``roll < cum``;
        # ``bisect_right(cums, roll)`` lands on the same rung, and the
        # trailing ``None`` covers the floating-point edge where the
        # roll beats the total but no rung (base survives).
        self.flat = {
            base: [
                (
                    [cum for cum, _ in ladder],
                    [event for _, event in ladder] + [None],
                )
                for _, ladder in rungs
            ]
            for base, rungs in tables.items()
        }
        self.sub_draws = {
            base: _cumulative_draw_table(model.substitution_matrix[base])
            for base in model.substitution_matrix
        }
        self.ins_draw = _cumulative_draw_table(model.insertion_base_probs)


class ReferencePrep:
    """Per-reference view of :class:`VectorTables`: the exact effective
    threshold per position of one strand, plus the walk's working set
    bundled for a single tuple unpack.  ``reference`` must already be
    validated (``Channel.transmit_many`` rejects non-ACGT strands before
    any draw)."""

    __slots__ = ("reference", "vector", "thr", "mask", "bundle")

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
        else:
            self.thr = []
        self.bundle = (
            self.thr,
            self.mask,
            vector.factor,
            vector.flat,
            vector.sub_draws,
            vector.ins_draw,
            vector.t_cand,
            vector.t_hi,
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
        source.hi_plane.find,
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
    In the *interior* ``[0, tail_start)`` the finder jumps straight
    between candidate rolls (``roll < t_cand``, indexed per buffer
    refill); in the *terminal zone* — the high-threshold positions at
    the strand end — it scans the coarser ``t_hi`` byte plane with
    C-speed ``bytes.find``.  Either finder stops at the first roll below
    its position's exact effective threshold, where the serial loop
    would take an event, and hands it to the handler: the serial ladder
    scan via ``bisect``, the error-free run before it copied as one
    string slice, then the event code, drawing through the source.

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
    thr, mask, factor, flat, sub_draws, ins_draw, t_cand, t_hi, tail_start = (
        prep.bundle
    )
    bisect = bisect_right
    if source.t_cand != t_cand or source.t_hi != t_hi:
        source.recandidate(t_cand, t_hi)
    values, n, cursor, cand_idx, cand_val, ci, hi_find = _walk_state(source)
    outputs: list[str] = []
    for _ in range(coverage):
        out: list[str] = []
        append = out.append
        position = 0
        run_start = 0
        while True:
            # ---- find the next event: roll < thr[j + offset] ---- #
            if position < tail_start:
                # Interior: walk the candidate list.
                while cand_idx[ci] < cursor:
                    ci += 1  # candidates swallowed by earlier draws
                offset = position - cursor
                limit = cursor + (tail_start - position)
                if limit > n:
                    limit = n
                while True:
                    j = cand_idx[ci]
                    if j >= limit:
                        break
                    roll = cand_val[ci]
                    ci += 1
                    if roll < thr[j + offset]:
                        break
                if j >= limit:
                    # Error-free up to the zone or the buffer end.
                    position = limit + offset
                    cursor = limit
                    if position < tail_start:
                        source.refill(t_cand, t_hi)
                        values, n, cursor, cand_idx, cand_val, ci, hi_find = (
                            _walk_state(source)
                        )
                    continue
            elif position < length:
                # Terminal zone: scan the coarse byte plane.
                offset = position - cursor
                end = cursor + (length - position)
                if end > n:
                    end = n
                while True:
                    j = hi_find(1, cursor, end)
                    if j < 0:
                        break
                    cursor = j + 1
                    roll = values[j]
                    if roll < thr[j + offset]:
                        break
                if j < 0:
                    # False alarms advanced ``cursor`` without touching
                    # ``position``; derive it from the alignment instead.
                    position = end + offset
                    cursor = end
                    if position < length:
                        source.refill(t_cand, t_hi)
                        values, n, cursor, cand_idx, cand_val, ci, hi_find = (
                            _walk_state(source)
                        )
                    continue
            else:
                break
            # ---- the event at position j + offset, roll drawn at j ---- #
            position = j + offset
            cursor = j + 1
            if mask is not None and mask[position]:
                roll = roll / factor if factor > 0.0 else 2.0
            cums, rungs = flat[reference[position]][position]
            event = rungs[bisect(cums, roll)]
            if event is None:
                position += 1
                continue  # fp edge at the ladder top: the run extends
            if position > run_start:
                append(reference[run_start:position])
            tag = event[0]
            if tag == "substitution":
                table = sub_draws.get(reference[position])
            elif tag == "insertion":
                table = ins_draw
            else:
                table = None
            if table is not None and cursor < n:
                # The base draw sits in the buffer: inline it.
                if tag == "insertion":
                    append(reference[position])
                point = values[cursor] * table[0]
                cursor += 1
                append(table[2][bisect(table[1], point)])
                position += 1
            elif tag == "deletion":
                position += 1
            elif tag == "second_order":
                error = event[1]
                kind = error.kind
                if kind == "substitution":
                    append(error.replacement)
                elif kind == "insertion":
                    append(reference[position])
                    append(error.replacement)
                position += 1
            else:
                # A base draw at the buffer end, long deletions and
                # bursts: the serial loop's own event code, drawing
                # through the source.
                source.cursor = cursor
                source.cand_ptr = ci
                position = channel._apply_event(
                    event, reference, position, out, source
                )
                values, n, cursor, cand_idx, cand_val, ci, hi_find = (
                    _walk_state(source)
                )
            run_start = position
        if length > run_start:
            append(reference[run_start:length])
        outputs.append("".join(out))
    source.cursor = cursor
    source.cand_ptr = ci
    return outputs
