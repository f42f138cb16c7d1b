"""Binary <-> DNA codecs (step 2 of the storage pipeline, Section 1.1).

Three codecs with different density/robustness trade-offs:

* :class:`Basic2BitCodec` — the trivial A:00, C:01, G:10, T:11 mapping
  (2 bits/nt, the theoretical maximum of Section 1.1 with zero
  redundancy).  Vulnerable to homopolymers.
* :class:`RotationCodec` — Goldman-style rotating code: each trit selects
  one of the three bases *different from the previous base*, so the
  output never contains a homopolymer at all (~1.58 bits/nt).  This is
  the classic defence against the homopolymer sensitivity of sequencers
  (Section 1.2).
* :class:`GCBalancedCodec` — 2 bits/nt with a per-block balancing trick:
  blocks whose GC-ratio strays too far are *whitened* with a fixed
  pseudo-random mask (the DNA-Fountain scrambling idea), with a flag base
  recording the choice, keeping strands near the 50% GC sweet spot
  (Section 1.2: extreme GC-ratios form secondary structures).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.alphabet import BASES, COMPLEMENT, gc_content, validate_strand
from repro.exceptions import DecodeError


class CodecError(DecodeError, ValueError):
    """Raised when a strand cannot be decoded back into bytes."""


class Codec(ABC):
    """Reversible bytes <-> DNA-strand transformation."""

    #: short codec identifier used in strand metadata / CLI
    name: str = "codec"

    @abstractmethod
    def encode(self, payload: bytes) -> str:
        """Encode a byte string into a DNA strand."""

    @abstractmethod
    def decode(self, strand: str) -> bytes:
        """Decode a DNA strand back into bytes.

        Raises:
            CodecError: if the strand is not a valid encoding (wrong
                length, illegal symbol transitions, ...).
        """

    def bases_per_byte(self) -> int:
        """How many bases one byte occupies (for capacity planning)."""
        return len(self.encode(b"\x00"))


class Basic2BitCodec(Codec):
    """A:00, C:01, G:10, T:11 — 2 bits per nucleotide, 4 bases per byte."""

    name = "basic"

    def encode(self, payload: bytes) -> str:
        strand = []
        for byte in payload:
            for shift in (6, 4, 2, 0):
                strand.append(BASES[(byte >> shift) & 0b11])
        return "".join(strand)

    def decode(self, strand: str) -> bytes:
        validate_strand(strand)
        if len(strand) % 4 != 0:
            raise CodecError(
                f"basic-codec strand length must be a multiple of 4, "
                f"got {len(strand)}"
            )
        payload = bytearray()
        for start in range(0, len(strand), 4):
            byte = 0
            for base in strand[start : start + 4]:
                byte = (byte << 2) | BASES.index(base)
            payload.append(byte)
        return bytes(payload)


#: 5 trits represent one byte (3^5 = 243 < 256 is NOT enough, so 6 trits:
#: 3^6 = 729 >= 256).
_TRITS_PER_BYTE = 6


class RotationCodec(Codec):
    """Goldman-style homopolymer-free rotating ternary code.

    Bytes are converted to base-3 digits (6 trits per byte); each trit
    picks one of the three bases different from the previously emitted
    base, so no two consecutive bases are ever equal.
    """

    name = "rotation"

    def encode(self, payload: bytes) -> str:
        strand: list[str] = []
        previous = "A"  # virtual predecessor; the first base is never 'A'
        for byte in payload:
            for trit in self._byte_to_trits(byte):
                choices = [base for base in BASES if base != previous]
                base = choices[trit]
                strand.append(base)
                previous = base
        return "".join(strand)

    def decode(self, strand: str) -> bytes:
        validate_strand(strand)
        if len(strand) % _TRITS_PER_BYTE != 0:
            raise CodecError(
                f"rotation-codec strand length must be a multiple of "
                f"{_TRITS_PER_BYTE}, got {len(strand)}"
            )
        payload = bytearray()
        previous = "A"
        trits: list[int] = []
        for base in strand:
            if base == previous:
                raise CodecError(
                    "rotation-codec strand contains a homopolymer — "
                    "not a valid encoding"
                )
            choices = [candidate for candidate in BASES if candidate != previous]
            trits.append(choices.index(base))
            previous = base
            if len(trits) == _TRITS_PER_BYTE:
                payload.append(self._trits_to_byte(trits))
                trits = []
        return bytes(payload)

    @staticmethod
    def _byte_to_trits(byte: int) -> list[int]:
        trits = []
        for _ in range(_TRITS_PER_BYTE):
            trits.append(byte % 3)
            byte //= 3
        trits.reverse()
        return trits

    @staticmethod
    def _trits_to_byte(trits: list[int]) -> int:
        value = 0
        for trit in trits:
            value = value * 3 + trit
        if value > 255:
            raise CodecError(f"trit group decodes to {value} > 255")
        return value


#: Block size (in bases) over which GC balancing decisions are made.
_GC_BLOCK_BASES = 20
_GC_LOW, _GC_HIGH = 0.3, 0.7


def _whitening_offsets(length: int) -> list[int]:
    """Deterministic per-position base offsets (a fixed LCG stream).

    Applying ``base -> BASES[(index(base) + offset) % 4]`` per position is
    a bijection, so whitening is exactly invertible; for data-dependent
    pathological blocks the whitened GC-ratio behaves like a random
    block's (~0.5 on average).
    """
    offsets = []
    state = 0x2545F491
    for _ in range(length):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        offsets.append((state >> 16) & 0b11)
    return offsets


class GCBalancedCodec(Codec):
    """2-bit codec with per-block GC balancing via whitening.

    The payload is encoded as in :class:`Basic2BitCodec`, but each block
    of 20 bases is prefixed with a flag base: if the raw block's GC-ratio
    falls outside [0.3, 0.7], the block is stored whitened (flag ``T``)
    whenever that brings the ratio closer to 0.5; otherwise verbatim
    (flag ``A``).  Effective density: 20/21 of the basic codec.
    """

    name = "gc-balanced"

    def __init__(self) -> None:
        self._inner = Basic2BitCodec()
        self._offsets = _whitening_offsets(_GC_BLOCK_BASES)

    def _whiten(self, block: str, invert: bool) -> str:
        sign = -1 if invert else 1
        return "".join(
            BASES[(BASES.index(base) + sign * offset) % 4]
            for base, offset in zip(block, self._offsets)
        )

    def encode(self, payload: bytes) -> str:
        raw = self._inner.encode(payload)
        strand: list[str] = []
        for start in range(0, len(raw), _GC_BLOCK_BASES):
            block = raw[start : start + _GC_BLOCK_BASES]
            ratio = gc_content(block)
            if not _GC_LOW <= ratio <= _GC_HIGH:
                whitened = self._whiten(block, invert=False)
                if abs(gc_content(whitened) - 0.5) < abs(ratio - 0.5):
                    strand.append("T")  # flag: whitened block
                    strand.append(whitened)
                    continue
            strand.append("A")  # flag: verbatim block
            strand.append(block)
        return "".join(strand)

    def decode(self, strand: str) -> bytes:
        validate_strand(strand)
        raw: list[str] = []
        position = 0
        while position < len(strand):
            flag = strand[position]
            block = strand[position + 1 : position + 1 + _GC_BLOCK_BASES]
            if not block:
                raise CodecError("gc-balanced strand ends with a bare flag base")
            if flag == "T":
                raw.append(self._whiten(block, invert=True))
            elif flag == "A":
                raw.append(block)
            else:
                raise CodecError(
                    f"invalid gc-balanced flag base {flag!r} at "
                    f"position {position}"
                )
            position += 1 + len(block)
        return self._inner.decode("".join(raw))
