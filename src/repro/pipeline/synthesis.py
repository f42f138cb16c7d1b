"""Strand layout: how a physical strand packages addressable payload.

Following the key-value design of Yazdi/Bornholt (Section 1.1.1), every
synthesised strand is::

    [ primer | codec( index(2B) + payload(kB) + crc8(1B) ) ]

* the **primer** selects the file for PCR random access;
* the **index** orders strands within a file — DNA pools are unordered
  (Section 1.1.1), so every strand must carry its own address;
* the **crc8** detects strands whose reconstruction went wrong, turning
  silent corruptions into *erasures* the outer Reed-Solomon code can
  correct at half price (Section 1.1.3: erasures "are detected easily
  when a strand is not present").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigError, DecodeError, EncodeError
from repro.pipeline.encoding import Codec, CodecError

#: CRC-8 polynomial (CCITT: x^8 + x^2 + x + 1).
_CRC8_POLYNOMIAL = 0x07

#: Bytes reserved for the in-file strand index (65,536 strands per file).
INDEX_BYTES = 2


def _crc8_step(value: int) -> int:
    """Eight bit steps of the CRC-8 shift register."""
    for _ in range(8):
        if value & 0x80:
            value = ((value << 1) ^ _CRC8_POLYNOMIAL) & 0xFF
        else:
            value = (value << 1) & 0xFF
    return value


#: The register after eight bit steps from each of its 256 values.
_CRC8_TABLE = tuple(_crc8_step(value) for value in range(256))


def crc8(payload: bytes) -> int:
    """CRC-8/CCITT over a byte string, one table lookup per byte."""
    value = 0
    for byte in payload:
        value = _CRC8_TABLE[value ^ byte]
    return value


class StrandParseError(DecodeError, ValueError):
    """Raised when a read cannot be parsed back into (index, payload)."""


@dataclass(frozen=True)
class StrandLayout:
    """Builds and parses strands for one file.

    Args:
        primer: the file's primer sequence (may be empty for single-file
            pools without random access).
        codec: bytes <-> bases codec for the addressed payload.
        payload_bytes: payload bytes carried per strand.
    """

    primer: str
    codec: Codec
    payload_bytes: int

    def __post_init__(self) -> None:
        if self.payload_bytes < 1:
            raise ConfigError(
                f"payload_bytes must be >= 1, got {self.payload_bytes}"
            )

    @property
    def message_bytes(self) -> int:
        """Bytes encoded into bases per strand (index + payload + crc)."""
        return INDEX_BYTES + self.payload_bytes + 1

    def strand_length(self) -> int:
        """Total strand length in bases (primer + encoded message)."""
        probe = self.codec.encode(bytes(self.message_bytes))
        return len(self.primer) + len(probe)

    def build(self, index: int, payload: bytes) -> str:
        """Assemble one strand.

        Raises:
            ValueError: for an out-of-range index or wrong payload size.
        """
        if not 0 <= index < 256**INDEX_BYTES:
            raise EncodeError(f"index {index} out of range")
        if len(payload) != self.payload_bytes:
            raise EncodeError(
                f"payload must be {self.payload_bytes} bytes, "
                f"got {len(payload)}"
            )
        message = index.to_bytes(INDEX_BYTES, "big") + payload
        message += bytes([crc8(message)])
        return self.primer + self.codec.encode(message)

    def parse(self, strand: str) -> tuple[int, bytes]:
        """Disassemble a (reconstructed) strand into (index, payload).

        Raises:
            StrandParseError: if the strand has the wrong length, fails
                codec decoding, or fails the CRC check.  Callers treat
                this as an erasure.
        """
        if len(strand) < len(self.primer):
            raise StrandParseError("strand shorter than its primer")
        body = strand[len(self.primer) :]
        try:
            message = self.codec.decode(body)
        except CodecError as error:
            raise StrandParseError(f"codec rejected strand body: {error}") from error
        if len(message) != self.message_bytes:
            raise StrandParseError(
                f"decoded message has {len(message)} bytes, "
                f"expected {self.message_bytes}"
            )
        content, checksum = message[:-1], message[-1]
        if crc8(content) != checksum:
            raise StrandParseError("CRC mismatch")
        index = int.from_bytes(content[:INDEX_BYTES], "big")
        return index, content[INDEX_BYTES:]
