"""Reed-Solomon codes over GF(256) with errors-and-erasures decoding.

Logical redundancy for DNA storage (Section 1.1.3): RS codes correct both
*corruptions* (a strand reconstructed with wrong content — an error at an
unknown location) and *erasures* (a strand known to be missing — a known
location), with the classic budget 2 * errors + erasures <= n - k.

The implementation is the textbook pipeline — generator-polynomial
systematic encoding, syndrome computation, Berlekamp-Massey (with erasure
initialisation via the erasure locator), Chien search, Forney's formula.
Its inner loops run in the log domain: a polynomial's non-zero
coefficients are turned into logarithms once, so each term of an
evaluation is one antilog lookup ``EXP[(coef_log + point_log * power) %
255]`` instead of a :func:`~repro.pipeline.gf256.gf_mul` call, and
each Horner step of a syndrome is one lookup in a 256-entry
multiply-by-alpha^p row built from the same tables.  The archive decodes
one RS word per byte column of every strand group, so decoding is a
real share of a read: in traced ``archive_roundtrip`` benchmark runs on
a 2-vCPU host, ``pipeline.rs_decode.s`` was 0.20-0.22 s of a 0.85-1.19 s
``archive.read_s`` with scalar field calls, and is 0.09-0.12 s of
0.65-0.76 s in the log domain.
"""

from __future__ import annotations

from repro.exceptions import ConfigError, DecodeError
from repro.pipeline.gf256 import GENERATOR, gf_pow, poly_mul
from repro.pipeline.gf256 import _EXP as EXP
from repro.pipeline.gf256 import _LOG as LOG


def _log_terms(polynomial: list[int]) -> list[tuple[int, int]]:
    """``(power, LOG[coefficient])`` for a low-first polynomial's
    non-zero coefficients."""
    return [
        (power, LOG[coefficient])
        for power, coefficient in enumerate(polynomial)
        if coefficient
    ]


def _eval_log(terms: list[tuple[int, int]], point_log: int) -> int:
    """Evaluate :func:`_log_terms` output at the point ``EXP[point_log]``."""
    value = 0
    for power, coefficient_log in terms:
        value ^= EXP[(coefficient_log + point_log * power) % 255]
    return value


class ReedSolomonError(DecodeError, ValueError):
    """Raised when decoding fails (too many errors for the code)."""


class ReedSolomon:
    """An RS(n, k) code over GF(256).

    Args:
        n_parity: number of parity symbols (n - k).  The code corrects
            up to ``n_parity // 2`` unknown errors, or any mix with
            2 * errors + erasures <= n_parity.

    Codewords are ``bytes`` of length ``n_parity`` to 255 (data plus
    parity).
    """

    def __init__(self, n_parity: int) -> None:
        if not 1 <= n_parity <= 254:
            raise ConfigError(f"n_parity must be in [1, 254], got {n_parity}")
        self.n_parity = n_parity
        # The generator polynomial (monic, highest degree first) as
        # (offset, log coefficient) terms: encoding's inner loop.
        self._generator_terms = _log_terms(self._build_generator(n_parity))
        # Row p multiplies any symbol by alpha^p (which adds p to its
        # logarithm): one lookup per Horner step of syndrome p.
        self._alpha_power_rows = [
            [0] + [EXP[LOG[value] + power] for value in range(1, 256)]
            for power in range(n_parity)
        ]

    @staticmethod
    def _build_generator(n_parity: int) -> list[int]:
        generator = [1]
        for power in range(n_parity):
            generator = poly_mul(generator, [1, gf_pow(GENERATOR, power)])
        return generator

    # ---------------------------------------------------------------- #
    # Encoding
    # ---------------------------------------------------------------- #

    def encode(self, data: bytes) -> bytes:
        """Systematic encoding: returns ``data + parity``.

        Raises:
            ValueError: if the codeword would exceed 255 symbols.
        """
        if len(data) + self.n_parity > 255:
            raise ConfigError(
                f"codeword too long: {len(data)} data + {self.n_parity} "
                "parity > 255"
            )
        remainder = list(data) + [0] * self.n_parity
        generator_terms = self._generator_terms
        for index in range(len(data)):
            coefficient = remainder[index]
            if coefficient == 0:
                continue
            coefficient_log = LOG[coefficient]
            for offset, generator_log in generator_terms:
                remainder[index + offset] ^= EXP[generator_log + coefficient_log]
        parity = remainder[len(data) :]
        return bytes(data) + bytes(parity)

    # ---------------------------------------------------------------- #
    # Decoding
    # ---------------------------------------------------------------- #

    def decode(
        self, codeword: bytes, erasure_positions: list[int] | None = None
    ) -> bytes:
        """Correct a codeword, returning the data portion.

        Args:
            codeword: received word (data + parity, as produced by
                :meth:`encode`, possibly corrupted).
            erasure_positions: indices into ``codeword`` known to be
                unreliable (e.g. strands lost to failed PCR).  Erasure
                values are ignored; each distinct position costs half an
                error.

        Raises:
            ConfigError: if the word is longer than 255 or shorter than
                ``n_parity`` symbols, or an erasure position is out of
                range.
            ReedSolomonError: if the error/erasure budget is exceeded.
        """
        self._check_length(codeword)
        erasure_positions = list(dict.fromkeys(erasure_positions or []))
        if len(erasure_positions) > self.n_parity:
            raise ReedSolomonError(
                f"{len(erasure_positions)} erasures exceed "
                f"{self.n_parity} parity symbols"
            )
        received = list(codeword)
        length = len(received)
        for position in erasure_positions:
            if not 0 <= position < length:
                raise ConfigError(f"erasure position {position} out of range")
            received[position] = 0

        syndromes = self._syndromes(received)
        if max(syndromes) == 0:
            return bytes(received[: length - self.n_parity])

        # Position i carries the coefficient of x^(length-1-i), so its
        # locator is X_i = alpha^(length-1-i).
        erasure_locators = [
            EXP[length - 1 - position] for position in erasure_positions
        ]
        error_locator = self._berlekamp_massey(syndromes, erasure_locators)
        error_positions = self._chien_search(error_locator, length)
        if error_positions is None:
            raise ReedSolomonError("error locator does not factor; too many errors")

        corrected = self._forney(received, syndromes, error_locator, error_positions)
        if max(self._syndromes(corrected)) != 0:
            raise ReedSolomonError("correction failed; too many errors")
        return bytes(corrected[: length - self.n_parity])

    def check(self, codeword: bytes) -> bool:
        """True if the codeword is a valid (zero-syndrome) RS word.

        Raises:
            ConfigError: if the word is longer than 255 or shorter than
                ``n_parity`` symbols.
        """
        self._check_length(codeword)
        return max(self._syndromes(list(codeword))) == 0

    # -- internals ----------------------------------------------------- #

    def _check_length(self, codeword: bytes) -> None:
        # Past 255 symbols the locators alias (alpha^255 = 1); under
        # n_parity there is no data portion to return.
        if not self.n_parity <= len(codeword) <= 255:
            raise ConfigError(
                f"codeword length {len(codeword)} outside "
                f"[{self.n_parity}, 255] for {self.n_parity} parity symbols"
            )

    def _syndromes(self, received: list[int]) -> list[int]:
        # S_p = received(alpha^p) by Horner.
        syndromes = []
        for times_alpha_power in self._alpha_power_rows:
            value = 0
            for coefficient in received:
                value = times_alpha_power[value] ^ coefficient
            syndromes.append(value)
        return syndromes

    def _berlekamp_massey(
        self, syndromes: list[int], erasure_locators: list[int]
    ) -> list[int]:
        """Errors-and-erasures Berlekamp-Massey.

        Polynomials are lowest-degree-first.  The locator is seeded with
        the erasure locator Gamma(x) = prod (1 - X_i x) and the iteration
        starts after the erasure steps (standard Blahut formulation); the
        result Lambda(x) has the inverses of all error/erasure locators as
        its roots.
        """
        locator = [1]
        for erasure in erasure_locators:
            # (1 - X_i x) == (1 + X_i x) in characteristic 2, low-first.
            locator = self._poly_mul_low(locator, [1, erasure])
        n_erasures = len(erasure_locators)
        correction = list(locator)  # B(x)
        current_length = n_erasures  # L
        shift = 1  # m: steps since B was last updated
        last_delta = 1  # b
        for step in range(n_erasures, self.n_parity):
            delta = syndromes[step]
            for degree in range(1, min(len(locator), step + 1)):
                coefficient = locator[degree]
                syndrome = syndromes[step - degree]
                if coefficient and syndrome:
                    delta ^= EXP[LOG[coefficient] + LOG[syndrome]]
            if delta == 0:
                shift += 1
                continue
            # delta / last_delta, both non-zero, as a logarithm.
            scale_log = (LOG[delta] - LOG[last_delta]) % 255
            shifted = [0] * shift + [
                EXP[LOG[coefficient] + scale_log] if coefficient else 0
                for coefficient in correction
            ]
            if 2 * current_length <= step + n_erasures:
                previous_locator = list(locator)
                locator = self._poly_add_low(locator, shifted)
                current_length = step + n_erasures + 1 - current_length
                correction = previous_locator
                last_delta = delta
                shift = 1
            else:
                locator = self._poly_add_low(locator, shifted)
                shift += 1
        return locator

    @staticmethod
    def _poly_mul_low(first: list[int], second: list[int]) -> list[int]:
        result = [0] * (len(first) + len(second) - 1)
        second_terms = _log_terms(second)
        for index_first, coefficient_first in enumerate(first):
            if coefficient_first == 0:
                continue
            first_log = LOG[coefficient_first]
            for index_second, second_log in second_terms:
                result[index_first + index_second] ^= EXP[first_log + second_log]
        return result

    @staticmethod
    def _poly_add_low(first: list[int], second: list[int]) -> list[int]:
        result = [0] * max(len(first), len(second))
        for index, coefficient in enumerate(first):
            result[index] ^= coefficient
        for index, coefficient in enumerate(second):
            result[index] ^= coefficient
        return result

    def _chien_search(
        self, locator: list[int], length: int
    ) -> list[int] | None:
        """Roots of the locator -> error positions in the codeword.

        ``locator`` is lowest-degree-first; its roots are the inverse
        locators X_i^-1 = alpha^-(length-1-i).
        """
        degree = len(locator) - 1
        while degree > 0 and locator[degree] == 0:
            degree -= 1
        if degree > self.n_parity:
            return None
        terms = _log_terms(locator)
        positions = [
            position
            for position in range(length)
            if _eval_log(terms, position + 1 - length) == 0
        ]
        if len(positions) != degree:
            return None
        return positions

    def _forney(
        self,
        received: list[int],
        syndromes: list[int],
        locator: list[int],
        positions: list[int],
    ) -> list[int]:
        """Error magnitudes via Forney's formula; returns the corrected word."""
        length = len(received)
        # Error evaluator: omega(x) = [S(x) * Lambda(x)] mod x^n_parity,
        # with S(x) = sum syndromes[i] * x^i (low-first).
        product = self._poly_mul_low(syndromes, locator)
        evaluator_terms = _log_terms(product[: self.n_parity])
        # Formal derivative of the locator (characteristic 2: odd terms
        # survive, each shifted down one degree).
        derivative_terms = _log_terms(
            [
                coefficient if power % 2 == 1 else 0
                for power, coefficient in enumerate(locator)
            ][1:]
        )
        corrected = list(received)
        for position in positions:
            # X_k = alpha^(length-1-position); Forney (fcr = 0):
            # e_k = X_k * omega(X_k^-1) / Lambda'(X_k^-1).
            x_log = length - 1 - position
            numerator = _eval_log(evaluator_terms, -x_log)
            denominator = _eval_log(derivative_terms, -x_log)
            if denominator == 0:
                raise ReedSolomonError("Forney denominator vanished")
            if numerator:
                corrected[position] ^= EXP[
                    (x_log + LOG[numerator] - LOG[denominator]) % 255
                ]
        return corrected
