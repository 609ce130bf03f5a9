"""The coefficient field: exact rationals measured by a p-adic valuation.

Absolute values are never materialised as floating point numbers.  All size
comparisons go through the additive valuation, with the convention that a
larger absolute value means a smaller valuation and that the valuation of 0
is infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from .errors import DivisionByZero, NegativeValuation, PrimeMismatch


@total_ordering
@dataclass(frozen=True)
class Valuation:
    """An element of Z union {infinity}; v is None for infinity."""

    v: int | None = None

    @property
    def is_infinite(self) -> bool:
        return self.v is None

    def __lt__(self, other: "Valuation") -> bool:
        if self.v is None:
            return False
        if other.v is None:
            return True
        return self.v < other.v

    def __add__(self, other: "Valuation") -> "Valuation":
        if self.v is None or other.v is None:
            return INFINITY
        return Valuation(self.v + other.v)

    def __str__(self) -> str:
        return "inf" if self.v is None else str(self.v)


INFINITY = Valuation(None)


def _strip(n: int, p: int, cap: int | None = None) -> tuple[int, int]:
    """(n / p^v, v) for nonzero n, with v = v_p(n), or cap when that is less.

    Each pass divides by p, p^2, p^4, ... while they divide n and removes at
    least half of what is left, so a valuation v costs O(log(v)^2) divisions
    of a long n instead of v."""
    left = abs(n).bit_length() if cap is None else cap
    v = 0
    while left and not n % p:
        q, step = p, 1
        while step <= left and not n % q:
            n //= q
            v, left = v + step, left - step
            q, step = q * q, 2 * step
    return n, v


def _int_valuation(n: int, p: int) -> int:
    # n is nonzero
    return _strip(n, p)[1] if not n % p else 0


@dataclass(frozen=True, slots=True)
class PadicCoeff:
    """An exact rational together with the prime weighing it."""

    value: Fraction
    prime: int

    def _check(self, other: "PadicCoeff") -> None:
        if self.prime != other.prime:
            raise PrimeMismatch(
                f"cannot combine coefficients over p={self.prime} and p={other.prime}"
            )

    def __bool__(self) -> bool:
        return self.value != 0

    def valuation(self) -> Valuation:
        if not self.value:
            return INFINITY
        return Valuation(
            _int_valuation(self.value.numerator, self.prime)
            - _int_valuation(self.value.denominator, self.prime)
        )

    def reduce(self) -> int:
        """Image in the residue field F_p, as an integer in [0, p)."""
        if self.valuation() < Valuation(0):
            raise NegativeValuation(
                f"{self.value} lies outside the valuation ring of p={self.prime}"
            )
        num, den = self.value.numerator, self.value.denominator
        return num * pow(den, -1, self.prime) % self.prime

    def invert(self) -> "PadicCoeff":
        if not self.value:
            raise DivisionByZero("coefficient 0 has no inverse")
        return PadicCoeff(1 / self.value, self.prime)

    def __add__(self, other: "PadicCoeff") -> "PadicCoeff":
        self._check(other)
        return PadicCoeff(self.value + other.value, self.prime)

    def __sub__(self, other: "PadicCoeff") -> "PadicCoeff":
        self._check(other)
        return PadicCoeff(self.value - other.value, self.prime)

    def __mul__(self, other: "PadicCoeff") -> "PadicCoeff":
        self._check(other)
        return PadicCoeff(self.value * other.value, self.prime)

    def __neg__(self) -> "PadicCoeff":
        return PadicCoeff(-self.value, self.prime)
