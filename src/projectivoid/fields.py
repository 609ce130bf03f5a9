"""Coefficient fields for the classical Laurent-polynomial side.

Laurent polynomials run on integer numerators, so the library calls no
field operation but ``coerce``.  ``add`` and ``mul`` stay only because the
benchmark's tracer (``perfbench/tracer.py``) counts their calls
(``fields.add.calls``, ``fields.mul.calls``); they go when it no longer does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero


@dataclass(frozen=True)
class PrimeField:
    """GF(p) with elements kept as canonical integers 0..p-1."""

    p: int
    zero = 0
    one = 1

    @property
    def characteristic(self) -> int:
        return self.p

    def coerce(self, x) -> int:
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise DivisionByZero(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return x % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p


@dataclass(frozen=True)
class RationalField:
    """The rationals, with exact Fraction arithmetic."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        return Fraction(x)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b
