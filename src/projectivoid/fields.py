"""Coefficient fields for the classical Laurent-polynomial side."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero


@dataclass(frozen=True)
class PrimeField:
    """GF(p) with elements kept as canonical integers 0..p-1."""

    p: int

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

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

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise DivisionByZero(f"0 has no inverse in GF({self.p})")
        return pow(a, -1, self.p)

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0


@dataclass(frozen=True)
class RationalField:
    """The rationals, with exact Fraction arithmetic."""

    characteristic = 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        return Fraction(x)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise DivisionByZero("0 has no inverse")
        return 1 / a

    def is_zero(self, a: Fraction) -> bool:
        return a == 0
