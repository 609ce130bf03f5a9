"""Exponents in Z[1/p]: canonical fractions a/p^b and two enumerations.

The exponent monoid of the rings handled here is the set of rationals whose
denominator is a power of a fixed prime p.  Exponents are kept in the
canonical shape num/p**pow with pow == 0 or p not dividing num, so equality
and hashing agree with equality of rationals.  The prime itself is ambient:
it is supplied to the operations rather than stored on every exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .coefficients import _strip
from .errors import ParseError


# Miller-Rabin with the first 13 primes as bases has no strong pseudoprime
# below PRIME_LIMIT (Sorenson and Webster 2015), so the test is exact there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic primality test; raises ParseError for n >= PRIME_LIMIT."""
    if n < 2:
        return False
    if n >= PRIME_LIMIT:
        raise ParseError(f"{n} is too large to test for primality (limit {PRIME_LIMIT})")
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class PExp:
    """The exponent num / p**pow in canonical form."""

    num: int
    pow: int

    def as_fraction(self, p: int) -> Fraction:
        return Fraction(self.num, p ** self.pow)

    def __repr__(self) -> str:
        return f"PExp({self.num}, {self.pow})"


ZERO = PExp(0, 0)
ONE = PExp(1, 0)


def canon(num: int, pow: int, p: int) -> PExp:
    """Bring num / p**pow to canonical form.  The factors p come off through
    ``coefficients._strip``, by repeated squaring, so a large pow costs
    O(log(pow)^2) divisions of num.  This is also how every integer kernel
    (series.PSeries, series.ResiduePoly) reads an exponent n / p^K back as a
    PExp."""
    if pow < 0:
        raise ValueError("denominator exponent must be non-negative")
    if num == 0:
        return ZERO
    if pow and not num % p:
        num, j = _strip(num, p, pow)
        pow -= j
    return PExp(num, pow)


def exp_add(x: PExp, y: PExp, p: int) -> PExp:
    b = max(x.pow, y.pow)
    return canon(x.num * p ** (b - x.pow) + y.num * p ** (b - y.pow), b, p)


def exp_neg(x: PExp) -> PExp:
    return PExp(-x.num, x.pow)


def antidiagonal_stream(p: int) -> Iterator[PExp]:
    """Yield a/p**b walking antidiagonals of the (a, b) grid.

    The walk visits a + b = k for k = 0, 1, 2, ... and runs each antidiagonal
    from (0, k) to (k, 0).  It yields the pairs in lowest terms, b = 0 or
    p not dividing a; any other pair has the value of (a/p, b - 1), met on an
    earlier antidiagonal.  So the stream enumerates Z[1/p] cap [0, oo)
    without repetition.
    """
    k = 0
    while True:
        for a in range(k + 1):
            if a % p or a == k:
                yield PExp(a, k - a)
        k += 1


def enumerate_antidiagonal(p: int, count: int) -> list[PExp]:
    if count < 1:
        raise ValueError("count must be positive")
    stream = antidiagonal_stream(p)
    return [next(stream) for _ in range(count)]


def _power_of(n: int, p: int) -> int | None:
    """Return b when n == p**b, else None; n is positive."""
    n, b = _strip(n, p)
    return b if n == 1 else None


# Most Calkin-Wilf terms a walk inspects: a filtered walk is exponential in
# the count it keeps, so this bounds its work (at most 0.01 s of CPU at the
# cap, CPython 3.11.7, 2-vCPU Xeon).  No unfiltered --count up to cli.MAX_COUNT
# reaches it.
MAX_CALKIN_WILF_TERMS = 2**15


def enumerate_calkin_wilf(count: int, p_filter: int | None = None):
    """First `count` Calkin-Wilf terms.

    The walk of the positive rationals starts at 1 and steps the coprime
    pair (a, b) of the term a / b to (b, 2 * (a // b) * b - a + b), the pair
    of 1 / (2 * floor(a / b) - a / b + 1).  Without a filter the raw sequence
    is returned, as Fractions.  With p_filter the stream is restricted to
    terms whose denominator is a power of p_filter and those are returned as
    PExp values; `count` is the number of terms kept, not the number
    inspected.  A value is built only for a term that is kept.  A walk that
    inspects MAX_CALKIN_WILF_TERMS terms without keeping `count` raises
    ParseError.
    """
    if count < 1:
        raise ValueError("count must be positive")
    out: list = []
    a, b = 1, 1
    for _ in range(MAX_CALKIN_WILF_TERMS):
        if p_filter is None:
            out.append(Fraction(a, b))
        elif (k := _power_of(b, p_filter)) is not None:
            out.append(canon(a, k, p_filter))
        if len(out) == count:
            return out
        a, b = b, 2 * (a // b) * b - a + b
    raise ParseError(
        f"the Calkin-Wilf walk kept {len(out)} of {count} values"
        f" in its first {MAX_CALKIN_WILF_TERMS} terms"
    )
