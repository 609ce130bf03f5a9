"""Finite-support series over the perfectoid Tate rings and their unit theory.

A series is a finite sum of terms c * v^e with e in Z[1/p] and c an exact
rational weighed p-adically.  Three subrings are distinguished by the sign of
the exponents that may occur: non-negative only, non-positive only, and the
full two-sided ring.

A series is either exact or carries a precision cutoff V, in which case it
stands for its stored terms modulo terms of coefficient valuation >= V.  The
normal form never stores a coefficient at or above the cutoff.  Precision is
propagated through sums (minimum of the cutoffs) and products (for f * g the
cutoff is min(V_f + nu(g), V_g + nu(f)) where nu is the Gauss valuation and a
missing cutoff counts as infinity).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping

from .coefficients import INFINITY, PadicCoeff, Valuation
from .errors import (
    NonpositivePrecision,
    NormExceedsOne,
    NotAUnit,
    PrimeMismatch,
    SubringViolation,
    ZeroSeries,
)
from .exponents import PExp, ZERO, canon, exp_add, exp_neg, is_prime


class SubringTag(Enum):
    """Which of the three ambient rings a computation is performed in."""

    NONNEG = "nonneg"
    NONPOS = "nonpos"
    FULL = "full"

    def admits(self, e: PExp) -> bool:
        if self is SubringTag.NONNEG:
            return e.num >= 0
        if self is SubringTag.NONPOS:
            return e.num <= 0
        return True


class PSeries:
    """A finite-support series over Q with p-adic coefficient arithmetic."""

    __slots__ = ("prime", "terms", "precision")

    def __init__(self, prime, terms: Mapping | Iterable = (), precision=None):
        if not is_prime(prime):
            raise ValueError(f"{prime} is not a prime")
        if isinstance(precision, int):
            precision = Valuation(precision)
        if isinstance(precision, Valuation) and precision.is_infinite:
            precision = None
        acc: dict[PExp, PadicCoeff] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for e, c in items:
            e = canon(e.num, e.pow, prime)
            if not isinstance(c, PadicCoeff):
                c = PadicCoeff(Fraction(c), prime)
            elif c.prime != prime:
                raise PrimeMismatch(
                    f"coefficient over p={c.prime} in a series over p={prime}"
                )
            acc[e] = acc[e] + c if e in acc else c
        clean = {
            e: c
            for e, c in acc.items()
            if c and (precision is None or c.valuation() < precision)
        }
        self.prime = prime
        self.terms = clean
        self.precision = precision

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def zero(cls, prime: int) -> "PSeries":
        return cls(prime)

    @classmethod
    def one(cls, prime: int) -> "PSeries":
        return cls(prime, {ZERO: 1})

    @classmethod
    def constant(cls, prime: int, c) -> "PSeries":
        return cls(prime, {ZERO: c})

    @classmethod
    def monomial(cls, prime: int, e: PExp, c=1) -> "PSeries":
        return cls(prime, {e: c})

    # ------------------------------------------------------------------
    # basic queries

    def is_zero(self) -> bool:
        return not self.terms

    def is_exact(self) -> bool:
        return self.precision is None

    def coefficient(self, e: PExp) -> PadicCoeff:
        return self.terms.get(e, PadicCoeff(Fraction(0), self.prime))

    def support(self) -> list[PExp]:
        return sorted(self.terms, key=lambda e: e.as_fraction(self.prime))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PSeries):
            return NotImplemented
        return (
            self.prime == other.prime
            and self.terms == other.terms
            and self.precision == other.precision
        )

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(
            f"{e.num}/{self.prime}^{e.pow}: {c.value}" if e.pow else f"{e.num}: {c.value}"
            for e, c in sorted(
                self.terms.items(), key=lambda it: it[0].as_fraction(self.prime)
            )
        )
        tail = "" if self.precision is None else f"; O(val {self.precision})"
        return f"PSeries(p={self.prime}, {{{body}}}{tail})"

    # ------------------------------------------------------------------
    # ring operations

    def _check_prime(self, other: "PSeries") -> None:
        if self.prime != other.prime:
            raise PrimeMismatch(
                f"cannot combine series over p={self.prime} and p={other.prime}"
            )

    def __add__(self, other: "PSeries") -> "PSeries":
        if not isinstance(other, PSeries):
            return NotImplemented
        self._check_prime(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc[e] + c if e in acc else c
        if self.precision is None:
            prec = other.precision
        elif other.precision is None:
            prec = self.precision
        else:
            prec = min(self.precision, other.precision)
        return PSeries(self.prime, acc, prec)

    def __neg__(self) -> "PSeries":
        return PSeries(
            self.prime, {e: -c for e, c in self.terms.items()}, self.precision
        )

    def __sub__(self, other: "PSeries") -> "PSeries":
        if not isinstance(other, PSeries):
            return NotImplemented
        return self + (-other)

    def _effective_valuation(self) -> Valuation:
        # Lower bound for the valuation of whatever this series stands for,
        # taking the unknown tail below the cutoff into account.
        gv = self.gauss_valuation()
        if self.precision is None:
            return gv
        return min(gv, self.precision)

    def __mul__(self, other: "PSeries") -> "PSeries":
        if not isinstance(other, PSeries):
            return NotImplemented
        self._check_prime(other)
        acc: dict[PExp, PadicCoeff] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = exp_add(e1, e2, self.prime)
                c = c1 * c2
                acc[e] = acc[e] + c if e in acc else c
        cands = []
        if self.precision is not None:
            cands.append(self.precision + other._effective_valuation())
        if other.precision is not None:
            cands.append(other.precision + self._effective_valuation())
        prec = min(cands) if cands else None
        return PSeries(self.prime, acc, prec)

    def scale(self, c) -> "PSeries":
        if not isinstance(c, PadicCoeff):
            c = PadicCoeff(Fraction(c), self.prime)
        return self * PSeries(self.prime, {ZERO: c})

    def shift(self, e: PExp) -> "PSeries":
        """Multiply by the monomial v^e (coefficient valuations untouched)."""
        if e == ZERO:
            return self
        moved = {exp_add(x, e, self.prime): c for x, c in self.terms.items()}
        return PSeries(self.prime, moved, self.precision)

    def truncate(self, cutoff) -> "PSeries":
        if isinstance(cutoff, int):
            cutoff = Valuation(cutoff)
        prec = cutoff if self.precision is None else min(self.precision, cutoff)
        return PSeries(self.prime, self.terms, prec)

    # ------------------------------------------------------------------
    # Gauss valuation and dominant part

    def gauss_valuation(self) -> Valuation:
        """Minimum coefficient valuation; infinite for the zero series."""
        if not self.terms:
            return INFINITY
        return min(c.valuation() for c in self.terms.values())

    def dominant_terms(self) -> set[PExp]:
        """Exponents whose coefficient attains the Gauss valuation."""
        if not self.terms:
            raise ZeroSeries("the zero series has no dominant terms")
        gv = self.gauss_valuation()
        return {e for e, c in self.terms.items() if c.valuation() == gv}

    def degree(self) -> PExp:
        """Largest dominant exponent."""
        dom = self.dominant_terms()
        return max(dom, key=lambda e: e.as_fraction(self.prime))

    def normalize_gauss(self) -> "PSeries":
        """Scale by a power of p so the Gauss valuation becomes 0."""
        gv = self.gauss_valuation()
        if gv.is_infinite:
            raise ZeroSeries("cannot normalize the zero series")
        return self.scale(Fraction(self.prime) ** (-gv.v))

    # ------------------------------------------------------------------
    # units, inversion, reduction

    def in_subring(self, ring: SubringTag) -> bool:
        return all(ring.admits(e) for e in self.terms)

    def is_unit(self, ring: SubringTag) -> bool:
        """Unit test in the given ring.

        In the one-sided rings a series is a unit exactly when its constant
        term strictly dominates every other coefficient.  In the full ring it
        is a unit exactly when a single exponent is dominant, equivalently
        when the reduction of the Gauss-normalized series is a monomial.
        """
        if self.precision is not None:
            raise ValueError("unit test requires an exact series")
        if not self.in_subring(ring):
            raise SubringViolation(
                f"series does not lie in the {ring.value} subring"
            )
        if not self.terms:
            return False
        dom = self.dominant_terms()
        if ring is SubringTag.FULL:
            return len(dom) == 1
        return dom == {ZERO}

    def monomial_factor(self) -> "UnitDecomposition":
        """Write a full-ring unit as v^e * u with u a unit of constant shape."""
        if not self.is_unit(SubringTag.FULL):
            raise NotAUnit("series is not a unit of the full ring")
        (e,) = self.dominant_terms()
        return UnitDecomposition(e, self.shift(exp_neg(e)))

    def inverse(self, target) -> "PSeries":
        """Invert a full-ring unit up to the given precision cutoff.

        Writing f = v^e * a0 * (1 - g) with gauss_valuation(g) = w > 0, the
        inverse is v^-e * a0^-1 * sum(g^i).  Enough powers are accumulated,
        with guard digits when a0 has positive valuation, for the result to
        agree with the true inverse modulo valuation >= target; monomial
        units invert exactly.
        """
        if isinstance(target, Valuation):
            if target.is_infinite:
                raise ValueError("precision target must be finite")
            target = target.v
        if target <= 0:
            raise NonpositivePrecision(f"precision target {target} is not positive")
        if not self.is_unit(SubringTag.FULL):
            raise NotAUnit("only units of the full ring can be inverted")
        (e,) = self.dominant_terms()
        a0 = self.terms[e]
        inv_lead = PSeries.monomial(self.prime, exp_neg(e), a0.invert())
        g = PSeries.one(self.prime) - self.shift(exp_neg(e)).scale(a0.invert())
        if g.is_zero():
            return inv_lead
        w = g.gauss_valuation().v
        cutoff = target + max(a0.valuation().v, 0)
        n_powers = -(-cutoff // w)
        acc = PSeries.one(self.prime)
        power = PSeries.one(self.prime)
        for _ in range(n_powers):
            power = (power * g).truncate(cutoff)
            acc = acc + power
        return (inv_lead * acc).truncate(target)

    def reduce(self) -> "ResiduePoly":
        """Term-wise image in the residue field, for series of norm <= 1."""
        if self.gauss_valuation() < Valuation(0):
            raise NormExceedsOne("series has a coefficient of negative valuation")
        if self.precision is not None and not (Valuation(0) < self.precision):
            raise ValueError("series is not determined modulo the maximal ideal")
        return ResiduePoly(
            self.prime, {e: c.reduce() for e, c in self.terms.items()}
        )

    def equals_mod(self, other: "PSeries", cutoff) -> bool:
        """True when self - other has no term of valuation below the cutoff.

        Raises ValueError when the cutoff exceeds the precision of
        self - other, since terms there are unknown.
        """
        if isinstance(cutoff, int):
            cutoff = Valuation(cutoff)
        diff = self - other
        if diff.precision is not None and diff.precision < cutoff:
            raise ValueError(f"cutoff {cutoff} exceeds the known precision {diff.precision}")
        return all(not (c.valuation() < cutoff) for c in diff.terms.values())


@dataclass(frozen=True)
class UnitDecomposition:
    """A unit split as v^exponent times a constant-dominant unit."""

    exponent: PExp
    unit: PSeries


class ResiduePoly:
    """Image of a norm-at-most-one series over the residue field F_p."""

    __slots__ = ("prime", "coeffs")

    def __init__(self, prime: int, coeffs: Mapping | Iterable = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[PExp, int] = {}
        for e, c in items:
            e = canon(e.num, e.pow, prime)
            c = c % prime
            if e in acc:
                c = (acc[e] + c) % prime
            acc[e] = c
        self.prime = prime
        self.coeffs = {e: c for e, c in acc.items() if c}

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def support(self) -> list[PExp]:
        return sorted(self.coeffs, key=lambda e: e.as_fraction(self.prime))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResiduePoly):
            return NotImplemented
        return self.prime == other.prime and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other: "ResiduePoly") -> "ResiduePoly":
        if self.prime != other.prime:
            raise PrimeMismatch("residue polynomials over different primes")
        acc = dict(self.coeffs)
        for e, c in other.coeffs.items():
            acc[e] = (acc.get(e, 0) + c) % self.prime
        return ResiduePoly(self.prime, acc)

    def __mul__(self, other: "ResiduePoly") -> "ResiduePoly":
        if self.prime != other.prime:
            raise PrimeMismatch("residue polynomials over different primes")
        acc: dict[PExp, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = exp_add(e1, e2, self.prime)
                acc[e] = (acc.get(e, 0) + c1 * c2) % self.prime
        return ResiduePoly(self.prime, acc)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{e.num}/{self.prime}^{e.pow}: {c}" if e.pow else f"{e.num}: {c}"
            for e, c in sorted(
                self.coeffs.items(), key=lambda it: it[0].as_fraction(self.prime)
            )
        )
        return f"ResiduePoly(p={self.prime}, {{{body}}})"
