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

The public view of a series is ``terms``, a dict from canonical ``PExp`` to
``PadicCoeff``; arithmetic does not work term by term on that view.  A
product, a scaling or an inversion reads its operands' terms once into an
integer kernel ``(K, D, {n: a})``: the term (a / D) * v^(n / p^K), with K the
largest exponent denominator power of the operands and D a common
coefficient denominator.  Exponents then add as integers and coefficients
multiply as integers over D1 * D2.  The result is normalised once: zero
numerators go, a term lies at or above the cutoff V exactly when
p^(V + v_p(D)) divides its numerator, and D is divided by the gcd of itself
and the numerators.  Its ``terms`` are then built in one pass, each exponent
n / p^K brought to lowest terms, through a constructor that trusts its
input; the public constructor still canonicalises and validates.  A sum
needs no exponent arithmetic, since canonical exponents are equal exactly
when the exponents are: it merges on the keys and builds new coefficients
only where terms coincide.  A shift moves the exponents on the p^K scale and
keeps the coefficients.  Truncation, the Gauss valuation and the dominant
terms apply the same divisibility test to the numerators over D.

A matrix determinant (``kernel_det``) reads every entry once onto one grid,
each row over its own denominator, runs a division-free routine on the
integer kernels and materialises only the determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .coefficients import INFINITY, PadicCoeff, Valuation, _int_valuation
from .errors import (
    NonpositivePrecision,
    NormExceedsOne,
    NotAUnit,
    PrimeMismatch,
    SubringViolation,
    ZeroSeries,
)
from .exponents import PExp, ZERO, canon, exp_neg, is_prime


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


# ----------------------------------------------------------------------
# the integer kernel


def _top_pow(exps) -> int:
    """Largest denominator power among the exponents, 0 when there are none."""
    return max((e.pow for e in exps), default=0)


def _grid(exps, p: int, K: int) -> list[int]:
    """Numerators of the exponents on the common scale p^K."""
    scale = [p ** (K - b) for b in range(K + 1)]
    return [e.num * scale[e.pow] for e in exps]


# gcd and lcm are folded pairwise: unpacking many values into one call
# builds a tuple of that size, and freed tuples of up to 20 items stay on the
# interpreter's free lists (5 MiB more resident memory on the matrix bench).


def _gcd(g: int, nums) -> int:
    for a in nums:
        if g == 1:
            break
        g = gcd(g, a)
    return g


def _denominator(terms) -> int:
    D = 1
    for c in terms.values():
        d = c.value.denominator
        if D % d:
            D = lcm(D, d)
    return D


def _numerators(terms, D: int) -> list[int]:
    """Coefficient numerators over the common denominator D."""
    return [c.value.numerator * (D // c.value.denominator) for c in terms.values()]


def _ints(terms, p: int, K: int, D: int) -> dict[int, int]:
    return dict(zip(_grid(terms, p, K), _numerators(terms, D)))


def _gauss(p: int, D: int, nums) -> Valuation:
    """Minimum valuation of the coefficients a / D, a in nums."""
    if not nums:
        return INFINITY
    return Valuation(_int_valuation(_gcd(0, nums), p) - _int_valuation(D, p))


def _exponent(n: int, K: int, p: int) -> PExp:
    """The exponent n / p^K in lowest terms."""
    while K and not n % p:
        n //= p
        K -= 1
    return PExp(n, K) if n else ZERO


def _modulus(p: int, D: int, cutoff: int) -> int | None:
    """q = p^(cutoff + v_p(D)): a / D has valuation >= cutoff exactly when q
    divides a.  None when that holds for every a."""
    m = cutoff + _int_valuation(D, p)
    return p ** m if m > 0 else None


def _normalise(p: int, D: int, acc: dict, cutoff: int | None):
    """Drop zero terms and terms of valuation >= cutoff, then divide out the
    gcd of D and the numerators."""
    if cutoff is None:
        acc = {n: a for n, a in acc.items() if a}
    else:
        q = _modulus(p, D, cutoff)
        if q is None:
            return 1, {}
        acc = {n: a for n, a in acc.items() if a % q}
    g = _gcd(D, acc.values())
    if g > 1:
        D //= g
        acc = {n: a // g for n, a in acc.items()}
    return D, acc


def _below(terms: dict, p: int, cutoff: int) -> dict:
    """The terms of valuation below the cutoff, as they stand."""
    D = _denominator(terms)
    q = _modulus(p, D, cutoff)
    if q is None:
        return {}
    return {e: c for (e, c), a in zip(terms.items(), _numerators(terms, D)) if a % q}


def _finite(v: Valuation | None) -> Valuation | None:
    return None if v is None or v.is_infinite else v


def _series(p: int, K: int, D: int, acc: dict, precision) -> "PSeries":
    """Normalise a kernel result and materialise it as a series."""
    D, acc = _normalise(p, D, acc, None if precision is None else precision.v)
    terms = {_exponent(n, K, p): PadicCoeff(Fraction(a, D), p) for n, a in acc.items()}
    return PSeries._canonical(p, terms, precision)


def _convolve(left: dict, right: dict) -> dict:
    acc: dict[int, int] = {}
    get = acc.get
    pairs = list(right.items())
    for n1, a1 in left.items():
        for n2, a2 in pairs:
            n = n1 + n2
            acc[n] = get(n, 0) + a1 * a2
    return acc


class _IntPoly:
    """An integer kernel {n: a} on a grid fixed by the caller, with no zero
    numerators: the ring a matrix determinant runs in.  It has just what the
    division-free routines in ``determinants`` use."""

    __slots__ = ("ints",)

    def __init__(self, ints: dict):
        self.ints = ints

    def is_zero(self) -> bool:
        return not self.ints

    def __add__(self, other: "_IntPoly") -> "_IntPoly":
        f, g = self.ints, other.ints
        if len(g) > len(f):
            f, g = g, f
        out = dict(f)
        for n, a in g.items():
            s = out.get(n, 0) + a
            if s:
                out[n] = s
            else:
                del out[n]
        return _IntPoly(out)

    def __neg__(self) -> "_IntPoly":
        return _IntPoly({n: -a for n, a in self.ints.items()})

    def __mul__(self, other: "_IntPoly") -> "_IntPoly":
        return _IntPoly({n: a for n, a in _convolve(self.ints, other.ints).items() if a})


def kernel_det(p: int, rows, det) -> "PSeries":
    """Determinant of a square matrix of exact series, computed by the
    division-free routine det(rows, one) on integer kernels.

    All entries go on one exponent grid p^K, and row i is scaled by the lcm
    D_i of its coefficient denominators, so its entries become integer
    kernels; det(A) = det(A') / prod(D_i) is then materialised once."""
    K = max(_top_pow(f.terms) for r in rows for f in r)
    D, scaled = 1, []
    for r in rows:
        D_i = 1
        for f in r:
            d = _denominator(f.terms)
            if D_i % d:
                D_i = lcm(D_i, d)
        D *= D_i
        scaled.append([_IntPoly(_ints(f.terms, p, K, D_i)) for f in r])
    return _series(p, K, D, det(scaled, _IntPoly({0: 1})).ints, None)


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

    @classmethod
    def _canonical(cls, prime: int, terms: dict, precision) -> "PSeries":
        """Wrap terms already in normal form: canonical exponents, nonzero
        coefficients below the precision, which is a finite Valuation or None."""
        s = object.__new__(cls)
        s.prime = prime
        s.terms = terms
        s.precision = precision
        return s

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

    def _plus(self, other: "PSeries", sign: int) -> "PSeries":
        self._check_prime(other)
        p, f, g = self.prime, self.terms, other.terms
        if sign > 0 and len(g) > len(f):
            f, g = g, f
        out = dict(f)
        for e, c in g.items():
            old = out.get(e)
            if old is None:
                out[e] = c if sign > 0 else -c
                continue
            s = old.value + c.value if sign > 0 else old.value - c.value
            if s:
                out[e] = PadicCoeff(s, p)
            else:
                del out[e]
        if self.precision is None:
            prec = other.precision
        elif other.precision is None:
            prec = self.precision
        else:
            prec = min(self.precision, other.precision)
        if prec is not None:
            out = _below(out, p, prec.v)
        return PSeries._canonical(p, out, prec)

    def __add__(self, other: "PSeries") -> "PSeries":
        if not isinstance(other, PSeries):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: "PSeries") -> "PSeries":
        if not isinstance(other, PSeries):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self) -> "PSeries":
        return PSeries._canonical(
            self.prime, {e: -c for e, c in self.terms.items()}, self.precision
        )

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
        p, f, g = self.prime, self.terms, other.terms
        K = max(_top_pow(f), _top_pow(g))
        D1, D2 = _denominator(f), _denominator(g)
        cands = []
        if self.precision is not None:
            cands.append(self.precision + other._effective_valuation())
        if other.precision is not None:
            cands.append(other.precision + self._effective_valuation())
        prec = _finite(min(cands)) if cands else None
        acc = _convolve(_ints(f, p, K, D1), _ints(g, p, K, D2))
        return _series(p, K, D1 * D2, acc, prec)

    def scale(self, c) -> "PSeries":
        if isinstance(c, PadicCoeff):
            if c.prime != self.prime:
                raise PrimeMismatch(
                    f"coefficient over p={c.prime} in a series over p={self.prime}"
                )
            c = c.value
        c = Fraction(c)
        p, f = self.prime, self.terms
        prec = None
        if self.precision is not None:
            prec = _finite(self.precision + PadicCoeff(c, p).valuation())
        K, D = _top_pow(f), _denominator(f)
        u = c.numerator
        acc = {n: a * u for n, a in _ints(f, p, K, D).items()}
        return _series(p, K, D * c.denominator, acc, prec)

    def shift(self, e: PExp) -> "PSeries":
        """Multiply by the monomial v^e (coefficient valuations untouched)."""
        if e == ZERO:
            return self
        p, f = self.prime, self.terms
        K = max(_top_pow(f), e.pow)
        (s,) = _grid([e], p, K)
        moved = {
            _exponent(n + s, K, p): c for n, c in zip(_grid(f, p, K), f.values())
        }
        return PSeries._canonical(p, moved, self.precision)

    def truncate(self, cutoff) -> "PSeries":
        if isinstance(cutoff, int):
            cutoff = Valuation(cutoff)
        prec = cutoff if self.precision is None else min(self.precision, cutoff)
        if prec.is_infinite:
            return PSeries._canonical(self.prime, dict(self.terms), None)
        return PSeries._canonical(self.prime, _below(self.terms, self.prime, prec.v), prec)

    # ------------------------------------------------------------------
    # Gauss valuation and dominant part

    def gauss_valuation(self) -> Valuation:
        """Minimum coefficient valuation; infinite for the zero series."""
        D = _denominator(self.terms)
        return _gauss(self.prime, D, _numerators(self.terms, D))

    def dominant_terms(self) -> set[PExp]:
        """Exponents whose coefficient attains the Gauss valuation."""
        if not self.terms:
            raise ZeroSeries("the zero series has no dominant terms")
        p, D = self.prime, _denominator(self.terms)
        nums = _numerators(self.terms, D)
        q = p ** (_int_valuation(_gcd(0, nums), p) + 1)
        return {e for e, a in zip(self.terms, nums) if a % q}

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
        each truncated at the working cutoff, with guard digits when a0 has
        positive valuation, for the result to agree with the true inverse
        modulo valuation >= target; monomial units invert exactly.  The sum
        runs on integer kernels and only the result is materialised.
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
        p, f = self.prime, self.terms
        a0 = f[e]
        if len(f) == 1:
            return PSeries._canonical(p, {exp_neg(e): a0.invert()}, None)
        # On the kernel, f = sum (a / D) v^(n / p^K) and a0 = a_e / D, so
        # g = -sum over n != n_e of (a / a_e) v^((n - n_e) / p^K).
        K, D = _top_pow(f), _denominator(f)
        ints = _ints(f, p, K, D)
        (n_e,) = _grid([e], p, K)
        a_e = ints.pop(n_e)
        sign = -1 if a_e > 0 else 1
        g_den, g = _normalise(
            p, abs(a_e), {n - n_e: sign * a for n, a in ints.items()}, None
        )
        w = _gauss(p, g_den, list(g.values())).v
        cutoff = target + max(a0.valuation().v, 0)
        acc_den, acc = 1, {0: 1}
        pow_den, power = 1, {0: 1}
        for _ in range(-(-cutoff // w)):
            pow_den, power = _normalise(p, pow_den * g_den, _convolve(power, g), cutoff)
            if not power:
                break
            den = lcm(acc_den, pow_den)
            u, v = den // acc_den, den // pow_den
            acc = {n: a * u for n, a in acc.items()}
            for n, a in power.items():
                acc[n] = acc.get(n, 0) + a * v
            acc_den, acc = _normalise(p, den, acc, cutoff)
        # v^-e * a0^-1 * acc, with a0^-1 = D / a_e.
        lead = D if a_e > 0 else -D
        acc = {n - n_e: a * lead for n, a in acc.items()}
        return _series(p, K, acc_den * abs(a_e), acc, Valuation(target))

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
        return not (diff.gauss_valuation() < cutoff)


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

    @classmethod
    def _canonical(cls, prime: int, coeffs: dict) -> "ResiduePoly":
        """Wrap coefficients already reduced to nonzero residues in [0, p)."""
        r = object.__new__(cls)
        r.prime = prime
        r.coeffs = coeffs
        return r

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

    def _check_prime(self, other: "ResiduePoly") -> None:
        if self.prime != other.prime:
            raise PrimeMismatch("residue polynomials over different primes")

    def __add__(self, other: "ResiduePoly") -> "ResiduePoly":
        self._check_prime(other)
        p = self.prime
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            c = (out.get(e, 0) + c) % p
            if c:
                out[e] = c
            else:
                del out[e]
        return ResiduePoly._canonical(p, out)

    def __mul__(self, other: "ResiduePoly") -> "ResiduePoly":
        """Convolution on the p^K exponent scale, reduced mod p once."""
        self._check_prime(other)
        p, f, g = self.prime, self.coeffs, other.coeffs
        K = max(_top_pow(f), _top_pow(g))
        acc = _convolve(
            dict(zip(_grid(f, p, K), f.values())), dict(zip(_grid(g, p, K), g.values()))
        )
        return ResiduePoly._canonical(
            p, {_exponent(n, K, p): c % p for n, c in acc.items() if c % p}
        )

    def __repr__(self) -> str:
        body = ", ".join(
            f"{e.num}/{self.prime}^{e.pow}: {c}" if e.pow else f"{e.num}: {c}"
            for e, c in sorted(
                self.coeffs.items(), key=lambda it: it[0].as_fraction(self.prime)
            )
        )
        return f"ResiduePoly(p={self.prime}, {{{body}}})"
