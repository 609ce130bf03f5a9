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

A series is stored as an integer kernel ``(K, D, {n: a})``: the sum of the
terms (a / D) * v^(n / p^K).  The kernel is kept in a normal form, so equal
series have equal kernels and equality compares the stored fields:

* K is as small as the exponents allow: K = 0, or some n is prime to p;
* D > 0 and D is coprime to the numerators taken together;
* no numerator is zero, and no term lies at or above the precision, which
  holds exactly when p^(V + v_p(D)) does not divide its numerator.

Every operation reads and writes kernels.  A sum lifts both operands onto
the finer grid and the common denominator; a product adds exponents as
integers and multiplies numerators over D1 * D2; truncation, the Gauss
valuation and the dominant terms test the numerators for divisibility by
powers of p; the subring tests read the signs of the n.  Each result goes
through one constructor, ``_series``, which drops zero and truncated terms,
divides out the gcd of D and the numerators and coarsens the grid.  The
public view ``terms``, a dict from canonical ``PExp`` to ``PadicCoeff``, is
built from the kernel on every access and is not kept.

The reduction to the residue field, ``ResiduePoly``, is the same kernel with
no denominator, ``(K, {n: a})`` with each a in 1..p-1, built by one
constructor, ``_residue``; its ``coeffs`` is a view like ``terms``.  Each
kernel loop is written once: ``_convolve`` for every product and sum of
products of kernels (those of ``classical.LaurentPoly`` and of
``determinants`` too; a matrix product runs ``matrices._flat_product``, and
the power step of ``PSeries.inverse`` is its own loop), ``_add`` for sums,
``_reduce`` to drop zero numerators or take them mod p (for every kernel
type and the determinant sums), ``_kernel`` to read outside terms (for the
constructor and the literal parser), and ``exponents.canon`` to read an
n / p^K back as a ``PExp``.

The power step of ``inverse`` is its own loop because it is the inner loop
of inversion, timed as CPU in one process on the seed-7 benchmark pools
(CPython 3.11, alternating rounds): on the 72 inversions of a ``series``
pool, a ``_convolve`` call per step, even with its first row built by a
comprehension, took 7 % more than the inline step, which was faster in 24
of 30 rounds, while the same comprehension inside ``_convolve`` or
``_flat_product`` left the ``series``, ``matrix`` and ``split`` pool passes
within 1 %, so those keep their one loop.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import not_
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
from .exponents import PExp, ZERO, canon, is_prime


class SubringTag(Enum):
    """Which of the three ambient rings a computation is performed in."""

    NONNEG = "nonneg"
    NONPOS = "nonpos"
    FULL = "full"


# ----------------------------------------------------------------------
# the integer kernel


def _kernel(p: int, K: int, terms) -> tuple[int, dict]:
    """(D, {n: a}): the terms (a, d, num, pw), each (a / d) * v^(num / p^pw)
    with d > 0 and pw <= K, as numerators over the lcm D of the d on the grid
    p^K, equal exponents merged.  a / d need not be in lowest terms; the
    normal form divides out what D and the numerators share.  Each term
    builds its own power: a table of all of p^0 .. p^K would be O(K^2)
    bits."""
    D = 1
    for _, d, _, _ in terms:
        if D % d:
            D = lcm(D, d)
    acc: dict[int, int] = {}
    for a, d, num, pw in terms:
        n = num * p ** (K - pw)
        acc[n] = acc.get(n, 0) + a * (D // d)
    return D, acc


# gcd and lcm are folded pairwise: unpacking many values into one call
# builds a tuple of that size, and freed tuples of up to 20 items stay on the
# interpreter's free lists (5 MiB more resident memory on the matrix bench).


def _gcd(g: int, nums) -> int:
    for a in nums:
        if g == 1:
            break
        g = gcd(g, a)
    return g


def _gauss(p: int, D: int, nums) -> Valuation:
    """Minimum valuation of the coefficients a / D, a in nums (none zero)."""
    if not nums:
        return INFINITY
    return Valuation(_int_valuation(_gcd(0, nums), p) - _int_valuation(D, p))


def _modulus(p: int, D: int, cutoff: int) -> int | None:
    """q = p^(cutoff + v_p(D)): a / D has valuation >= cutoff exactly when q
    divides a.  None when that holds for every a."""
    m = cutoff + _int_valuation(D, p)
    return p ** m if m > 0 else None


def _reduce(p: int, acc: dict) -> dict:
    """acc reduced mod p when p is nonzero, without its zero numerators; acc
    itself when p is 0, its zero numerators deleted in place."""
    if p:
        return {n: r for n, a in acc.items() if (r := a % p)}
    if 0 in acc.values():
        for n in [*compress(acc, map(not_, acc.values()))]:
            del acc[n]
    return acc


def _normalise(p: int, D: int, acc: dict, cutoff: int | None):
    """Drop zero terms and terms of valuation >= cutoff, then divide out the
    gcd of D and the numerators.  Zero terms are deleted from acc itself: a
    normal-form kernel holds no zero, so only a fresh accumulator is ever
    changed, and a kernel handed over from a series is not."""
    if cutoff is None:
        if 0 in acc.values():
            _reduce(0, acc)
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


def _coarsen(p: int, K: int, acc: dict):
    """The kernel on the coarsest grid: K = 0, or some n is prime to p."""
    if not K or any(n % p for n in acc):
        return K, acc
    g = _gcd(0, acc)
    j = min(K, _int_valuation(g, p)) if g else K
    q = p ** j
    return K - j, {n // q: a for n, a in acc.items()}


def _lift(ints: dict, q: int, u: int) -> dict:
    """The kernel with exponents times q and numerators times u."""
    if q == 1 and u == 1:
        return ints
    return {n * q: a * u for n, a in ints.items()}


def _finite(v: Valuation | None) -> Valuation | None:
    return None if v is None or v.is_infinite else v


def _rational(c, p: int):
    """A coefficient as an int or a Fraction; a PadicCoeff must be over p."""
    if isinstance(c, PadicCoeff):
        if c.prime != p:
            raise PrimeMismatch(f"coefficient over p={c.prime} in a series over p={p}")
        return c.value
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


def _repr_terms(f) -> str:
    p = f.prime
    terms = f.ordered_terms()
    return ", ".join(f"{e.num}/{p}^{e.pow}: {c}" if e.pow else f"{e.num}: {c}" for e, c in terms)


def _series(p: int, K: int, D: int, acc: dict, precision=None) -> "PSeries":
    """The series of the kernel (K, D, acc), brought to normal form.  The
    precision must be a finite Valuation or None (exact); nothing is
    validated."""
    s = object.__new__(PSeries)
    s._store(p, K, D, acc, precision)
    return s


def _aligned(f, g):
    """(K, f', g'): the kernels of f and g on the finer grid p^K of the two."""
    p, K = f.prime, max(f.K, g.K)
    return K, _lift(f.ints, p ** (K - f.K), 1), _lift(g.ints, p ** (K - g.K), 1)


def _convolve(left: dict, right: dict, acc: dict) -> dict:
    """Add the product of the kernels left and right into acc; zeros stay."""
    get = acc.get
    pairs = list(right.items())
    for n1, a1 in left.items():
        for n2, a2 in pairs:
            n = n1 + n2
            acc[n] = get(n, 0) + a1 * a2
    return acc


def _mul_precision(f: "PSeries", g: "PSeries") -> Valuation | None:
    """The precision of f * g, min(V_f + nu(g), V_g + nu(f)) with nu the
    valuation below the cutoff (``_effective_valuation``) and a missing
    cutoff counted as infinity; None when both are exact."""
    cands = []
    if f.precision is not None:
        cands.append(f.precision + g._effective_valuation())
    if g.precision is not None:
        cands.append(g.precision + f._effective_valuation())
    return _finite(min(cands)) if cands else None


def _add(f: dict, g: dict) -> dict:
    """The sum of two kernels on one grid, as a new dict; a numerator that
    cancels to 0 is dropped, and neither operand is changed."""
    if len(g) > len(f):
        f, g = g, f
    out = dict(f)
    for n, a in g.items():
        s = out.get(n, 0) + a
        if s:
            out[n] = s
        else:
            del out[n]
    return out


class PSeries:
    """A finite-support series over Q with p-adic coefficient arithmetic.

    The state is the normal-form kernel: the terms (a / D) * v^(n / p^K) for
    n, a in ``ints``, with ``precision`` a finite Valuation or None.  The
    constructor validates and merges outside input; ``terms`` builds the
    dict from canonical exponent to coefficient on each access."""

    __slots__ = ("prime", "K", "D", "ints", "precision")

    def __init__(self, prime, terms: Mapping | Iterable = (), precision=None):
        if not is_prime(prime):
            raise ValueError(f"{prime} is not a prime")
        if isinstance(precision, int):
            precision = Valuation(precision)
        if isinstance(precision, Valuation) and precision.is_infinite:
            precision = None
        K, quads = 0, []
        for e, c in terms.items() if isinstance(terms, Mapping) else terms:
            pw = e.pow
            if pw < 0:
                raise ValueError("denominator exponent must be non-negative")
            if pw > K:
                K = pw
            c = _rational(c, prime)
            quads.append((c.numerator, c.denominator, e.num, pw))
        self._store(prime, K, *_kernel(prime, K, quads), precision)

    def _store(self, prime: int, K: int, D: int, acc: dict, precision) -> None:
        """Keep the kernel (K, D, acc) in normal form."""
        D, acc = _normalise(prime, D, acc, None if precision is None else precision.v)
        K, acc = _coarsen(prime, K, acc)
        self.prime, self.K, self.D, self.ints, self.precision = prime, K, D, acc, precision

    @property
    def terms(self) -> dict[PExp, PadicCoeff]:
        """A new dict from canonical exponent to coefficient: one PExp, one
        Fraction and one PadicCoeff per term, built on each access."""
        p, K, D = self.prime, self.K, self.D
        return {canon(n, K, p): PadicCoeff(Fraction(a, D), p) for n, a in self.ints.items()}

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def zero(cls, prime: int) -> "PSeries":
        return cls(prime)

    @classmethod
    def one(cls, prime: int) -> "PSeries":
        return cls(prime, {ZERO: 1})

    @classmethod
    def monomial(cls, prime: int, e: PExp, c=1) -> "PSeries":
        return cls(prime, {e: c})

    # ------------------------------------------------------------------
    # basic queries

    def is_zero(self) -> bool:
        return not self.ints

    def ordered_terms(self) -> list[tuple[PExp, Fraction]]:
        """(exponent, coefficient) pairs by ascending exponent."""
        p, K, D = self.prime, self.K, self.D
        return [(canon(n, K, p), Fraction(a, D)) for n, a in sorted(self.ints.items())]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PSeries):
            return NotImplemented
        # In normal form, equal series have equal kernels.
        return all(getattr(self, k) == getattr(other, k) for k in PSeries.__slots__)

    __hash__ = None

    def __repr__(self) -> str:
        tail = "" if self.precision is None else f"; O(val {self.precision})"
        return f"PSeries(p={self.prime}, {{{_repr_terms(self)}}}{tail})"

    # ------------------------------------------------------------------
    # ring operations

    def _check_prime(self, other: "PSeries") -> None:
        if self.prime != other.prime:
            raise PrimeMismatch(
                f"cannot combine series over p={self.prime} and p={other.prime}"
            )

    def _plus(self, other: "PSeries", sign: int) -> "PSeries":
        self._check_prime(other)
        p = self.prime
        K, D = max(self.K, other.K), lcm(self.D, other.D)
        out = _add(
            _lift(self.ints, p ** (K - self.K), D // self.D),
            _lift(other.ints, p ** (K - other.K), sign * (D // other.D)),
        )
        if self.precision is None:
            prec = other.precision
        elif other.precision is None:
            prec = self.precision
        else:
            prec = min(self.precision, other.precision)
        return _series(p, K, D, out, prec)

    def __add__(self, other: "PSeries") -> "PSeries":
        if not isinstance(other, PSeries):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: "PSeries") -> "PSeries":
        if not isinstance(other, PSeries):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self) -> "PSeries":
        return _series(self.prime, self.K, self.D, _lift(self.ints, 1, -1), self.precision)

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
        K, f, g = _aligned(self, other)
        exact = self.precision is None and other.precision is None
        prec = None if exact else _mul_precision(self, other)
        return _series(self.prime, K, self.D * other.D, _convolve(f, g, {}), prec)

    def scale(self, c) -> "PSeries":
        c = _rational(c, self.prime)
        p, u, d = self.prime, c.numerator, c.denominator
        prec = None
        if self.precision is not None:
            prec = _finite(self.precision + _gauss(p, d, [u] if u else []))
        return _series(p, self.K, self.D * d, _lift(self.ints, 1, u), prec)

    def shift(self, e: PExp) -> "PSeries":
        """Multiply by the monomial v^e (coefficient valuations untouched)."""
        if e == ZERO:
            return self
        p, K = self.prime, max(self.K, e.pow)
        q, s = p ** (K - self.K), e.num * p ** (K - e.pow)
        moved = {n * q + s: a for n, a in self.ints.items()}
        return _series(p, K, self.D, moved, self.precision)

    def truncate(self, cutoff) -> "PSeries":
        if isinstance(cutoff, int):
            cutoff = Valuation(cutoff)
        prec = cutoff if self.precision is None else min(self.precision, cutoff)
        return _series(self.prime, self.K, self.D, self.ints, _finite(prec))

    # ------------------------------------------------------------------
    # Gauss valuation and dominant part

    def gauss_valuation(self) -> Valuation:
        """Minimum coefficient valuation of the stored terms; infinite when
        none is stored (see ``check_determined``)."""
        return _gauss(self.prime, self.D, self.ints.values())

    def check_determined(self) -> None:
        """Raise ValueError when no term is stored below the cutoff: then the
        unknown tail decides the Gauss valuation and the dominant terms.  A
        stored term lies below the cutoff, so it decides them otherwise."""
        if not self.ints and self.precision is not None:
            raise ValueError(
                f"no term is known below val >= {self.precision}: the valuation is not determined"
            )

    def _dominant(self) -> list[int]:
        """Grid numerators n of the terms attaining the Gauss valuation."""
        if not self.ints:
            self.check_determined()
            raise ZeroSeries("the zero series has no dominant terms")
        p = self.prime
        q = p ** (_int_valuation(_gcd(0, self.ints.values()), p) + 1)
        return [n for n, a in self.ints.items() if a % q]

    def dominant_terms(self) -> set[PExp]:
        """Exponents whose coefficient attains the Gauss valuation."""
        return {canon(n, self.K, self.prime) for n in self._dominant()}

    def degree(self) -> PExp:
        """Largest dominant exponent."""
        return canon(max(self._dominant()), self.K, self.prime)

    def normalize_gauss(self) -> "PSeries":
        """Scale by a power of p so the Gauss valuation becomes 0."""
        self.check_determined()
        gv = self.gauss_valuation()
        if gv.is_infinite:
            raise ZeroSeries("cannot normalize the zero series")
        return self.scale(Fraction(self.prime) ** (-gv.v))

    # ------------------------------------------------------------------
    # units, inversion, reduction

    def in_subring(self, ring: SubringTag) -> bool:
        if ring is SubringTag.NONNEG:
            return min(self.ints, default=0) >= 0
        if ring is SubringTag.NONPOS:
            return max(self.ints, default=0) <= 0
        return True

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
        if not self.ints:
            return False
        dom = self._dominant()
        if ring is SubringTag.FULL:
            return len(dom) == 1
        return dom == [0]

    def inverse(self, target) -> "PSeries":
        """Invert a full-ring unit up to the given precision cutoff.

        Writing f = v^e * a0 * (1 - g) with gauss_valuation(g) = w > 0, the
        inverse is v^-e * a0^-1 * sum(g^i).  Enough powers are accumulated,
        each truncated at the working cutoff, with guard digits when a0 has
        positive valuation, for the result to agree with the true inverse
        modulo valuation >= target; monomial units invert exactly.  The sum
        runs on the grid of f and only the result is normalised.

        One modulus is enough.  g is kept over g_den = |a_e| / gcd(a_e, the
        other numerators), and a_e has the least valuation of them, so g_den
        is prime to p.  A numerator a over g_den^i then has valuation >=
        cutoff exactly when q = p^cutoff divides it, for every power i and
        for the sum.  Power i is kept as bare numerators over g_den^i, with
        no gcd taken, and the sum over the fixed denominator g_den^steps:
        each term of a power that survives the cutoff is added once, times
        g_den^(steps - i), and the sum is never rescaled or swept.  A
        coefficient of the sum that reaches the cutoff is dropped at once;
        that per-step truncation decides the representative, and the oracle
        does the same.  g^steps has Gauss valuation >= steps * w >= cutoff,
        so every term of it would be dropped: only powers 1 .. steps - 1
        are formed.  None of them is empty: power i agrees with g^i below
        the cutoff, and g^i has Gauss valuation i * w < cutoff (Gauss's lemma).

        Each step builds one dict, the product of g and the last power, and
        that dict becomes the next power: g's first term fills it by one
        comprehension, its other terms are added in place, and the terms
        that reach the cutoff are deleted after the pass that adds the rest
        to the sum.  Its key order is the one ``_convolve(g, power, {})``
        would give, so every power and sum is built in the same order.
        """
        if isinstance(target, Valuation):
            if target.is_infinite:
                raise ValueError("precision target must be finite")
            target = target.v
        if target <= 0:
            raise NonpositivePrecision(f"precision target {target} is not positive")
        if not self.is_unit(SubringTag.FULL):
            raise NotAUnit("only units of the full ring can be inverted")
        # f = sum (a / D) v^(n / p^K) and a0 = a_e / D, so a0^-1 = D / a_e and
        # g = -sum over n != n_e of (a / a_e) v^((n - n_e) / p^K).
        p, K, D = self.prime, self.K, self.D
        (n_e,) = self._dominant()
        ints = dict(self.ints)
        a_e = ints.pop(n_e)
        lead = D if a_e > 0 else -D
        if not ints:
            return _series(p, K, abs(a_e), {-n_e: lead}, None)
        sign = -1 if a_e > 0 else 1
        g_den, g = _normalise(
            p, abs(a_e), {n - n_e: sign * a for n, a in ints.items()}, None
        )
        w = _gauss(p, g_den, g.values()).v
        cutoff = target + max(_int_valuation(a_e, p) - _int_valuation(D, p), 0)
        steps = -(-cutoff // w)
        q, den = p ** cutoff, g_den ** steps
        acc, power, scale = {0: den}, {0: 1}, den
        get = acc.get
        (e1, c1), *rest = g.items()
        for _ in range(steps - 1):
            scale //= g_den
            product = {n + e1: c1 * a for n, a in power.items()}
            pget = product.get
            for n1, a1 in rest:
                for n2, a2 in power.items():
                    n = n1 + n2
                    product[n] = pget(n, 0) + a1 * a2
            dropped = []
            for n, a in product.items():
                if a % q:
                    s = get(n, 0) + a * scale
                    if s % q:
                        acc[n] = s
                    else:
                        del acc[n]
                else:
                    dropped.append(n)
            for n in dropped:
                del product[n]
            power = product
        acc = {n - n_e: a * lead for n, a in acc.items()}
        return _series(p, K, den * abs(a_e), acc, Valuation(target))

    def reduce(self) -> "ResiduePoly":
        """Term-wise image in the residue field, for series of norm <= 1."""
        if self.gauss_valuation() < Valuation(0):
            raise NormExceedsOne("series has a coefficient of negative valuation")
        if self.precision is not None and not (Valuation(0) < self.precision):
            raise ValueError("series is not determined modulo the maximal ideal")
        # Norm <= 1 and gcd(D, numerators) = 1 leave D prime to p.
        p = self.prime
        return _residue(p, self.K, _lift(self.ints, 1, pow(self.D, -1, p)))

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


def _residue(p: int, K: int, acc: dict) -> "ResiduePoly":
    """The residue polynomial of the kernel (K, acc), brought to normal form:
    numerators mod p, zeros dropped, the grid coarsened."""
    r = object.__new__(ResiduePoly)
    r.prime = p
    r.K, r.ints = _coarsen(p, K, _reduce(p, acc))
    return r


class ResiduePoly:
    """Image of a norm-at-most-one series over the residue field F_p.

    The state is a kernel like that of ``PSeries`` with no denominator: the
    terms a * v^(n / p^K) for n, a in ``ints``, every a in 1..p-1 and K as
    small as the exponents allow, so equality compares the stored fields.
    Every result goes through ``_residue``; ``coeffs`` builds the dict from
    canonical exponent to residue on each access."""

    __slots__ = ("prime", "K", "ints")

    def __init__(self, prime: int, coeffs: Mapping | Iterable = ()):
        """Validate and merge outside input: the reduction of the series with
        these (exponent, integer) terms."""
        r = PSeries(prime, coeffs).reduce()
        self.prime, self.K, self.ints = r.prime, r.K, r.ints

    @property
    def coeffs(self) -> dict[PExp, int]:
        """A new dict from canonical exponent to residue, built on each access."""
        p, K = self.prime, self.K
        return {canon(n, K, p): a for n, a in self.ints.items()}

    def ordered_terms(self) -> list[tuple[PExp, int]]:
        """(exponent, residue) pairs by ascending exponent."""
        p, K = self.prime, self.K
        return [(canon(n, K, p), a) for n, a in sorted(self.ints.items())]

    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResiduePoly):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in ResiduePoly.__slots__)

    __hash__ = None

    def _check_prime(self, other: "ResiduePoly") -> None:
        if self.prime != other.prime:
            raise PrimeMismatch("residue polynomials over different primes")

    def __add__(self, other: "ResiduePoly") -> "ResiduePoly":
        if not isinstance(other, ResiduePoly):
            return NotImplemented
        self._check_prime(other)
        K, f, g = _aligned(self, other)
        return _residue(self.prime, K, _add(f, g))

    def __mul__(self, other: "ResiduePoly") -> "ResiduePoly":
        """Convolution on the p^K exponent scale, reduced mod p once."""
        if not isinstance(other, ResiduePoly):
            return NotImplemented
        self._check_prime(other)
        K, f, g = _aligned(self, other)
        return _residue(self.prime, K, _convolve(f, g, {}))

    def __repr__(self) -> str:
        return f"ResiduePoly(p={self.prime}, {{{_repr_terms(self)}}})"
