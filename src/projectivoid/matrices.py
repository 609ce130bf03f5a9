"""Square matrices of perfectoid series and vector-bundle invariants.

A transition matrix is a square matrix over the full ring whose determinant
is a unit there.  Its bundle degree is the exponent of the monomial factor of
the determinant, an invariant of the equivalence A -> V * A * U by one-sided
automorphisms: U over the non-negative subring, V over the non-positive one,
each with a determinant dominated by its constant term.

``SMatrix`` is the ``determinants.SquareMatrix`` over series.  Its
determinant, and so the transition test, ``bundle_degree`` and the three
validations in ``act``, lifts the entries' integer kernels onto one grid
(``series.scaled_rows``), calls ``determinants.det`` on them and normalises
the result once.  Rows dense on that grid, at any m, are packed into one
integer per entry (Kronecker substitution) and eliminated fraction-free in
integer arithmetic; other rows run the Berkowitz recursion on dicts.

The product of exact factors lifts each factor once onto the same grid, as
flat rows in which term n of entry (i, j) sits at key m * n + j, and runs
one convolution loop per row of the product (``SquareMatrix._product``).
``act`` multiplies V * A * U as one chain: V * A stays flat rows, and only
the entries of the whole product are normalised, with ``series._series``.
``random_automorphism`` applies each shear as a column operation.  With a
truncated entry each entry is the sum of the ``PSeries`` products added
left to right, so the precision rule lives in ``series`` alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod

from .determinants import SquareMatrix, det
from .errors import (
    InvalidAutomorphism,
    NotATransitionMatrix,
    PrimeMismatch,
)
from .exponents import PExp, ZERO, canon, exp_neg
from .series import PSeries, SubringTag, _series, scaled_rows


@dataclass(frozen=True)
class BundleDegree:
    """Exponent of the monomial factor of a transition determinant."""

    value: PExp


class SMatrix(SquareMatrix):
    """An m x m matrix with PSeries entries, all over one prime."""

    __slots__ = ()
    _BASE = "prime"
    _Mismatch = PrimeMismatch
    _one = staticmethod(PSeries.one)
    _zero = staticmethod(PSeries.zero)
    _entry = staticmethod(_series)

    @staticmethod
    def _check(prime: int, rows) -> None:
        for r in rows:
            for f in r:
                if not isinstance(f, PSeries):
                    raise TypeError("matrix entries must be PSeries")
                if f.prime != prime:
                    raise PrimeMismatch(f"entry over p={f.prime} in a matrix over p={prime}")

    def __mul__(self, other):
        """The product on integer kernels (``SquareMatrix.__mul__``), unless
        two factors over one prime and of one size have a truncated entry:
        then entry (i, j) is the sum of the products f * g, added left to
        right to the exact zero.  An exact-zero factor gives an exact-zero
        product, which changes neither the value nor the precision of the
        sum."""
        if not (isinstance(other, SMatrix) and self.base == other.base and self.m == other.m
                and any(f.precision is not None for M in (self, other) for r in M.rows for f in r)):
            return SquareMatrix.__mul__(self, other)
        zero = PSeries.zero(self.base)
        cols = [*zip(*other.rows)]
        return self._new(self.base, tuple(
            tuple(sum((f * g for f, g in zip(r, c)), zero) for c in cols) for r in self.rows))

    @property
    def prime(self) -> int:
        return self.base

    @classmethod
    def diagonal(cls, prime: int, entries) -> "SMatrix":
        """Diagonal matrix from PSeries entries or bare exponents (monomials)."""
        return super().diagonal(
            prime, [e if isinstance(e, PSeries) else PSeries.monomial(prime, e) for e in entries]
        )

    def __repr__(self) -> str:
        return f"SMatrix(p={self.prime}, m={self.m})"

    def det(self) -> PSeries:
        """Exact determinant: ``determinants.det`` run on the entries' integer
        kernels, all lifted onto the finest grid p^K of the entries, each row
        over its own denominator, and normalised once.  One sweep over the
        entries refuses a truncated one and finds K.  The entries are not
        changed."""
        K = 0
        for r in self.rows:
            for f in r:
                if f.precision is not None:
                    raise ValueError("operation requires exact matrix entries")
                if f.K > K:
                    K = f.K
        Ds, scaled = scaled_rows(self.prime, K, self.rows)
        return _series(self.prime, K, prod(Ds), det(scaled))

    def is_transition(self) -> bool:
        return self.det().is_unit(SubringTag.FULL)

    def bundle_degree(self) -> BundleDegree:
        """The exponent of the one dominant term of the determinant, which is
        a unit of the full ring exactly when it has one."""
        d = self.det()
        dom = d._dominant() if d.ints else ()
        if len(dom) != 1:
            raise NotATransitionMatrix("determinant is not a unit of the full ring")
        return BundleDegree(canon(dom[0], d.K, d.prime))

    def validate_automorphism(self, side: SubringTag) -> bool:
        """Entry-wise membership in the one-sided subring plus a unit determinant
        dominated by its constant term."""
        if side not in (SubringTag.NONNEG, SubringTag.NONPOS):
            raise ValueError("automorphism side must be NONNEG or NONPOS")
        if not all(f.in_subring(side) for r in self.rows for f in r):
            return False
        return self.det().is_unit(side)


def act(V: SMatrix, A: SMatrix, U: SMatrix) -> SMatrix:
    """Apply the equivalence A -> V * A * U after validating both factors and
    A.  Their determinants refuse truncated entries, so V * A * U is one chain
    of exact products on integer kernels (``SquareMatrix._product``)."""
    if not U.validate_automorphism(SubringTag.NONNEG):
        raise InvalidAutomorphism("NONNEG", "right factor must be a non-negative-side automorphism")
    if not V.validate_automorphism(SubringTag.NONPOS):
        raise InvalidAutomorphism("NONPOS", "left factor must be a non-positive-side automorphism")
    if not A.is_transition():
        raise NotATransitionMatrix("middle factor is not a transition matrix")
    return SMatrix._product((V, A, U))


def _random_side_exponent(rng, prime, side, allow_zero=True) -> PExp:
    lo = 0 if allow_zero else 1
    e = canon(rng.randint(lo, 3), rng.randint(0, 2), prime)
    if side is SubringTag.NONPOS:
        e = exp_neg(e)
    return e


def _random_side_series(rng, prime, side) -> PSeries:
    pairs = []
    for _ in range(rng.randint(1, 2)):
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        pairs.append((_random_side_exponent(rng, prime, side), c))
    return PSeries(prime, pairs)


def _random_onesided_unit(rng, prime, side) -> PSeries:
    a0 = rng.choice([1, -1, prime + 1, -(prime + 1), 2 * prime + 1])
    pairs = [(ZERO, a0)]
    for _ in range(rng.randint(0, 2)):
        c = prime ** rng.randint(1, 2) * rng.choice([-3, -2, -1, 1, 2, 3])
        pairs.append((_random_side_exponent(rng, prime, side, allow_zero=False), c))
    return PSeries(prime, pairs)


def random_automorphism(prime: int, m: int, side: SubringTag, shears: int, seed: int = 0) -> SMatrix:
    """Seeded random one-sided automorphism.

    The result is a diagonal of one-sided units multiplied by `shears`
    elementary shear matrices with entries in the chosen subring; its
    determinant is therefore a unit dominated at exponent 0.  The shear with
    f at (i, j) is applied as the column operation column j += f * column i,
    over the rows whose column-i entry is nonzero.
    """
    if side not in (SubringTag.NONNEG, SubringTag.NONPOS):
        raise ValueError("automorphism side must be NONNEG or NONPOS")
    if shears < 0:
        raise ValueError("shear count must be non-negative")
    rng = random.Random(seed)
    out = SMatrix.diagonal(prime, [_random_onesided_unit(rng, prime, side) for _ in range(m)])
    rows = [list(r) for r in out.rows]
    for _ in range(shears if m >= 2 else 0):
        i = rng.randrange(m)
        j = rng.randrange(m - 1)
        if j >= i:
            j += 1
        f = _random_side_series(rng, prime, side)
        for r in rows:
            if r[i].ints:
                r[j] = r[j] + r[i] * f
    return SMatrix._new(prime, tuple(map(tuple, rows)))


def degree_one_family(prime: int, max_pow: int) -> list[SMatrix]:
    """All rank-2 diagonal transition matrices diag(v^a, v^(1-a)) with
    a = k / prime**max_pow, k = 0 .. prime**max_pow.  Each monomial is built
    once, straight from its kernel, and shared by the two matrices that hold
    it; every matrix shares one exact zero and goes through the trusted
    ``SMatrix._new``."""
    if max_pow < 0:
        raise ValueError("max_pow must be non-negative")
    q = prime ** max_pow
    zero = _series(prime, 0, 1, {})
    monos = [_series(prime, max_pow, 1, {k: 1}) for k in range(q + 1)]
    return [SMatrix._new(prime, ((monos[k], zero), (zero, monos[q - k]))) for k in range(q + 1)]
