"""Square matrices of perfectoid series and vector-bundle invariants.

A transition matrix is a square matrix over the full ring whose determinant
is a unit there.  Its bundle degree is the exponent of the monomial factor of
the determinant, an invariant of the equivalence A -> V * A * U by one-sided
automorphisms: U over the non-negative subring, V over the non-positive one,
each with a determinant dominated by its constant term.

``SMatrix`` is the ``determinants.SquareMatrix`` over series; its determinant
runs the shared size dispatch on integer kernels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .determinants import SquareMatrix, det
from .errors import (
    InvalidAutomorphism,
    NotATransitionMatrix,
    PrimeMismatch,
)
from .exponents import PExp, ZERO, canon, exp_neg
from .series import PSeries, SubringTag, kernel_det


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
    # The benchmark tracer wraps SMatrix.__dict__["__mul__"], so the shared
    # product is bound here by name.
    __mul__ = SquareMatrix.__mul__

    @staticmethod
    def _check(prime: int, rows) -> None:
        for r in rows:
            for f in r:
                if not isinstance(f, PSeries):
                    raise TypeError("matrix entries must be PSeries")
                if f.prime != prime:
                    raise PrimeMismatch(f"entry over p={f.prime} in a matrix over p={prime}")

    @staticmethod
    def _skip(f: PSeries) -> bool:
        # A zero known only modulo a precision still bounds the precision of
        # a product it enters, so only exact zeros are skipped.
        return not f.terms and f.precision is None

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
        """Exact determinant: ``determinants.det`` run on integer kernels and
        materialised once (see ``series.kernel_det``)."""
        if any(not f.is_exact() for r in self.rows for f in r):
            raise ValueError("operation requires exact matrix entries")
        return kernel_det(self.prime, self.rows, det)

    def is_transition(self) -> bool:
        return self.det().is_unit(SubringTag.FULL)

    def bundle_degree(self) -> BundleDegree:
        d = self.det()
        if not d.is_unit(SubringTag.FULL):
            raise NotATransitionMatrix("determinant is not a unit of the full ring")
        return BundleDegree(d.monomial_factor().exponent)

    def validate_automorphism(self, side: SubringTag) -> bool:
        """Entry-wise membership in the one-sided subring plus a unit determinant
        dominated by its constant term."""
        if side not in (SubringTag.NONNEG, SubringTag.NONPOS):
            raise ValueError("automorphism side must be NONNEG or NONPOS")
        if not all(f.in_subring(side) for r in self.rows for f in r):
            return False
        return self.det().is_unit(side)


def act(V: SMatrix, A: SMatrix, U: SMatrix) -> SMatrix:
    """Apply the equivalence A -> V * A * U after validating both factors."""
    if not U.validate_automorphism(SubringTag.NONNEG):
        raise InvalidAutomorphism("NONNEG", "right factor must be a non-negative-side automorphism")
    if not V.validate_automorphism(SubringTag.NONPOS):
        raise InvalidAutomorphism("NONPOS", "left factor must be a non-positive-side automorphism")
    if not A.is_transition():
        raise NotATransitionMatrix("middle factor is not a transition matrix")
    return V * A * U


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


def random_automorphism(
    prime: int,
    m: int,
    side: SubringTag,
    shears: int,
    seed: int = 0,
    *,
    trivial_diagonal: bool = False,
) -> SMatrix:
    """Seeded random one-sided automorphism.

    The result is a diagonal of one-sided units multiplied by `shears`
    elementary shear matrices with entries in the chosen subring; its
    determinant is therefore a unit dominated at exponent 0.
    """
    if side not in (SubringTag.NONNEG, SubringTag.NONPOS):
        raise ValueError("automorphism side must be NONNEG or NONPOS")
    if shears < 0:
        raise ValueError("shear count must be non-negative")
    rng = random.Random(seed)
    if trivial_diagonal:
        out = SMatrix.identity(prime, m)
    else:
        out = SMatrix.diagonal(
            prime, [_random_onesided_unit(rng, prime, side) for _ in range(m)]
        )
    if m >= 2:
        for _ in range(shears):
            i = rng.randrange(m)
            j = rng.randrange(m - 1)
            if j >= i:
                j += 1
            out = out * SMatrix.shear(
                prime, m, i, j, _random_side_series(rng, prime, side)
            )
    return out


def degree_one_family(prime: int, max_pow: int) -> list[SMatrix]:
    """All rank-2 diagonal transition matrices diag(v^a, v^(1-a)) with
    a = k / prime**max_pow, k = 0 .. prime**max_pow."""
    if max_pow < 0:
        raise ValueError("max_pow must be non-negative")
    q = prime ** max_pow
    family = []
    for k in range(q + 1):
        a = canon(k, max_pow, prime)
        b = canon(q - k, max_pow, prime)
        family.append(SMatrix.diagonal(prime, [a, b]))
    return family
