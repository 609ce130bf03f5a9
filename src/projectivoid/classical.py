"""Laurent-polynomial matrices over a field and constructive splitting.

Over k[s, 1/s] a square matrix A whose determinant is c * s^n factors as
V * A * U = diag(s^d1, ..., s^dm) with U invertible over k[s], V invertible
over k[1/s], both with constant nonzero determinant.  The sorted exponent
tuple (d1 <= ... <= dm) is the splitting type; it is the classical shadow of
the degree invariant computed by the perfectoid side of this package.

The factorization is found as follows.  Column operations over k[s] make A
column-reduced: the matrix of top-degree column coefficients becomes
nonsingular.  Writing the reduced matrix as C * diag(s^k_j) with k_j the
column degrees, C has entries in k[1/s] and constant nonzero determinant, so
it is unimodular over k[t], t = 1/s, and V = C^-1.  Sorting the exponents
with a permutation on both sides gives the certificate, which is checked
before it is returned.

Every step runs on bare integer kernels ``{n: a}``, reduced mod p over
GF(p).  Row i of A is scaled by R_i, the lcm of its denominators, and column
j of the reduced matrix and of U keeps one denominator d_j, so the state is
B' = diag(R) * A * U * diag(d) and U' = U * diag(d).  Neither scale changes
the column degrees or which top-degree columns depend on the ones before
them, so the kernel vector comes from fraction-free Gauss-Jordan elimination
of the integer top-degree matrix (``determinants.kernel_vector``), and each
column operation sets the new d_j.  The column degrees k_j and the top-degree
matrix are computed once; a column operation rewrites one column, a shifted
and scaled sum of columns accumulated row by row, so only that column is
tested for zero and only its degree and its top-degree entries are read
again.  Then V = diag(d) * C'^-1 * diag(R) for C' = B' * diag(s^-k_j), from
the determinant and adjugate of B' (the same elimination, packed:
``determinants.adjugate``): det(C') = det(B') * s^-K for K the sum of the
k_j, and adj(C')_ji = adj(B')_ji * s^(k_j - K), so C' is never built.  Over
GF(p) every d_j is 1 and U' is reduced, so its dicts are U's entries.  A
zero column of B', a pass past the bound P that ``split`` proves, or a
det(B') that is not c * s^K, c nonzero, refuses A.  The certificate check
(``FactorizationCertificate.verify``) multiplies V * A * U on the flat rows
of ``matrices`` and takes no Laurent determinant.  Laurent polynomials are
built only for the certificate, and its V, U and D go through the trusted
``SquareMatrix._new``, not the entry checks of ``LMatrix(...)``.

``LaurentPoly`` is stored as an integer kernel, numerators over one common
denominator, like ``series.PSeries``, and runs on the kernel loops of
``series``.  ``LMatrix`` is the ``matrices.SquareMatrix`` over Laurent
polynomials; each of its results is normalised once with ``_poly``.
``SquareMatrix.validate_automorphism`` serves both matrix types, since
``LaurentPoly`` answers ``in_subring`` and ``is_unit`` as ``PSeries`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm, prod
from typing import Iterable, Mapping

from .determinants import adjugate, det, kernel_vector
from .errors import (DimensionMismatch, InvalidAutomorphism, NotInvertibleOverRing, ParseError,
                     SubringViolation)
from .matrices import SquareMatrix, _flat_product, _flat_rows, scaled_rows
from .series import PSeries, SubringTag, _add, _convolve, _gcd, _kernel, _lift, _normalise, _reduce


class LaurentPoly:
    """A Laurent polynomial in s with coefficients in a given field.

    The state is an integer kernel: the terms (a / D) * s^n for n, a in
    ``ints``.  It is kept in a normal form, so equality compares the stored
    fields: no numerator is zero; over Q, D > 0 and D is coprime to the
    numerators taken together; over GF(p), D = 1 and every numerator lies in
    1..p-1.  Every result goes through ``_poly``; ``coeffs`` builds the dict
    from exponent to field element on each access."""

    __slots__ = ("field", "D", "ints")
    K = 0  # integer exponents: the grid p^0 that the lifts of matrices read

    def __init__(self, field, coeffs: Mapping | Iterable = ()):
        """Validate and merge outside input: the sum of the monomials c * s^n
        over the pairs (n, c), each c coerced into the field, over the lcm
        of their denominators (``series._kernel``) and normalised once."""
        quads = []
        for n, c in coeffs.items() if isinstance(coeffs, Mapping) else coeffs:
            c = field.coerce(c)
            quads.append((c.numerator, c.denominator, n, 0))
        f = _poly(field, *_kernel(1, 0, quads))
        self.field, self.D, self.ints = field, f.D, f.ints

    def _value(self, a):
        """The field element a / D."""
        return a if self.field.characteristic else Fraction(a, self.D)

    @property
    def coeffs(self) -> dict:
        """A new dict from exponent to field element, built on each access."""
        return {n: self._value(a) for n, a in self.ints.items()}

    def ordered_terms(self) -> list:
        """(exponent, coefficient) pairs by ascending exponent."""
        return [(n, self._value(a)) for n, a in sorted(self.ints.items())]

    @classmethod
    def zero(cls, field) -> "LaurentPoly":
        return _poly(field, 1, {})

    @classmethod
    def one(cls, field) -> "LaurentPoly":
        return cls.monomial(field, 0)

    @classmethod
    def monomial(cls, field, n: int, c=1) -> "LaurentPoly":
        c = field.coerce(c)
        return _poly(field, c.denominator, {n: c.numerator})

    def is_zero(self) -> bool:
        return not self.ints

    def min_exp(self) -> int:
        """The least exponent; ValueError for the zero polynomial."""
        return min(self.ints)

    def max_exp(self) -> int:
        return max(self.ints)

    def unit_parts(self):
        """(c, n) when the polynomial is the unit c * s^n, else None."""
        if len(self.ints) != 1:
            return None
        ((n, a),) = self.ints.items()
        return self._value(a), n

    in_subring = PSeries.in_subring  # which reads only ``ints``

    def is_unit(self, ring: SubringTag) -> bool:
        """``PSeries.is_unit`` over a field, where every nonzero coefficient
        dominates: a unit of k[s] or k[1/s] is a nonzero constant, one of
        k[s, 1/s] a monomial.  Outside the ring, SubringViolation."""
        if not self.in_subring(ring):
            raise SubringViolation(f"polynomial does not lie in the {ring.value} subring")
        return len(self.ints) == 1 and (ring is SubringTag.FULL or 0 in self.ints)

    def _check(self, other: "LaurentPoly") -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError("polynomials over different fields")

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        D = lcm(self.D, other.D)
        out = _add(_lift(self.ints, 1, D // self.D), _lift(other.ints, 1, sign * (D // other.D)))
        return _poly(self.field, D, out)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, -1)

    def __neg__(self) -> "LaurentPoly":
        return _poly(self.field, self.D, _lift(self.ints, 1, -1))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        return _poly(self.field, self.D * other.D, _convolve(self.ints, other.ints, {}))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.field == other.field and self.D == other.D and self.ints == other.ints

    __hash__ = None

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*s^{n}" for n, c in self.ordered_terms())
        return f"LaurentPoly({body or '0'})"


def _poly(field, D: int, acc: dict) -> LaurentPoly:
    """The polynomial of the kernel (D, acc), brought to normal form; D is
    nonzero, and prime to p over GF(p).  Nothing is validated."""
    if p := field.characteristic:
        if D != 1:
            D, acc = 1, _lift(acc, 1, pow(D, -1, p))
        acc = _reduce(p, acc)
    elif D > 0:
        D, acc = _normalise(p, D, acc, None)
    else:
        D, acc = _normalise(p, -D, _lift(acc, 1, -1), None)
    return _laurent(field, D, acc)


def _laurent(field, D: int, ints: dict) -> LaurentPoly:
    """The polynomial of a kernel in normal form, kept as it stands."""
    f = object.__new__(LaurentPoly)
    f.field, f.D, f.ints = field, D, ints
    return f


class LMatrix(SquareMatrix):
    """A square matrix of Laurent polynomials over one field."""

    __slots__ = ()
    _BASE = "field"
    _Mismatch = ValueError
    _one = staticmethod(LaurentPoly.one)
    _zero = staticmethod(LaurentPoly.zero)

    @staticmethod
    def _entry(field, K, D, acc) -> LaurentPoly:
        return _poly(field, D, acc)

    @staticmethod
    def _check(field, rows) -> None:
        for r in rows:
            for f in r:
                if not isinstance(f, LaurentPoly) or (f.field is not field and f.field != field):
                    raise ValueError("entries must be Laurent polynomials over the matrix field")

    @property
    def field(self):
        return self.base

    @classmethod
    def diagonal_powers(cls, field, degrees) -> "LMatrix":
        """diag(s^d) for the integers d in degrees."""
        m, zero = len(degrees), LaurentPoly.zero(field)
        if m == 0:
            raise DimensionMismatch("matrix must be square and non-empty")
        return cls._new(field, tuple(
            tuple(_poly(field, 1, {d: 1}) if i == j else zero for j in range(m))
            for i, d in enumerate(degrees)))

    def det(self) -> LaurentPoly:
        """Division-free determinant through ``determinants.det``, run on the
        numerator dicts of the rows (``scaled_rows``) and reduced mod p
        once, at the end, over GF(p).  The entries are not changed."""
        Ds, scaled = scaled_rows(1, 0, self.rows)
        return _poly(self.field, prod(Ds), det(scaled))

    def is_diagonal_of_powers(self) -> bool:
        """Whether this is diag(s^d_i): in normal form, D = 1 and one numerator 1."""
        for i, row in enumerate(self.rows):
            for j, f in enumerate(row):
                if i == j:
                    if f.D != 1 or [*f.ints.values()] != [1]:
                        return False
                elif f.ints:
                    return False
        return True

    def __repr__(self) -> str:
        return f"LMatrix(field={self.field!r}, m={self.m})"


@dataclass(frozen=True)
class SplittingType:
    """Sorted splitting exponents (d1 <= ... <= dm)."""

    degrees: tuple

    def __str__(self) -> str:
        return "(" + ", ".join(str(d) for d in self.degrees) + ")"


@dataclass(frozen=True)
class FactorizationCertificate:
    """Witnesses V * A * U = D with one-sided unimodular V and U."""

    V: LMatrix
    U: LMatrix
    D: LMatrix

    def verify(self, A: LMatrix) -> bool:
        """Whether U lies over k[s] and V over k[1/s], both unimodular, D is
        a diagonal of powers s^d_i and V * A * U == D.

        Unimodularity needs no Laurent determinant once the product holds.
        Then det V * det A * det U = s^(sum d_i), a unit of k[s, 1/s], so
        each factor is a unit, that is a monomial.  U lies over k[s], so det
        U = a * s^k with k >= 0, and setting s = 0 is a ring map k[s] -> k,
        so det U(0) = a * 0^k, nonzero exactly when k = 0: U is unimodular
        exactly when the s^0 coefficients of its entries form a nonsingular
        matrix over k.  The same argument over k[1/s] covers V.  (Without
        the product, U = [[1 + s]] has U(0) = 1 and is not unimodular.)

        V, A and U are lifted onto flat rows, each over the lcm L of its
        denominators (``_flat_rows``): term n of entry (i, j) at key m * n +
        j, so n >= 0 exactly when the key is >= 0, n <= 0 exactly when it is
        < m, and key j of row i is the s^0 coefficient of entry (i, j).  The
        product runs on those rows (``_flat_product``, mod p over GF(p));
        its row i must be {m * d_i + i: L_V * L_A * L_U}.  A field or size
        mismatch among V, A and U raises ValueError or DimensionMismatch, as
        the LMatrix product does, unless a side is not unimodular; a D over
        another field or of another size is False."""
        V, U, D = self.V, self.U, self.D
        (L_V, v), (L_U, u) = _flat_rows(1, 0, V.rows), _flat_rows(1, 0, U.rows)
        if (min(chain.from_iterable(u), default=0) < 0 or max(chain.from_iterable(v), default=0) >= V.m
                or not D.is_diagonal_of_powers()):
            return False
        for M, rows in ((U, u), (V, v)):
            cols = range(M.m)
            at_zero = [[r.get(j, 0) for j in cols] for r in rows]
            if kernel_vector(M.field.characteristic, at_zero) is not None:
                return False
        if not (V.field == A.field == U.field and V.m == A.m == U.m):
            # The LMatrix product raises the mismatch; a side whose
            # determinant is not a nonzero constant is False before that.
            if U.validate_automorphism(SubringTag.NONNEG) and V.validate_automorphism(SubringTag.NONPOS):
                V * A * U
            return False
        if D.field != A.field or D.m != A.m:
            return False
        p, m, (L_A, a) = A.field.characteristic, A.m, _flat_rows(1, 0, A.rows)
        L = L_V * L_A * L_U
        want = [{m * next(iter(r[i].ints)) + i: L} for i, r in enumerate(D.rows)]
        return _flat_product(p, m, _flat_product(p, m, v, a), u) == want


def _primitive(p: int, fs: list, d: int = 0) -> tuple[list, int]:
    """The integer kernels fs and d, divided over Q by the gcd of d and all
    the numerators of fs; unchanged over GF(p)."""
    g = 1 if p else _gcd(d, (a for f in fs for a in f.values()))
    if g > 1:
        fs, d = [{n: a // g for n, a in f.items()} for f in fs], d // g
    return fs, d


def _inverse(field, R: list, rows: list, k: list, d: list) -> list:
    """The rows of diag(d) * C'^-1 * diag(R) as Laurent polynomials, where C'
    = B' * diag(s^-k) over k[t], t = 1/s, for B' = rows, integer kernels (mod
    p over GF(p)): with K the sum of the k_j, V_ji = d_j * R_i * adj(B')_ji *
    s^(k_j - K) / c when det(B') (mod p over GF(p)) is c * s^K, c nonzero,
    else NotInvertibleOverRing.  Each entry is scaled, shifted and, over
    GF(p), reduced mod p in one pass, which gives its normal form there;
    over Q ``_poly`` then divides out the gcd with c."""
    p = field.characteristic
    delta, adj = adjugate(rows)
    delta, K = _reduce(p, delta), sum(k)
    if delta.keys() != {K}:
        raise NotInvertibleOverRing("determinant is not of the form c * s^n")
    c, per_row = delta[K], zip(d, [kj - K for kj in k], adj)
    if p:
        u = pow(c, -1, p)
        return [[_laurent(field, 1, {n + e: y for n, a in f.items() if (y := a * x % p)})
                 for x, f in zip([dj * r * u % p for r in R], row)] for dj, e, row in per_row]
    u = 1 if c > 0 else -1
    return [[_poly(field, abs(c), {n + e: a * x for n, a in f.items()})
             for x, f in zip([dj * r * u for r in R], row)] for dj, e, row in per_row]


# The largest pass bound P of split (see its docstring) that it accepts.  A
# pass rewrites a column whose terms grow with the passes before it, so the
# work is about quadratic in the passes: the singular 2 x 2 with both rows
# (s^N - 1, s^(N-1) - 1), P = 2N - 1, takes about N of them, about 1 s of CPU
# at N = 2048 (CPython 3.11.7, 2-vCPU Xeon).
MAX_SPLIT_PASSES = 4095


def split(A: LMatrix):
    """Splitting type of A plus an exact factorization certificate.

    Raises NotInvertibleOverRing unless det(A) = c * s^n with c nonzero.
    Let k_j and lo_j be the largest and least exponents of nonzero column j
    of A, and P = sum_j (k_j - lo_j).  When det(A) != 0, at most P column
    passes run.  Proof: det(B') is a nonzero constant times det(A), and a
    pass multiplies it by another one.  Each pass lowers one column degree,
    so the sum of the k_j drops by at least 1.  Each Leibniz product of
    det(B') takes one entry from each column, so deg det(A) <= sum_j k_j
    at every step, and every term of det(A) has exponent >= sum_j lo_j, so
    deg det(A) >= sum_j lo_j.  Hence at most (sum_j k_j at the start) -
    deg det(A) <= P passes run, and a pass past P proves det(A) = 0: it
    raises NotInvertibleOverRing.  An A whose P exceeds MAX_SPLIT_PASSES is
    refused with ParseError before split tests anything else.

    No determinant of A is taken: the reduction stops only at a nonsingular
    top-degree matrix, so at a nonzero det, and det(A) = 0 leaves a zero
    column or a pass past P instead; det(C') = unit * det(A) * s^-(sum of
    the k_j) is a nonzero constant exactly when det(A) = c * s^n.
    """
    field, m = A.field, A.m
    p = field.characteristic

    # The integer state B' = diag(R) * A * U * diag(d) and U' = U * diag(d).
    R, b_rows = scaled_rows(1, 0, A.rows)
    u_rows = [[{0: 1} if i == j else {} for j in range(m)] for i in range(m)]
    d = [1] * m

    # The column degrees k_j (0 for a zero column), the pass bound P and the
    # top-degree matrix of B'; a column operation changes one column, so
    # only that column is read again.
    cols = [[*filter(None, col)] for col in zip(*b_rows)]
    degrees = [max(map(max, col), default=0) for col in cols]
    budget = sum(degrees) - sum(min(map(min, col), default=0) for col in cols)
    if budget > MAX_SPLIT_PASSES:
        raise ParseError(f"split needs up to {budget} column passes, above the cap {MAX_SPLIT_PASSES}")
    if not all(cols):
        raise NotInvertibleOverRing("determinant is not of the form c * s^n")
    top = [[r[j].get(k, 0) for j, k in enumerate(degrees)] for r in b_rows]

    while (w := kernel_vector(p, top)) is not None:
        if not budget:  # a pass past P, so det(A) = 0 (see the docstring)
            raise NotInvertibleOverRing("determinant is not of the form c * s^n")
        budget -= 1
        c = len(w) - 1
        support = [j for j, x in enumerate(w) if x]
        jstar = max(support, key=lambda j: (degrees[j], j))
        # Column operation col_jstar <- sum_j w_j * s^(k* - k_j) * col_j,
        # with w_j = d_j * w'_j / (d_c * w'_c) so that w_c = 1.  The
        # top-degree coefficients cancel, so the degree of that column
        # strictly drops while the determinant only picks up w_jstar.  U
        # takes the same operation.  The stored column is the sum of the
        # w'_j * s^(k* - k_j) * col'_j, over the denominator d_c * w'_c.
        shifts = [(j, degrees[jstar] - degrees[j], w[j]) for j in support]
        col = []
        for row in b_rows + u_rows:
            acc: dict = {}
            get = acc.get
            for j, e, x in shifts:
                for n, a in row[j].items():
                    acc[n + e] = get(n + e, 0) + a * x
            col.append(_reduce(p, acc))
        col, d[jstar] = _primitive(p, col, d[c] * w[c])
        for row, f in zip(b_rows + u_rows, col):
            row[jstar] = f
        if not any(col[:m]):
            raise NotInvertibleOverRing("determinant is not of the form c * s^n")
        k = degrees[jstar] = max(max(f) for f in col[:m] if f)
        for r, f in zip(top, col):
            r[jstar] = f.get(k, 0)

    # The reduced matrix is C * diag(s^k_j) with C in k[1/s], so V = C^-1 =
    # diag(d) * C'^-1 * diag(R) for C' = B' * diag(s^-k_j), when det(C') is
    # a nonzero constant.  Over GF(p), U' is in normal form as it stands.
    v_rows = _inverse(field, R, b_rows, degrees, d)
    u_rows = [[_laurent(field, 1, f) if p else _poly(field, dj, f) for f, dj in zip(r, d)]
              for r in u_rows]

    # Sort the exponents: permute the rows of V and the columns of U alike.
    order = sorted(range(m), key=lambda j: (degrees[j], j))
    v_final = LMatrix._new(field, tuple(tuple(v_rows[j]) for j in order))
    u_final = LMatrix._new(field, tuple(tuple(r[j] for j in order) for r in u_rows))
    d_final = LMatrix.diagonal_powers(field, [degrees[j] for j in order])

    certificate = FactorizationCertificate(v_final, u_final, d_final)
    if not certificate.verify(A):
        raise RuntimeError("internal error: certificate failed to re-multiply")
    return SplittingType(tuple(degrees[j] for j in order)), certificate


def splitting_invariance_check(A: LMatrix, U: LMatrix, V: LMatrix) -> bool:
    """Whether split(V * A * U) has the same type as split(A).

    U must be unimodular over k[s] and V over k[1/s], both with constant
    nonzero determinant; anything else raises InvalidAutomorphism.
    """
    if not U.validate_automorphism(SubringTag.NONNEG):
        raise InvalidAutomorphism("k[s]", "right factor is not unimodular over k[s]")
    if not V.validate_automorphism(SubringTag.NONPOS):
        raise InvalidAutomorphism("k[1/s]", "left factor is not unimodular over k[1/s]")
    base, _ = split(A)
    moved, _ = split(LMatrix._product((V, A, U)))
    return moved == base
