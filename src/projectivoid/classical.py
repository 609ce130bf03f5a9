"""Laurent-polynomial matrices over a field and constructive splitting.

Over k[s, 1/s] a square matrix A whose determinant is c * s^n factors as
V * A * U = diag(s^d1, ..., s^dm) with U invertible over k[s], V invertible
over k[1/s], both with constant nonzero determinant.  The sorted exponent
tuple (d1 <= ... <= dm) is the splitting type; it is the classical shadow of
the degree invariant computed by the perfectoid side of this package.

The factorization is found as follows.  First A is scaled by s^N so that all
entries are polynomials in s.  Column operations over k[s] then make the
matrix column-reduced: the matrix of top-degree column coefficients becomes
nonsingular.  Writing the reduced matrix as C * diag(s^k_j) with k_j the
column degrees, C has entries in k[1/s] and constant nonzero determinant, so
V is its adjugate divided by that constant.  The adjugate comes from the
characteristic polynomial of C by Cayley-Hamilton, so no step is worse than
polynomial in the size.  Sorting the exponents with a permutation on both
sides gives the certificate, which is re-multiplied exactly before being
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .determinants import berkowitz_det, charpoly
from .errors import (
    DimensionMismatch,
    InvalidAutomorphism,
    IterationLimitExceeded,
    NotInvertibleOverRing,
)


class LaurentPoly:
    """A Laurent polynomial in s with coefficients in a given field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: Mapping | Iterable = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict = {}
        for n, c in items:
            c = field.coerce(c)
            acc[n] = field.add(acc[n], c) if n in acc else c
        self.field = field
        self.coeffs = {n: c for n, c in acc.items() if not field.is_zero(c)}

    @classmethod
    def _canonical(cls, field, coeffs: dict) -> "LaurentPoly":
        """Wrap coefficients that are already canonical field elements.

        Results of the ring operations come out of field operations, so only
        the zeros need dropping; outside input goes through __init__.
        """
        out = object.__new__(cls)
        out.field = field
        is_zero = field.is_zero
        out.coeffs = {n: c for n, c in coeffs.items() if not is_zero(c)}
        return out

    @classmethod
    def zero(cls, field) -> "LaurentPoly":
        return cls(field)

    @classmethod
    def constant(cls, field, c) -> "LaurentPoly":
        return cls(field, {0: c})

    @classmethod
    def one(cls, field) -> "LaurentPoly":
        return cls(field, {0: field.one})

    @classmethod
    def monomial(cls, field, n: int, c=None) -> "LaurentPoly":
        return cls(field, {n: field.one if c is None else c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int):
        return self.coeffs.get(n, self.field.zero)

    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self.coeffs)

    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self.coeffs)

    def span(self) -> int:
        return 0 if self.is_zero() else self.max_exp() - self.min_exp()

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly._canonical(self.field, {n + k: c for n, c in self.coeffs.items()})

    def scale(self, c) -> "LaurentPoly":
        f = self.field
        c = f.coerce(c)
        return LaurentPoly._canonical(f, {n: f.mul(a, c) for n, a in self.coeffs.items()})

    def unit_parts(self):
        """(c, n) when the polynomial is the unit c * s^n, else None."""
        if len(self.coeffs) != 1:
            return None
        ((n, c),) = self.coeffs.items()
        return c, n

    def in_poly_ring(self) -> bool:
        return all(n >= 0 for n in self.coeffs)

    def in_inverse_ring(self) -> bool:
        return all(n <= 0 for n in self.coeffs)

    def _check(self, other: "LaurentPoly") -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError("polynomials over different fields")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        acc = dict(self.coeffs)
        add = self.field.add
        for n, c in other.coeffs.items():
            acc[n] = add(acc[n], c) if n in acc else c
        return LaurentPoly._canonical(self.field, acc)

    def __neg__(self) -> "LaurentPoly":
        f = self.field
        return LaurentPoly._canonical(f, {n: f.neg(c) for n, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        if not self.coeffs:
            return self
        if not other.coeffs:
            return other
        f = self.field
        mul, add = f.mul, f.add
        right = list(other.coeffs.items())
        acc: dict = {}
        for n1, c1 in self.coeffs.items():
            for n2, c2 in right:
                n = n1 + n2
                c = mul(c1, c2)
                acc[n] = add(acc[n], c) if n in acc else c
        return LaurentPoly._canonical(f, acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*s^{n}" for n, c in sorted(self.coeffs.items()))
        return f"LaurentPoly({body or '0'})"


class LMatrix:
    """A square matrix of Laurent polynomials over one field."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        rows = tuple(tuple(r) for r in rows)
        m = len(rows)
        if m == 0 or any(len(r) != m for r in rows):
            raise DimensionMismatch("matrix must be square and non-empty")
        for r in rows:
            for f in r:
                if not isinstance(f, LaurentPoly) or (f.field is not field and f.field != field):
                    raise ValueError("entries must be Laurent polynomials over the matrix field")
        self.field = field
        self.rows = rows

    @property
    def m(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, field, m: int) -> "LMatrix":
        one = LaurentPoly.one(field)
        zero = LaurentPoly.zero(field)
        return cls(field, [[one if i == j else zero for j in range(m)] for i in range(m)])

    @classmethod
    def diagonal_powers(cls, field, degrees) -> "LMatrix":
        zero = LaurentPoly.zero(field)
        m = len(degrees)
        return cls(
            field,
            [
                [LaurentPoly.monomial(field, degrees[i]) if i == j else zero for j in range(m)]
                for i in range(m)
            ],
        )

    @classmethod
    def shear(cls, field, m: int, i: int, j: int, f: LaurentPoly) -> "LMatrix":
        if i == j:
            raise ValueError("shear position must be off the diagonal")
        rows = [list(r) for r in cls.identity(field, m).rows]
        rows[i][j] = f
        return cls(field, rows)

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.rows[i][j]

    def __mul__(self, other: "LMatrix") -> "LMatrix":
        if not isinstance(other, LMatrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("matrix product over different fields")
        if self.m != other.m:
            raise DimensionMismatch(f"cannot multiply {self.m}x{self.m} by {other.m}x{other.m}")
        zero = LaurentPoly.zero(self.field)
        cols = list(zip(*other.rows))
        out = []
        for r in self.rows:
            support = [(k, f) for k, f in enumerate(r) if not f.is_zero()]
            row = []
            for col in cols:
                acc = zero
                for k, f in support:
                    if not col[k].is_zero():
                        acc = acc + f * col[k]
                row.append(acc)
            out.append(row)
        return LMatrix(self.field, out)

    def det(self) -> LaurentPoly:
        """Division-free Berkowitz determinant: O(m^4) products of entries."""
        return berkowitz_det(self.rows, LaurentPoly.one(self.field))

    def is_polynomial(self) -> bool:
        return all(f.in_poly_ring() for r in self.rows for f in r)

    def is_inverse_polynomial(self) -> bool:
        return all(f.in_inverse_ring() for r in self.rows for f in r)

    def constant_det(self):
        """The determinant when it is a nonzero constant, else None."""
        parts = self.det().unit_parts()
        if parts is None or parts[1] != 0:
            return None
        return parts[0]

    def is_diagonal_of_powers(self) -> bool:
        for i, row in enumerate(self.rows):
            for j, f in enumerate(row):
                if i == j:
                    parts = f.unit_parts()
                    if parts is None or parts[0] != self.field.one:
                        return False
                elif not f.is_zero():
                    return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, LMatrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    __hash__ = None

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
        if not (self.U.is_polynomial() and self.U.constant_det() is not None):
            return False
        if not (self.V.is_inverse_polynomial() and self.V.constant_det() is not None):
            return False
        if not self.D.is_diagonal_of_powers():
            return False
        return self.V * A * self.U == self.D


def _kernel_vector(rows, field):
    """A nonzero kernel vector of a square matrix over `field`, or None."""
    m = len(rows)
    a = [list(r) for r in rows]
    pivot_cols = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, m) if not field.is_zero(a[i][c])), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(m):
            if i != r and not field.is_zero(a[i][c]):
                fac = a[i][c]
                a[i] = [field.sub(x, field.mul(fac, y)) for x, y in zip(a[i], a[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            return None
    free = next(c for c in range(m) if c not in pivot_cols)
    x = [field.zero] * m
    x[free] = field.one
    for row_idx, pc in enumerate(pivot_cols):
        x[pc] = field.neg(a[row_idx][free])
    return x


def _adjugate(M: LMatrix) -> LMatrix:
    """adj(M) by Cayley-Hamilton, from det(t*I - M) = t^m + c1 t^(m-1) + ...

    M^m + c1 M^(m-1) + ... + c_m I = 0 and c_m = (-1)^m det(M), so
    adj(M) = (-1)^(m+1) (M^(m-1) + c1 M^(m-2) + ... + c_(m-1) I), evaluated
    by Horner in m - 2 matrix products.
    """
    field = M.field
    m = M.m
    one = LaurentPoly.one(field)
    if m == 1:
        return LMatrix(field, [[one]])
    c = charpoly(M.rows, one)

    def plus_scalar(rows, k):
        """rows + c_k * I"""
        return [[f + c[k] if i == j else f for j, f in enumerate(r)] for i, r in enumerate(rows)]

    acc = LMatrix(field, plus_scalar(M.rows, 1))
    for k in range(2, m):
        acc = LMatrix(field, plus_scalar((M * acc).rows, k))
    if m % 2:
        return acc
    return LMatrix(field, [[-f for f in r] for r in acc.rows])


def _column_degrees(rows, m):
    degs = []
    for j in range(m):
        col = [rows[i][j] for i in range(m) if not rows[i][j].is_zero()]
        if not col:
            raise NotInvertibleOverRing("matrix has a zero column")
        degs.append(max(f.max_exp() for f in col))
    return degs


def split(A: LMatrix, max_iterations: int | None = None):
    """Splitting type of A plus an exact factorization certificate.

    Raises NotInvertibleOverRing unless det(A) = c * s^n with c nonzero, and
    IterationLimitExceeded should the column reduction fail to settle within
    the iteration budget (which would indicate an implementation bug: the sum
    of column degrees strictly decreases on every pass).
    """
    field = A.field
    m = A.m
    parts = A.det().unit_parts()
    if parts is None:
        raise NotInvertibleOverRing("determinant is not of the form c * s^n")
    det_c, det_n = parts

    # Clear denominators: B = s^N * A is polynomial in s.
    lift = max(
        0,
        -min(
            (f.min_exp() for r in A.rows for f in r if not f.is_zero()),
            default=0,
        ),
    )
    b_rows = [[f.shift(lift) for f in r] for r in A.rows]
    u_rows = [list(r) for r in LMatrix.identity(field, m).rows]

    span_total = sum(f.span() for r in A.rows for f in r if not f.is_zero())
    budget = max_iterations if max_iterations is not None else 10 * m * (span_total + 1)

    iterations = 0
    while True:
        cdeg = _column_degrees(b_rows, m)
        top = [[b_rows[i][j].coeff(cdeg[j]) for j in range(m)] for i in range(m)]
        w = _kernel_vector(top, field)
        if w is None:
            break
        iterations += 1
        if iterations > budget:
            raise IterationLimitExceeded(
                f"column reduction did not settle within {budget} passes"
            )
        support = [j for j in range(m) if not field.is_zero(w[j])]
        jstar = max(support, key=lambda j: (cdeg[j], j))
        # Column operation col_jstar <- sum_j w_j * s^(k* - k_j) * col_j.
        # The top-degree coefficients cancel, so the degree of that column
        # strictly drops while the determinant only picks up w_jstar.  U
        # takes the same operation, which keeps B = s^N * A * U.
        factors = [
            (j, LaurentPoly.monomial(field, cdeg[jstar] - cdeg[j], w[j])) for j in support
        ]
        for row in b_rows + u_rows:
            acc = LaurentPoly.zero(field)
            for j, g in factors:
                acc = acc + row[j] * g
            row[jstar] = acc

    # B is column-reduced: C = B * diag(s^-k_j) lives in k[1/s] and its
    # determinant is the nonzero constant det(top).
    col_deg = _column_degrees(b_rows, m)
    c_mat = LMatrix(
        field, [[b_rows[i][j].shift(-col_deg[j]) for j in range(m)] for i in range(m)]
    )
    c_parts = c_mat.det().unit_parts()
    if c_parts is None or c_parts[1] != 0:
        raise RuntimeError("internal error: reduced matrix is not constant-determinant")
    v_mat = LMatrix(
        field,
        [[f.scale(field.inv(c_parts[0])) for f in r] for r in _adjugate(c_mat).rows],
    )

    # Sort the exponents: permute the rows of V and the columns of U alike.
    degrees = [k - lift for k in col_deg]
    order = sorted(range(m), key=lambda j: (degrees[j], j))
    v_final = LMatrix(field, [v_mat.rows[j] for j in order])
    u_final = LMatrix(field, [[r[j] for j in order] for r in u_rows])
    d_final = LMatrix.diagonal_powers(field, [degrees[j] for j in order])

    certificate = FactorizationCertificate(v_final, u_final, d_final)
    if not certificate.verify(A):
        raise RuntimeError("internal error: certificate failed to re-multiply")
    if sum(degrees) != det_n:
        raise RuntimeError("internal error: splitting degrees do not sum to det exponent")
    return SplittingType(tuple(degrees[j] for j in order)), certificate


def splitting_invariance_check(A: LMatrix, U: LMatrix, V: LMatrix) -> bool:
    """Whether split(V * A * U) has the same type as split(A).

    U must be unimodular over k[s] and V over k[1/s], both with constant
    nonzero determinant; anything else raises InvalidAutomorphism.
    """
    if not (U.is_polynomial() and U.constant_det() is not None):
        raise InvalidAutomorphism("k[s]", "right factor is not unimodular over k[s]")
    if not (V.is_inverse_polynomial() and V.constant_det() is not None):
        raise InvalidAutomorphism("k[1/s]", "left factor is not unimodular over k[1/s]")
    base, _ = split(A)
    moved, _ = split(V * A * U)
    return moved == base
