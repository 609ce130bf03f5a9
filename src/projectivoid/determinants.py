"""Division-free determinants and square matrices over any commutative ring.

The routines only use ring addition, negation and multiplication, so they
apply verbatim to series with fractional exponents, to the integer kernels
series matrices are reduced to, and to Laurent polynomials.

* Laplace expansion row by row, with the minors memoised by column subset,
  costs at most n * 2^(n-1) products and skips zero entries.  ``det`` uses
  it up to ``LAPLACE_MAX_M``.
* The Berkowitz recursion costs O(n^4) ring operations.  ``det`` uses it
  above that size.
* Leibniz expansion costs n! products and is the oracle the tests compare
  the other two against.

``SquareMatrix`` is the matrix type of both rings, series (``SMatrix``) and
Laurent polynomials (``LMatrix``); both determinants go through ``det``.
"""

from __future__ import annotations

from itertools import permutations

from .errors import DimensionMismatch

# Largest size at which det expands by memoised minors; Berkowitz takes over
# above it.  Measured on planted series (m = 6..10) and Laurent (m = 4..10)
# matrices.
LAPLACE_MAX_M = 8


def _odd(perm) -> bool:
    """Parity of a permutation of range(n), in O(n): a cycle of length L is
    L - 1 transpositions."""
    seen = [False] * len(perm)
    odd = False
    for start in range(len(perm)):
        if seen[start]:
            continue
        seen[start] = True
        j = perm[start]
        while j != start:
            seen[j] = True
            j = perm[j]
            odd = not odd
    return odd


def leibniz_det(rows, one):
    """Sum over permutations: n! products, so only for small n."""
    n = len(rows)
    total = None
    for perm in permutations(range(n)):
        prod = one
        for i, j in enumerate(perm):
            prod = prod * rows[i][j]
        if _odd(perm):
            prod = -prod
        total = prod if total is None else total + prod
    return total


def laplace_det(rows, one):
    """Expansion along the rows, top down, minors memoised by column subset.

    After row k, ``minors`` maps each set S of k + 1 columns (a bit mask) to
    the determinant of rows 0..k and columns S.  Expanding that minor along
    its last row gives the entry at column j the sign (-1)^(number of columns
    in S above j).  Zero entries and zero minors are skipped, so the ring
    zero is returned when the full minor never appears."""
    minors = {0: one}
    for row in rows:
        entries = [(1 << j, a, -a) for j, a in enumerate(row) if not a.is_zero()]
        nxt = {}
        for cols, minor in minors.items():
            for bit, a, neg in entries:
                if cols & bit:
                    continue
                term = minor * (neg if (cols // bit).bit_count() & 1 else a)
                key = cols | bit
                nxt[key] = nxt[key] + term if key in nxt else term
        minors = {cols: minor for cols, minor in nxt.items() if not minor.is_zero()}
    return minors.get((1 << len(rows)) - 1, one + -one)


def _dot(u, v):
    acc = None
    for a, b in zip(u, v):
        term = a * b
        acc = term if acc is None else acc + term
    return acc


def charpoly(rows, one):
    """Coefficients of det(t*I - A), highest power first (Berkowitz 1984)."""
    n = len(rows)
    a = rows[0][0]
    if n == 1:
        return [one, -a]
    r_vec = rows[0][1:]
    c_vec = [r[0] for r in rows[1:]]
    body = [r[1:] for r in rows[1:]]
    items = [one, -a]
    t = c_vec
    for k in range(n - 1):
        items.append(-_dot(r_vec, t))
        if k < n - 2:
            t = [_dot(r, t) for r in body]
    prev = charpoly(body, one)
    # Lower-triangular Toeplitz product: out[i] = sum over j <= i of
    # items[i - j] * prev[j].  items[0] and prev[0] are one, so those
    # products are taken as they stand.
    out = [one]
    for i in range(1, n + 1):
        acc = items[i]
        for j in range(1, min(i, n - 1) + 1):
            acc = acc + (prev[j] if j == i else items[i - j] * prev[j])
        out.append(acc)
    return out


def berkowitz_det(rows, one):
    n = len(rows)
    vec = charpoly(rows, one)
    constant = vec[-1]
    # det(A) = (-1)^n * [constant coefficient of det(t*I - A)]
    return constant if n % 2 == 0 else -constant


def det(rows, one):
    """Determinant of a square matrix over any commutative ring, by the
    routine measured fastest at its size."""
    return (laplace_det if len(rows) <= LAPLACE_MAX_M else berkowitz_det)(rows, one)


class SquareMatrix:
    """An m x m matrix over one ring, fixed by ``base``: the prime of series
    entries or the field of Laurent polynomial entries.

    A subclass supplies ``_check(base, rows)``, which rejects entries outside
    the ring, the ring's ``_one(base)`` and ``_zero(base)``, ``_skip(f)``,
    which tells the product which entries contribute nothing, and the
    ``_Mismatch`` error that a product over two different ``_BASE``s raises."""

    __slots__ = ("base", "rows")

    def __init__(self, base, rows):
        rows = tuple(tuple(r) for r in rows)
        m = len(rows)
        if m == 0 or any(len(r) != m for r in rows):
            raise DimensionMismatch("matrix must be square and non-empty")
        self._check(base, rows)
        self.base = base
        self.rows = rows

    @property
    def m(self) -> int:
        return len(self.rows)

    @classmethod
    def diagonal(cls, base, entries):
        zero = cls._zero(base)
        m = len(entries)
        return cls(base, [[entries[i] if i == j else zero for j in range(m)] for i in range(m)])

    @classmethod
    def identity(cls, base, m: int):
        return cls.diagonal(base, [cls._one(base)] * m)

    @classmethod
    def shear(cls, base, m: int, i: int, j: int, f):
        """Elementary matrix: identity plus f in position (i, j), i != j."""
        if i == j:
            raise ValueError("shear position must be off the diagonal")
        rows = [list(r) for r in cls.identity(base, m).rows]
        rows[i][j] = f
        return cls(base, rows)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.base == other.base and self.rows == other.rows

    __hash__ = None

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.base != other.base:
            raise self._Mismatch(f"matrix product over different {self._BASE}s")
        if self.m != other.m:
            raise DimensionMismatch(f"cannot multiply {self.m}x{self.m} by {other.m}x{other.m}")
        skip = self._skip
        cols = [[(k, g) for k, g in enumerate(col) if not skip(g)] for col in zip(*other.rows)]
        zero = self._zero(self.base)
        out = []
        for r in self.rows:
            live = [None if skip(f) else f for f in r]
            row = []
            for col in cols:
                acc = None
                for k, g in col:
                    f = live[k]
                    if f is not None:
                        acc = f * g if acc is None else acc + f * g
                row.append(zero if acc is None else acc)
            out.append(row)
        return type(self)(self.base, out)
