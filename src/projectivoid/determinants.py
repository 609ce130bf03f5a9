"""Division-free determinants and square matrices over any commutative ring.

The fast routines run on integer kernels: every entry is a dict ``{n: a}``
standing for the sum of the terms a * x^n, all on one exponent grid that the
caller fixes (``series.scaled_det``), with no zero numerator.  Each sum of
products is added into one dict through ``series._convolve`` and its zeros
are dropped once, so ``{}`` is the zero determinant.  The routines never
change their inputs.

* Laplace expansion row by row, with the minors memoised by column subset,
  costs at most n * 2^(n-1) products and skips zero entries.  ``det`` uses
  it up to ``LAPLACE_MAX_M``.
* The Berkowitz recursion costs O(n^4) ring operations.  ``det`` uses it
  above that size.
* Leibniz expansion costs n! products over any ring with ``+``, unary ``-``
  and ``*``; it is the oracle the tests compare the other two against.

``SquareMatrix`` is the matrix type of both rings, series (``SMatrix``) and
Laurent polynomials (``LMatrix``); both determinants go through ``det``.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import permutations

from .errors import DimensionMismatch
from .series import _convolve

# Largest size at which det expands by memoised minors; Berkowitz takes over
# above it.  Measured on planted series (m = 7..11) and Laurent (m = 6..10)
# matrices.
LAPLACE_MAX_M = 8

_ONE = {0: 1}  # the unit kernel; read, never written


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


def _neg(f: dict) -> dict:
    return {n: -a for n, a in f.items()}


def _nonzero(acc: dict) -> dict:
    return {n: a for n, a in acc.items() if a}


def laplace_det(rows) -> dict:
    """Expansion along the rows, top down, minors memoised by column subset.

    After row k, ``minors`` maps each set S of k + 1 columns (a bit mask) to
    the determinant of rows 0..k and columns S.  Expanding that minor along
    its last row gives the entry at column j the sign (-1)^(number of columns
    in S above j), so each row is negated once.  Every product of a new minor
    goes into one dict; zero entries and zero minors are skipped."""
    minors = {0: _ONE}
    for row in rows:
        entries = [(1 << j, a, _neg(a)) for j, a in enumerate(row) if a]
        nxt = defaultdict(dict)
        for cols, minor in minors.items():
            for bit, a, neg in entries:
                if not cols & bit:
                    _convolve(minor, neg if (cols // bit).bit_count() & 1 else a, nxt[cols | bit])
        minors = {cols: minor for cols, acc in nxt.items() if (minor := _nonzero(acc))}
    return minors.get((1 << len(rows)) - 1, {})


def _sum(pairs) -> dict:
    """The sum of the products f * g over the pairs of kernels."""
    acc: dict = {}
    for f, g in pairs:
        _convolve(f, g, acc)
    return _nonzero(acc)


def charpoly(rows) -> list:
    """Coefficients of det(t*I - A), highest power first (Berkowitz 1984)."""
    n = len(rows)
    items = [_ONE, _neg(rows[0][0])]
    if n == 1:
        return items
    neg_r = [_neg(f) for f in rows[0][1:]]
    body = [r[1:] for r in rows[1:]]
    t = [r[0] for r in rows[1:]]
    for k in range(n - 1):
        items.append(_sum(zip(neg_r, t)))
        if k < n - 2:
            t = [_sum(zip(r, t)) for r in body]
    prev = charpoly(body)
    # Lower-triangular Toeplitz product: out[i] = sum over j <= i of
    # items[i - j] * prev[j].
    return [_sum((items[i - j], prev[j]) for j in range(min(i, n - 1) + 1)) for i in range(n + 1)]


def berkowitz_det(rows) -> dict:
    # det(A) = (-1)^n * [constant coefficient of det(t*I - A)]
    constant = charpoly(rows)[-1]
    return constant if len(rows) % 2 == 0 else _neg(constant)


def det(rows) -> dict:
    """Determinant of a square matrix of integer kernels on one grid, by the
    routine measured fastest at its size."""
    return (laplace_det if len(rows) <= LAPLACE_MAX_M else berkowitz_det)(rows)


class SquareMatrix:
    """An m x m matrix over one ring, fixed by ``base``: the prime of series
    entries or the field of Laurent polynomial entries.

    A subclass supplies ``_check(base, rows)``, which rejects entries outside
    the ring, the ring's ``_one(base)`` and ``_zero(base)``, ``_skip(f)``,
    which tells the product which entries contribute nothing, and the
    ``_Mismatch`` error that a product over two different ``_BASE``s raises.
    A ring may replace ``_sum(base, pairs)``, which adds up the two or more
    products that make one entry of a product, by a sum normalised once."""

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
        base, total = self.base, self._sum
        zero = self._zero(base)
        out = []
        for r in self.rows:
            live = [None if skip(f) else f for f in r]
            row = []
            for col in cols:
                pairs = []
                for k, g in col:
                    f = live[k]
                    if f is not None:
                        pairs.append((f, g))
                if len(pairs) > 1:
                    row.append(total(base, pairs))
                else:
                    row.append(pairs[0][0] * pairs[0][1] if pairs else zero)
            out.append(row)
        return type(self)(base, out)

    @staticmethod
    def _sum(base, pairs):
        """The sum of the products f * g over the pairs, left to right."""
        return sum((f * g for f, g in pairs[1:]), pairs[0][0] * pairs[0][1])
