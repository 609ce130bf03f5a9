"""Square matrices over series or Laurent polynomials, and the
vector-bundle invariants of series matrices.

``SquareMatrix`` is the matrix type of both rings: ``SMatrix`` here, over
series, and ``classical.LMatrix``, over Laurent polynomials.  Their entries
are integer kernels (K, D, ints), and two lifts bring a matrix of them onto
one grid:

* ``scaled_rows`` keeps the entries, each row over the lcm of its
  denominators, for ``determinants.det`` (the determinant of either type,
  normalised once) and for ``classical.split``;
* ``_flat_rows`` makes each row one kernel over the whole matrix's lcm, term
  n of entry (i, j) at key m * n + j, so the column is folded into the
  exponent (Kronecker substitution on an index, not on a value).
  ``_flat_product`` multiplies two matrices of flat rows, one convolution
  loop per row, and its rows are flat rows as they stand.  Every chain of
  exact products (``A * B``, ``act``, ``classical.splitting_invariance_check``)
  is one ``SquareMatrix._product`` on them, and the certificate check of
  ``classical.split`` runs on them too.

A transition matrix is a square matrix over the full ring whose determinant
is a unit there.  Its bundle degree is the exponent of the monomial factor of
the determinant, an invariant of the equivalence A -> V * A * U by one-sided
automorphisms: U over the non-negative subring, V over the non-positive one,
each with a determinant dominated by its constant term.  That test,
``SquareMatrix.validate_automorphism``, serves both matrix types; over a
field, for ``LMatrix``, it asks for a nonzero constant determinant.  ``act``
validates the three factors by their determinants and multiplies V * A * U as
one chain; ``random_automorphism`` applies each shear as a column operation.
With a truncated entry a product adds the ``PSeries`` products of each entry
left to right, so the precision rule lives in ``series`` alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm, prod

from .determinants import det
from .errors import (
    DimensionMismatch,
    InvalidAutomorphism,
    NotATransitionMatrix,
    PrimeMismatch,
)
from .exponents import PExp, ZERO, canon, exp_neg
from .series import PSeries, SubringTag, _lift, _reduce, _series


def scaled_rows(p: int, K: int, rows) -> tuple[list, list]:
    """([D_i], rows): row i of a matrix of kernels (f.K, f.D, f.ints) times
    the lcm D_i of its denominators, as integer kernels on the grid p^K.  An
    entry already on the grid and over D_i is handed over as its own
    ``ints``, which the caller must only read."""
    Ds, scaled = [], []
    for r in rows:
        D_i = 1
        for f in r:
            if D_i % f.D:
                D_i = lcm(D_i, f.D)
        Ds.append(D_i)
        scaled.append([f.ints if f.K == K and f.D == D_i else
                       _lift(f.ints, p ** (K - f.K), D_i // f.D) for f in r])
    return Ds, scaled


def _flat_rows(q: int, K: int, rows) -> tuple[int, list]:
    """(L, rows): a matrix of kernels (f.K, f.D, f.ints) on the grid q^K, all
    over the lcm L of its denominators, each row one dict in which term n of
    entry (i, j) sits at key m * n + j."""
    L = 1
    for r in rows:
        for f in r:
            if L % f.D:
                L = lcm(L, f.D)
    m, out = len(rows), []
    for r in rows:
        row: dict = {}
        for j, f in enumerate(r):
            if f.ints:
                s, u = m * q ** (K - f.K), L // f.D
                for n, a in f.ints.items():
                    row[s * n + j] = a * u
        out.append(row)
    return L, out


def _flat_product(char: int, m: int, rows, right) -> list:
    """The product of two m x m matrices of flat rows (``_flat_rows``): term
    (key, a) of a left row, in column k = key % m, meets each term (key2, b)
    of right row k at key - k + key2.  Each row is accumulated in one dict
    and reduced once, mod char when char is nonzero."""
    right = [[*r.items()] for r in right]
    out = []
    for row in rows:
        acc: dict = {}
        get = acc.get
        for key, a in row.items():
            k = key % m
            s = key - k
            for key2, b in right[k]:
                n = s + key2
                acc[n] = get(n, 0) + a * b
        out.append(_reduce(char, acc))
    return out


class SquareMatrix:
    """An m x m matrix over one ring, fixed by ``base``: the prime of series
    entries or the field of Laurent polynomial entries.

    A subclass supplies ``_check(base, rows)``, which rejects entries outside
    the ring, the ring's ``_one(base)`` and ``_zero(base)``, the ``_Mismatch``
    error that a product over two different ``_BASE``s raises, and
    ``_entry(base, K, D, acc)``, which brings the kernel of one entry of a
    product to the ring's normal form.  ``_product`` multiplies a chain of
    factors left to right: it lifts each factor once onto flat rows on one
    grid (``_flat_rows``), multiplies them one row at a time
    (``_flat_product``) and normalises only the entries of the whole
    product, which share one zero, ``_entry(base, 0, 1, {})``.  It knows
    nothing of precision, so
    ``SMatrix`` multiplies factors with a truncated entry itself; ``A * B``
    is the chain of two.  The constructor checks outside entries; ``_new``
    takes rows that the library built in the ring (a product, and the
    diagonals and certificates of ``classical``) and checks nothing."""

    __slots__ = ("base", "rows")

    def __init__(self, base, rows):
        rows = tuple(tuple(r) for r in rows)
        m = len(rows)
        if m == 0 or any(len(r) != m for r in rows):
            raise DimensionMismatch("matrix must be square and non-empty")
        self._check(base, rows)
        self.base = base
        self.rows = rows

    @classmethod
    def _new(cls, base, rows):
        """The matrix of rows, a tuple of m tuples of length m whose entries
        the caller has built in the ring over base: nothing is checked."""
        out = object.__new__(cls)
        out.base, out.rows = base, rows
        return out

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.base == other.base and self.rows == other.rows

    __hash__ = None

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._product((self, other))

    @classmethod
    def _product(cls, factors):
        """The product of exact factors over one base and of one size, left
        to right, its mismatches raised in the order of the pairwise
        products.  Each factor is lifted once onto flat rows over its own
        lcm L_k (``_flat_rows``), each partial product stays flat rows over
        L_0 * L_1 * ..., and only the entries of the whole product are read
        back, at cells[key % m][key // m]."""
        base, m = factors[0].base, factors[0].m
        for F in factors[1:]:
            if base != F.base:
                raise cls._Mismatch(f"matrix product over different {cls._BASE}s")
            if m != F.m:
                raise DimensionMismatch(f"cannot multiply {m}x{m} by {F.m}x{F.m}")
        K = max(f.K for F in factors for r in F.rows for f in r)
        # K is 0 over Laurent polynomials, whose base is a field, not a prime.
        q = base if K else 1
        L, rows = _flat_rows(q, K, factors[0].rows)
        for F in factors[1:]:
            E, right = _flat_rows(q, K, F.rows)
            rows, L = _flat_product(0, m, rows, right), L * E
        entry, zero = cls._entry, cls._entry(base, 0, 1, {})
        out = []
        for acc in rows:
            cells = [{} for _ in range(m)]
            for key, a in acc.items():
                cells[key % m][key // m] = a
            out.append(tuple([entry(base, K, L, c) if c else zero for c in cells]))
        return cls._new(base, tuple(out))

    def validate_automorphism(self, side: SubringTag) -> bool:
        """Entry-wise membership in the one-sided subring plus a unit determinant
        dominated by its constant term."""
        if side not in (SubringTag.NONNEG, SubringTag.NONPOS):
            raise ValueError("automorphism side must be NONNEG or NONPOS")
        if not all(f.in_subring(side) for r in self.rows for f in r):
            return False
        return self.det().is_unit(side)


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
