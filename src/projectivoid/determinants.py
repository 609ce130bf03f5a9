"""Division-free determinants of square matrices of integer kernels.

Every routine but ``leibniz_det`` reads a matrix as rows of kernels: dicts
``{n: a}`` standing for the sum of the terms a * x^n, all on one exponent
grid that the caller fixes (``matrices.scaled_rows``), with no zero
numerator.  ``{}`` is the zero determinant, and the routines never change
their inputs.

Only this module packs rows into integers (Kronecker substitution): row i
is shifted down by its lowest exponent lo_i and each entry evaluated at x =
2^B, so one integer product does the work of a whole ``series._convolve``.
Every coefficient of every minor is at most the product of the rows' l1
norms (the sum of |a| over a row's terms), below 2^(B-1), so a packed minor
is zero exactly when the minor is, and its balanced base-2^B digits are the
minor's coefficients.

* ``bareiss_det`` is fraction-free Gaussian elimination (Bareiss, Math.
  Comp. 22, 1968) on the packed rows, O(n^3) integer products: a_ij <- (a_kk
  * a_ij - a_ik * a_kj) / prev, prev the pivot before.  Every intermediate
  is a minor (Sylvester's identity), so each division is exact; a zero
  pivot swaps in a lower row and flips the sign.
* ``_jordan`` runs that elimination over every row (Gauss-Jordan): on
  [M | I], each column shifted down too, for ``adjugate``, and for
  ``kernel_vector`` over Q; over GF(p) that runs Gauss-Jordan mod p, each
  pivot scaled to 1.  ``bareiss_det`` keeps its own forward loop and row
  shifts only, because both simpler designs measured slower on the matrix
  benchmark pool: Gauss-Jordan does about twice the products, and column
  shifts cost more than they save.
* The Berkowitz recursion costs O(n^4) ring operations on dicts.
* Leibniz expansion costs n! products over any ring with ``+``, unary ``-``
  and ``*``; it is the oracle the tests compare the other two against.

``det`` has one rule: ``bareiss_det`` when the rows are dense on their grid
(the packed rows take at most ``PACK_MAX_SLOTS`` base-2^B digits per input
term, so that the packed work stays bounded by the input), else
``berkowitz_det``.  A series grid can spread a few terms over up to
2^MAX_EXP_BITS slots, and such rows go to Berkowitz.  The rule costs one
pass over the entries (``_plan``), which the packing reuses.
"""

from __future__ import annotations

from itertools import chain, permutations

from .series import _convolve, _reduce

# The most base-2^B digits the packed rows may take per input term.  On
# random three-term entries with spread exponents Bareiss breaks even with
# Berkowitz at about 14 digits per term at m = 3, 8 at m = 6 and 3 at m = 16
# (2-bit coefficients; BENCH_17.json); on products of shears and planted
# matrices it won at every size up to m = 40, at 1.5 to 3.4 digits per term.
# The matrix, split and cli benchmark pools (seed 7, m <= 6) need at most 6.9.
PACK_MAX_SLOTS = 10

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


def _plan(rows):
    """(los, B, slots, terms), read in one sweep over the entries: the lowest
    exponent lo_i of each row, the digit width B (one bit more than the bit
    length of the product of the rows' l1 norms), the base-2^B digits the
    packed rows take (each row's width times its nonzero entries, summed)
    and the number of terms.  None when a row is zero."""
    los, bound, slots, terms = [], 1, 0, 0
    for row in rows:
        exps = [*chain.from_iterable(row)]
        if not exps:
            return None
        lo = min(exps)
        los.append(lo)
        slots += sum(map(bool, row)) * (max(exps) - lo + 1)
        terms += len(exps)
        bound *= sum(map(abs, chain.from_iterable(map(dict.values, row))))
    return los, bound.bit_length() + 1, slots, terms


def _pack(f: dict, lo: int, B: int) -> int:
    """The kernel f shifted down by lo (at most its lowest exponent) and
    evaluated at x = 2^B."""
    a = 0
    for n, c in f.items():
        a += c << B * (n - lo)
    return a


def _unpack(v: int, B: int, n: int, out: dict | None = None) -> dict:
    """The kernel {n + k: d_k} of the balanced base-2^B digits d_k of v,
    each in [-2^(B-1), 2^(B-1)), by ascending k.  Up to 64 digits they are
    peeled one a step, and each step copies the rest of v.  Past that v is
    split at half its digits h, so the whole is O(N log N) for N digits, not
    quadratic: adding O = sum over k < h of 2^(B-1) * 2^(Bk) makes the low h
    digits unsigned, so the low half is the low Bh bits of v + O minus O,
    the high half the rest, and each is unpacked alone."""
    if out is None:
        out = {}
    h = (v.bit_length() // B + 1) // 2
    if h > 32:
        shift = B * h
        offset = ((1 << shift) - 1) // ((1 << B) - 1) << (B - 1)
        v += offset
        _unpack((v & ((1 << shift) - 1)) - offset, B, n, out)
        return _unpack(v >> shift, B, n + h, out)
    half, mask, step = 1 << (B - 1), (1 << B) - 1, 1 << B
    while v:
        d = v & mask
        if d >= half:
            d -= step
        if d:
            out[n] = d
        v = (v - d) >> B
        n += 1
    return out


def bareiss_det(rows, plan) -> dict:
    """Fraction-free Gaussian elimination on the rows packed by their
    ``_plan`` into a new integer matrix, updated in place; the last pivot,
    signed by the row swaps and unpacked, is det."""
    if plan is None:
        return {}
    los, B = plan[:2]
    a = [[_pack(f, lo, B) if f else 0 for f in row] for row, lo in zip(rows, los)]
    m, sign, prev = len(a), 1, 1
    for k in range(m):
        if not a[k][k]:
            pr = next((i for i in range(k + 1, m) if a[i][k]), None)
            if pr is None:
                return {}
            a[k], a[pr], sign = a[pr], a[k], -sign
        top = a[k]
        pivot = top[k]
        for row in a[k + 1:]:
            for j in range(k + 1, m):
                row[j] = (pivot * row[j] - row[k] * top[j]) // prev
        prev = pivot
    return _unpack(sign * prev, B, sum(los))


def _jordan(a, m) -> tuple[int, int, int]:
    """Fraction-free Gauss-Jordan elimination of the first m columns of the
    integer rows a, in place, pivoting on the first nonzero entry from row k
    down: (sign of the row swaps, last pivot, first column with no pivot, or
    m).  After step k columns 0..k are the pivot times unit vectors and are
    not read again, so they are not written."""
    sign, prev = 1, 1
    for k in range(m):
        if not a[k][k]:
            pr = next((i for i in range(k + 1, len(a)) if a[i][k]), None)
            if pr is None:
                return sign, prev, k
            a[k], a[pr], sign = a[pr], a[k], -sign
        top = a[k]
        pivot = top[k]
        for row in a:
            if row is not top:
                for j in range(k + 1, len(top)):
                    row[j] = (pivot * row[j] - row[k] * top[j]) // prev
        prev = pivot
    return sign, prev, m


def adjugate(rows):
    """(det, adj) of a square matrix of integer kernels, with adj * rows =
    det * I, both in the rows' own exponents; adj is None when det is {}.

    rows = diag(x^lo) * P * diag(x^co), lo_i the lowest exponent of row i,
    co_j the lowest left in column j, and P over Z[x].  Gauss-Jordan
    elimination (``_jordan``) of [P(2^B) | I] leaves delta * I on the left
    and delta * P(2^B)^-1 = sign * adj(P)(2^B) on the right, where delta =
    sign * det(P)(2^B) and sign is that of the row swaps; then adj(rows)_ji
    = adj(P)_ji * x^(sum lo + sum co - co_j - lo_i)."""
    plan = _plan(rows)
    if plan is None:
        return {}, None
    los, B, m = plan[0], plan[1], len(rows)
    cos = [min((min(f) - lo for f, lo in zip(col, los) if f), default=0) for col in zip(*rows)]
    a = [[_pack(f, lo + co, B) if f else 0 for f, co in zip(r, cos)]
         + [int(i == k) for k in range(m)] for i, (r, lo) in enumerate(zip(rows, los))]
    sign, prev, c = _jordan(a, m)
    if c < m:
        return {}, None
    n = sum(los) + sum(cos)
    adj = [[_unpack(sign * v, B, n - lo - co) for lo, v in zip(los, row[m:])] for co, row in zip(cos, a)]
    return _unpack(sign * prev, B, n), adj


def kernel_vector(p: int, rows):
    """A nonzero kernel vector (w_0, ..., w_c) of a square integer matrix,
    mod p when p is nonzero, or None when it is nonsingular (mod p).

    At the first column c with no pivot, columns 0..c-1 are w_c * e_k, so w
    = (-a_0c, ..., -a_(c-1)c, w_c), unique up to a factor as those columns
    are independent.  Over Q, ``_jordan`` gives w_c = prev, then w is signed
    to w_c > 0.  Over GF(p), Gauss-Jordan runs mod p, each pivot scaled to 1
    and rows with a zero in the pivot column skipped: w_c = 1."""
    m = len(rows)
    if not p:
        a = [list(r) for r in rows]
        _, prev, c = _jordan(a, m)
        sign = 1 if prev > 0 else -1
        return None if c == m else [-sign * r[c] for r in a[:c]] + [sign * prev]
    a = [[x % p for x in r] for r in rows]
    for k in range(m):
        if not a[k][k]:
            pr = next((i for i in range(k + 1, m) if a[i][k]), None)
            if pr is None:
                return [-r[k] % p for r in a[:k]] + [1]
            a[k], a[pr] = a[pr], a[k]
        top = a[k]
        if (u := top[k]) != 1:
            u = pow(u, -1, p)
            for j in range(k + 1, m):
                top[j] = top[j] * u % p
        for row in a:
            if row is not top and (x := row[k]):
                for j in range(k + 1, m):
                    row[j] = (row[j] - x * top[j]) % p
    return None


def _sum(pairs) -> dict:
    """The sum of the products f * g over the pairs of kernels."""
    acc: dict = {}
    for f, g in pairs:
        _convolve(f, g, acc)
    return _reduce(0, acc)


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
    """Determinant of a square matrix of integer kernels on one grid: packed
    Bareiss for rows dense on their grid, Berkowitz otherwise (see the module
    docstring)."""
    plan = _plan(rows)
    if plan is None or plan[2] <= PACK_MAX_SLOTS * plan[3]:
        return bareiss_det(rows, plan)
    return berkowitz_det(rows)
