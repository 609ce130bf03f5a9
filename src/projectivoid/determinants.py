"""Division-free determinants over any commutative ring.

The routines only use ring addition, negation and multiplication, so they
apply verbatim to series with fractional exponents, to the integer kernels
series matrices are reduced to, and to Laurent polynomials.

* Laplace expansion row by row, with the minors memoised by column subset,
  costs at most n * 2^(n-1) products and skips zero entries.  Series matrices
  (``SMatrix.det``) use it up to ``matrices.LAPLACE_MAX_M``.
* The Berkowitz recursion costs O(n^4) ring operations.  Series matrices use
  it above that size; ``LMatrix`` always does, because ``split`` needs the
  whole characteristic polynomial, from which the adjugate follows by
  Cayley-Hamilton.
* Leibniz expansion costs n! products and is the oracle the tests compare
  the other two against.
"""

from __future__ import annotations

from itertools import permutations


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


def _matvec(rows, v):
    return [_dot(r, v) for r in rows]


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
            t = _matvec(body, t)
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
