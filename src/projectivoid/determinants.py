"""Division-free determinants over any commutative ring.

Both routines only use ring addition, negation and multiplication, so they
apply verbatim to series with fractional exponents and to Laurent
polynomials.  The Berkowitz recursion costs O(n^4) ring operations and never
divides; it also yields the whole characteristic polynomial, from which the
adjugate follows by Cayley-Hamilton.  Leibniz expansion costs n! products:
it serves small series matrices and is the oracle the tests compare against.
"""

from __future__ import annotations

from itertools import permutations


def _parity(perm) -> int:
    inversions = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inversions += 1
    return inversions % 2


def leibniz_det(rows, one):
    """Sum over permutations: n! products, so only for small n."""
    n = len(rows)
    total = None
    for perm in permutations(range(n)):
        prod = one
        for i, j in enumerate(perm):
            prod = prod * rows[i][j]
        if _parity(perm):
            prod = -prod
        total = prod if total is None else total + prod
    return total


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
