"""Series-matrix determinants on the integer kernel against the per-entry
Leibniz oracle, packed (Kronecker) Bareiss against Berkowitz on dicts, the
series side against the Laurent side on integer exponents, and the dispatch
between packed Bareiss and Berkowitz for both matrix types.  The digit-bound
test still named "packed_laplace" checks ``bareiss_det``, the packed Bareiss
routine; there is no Laplace routine."""

import copy
import itertools
import random
import time
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from projectivoid import LMatrix, LaurentPoly, PSeries, PrimeField, RationalField, SMatrix, canon
from projectivoid import determinants
from projectivoid.determinants import (
    _odd,
    _plan,
    bareiss_det,
    berkowitz_det,
    kernel_vector,
    leibniz_det,
)
from projectivoid.matrices import _flat_product, _flat_rows, scaled_rows
from projectivoid.series import _convolve, _lift, _series
from helpers import _oracle_kernel_vector, kernel_product, mono, oracle_det, random_unimodular


def coeffs(p, row_den):
    # p may sit in the numerator or in the denominator; row_den gives each
    # row its own denominators
    return st.builds(
        lambda u, k: Fraction(u, row_den) * Fraction(p) ** k,
        st.integers(-4, 4).filter(bool),
        st.integers(-2, 2),
    )


def entries(p, row_den):
    # exponent denominators up to p^3
    term = st.tuples(
        st.builds(lambda n, b: canon(n, b, p), st.integers(-6, 6), st.integers(0, 3)),
        coeffs(p, row_den),
    )
    return st.just(PSeries.zero(p)) | st.lists(term, min_size=1, max_size=3).map(
        lambda pairs: PSeries(p, pairs)
    )


@st.composite
def series_matrices(draw):
    """(A, degenerate): an m x m series matrix, m = 1..5, and whether a zero
    row or a repeated row was planted in it."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 5))
    rows = []
    for _ in range(m):
        row_den = draw(st.sampled_from([1, 2, 3, 7, 9, 25]))
        rows.append([draw(entries(p, row_den)) for _ in range(m)])
    shape = draw(st.sampled_from(["plain", "zero row", "repeated row"]))
    if shape == "zero row":
        rows[draw(st.integers(0, m - 1))] = [PSeries.zero(p)] * m
    elif shape == "repeated row" and m >= 2:
        i, j = draw(st.permutations(range(m)))[:2]
        rows[i] = rows[j]
    else:
        shape = "plain"
    return SMatrix(p, rows), shape != "plain"


@settings(max_examples=100, deadline=None)
@given(series_matrices())
def test_det_matches_leibniz_oracle(case):
    A, degenerate = case
    got = A.det()
    assert got == oracle_det(A)
    if degenerate:
        assert got == PSeries.zero(A.prime)


def _kernels(A):
    return [[dict(f.ints) for f in r] for r in A.rows]


def _bareiss(rows):
    return bareiss_det(rows, _plan(rows))


def _routine_det(A, routine):
    """det(A) as SMatrix.det computes it, with the routine in place of
    ``determinants.det``."""
    p, K = A.prime, max(f.K for r in A.rows for f in r)
    Ds, scaled = scaled_rows(p, K, A.rows)
    return _series(p, K, prod(Ds), routine(scaled), None)


@settings(max_examples=100, deadline=None)
@given(series_matrices())
def test_each_strategy_matches_leibniz_oracle(case):
    # Both routines run on the scaled integer kernels at every size, and
    # neither changes the entries it reads: a row over denominator 1 on the
    # finest grid hands over the entries' own dicts.
    A, _ = case
    want = oracle_det(A)
    before = _kernels(A)
    for routine in (_bareiss, berkowitz_det):
        assert _routine_det(A, routine) == want
        assert _kernels(A) == before


# ----------------------------------------------------------------------
# packed Bareiss against Berkowitz on bare integer kernels


def _leibniz(rows):
    """The Leibniz oracle on integer kernels, through Laurent polynomials
    over Q, whose kernel over integer numerators is the dict itself."""
    Q = RationalField()
    d = leibniz_det([[LaurentPoly(Q, f) for f in r] for r in rows], LaurentPoly.one(Q))
    assert d.D == 1
    return d.ints


@st.composite
def kernel_rows(draw):
    """An m x m matrix of integer kernels, m = 1..9.  Each row is dense (two
    to four terms per entry on a few exponents) or sparse (most entries zero,
    the rest single terms far apart), coefficients take either sign and reach
    2^70 in some matrices, so that B passes 64 bits, and some matrices get a
    zero row, a zero column or a row that is another one negated, whose
    determinant cancels to {}."""
    m = draw(st.integers(1, 9))
    big = draw(st.sampled_from([9, 2**70]))
    coeff = st.integers(-big, big).filter(bool)
    dense = st.dictionaries(st.integers(-1, 3), coeff, min_size=2, max_size=4)
    sparse = st.just({}) | st.dictionaries(st.integers(-20, 20), coeff, min_size=1, max_size=1)
    rows = []
    for _ in range(m):
        entry = draw(st.sampled_from([dense, sparse]))
        rows.append([draw(entry) for _ in range(m)])
    shape = draw(st.sampled_from(["plain", "zero row", "zero column", "negated row"]))
    if shape == "zero row":
        rows[draw(st.integers(0, m - 1))] = [{}] * m
    elif shape == "zero column":
        j = draw(st.integers(0, m - 1))
        for row in rows:
            row[j] = {}
    elif shape == "negated row" and m >= 2:
        i, j = draw(st.permutations(range(m)))[:2]
        rows[i] = [{n: -a for n, a in f.items()} for f in rows[j]]
    else:
        shape = "plain"
    return rows, shape != "plain"


@settings(max_examples=80, deadline=None)
@given(kernel_rows())
def test_packed_bareiss_matches_dict_routines(case):
    rows, degenerate = case
    before = copy.deepcopy(rows)
    want = berkowitz_det(rows)
    assert bareiss_det(rows, _plan(rows)) == want
    assert determinants.det(rows) == want
    if len(rows) <= 6:
        assert _leibniz(rows) == want
    if degenerate:
        assert want == {}
    assert rows == before


@pytest.mark.parametrize("m", [12, 20])
def test_bareiss_matches_berkowitz_at_larger_sizes(m):
    # Past the sizes the strategy above draws: dense rows of two-term
    # entries, rows of three nonzero entries each, the antidiagonal (a row
    # swap at each of the first m // 2 steps), and the first two with a zero
    # row, a zero column or a row that is another one negated.
    rng = random.Random(m)
    dense = [[{n: rng.randint(-9, 9) or 1 for n in range(2)} for _ in range(m)] for _ in range(m)]
    # Row i has entries at perm[i] and at two random columns.
    perm = list(range(m))
    rng.shuffle(perm)
    sparse = [[{} for _ in range(m)] for _ in range(m)]
    for i, row in enumerate(sparse):
        for j in {perm[i], *rng.sample(range(m), 2)}:
            row[j] = {n: rng.randint(-9, 9) or 1 for n in rng.sample(range(-4, 5), 2)}
    antidiagonal = [[{i: 1} if j == m - 1 - i else {} for j in range(m)] for i in range(m)]
    cases = [dense, sparse, antidiagonal]
    for rows in (dense, sparse):
        i, j = rng.sample(range(m), 2)
        cases.append([r if k != i else [{}] * m for k, r in enumerate(rows)])
        cases.append([[f if k != j else {} for k, f in enumerate(r)] for r in rows])
        cases.append([r if k != i else [{n: -a for n, a in f.items()} for f in rows[j]] for k, r in enumerate(rows)])
    wants = []
    for rows in cases:
        before = copy.deepcopy(rows)
        wants.append(berkowitz_det(rows))
        assert bareiss_det(rows, _plan(rows)) == wants[-1]
        assert determinants.det(rows) == wants[-1]
        assert rows == before
    assert [bool(want) for want in wants] == [True] * 3 + [False] * 6


@pytest.mark.parametrize("c", [1, 2**21, 2**21 - 1, 3])
@pytest.mark.parametrize("m", [1, 3, 8, 9, 12, 20])
def test_packed_laplace_at_the_digit_bound(m, c):
    # One single-term entry per row and column: |det| is the product of the
    # rows' l1 norms, the largest value the packing bound admits, with that
    # product a power of two (c = 2^21), one less (2^21 - 1) or neither.
    # The matrix is a signed permutation, so Bareiss swaps rows wherever it
    # leaves a zero pivot.
    rng = random.Random(m * c)
    perm = list(range(m))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(m)]
    exps = [rng.randint(-5, 5) for _ in range(m)]
    rows = [[{exps[i]: signs[i] * c} if j == perm[i] else {} for j in range(m)] for i in range(m)]
    value = _perm_sign(perm) * prod(signs) * c**m
    want = {sum(exps): value}
    _, B, _, _ = _plan(rows)
    norms = [sum(abs(a) for f in r for a in f.values()) for r in rows]
    assert abs(value) == prod(norms) < 2 ** (B - 1)
    assert bareiss_det(rows, _plan(rows)) == berkowitz_det(rows) == want


def _digits(v, B, n):
    """The balanced base-2^B digits of v, one a step: the loop _unpack keeps
    up to 64 digits, here at every size."""
    out, half = {}, 1 << (B - 1)
    while v:
        d = v & ((1 << B) - 1)
        if d >= half:
            d -= 1 << B
        if d:
            out[n] = d
        v, n = (v - d) >> B, n + 1
    return out


def test_unpack_matches_the_digit_loop():
    rng = random.Random(26)
    for _ in range(300):
        B = rng.randint(2, 80)
        half, span = 1 << (B - 1), rng.randint(1, 400)
        f = {n: rng.randrange(-half, half) or 1 for n in rng.sample(range(span), rng.randint(1, min(span, 40)))}
        v, n = determinants._pack(f, 0, B), rng.randint(-20, 20)
        got = determinants._unpack(v, B, n)
        assert got == _digits(v, B, n) == {k + n: a for k, a in f.items()}
        assert list(got) == sorted(got)


def test_unpack_is_linear_in_the_digits():
    f = {0: 5, 40000: -3}
    v = determinants._pack(f, 0, 64)
    start = time.perf_counter()
    assert determinants._unpack(v, 64, 0) == f
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("m", [8, 10])
def test_det_leaves_entries_unchanged(m):
    # Series and GF(3) entries (D = 1, so the routines read the entries' own
    # dicts), packed Bareiss on dense rows and Berkowitz on spread ones.
    rng = random.Random(m)
    for M in (_planted(rng, 2, m)[0], random_unimodular(rng, PrimeField(3), m, factors=m), _spread(m)):
        before = _kernels(M)
        M.det()
        assert _kernels(M) == before


@st.composite
def integer_exponent_matrices(draw):
    """(p, rows): an m x m matrix of {n: c}, integer n and rational c, with
    m = 1..5 or 9."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 9]))
    coeff = st.fractions(-4, 4, max_denominator=12).filter(bool)
    entry = st.dictionaries(st.integers(-3, 3), coeff, max_size=2)
    return p, [[draw(entry) for _ in range(m)] for _ in range(m)]


@settings(max_examples=60, deadline=None)
@given(integer_exponent_matrices())
def test_series_det_matches_laurent_det_over_q(case):
    # On integer exponents a series over any p and a Laurent polynomial over
    # Q are the same element; both determinants must agree term by term.
    p, rows = case
    Q = RationalField()
    S = SMatrix(p, [[PSeries(p, {canon(n, 0, p): c for n, c in f.items()}) for f in r] for r in rows])
    L = LMatrix(Q, [[LaurentPoly(Q, f) for f in r] for r in rows])
    s_terms = S.det().ordered_terms()
    assert all(e.pow == 0 for e, _ in s_terms)
    assert [(e.num, c) for e, c in s_terms] == L.det().ordered_terms()


def test_odd_matches_inversion_count():
    for n in range(7):
        for perm in itertools.permutations(range(n)):
            assert _odd(perm) == (_perm_sign(perm) < 0)


# ----------------------------------------------------------------------
# dispatch on planted matrices


def _perm_sign(perm):
    return (-1) ** sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))


def _planted(rng, p, m):
    """P * L * diag * R * Q with L, R unit-triangular with monomial entries,
    one two-term diagonal entry and monomials elsewhere, as the matrix
    benchmark builds them; returns (A, sign * prod(diag))."""

    def monomial():
        return mono(p, rng.randint(0, 2), 1, rng.choice((-1, 1)) * rng.randint(1, 9))

    one, zero = PSeries.one(p), PSeries.zero(p)
    diag = [monomial() + mono(p, 3, 1)] + [monomial() for _ in range(m - 1)]
    L = SMatrix(p, [[one if i == j else monomial() if i > j else zero for j in range(m)] for i in range(m)])
    R = SMatrix(p, [[one if i == j else monomial() if i < j else zero for j in range(m)] for i in range(m)])
    rows = (L * SMatrix.diagonal(p, diag) * R).rows
    sigma, tau = list(range(m)), list(range(m))
    rng.shuffle(sigma)
    rng.shuffle(tau)
    A = SMatrix(p, [[rows[sigma[i]][tau[j]] for j in range(m)] for i in range(m)])
    want = PSeries.one(p) if _perm_sign(sigma) * _perm_sign(tau) > 0 else -PSeries.one(p)
    for d in diag:
        want = want * d
    return A, want


def _refuse(rows, *_):
    raise AssertionError(f"this strategy must not run at m = {len(rows)}")


def _packed_only(monkeypatch):
    """Let det run packed Bareiss only.  The dispatch reads the routines from
    the globals of ``determinants``, so Berkowitz is patched there."""
    monkeypatch.setattr(determinants, "berkowitz_det", _refuse)


@pytest.mark.parametrize("m", [8, 9, 10, 12, 20])
@pytest.mark.parametrize("p", [2, 3])
def test_det_dispatch_on_planted_matrices(monkeypatch, p, m):
    # Dense rows pack at every size: Berkowitz never runs on them.
    A, want = _planted(random.Random(m), p, m)
    _packed_only(monkeypatch)
    assert A.det() == want


@pytest.mark.parametrize("m", [8, 9, 10, 12, 20])
@pytest.mark.parametrize("field", [PrimeField(3), RationalField()], ids=["GF3", "Q"])
def test_lmatrix_det_dispatch_on_planted_matrices(monkeypatch, field, m):
    # V1 * diag(s^d) * U1 with V1 and U1 products of shears, so of
    # determinant 1: det = s^(sum of d).
    rng = random.Random(m)
    degrees = [rng.randint(-2, 2) for _ in range(m)]
    A = (
        random_unimodular(rng, field, m, side=-1, factors=m)
        * LMatrix.diagonal_powers(field, degrees)
        * random_unimodular(rng, field, m, side=1, factors=m)
    )
    _packed_only(monkeypatch)
    assert A.det() == LaurentPoly.monomial(field, sum(degrees))


@pytest.mark.parametrize("m", [1, 2, 3, 6, 8])
@pytest.mark.parametrize("p", [2, 3])
def test_dense_series_rows_are_packed(monkeypatch, p, m):
    # The planted series matrices have several terms per entry on a few
    # exponents: det must pack them at every size, never run Berkowitz.
    A, want = _planted(random.Random(m), p, m)
    _packed_only(monkeypatch)
    assert A.det() == want


def test_sparse_rows_are_packed(monkeypatch):
    # A permutation times a diagonal of two-term entries at m = 40: each row
    # has one nonzero entry, so its width counts once, not m times, and det
    # packs it.
    m = 40
    rng = random.Random(m)
    perm = list(range(m))
    rng.shuffle(perm)
    diag = [{i % 3: rng.randint(1, 9), i % 3 + 1: -rng.randint(1, 9)} for i in range(m)]
    rows = [[diag[i] if j == perm[i] else {} for j in range(m)] for i in range(m)]
    want = {0: _perm_sign(perm)}
    for f in diag:
        want = _convolve(want, f, {})
    _packed_only(monkeypatch)
    assert determinants.det(rows) == want


def _spread(m):
    """The circulant with a = v^(1/2^12) on the diagonal and b = v^40 next to
    it cyclically (so a + b at m = 1), whose det is a^m + (-1)^(m - 1) * b^m.
    The two are 40 * 2^12 slots apart on one grid."""
    a, b, zero = mono(2, 1, 12), mono(2, 40), PSeries.zero(2)
    return SMatrix(2, [[(a if j == i else zero) + (b if j == (i + 1) % m else zero) for j in range(m)] for i in range(m)])


@pytest.mark.parametrize("m", [1, 3, 8, 9, 12])
def test_wide_grid_stays_on_dicts(monkeypatch, m):
    # Each row spans 40 * 2^12 slots for two terms, far past PACK_MAX_SLOTS:
    # det runs Berkowitz at every size, never packs.
    monkeypatch.setattr(determinants, "bareiss_det", _refuse)
    a, b = mono(2, 1, 12), mono(2, 40)
    a_m, b_m = PSeries.one(2), PSeries.one(2)
    for _ in range(m):
        a_m, b_m = a_m * a, b_m * b
    assert _spread(m).det() == (a_m + b_m if m % 2 else a_m - b_m)


def _rank_and_first_dependent(rng, p, m, r, c):
    """An m x m integer matrix of rank r over GF(p) (over Q when p is 0)
    whose columns 0..c-1 are independent and column c is the first that
    depends on them (c <= r < m), or a nonsingular one (r = m).  The columns
    are drawn from the columns b_k of a unimodular integer matrix: b_k at
    column k < c, a combination of b_0..b_(c-1) at column c, and after it
    b_c..b_(r-1) in random places, the other places combinations of
    b_0..b_(r-1), zero columns among them.  Over GF(p) each entry moves by a
    random multiple of p, so pivots that are nonzero integers can vanish mod
    p."""
    b = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(3 * m):
        i, j = rng.sample(range(m), 2) if m > 1 else (0, 0)
        if i != j:
            x = rng.randint(-2, 2)
            b[i] = [u + x * v for u, v in zip(b[i], b[j])]

    def combo(k):
        cs = [rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(k)]
        return [sum(x * b[i][j] for i, x in enumerate(cs)) for j in range(m)]

    if r == m:
        cols = [b[k] for k in range(m)]
    else:
        cols = [b[k] for k in range(c)] + [combo(c)]
        later = list(range(c + 1, m))
        fresh = set(rng.sample(later, r - c))
        nxt = iter(range(c, r))
        cols += [b[next(nxt)] if j in fresh else combo(r) for j in later]
    rows = [[col[i] for col in cols] for i in range(m)]
    if p:
        rows = [[x + p * rng.randint(-2, 2) for x in row] for row in rows]
    return rows


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("p", [2, 3, 5, 0], ids=["GF2", "GF3", "GF5", "Q"])
def test_kernel_vector_matches_field_oracle(p, m):
    # Every rank from m down to 0 and every first dependent column c <= r.
    # The oracle's vector is (w_0, ..., w_c, 0, ...) with w_c = 1; over
    # GF(p) kernel_vector gives it mod p, over Q a positive multiple of it.
    field = PrimeField(p) if p else RationalField()
    rng = random.Random(10 * m + p)
    for r in range(m, -1, -1):
        for c in range(min(r, m - 1) + 1):
            rows = _rank_and_first_dependent(rng, p, m, r, c)
            before = copy.deepcopy(rows)
            w = kernel_vector(p, rows)
            assert rows == before
            want = _oracle_kernel_vector([[field.coerce(x) for x in row] for row in rows], field)
            if r == m:
                assert w is None and want is None
                continue
            assert len(w) == c + 1 and want[c + 1:] == [0] * (m - c - 1)
            if p:
                assert w == [field.coerce(x) for x in want[:c + 1]] and w[c] == 1
            else:
                assert w[c] > 0 and w == [w[c] * x for x in want[:c + 1]]


def _pivot_product(rows, c):
    """The product of the first c pivots of Gaussian elimination over Q that
    pivots on the first nonzero entry from row k down, as kernel_vector's
    route over Q does: the leading c x c minor of the rows so permuted, which
    is the last pivot of its fraction-free elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    out = Fraction(1)
    for k in range(c):
        pr = next(i for i in range(k, len(a)) if a[i][k])
        a[k], a[pr] = a[pr], a[k]
        out *= a[k][k]
        for row in a[k + 1:]:
            x = row[k] / a[k][k]
            row[:] = [u - x * v for u, v in zip(row, a[k])]
    return out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 6), st.data())
def test_kernel_vector_mod_p_matches_field_oracle_on_drawn_matrices(p, m, data):
    # Gauss-Jordan mod p gives the oracle's vector over GF(p), the unique one
    # with w_c = 1, or None with it; entries are negative and outside 0..p-1.
    # Drawn matrices are random, of a drawn rank with a drawn first
    # dependent column, or with a first column that is zero mod p.  The
    # route over Q gives, on the same rows, the fraction-free vector: the
    # oracle's times the leading minor of the pivot rows, signed positive.
    kind = data.draw(st.sampled_from(["random", "rank", "first column"]))
    if kind == "random":
        row = st.lists(st.integers(-3 * p, 3 * p), min_size=m, max_size=m)
        rows = data.draw(st.lists(row, min_size=m, max_size=m))
    else:
        r = data.draw(st.integers(0, m - 1 if kind == "first column" else m))
        c = 0 if kind == "first column" else data.draw(st.integers(0, min(r, m - 1)))
        rows = _rank_and_first_dependent(random.Random(data.draw(st.integers(0, 2**32))), p, m, r, c)
    before = copy.deepcopy(rows)
    for q, field in ((p, PrimeField(p)), (0, RationalField())):
        w = kernel_vector(q, rows)
        assert rows == before
        want = _oracle_kernel_vector([[field.coerce(x) for x in r] for r in rows], field)
        if want is None:
            assert w is None
            continue
        c = len(w) - 1
        assert want[c + 1:] == [0] * (m - c - 1)
        if q:
            assert w == want[:c + 1]
        else:
            assert w[c] == abs(_pivot_product(rows, c)) > 0
            assert w == [w[c] * x for x in want[:c + 1]]


# ----------------------------------------------------------------------
# flat rows: term n of entry (i, j) at key m * n + j


class _Entry:
    """A bare kernel (K, D, ints), as ``_flat_rows`` reads an entry."""

    def __init__(self, ints, D=1, K=0):
        self.ints, self.D, self.K = ints, D, K


def _cells(m, rows):
    """Flat rows read back into a matrix of kernels."""
    out = [[{} for _ in range(m)] for _ in rows]
    for cells, row in zip(out, rows):
        for key, a in row.items():
            cells[key % m][key // m] = a
    return out


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 6), st.sampled_from([0, 2, 3, 5]))
def test_flat_product_matches_the_entrywise_product(data, m, char):
    # Exponents -3..3, with s^-3 and s^3 planted in every column so that the
    # keys of every column cross 0; a zero row and a zero column when drawn.
    # The product of three chains with no lift in between.
    kernel = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4).filter(bool), max_size=3)

    def draw_matrix():
        X = [[data.draw(kernel) for _ in range(m)] for _ in range(m)]
        for j in range(m):
            i = data.draw(st.integers(0, m - 1))
            X[i][j] = {**X[i][j], -3: data.draw(st.sampled_from([-1, 1])), 3: 2}
        if data.draw(st.booleans()):
            X[data.draw(st.integers(0, m - 1))] = [{}] * m
        if data.draw(st.booleans()):
            j = data.draw(st.integers(0, m - 1))
            X = [r[:j] + [{}] + r[j + 1:] for r in X]
        return X

    X, Y, Z = draw_matrix(), draw_matrix(), draw_matrix()
    x, y, z = (_flat_rows(1, 0, [[_Entry(f) for f in r] for r in M])[1] for M in (X, Y, Z))
    assert _cells(m, x) == X
    XY = kernel_product(char, X, [*zip(*Y)])
    xy = _flat_product(char, m, x, y)
    assert _cells(m, xy) == XY
    assert _cells(m, _flat_product(char, m, xy, z)) == kernel_product(char, XY, [*zip(*Z)])


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_flat_rows_lift_onto_one_grid_and_one_denominator(data, m):
    # Entries on the grids 2^0 .. 2^2 over denominators 1 .. 4, read back as
    # each entry's own kernel on the grid 2^2 over the lcm of them all.
    kernel = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4).filter(bool), max_size=3)
    rows = [[_Entry(data.draw(kernel), data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2)))
             for _ in range(m)] for _ in range(m)]
    L, flat = _flat_rows(2, 2, rows)
    assert L == lcm(*(f.D for r in rows for f in r))
    assert _cells(m, flat) == [[_lift(f.ints, 2 ** (2 - f.K), L // f.D) for f in r] for r in rows]

