"""Series-matrix determinants on the integer kernel against the per-entry
Leibniz oracle, the series side against the Laurent side on integer
exponents, and the size dispatch between Laplace and Berkowitz for both
matrix types."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from projectivoid import LMatrix, LaurentPoly, PSeries, PrimeField, RationalField, SMatrix, canon
from projectivoid import determinants
from projectivoid.determinants import LAPLACE_MAX_M, _odd, berkowitz_det, laplace_det
from projectivoid.series import kernel_det
from helpers import mono, oracle_det, random_unimodular


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


@settings(max_examples=100, deadline=None)
@given(series_matrices())
def test_each_strategy_matches_leibniz_oracle(case):
    # Both routines run on the scaled integer kernels at every size, and
    # neither changes the entries it reads: a row over denominator 1 on the
    # finest grid hands over the entries' own dicts.
    A, _ = case
    want = oracle_det(A)
    before = _kernels(A)
    for routine in (laplace_det, berkowitz_det):
        assert kernel_det(A.prime, A.rows, routine) == want
        assert _kernels(A) == before


@pytest.mark.parametrize("m", [LAPLACE_MAX_M, LAPLACE_MAX_M + 2])
def test_det_leaves_entries_unchanged(m):
    # Series and GF(3) entries (D = 1, so the routines read the entries' own
    # dicts), Laplace at the crossover and Berkowitz above.
    rng = random.Random(m)
    for M in (_planted(rng, 2, m)[0], random_unimodular(rng, PrimeField(3), m, factors=m)):
        before = _kernels(M)
        M.det()
        assert _kernels(M) == before


@st.composite
def integer_exponent_matrices(draw):
    """(p, rows): an m x m matrix of {n: c}, integer n and rational c, with
    m = 1..5 or one size past the crossover."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.sampled_from([1, 2, 3, 4, 5, LAPLACE_MAX_M + 1]))
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


def _refuse(rows):
    raise AssertionError(f"this strategy must not run at m = {len(rows)}")


def _only(monkeypatch, m):
    """Let det run just the strategy it must pick at size m.  The dispatch
    reads the routines from the globals of ``determinants``, so they are
    patched there."""
    # Laplace's 2^m minors must never be built above the crossover, and
    # Berkowitz must not run at or below it.
    other = "laplace_det" if m > LAPLACE_MAX_M else "berkowitz_det"
    monkeypatch.setattr(determinants, other, _refuse)


@pytest.mark.parametrize("m", [LAPLACE_MAX_M, 10, 12])
@pytest.mark.parametrize("p", [2, 3])
def test_det_dispatch_on_planted_matrices(monkeypatch, p, m):
    A, want = _planted(random.Random(m), p, m)
    _only(monkeypatch, m)
    assert A.det() == want


@pytest.mark.parametrize("m", [LAPLACE_MAX_M, 10])
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
    _only(monkeypatch, m)
    assert A.det() == LaurentPoly.monomial(field, sum(degrees))
