"""Matrices of series: determinants, transition validity, the two-sided
equivalence action, and the generators."""

import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from projectivoid import (
    BundleDegree,
    DimensionMismatch,
    InvalidAutomorphism,
    LMatrix,
    LaurentPoly,
    NotATransitionMatrix,
    PExp,
    PrimeField,
    PrimeMismatch,
    PSeries,
    RationalField,
    SMatrix,
    SubringTag,
    ZERO,
    act,
    canon,
    degree_one_family,
    random_automorphism,
)
from projectivoid import matrices
from projectivoid.cli import MAX_FAMILY
from helpers import (
    mono,
    product_oracle,
    random_automorphism_oracle,
    random_series,
    random_transition,
    srs,
)


def test_identity_is_neutral():
    rng = random.Random(0)
    A = random_transition(rng, 2, 3)
    eye = SMatrix.identity(2, 3)
    assert eye * A == A
    assert A * eye == A


def test_diagonal_multiplication():
    D = SMatrix.diagonal(2, [PExp(1, 1), ZERO])
    assert D * D == SMatrix.diagonal(2, [PExp(1, 0), ZERO])


def test_shear_inverse():
    f = srs(2, [(1, 1, 3), (0, 0, -1)])
    E = SMatrix.shear(2, 3, 0, 2, f)
    assert E * SMatrix.shear(2, 3, 0, 2, -f) == SMatrix.identity(2, 3)


def test_product_keeps_the_precision_of_inexact_zeros():
    # 0 (mod val >= 3) bounds the precision of every product it enters, so
    # the matrix product may skip exact zeros only.
    p = 2
    z = PSeries(p, {}, 3)
    A = SMatrix(p, [[z, mono(p, 1)], [PSeries.one(p), PSeries.zero(p)]])
    B = SMatrix(p, [[srs(p, [(1, 1, 3)]), PSeries.one(p)], [mono(p, -1), srs(p, [(0, 0, 5), (2, 1, 1)])]])
    got = A * B
    for i in range(2):
        for j in range(2):
            want = A.entry(i, 0) * B.entry(0, j) + A.entry(i, 1) * B.entry(1, j)
            assert got.entry(i, j) == want
            assert got.entry(i, j).precision == want.precision
    assert got.entry(0, 0).precision is not None


# ----------------------------------------------------------------------
# the integer kernel product against the left-to-right oracle


# Numerators of valuations 0 to 3 at p = 2, 3 and 5, so that one pair's
# product has terms on both sides of its cutoff.
NUMERATORS = [1, -1, 2, -3, 4, 5, -8, 9, 25, -27]


def draw_series(data, p, truncated):
    """An exact zero, a zero known modulo val >= V, or one to three terms
    with exponents of both signs on grids up to p^2 (few, so that products
    meet at one exponent) and coefficient denominators 1, 2, p, p^2 or 3p,
    exact or (when truncated) known modulo val >= V; V runs from -2 to 4."""
    kind = data.draw(st.integers(0, 3 if truncated else 1))
    if kind == 0:
        return PSeries.zero(p)
    prec = data.draw(st.integers(-2, 4)) if kind >= 2 else None
    if kind == 2:
        return PSeries(p, {}, prec)
    terms = data.draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(0, 2), st.sampled_from(NUMERATORS),
                  st.sampled_from([1, 2, p, p * p, 3 * p])),
        min_size=1, max_size=3,
    ))
    return PSeries(p, [(canon(n, k, p), Fraction(a, d)) for n, k, a, d in terms], prec)


def draw_smatrix(data, p, m, truncated):
    return SMatrix(p, [[draw_series(data, p, truncated) for _ in range(m)] for _ in range(m)])


def assert_same_product(A, B):
    got, want = A * B, product_oracle(A, B)
    assert got == want
    for r, s in zip(got.rows, want.rows):
        assert [f.precision for f in r] == [g.precision for g in s]


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5]), st.integers(1, 4), st.booleans(), st.booleans())
def test_series_product_matches_left_to_right_sum(data, p, m, truncated_a, truncated_b):
    # Truncated factors: each pair is cut at its own precision and the
    # running sum at the least so far, which decides the representative.
    assert_same_product(draw_smatrix(data, p, m, truncated_a), draw_smatrix(data, p, m, truncated_b))


def test_truncated_pairs_are_cut_in_order():
    p = 2
    zero, one, v = PSeries.zero(p), PSeries.one(p), mono(p, 1)
    cut = PSeries(p, {ZERO: 1}, 1)  # 1 (mod val >= 1)
    # Each pair is cut at its own precision: v * 1 keeps v, and then
    # (1 mod val >= 1) * (1 + 8v) drops its 8v before the sum, so the entry
    # is 1 + v (mod val >= 1), not 1 + 9v.
    A = SMatrix(p, [[v, cut], [zero, zero]])
    B = SMatrix(p, [[one, zero], [srs(p, [(0, 0, 1), (1, 0, 8)]), zero]])
    assert_same_product(A, B)
    assert (A * B).entry(0, 0) == srs(p, [(0, 0, 1), (1, 0, 1)], 1)
    # The running sum is cut at the least precision so far: 1 + (1 mod val
    # >= 1) = 2 is dropped, and the exact pair after it adds 1, so the
    # entry is 1 (mod val >= 1), not 3.
    A = SMatrix(p, [[one, cut, one], [zero, zero, zero], [zero, zero, zero]])
    B = SMatrix(p, [[one, zero, zero], [one, zero, zero], [one, zero, zero]])
    assert_same_product(A, B)
    assert (A * B).entry(0, 0) == PSeries(p, {ZERO: 1}, 1)


LAURENT_FIELDS = [PrimeField(2), PrimeField(3), RationalField()]


def draw_laurent(data, field):
    pairs = data.draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-5, 5)), max_size=3))
    den = 1 if field.characteristic else data.draw(st.sampled_from([1, 2, 3, 6]))
    return LaurentPoly(field, [(n, Fraction(c, den)) for n, c in pairs])


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(LAURENT_FIELDS), st.integers(1, 4))
def test_laurent_product_matches_left_to_right_sum(data, field, m):
    A, B = (LMatrix(field, [[draw_laurent(data, field) for _ in range(m)] for _ in range(m)])
            for _ in range(2))
    assert A * B == product_oracle(A, B)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([2, 3]), st.integers(1, 6))
def test_det_of_kernel_product(data, p, m):
    A, B = draw_smatrix(data, p, m, False), draw_smatrix(data, p, m, False)
    assert (A * B).det() == A.det() * B.det()


def test_product_mismatches_are_raised_before_lifting(monkeypatch):
    def refuse(*args):
        raise AssertionError("lifted")

    rng = random.Random(4)
    A, B = random_transition(rng, 3, 3), random_transition(rng, 3, 3)
    want = product_oracle(A, B)
    monkeypatch.setattr(PSeries, "__mul__", refuse)
    monkeypatch.setattr(PSeries, "__add__", refuse)
    # Exact factors never take the series path.
    assert A * B == want
    monkeypatch.setattr(matrices, "_flat_rows", refuse)

    def cut(p, m):
        return SMatrix.diagonal(p, [PSeries(p, {ZERO: 1}, 1)] * m)

    for left, right in ((SMatrix.identity(2, 2), SMatrix.identity(3, 2)), (cut(2, 2), cut(3, 2))):
        with pytest.raises(PrimeMismatch):
            left * right
    for left, right in ((SMatrix.identity(2, 2), SMatrix.identity(2, 3)), (cut(2, 2), cut(2, 3))):
        with pytest.raises(DimensionMismatch):
            left * right
    with pytest.raises(ValueError, match="different fields"):
        LMatrix.identity(PrimeField(2), 2) * LMatrix.identity(RationalField(), 2)
    with pytest.raises(DimensionMismatch):
        LMatrix.identity(RationalField(), 3) * LMatrix.identity(RationalField(), 2)


def kernels(M):
    """The stored fields (K, D, ints) of every entry; K is 0 for a Laurent
    polynomial."""
    return [[(f.K, f.D, f.ints) for f in r] for r in M.rows]


def draw_chain_factor(data, cls, base, m, zero, draw_entry):
    """An m x m matrix whose drawn rows and columns, and about a third of
    the other entries, are the exact zero; the rest come from draw_entry."""
    zero_rows, zero_cols = (data.draw(st.sets(st.integers(0, m - 1), max_size=m)) for _ in range(2))
    return cls(base, [[zero if i in zero_rows or j in zero_cols or not data.draw(st.integers(0, 2))
                       else draw_entry() for j in range(m)] for i in range(m)])


def draw_chain_series(data, p):
    """One to three terms on grids up to p^2 with coefficient denominators 1,
    2, p, 2p and p^2, so that the row and column lcms of a factor differ."""
    terms = data.draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(0, 2), st.sampled_from(NUMERATORS),
                  st.sampled_from([1, 2, p, 2 * p, p * p])),
        min_size=1, max_size=3,
    ))
    return PSeries(p, [(canon(n, k, p), Fraction(a, d)) for n, k, a, d in terms])


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5]), st.integers(1, 4))
def test_chain_product_matches_pairwise_oracle(data, p, m):
    # V * A stays integer kernels, each row lifted to one denominator by
    # L / E_j, and only the entries of the whole product are normalised.
    V, A, U = (draw_chain_factor(data, SMatrix, p, m, PSeries.zero(p), lambda: draw_chain_series(data, p))
               for _ in range(3))
    assert kernels(SMatrix._product((V, A, U))) == kernels(product_oracle(product_oracle(V, A), U))
    assert kernels(SMatrix._product((V, A))) == kernels(product_oracle(V, A))


UNITS = [Fraction(a, b) for a in (1, -1, 3, -7) for b in (1, 2, 3, 5)]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5]), st.integers(1, 4))
def test_act_matches_pairwise_oracle(data, p, m):
    # A is a permuted diagonal of drawn monomials times a unitriangular matrix
    # of drawn entries, so a transition matrix with coefficient denominators
    # up to 2p; V and U are drawn automorphisms with row scales that are units.
    units = st.sampled_from([u for u in UNITS if u.numerator % p and u.denominator % p])

    def automorphism(side):
        shears, seed = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 2**16))
        scales = SMatrix.diagonal(p, [PSeries(p, {ZERO: data.draw(units)}) for _ in range(m)])
        return product_oracle(scales, random_automorphism(p, m, side, shears, seed))

    def monomial():
        e = canon(data.draw(st.integers(-4, 4)), data.draw(st.integers(0, 2)), p)
        return PSeries(p, {e: Fraction(data.draw(st.sampled_from([1, -3, 5])),
                                       data.draw(st.sampled_from([1, p, 2 * p])))})

    def upper(i, j):
        return PSeries.one(p) if i == j else draw_chain_series(data, p) if i < j else PSeries.zero(p)

    A = product_oracle(SMatrix.diagonal(p, [monomial() for _ in range(m)]),
                       SMatrix(p, [[upper(i, j) for j in range(m)] for i in range(m)]))
    A = SMatrix(p, [A.rows[k] for k in data.draw(st.permutations(range(m)))])
    V, U = automorphism(SubringTag.NONPOS), automorphism(SubringTag.NONNEG)
    assert kernels(act(V, A, U)) == kernels(product_oracle(product_oracle(V, A), U))


def draw_chain_laurent(data, field):
    pairs = data.draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-5, 5).filter(bool)),
                               min_size=1, max_size=3))
    den = 1 if field.characteristic else data.draw(st.sampled_from([1, 2, 3, 5, 6, 10]))
    return LaurentPoly(field, [(n, Fraction(c, den)) for n, c in pairs])


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([*map(PrimeField, (2, 3, 5)), RationalField()]), st.integers(1, 4))
def test_laurent_chain_product_matches_pairwise_oracle(data, field, m):
    A, B, C = (draw_chain_factor(data, LMatrix, field, m, LaurentPoly.zero(field),
                                 lambda: draw_chain_laurent(data, field)) for _ in range(3))
    assert kernels(LMatrix._product((A, B, C))) == kernels(product_oracle(product_oracle(A, B), C))


def test_chain_product_raises_the_pairwise_mismatch_first(monkeypatch):
    # A first pair over different primes and a second of different sizes
    # raises PrimeMismatch, a first pair of different sizes DimensionMismatch,
    # and a pair that differs in both PrimeMismatch, as the pairwise products
    # do, and before anything is lifted.
    def refuse(*args):
        raise AssertionError("lifted")

    monkeypatch.setattr(matrices, "_flat_rows", refuse)
    eye, leye, Q, GF2 = SMatrix.identity, LMatrix.identity, RationalField(), PrimeField(2)
    cases = [
        (SMatrix, (eye(2, 2), eye(3, 2), eye(3, 3)), PrimeMismatch),
        (SMatrix, (eye(2, 2), eye(2, 3), eye(3, 2)), DimensionMismatch),
        (SMatrix, (eye(2, 2), eye(3, 3), eye(3, 3)), PrimeMismatch),
        (LMatrix, (leye(Q, 2), leye(GF2, 2), leye(GF2, 3)), ValueError),
        (LMatrix, (leye(Q, 2), leye(Q, 3), leye(GF2, 2)), DimensionMismatch),
    ]
    for cls, (X, Y, Z), error in cases:
        for multiply in (lambda: cls._product((X, Y, Z)), lambda: X * Y * Z):
            with pytest.raises(error) as info:
                multiply()
            assert type(info.value) is error
    with pytest.raises(PrimeMismatch):
        act(eye(2, 2), eye(3, 2), eye(3, 3))


@st.composite
def integer_exponent_triples(draw):
    """(p, [X, Y, Z]): three m x m matrices of {n: c}, integer n and rational
    c, with m = 1..4."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 4))
    coeff = st.fractions(-4, 4, max_denominator=12).filter(bool)
    entry = st.dictionaries(st.integers(-3, 3), coeff, max_size=3)
    return p, [[[draw(entry) for _ in range(m)] for _ in range(m)] for _ in range(3)]


@settings(max_examples=60, deadline=None)
@given(integer_exponent_triples())
def test_series_products_match_laurent_products_over_q(case):
    # On integer exponents a series over any p and a Laurent polynomial over
    # Q are the same element in the same normal form (K = 0, D > 0 prime to
    # the numerators), so A * B and the three-factor chain must agree on
    # every entry's kernel.
    p, mats = case
    Q = RationalField()
    S = [SMatrix(p, [[PSeries(p, {canon(n, 0, p): c for n, c in f.items()}) for f in r] for r in M])
         for M in mats]
    L = [LMatrix(Q, [[LaurentPoly(Q, f) for f in r] for r in M]) for M in mats]

    def kernels(M):
        return [[(f.D, f.ints) for f in r] for r in M.rows]

    assert kernels(S[0] * S[1]) == kernels(L[0] * L[1])
    chain = SMatrix._product(S)
    assert all(f.K == 0 for r in chain.rows for f in r)
    assert kernels(chain) == kernels(LMatrix._product(L))


RING_ONES = [PSeries.one(2), PSeries.one(2).reduce(), LaurentPoly.one(RationalField())]
MATRIX_ONES = [SMatrix.identity(2, 2), LMatrix.identity(PrimeField(3), 2)]


@pytest.mark.parametrize("x, op, other", [
    *((x, op, 1) for x in RING_ONES for op in (operator.add, operator.mul)),
    *((x, operator.mul, 3) for x in MATRIX_ONES),
], ids=lambda v: getattr(v, "__name__", type(v).__name__))
def test_foreign_operands_raise_type_error(x, op, other):
    with pytest.raises(TypeError):
        op(x, other)


def test_shape_and_prime_validation():
    with pytest.raises(DimensionMismatch):
        SMatrix(2, [[PSeries.one(2)], [PSeries.one(2), PSeries.one(2)]])
    with pytest.raises(PrimeMismatch):
        SMatrix(2, [[PSeries.one(2), PSeries.one(3)], [PSeries.one(2), PSeries.one(2)]])
    with pytest.raises(DimensionMismatch):
        SMatrix.identity(2, 2) * SMatrix.identity(2, 3)


def test_det_examples():
    assert SMatrix.identity(2, 3).det() == PSeries.one(2)
    M = SMatrix(2, [[PSeries.one(2), mono(2, 1)], [mono(2, 1), PSeries.one(2)]])
    assert M.det() == srs(2, [(0, 0, 1), (2, 0, -1)])
    D = SMatrix.diagonal(2, [PExp(1, 2), PExp(3, 2)])
    assert D.det() == mono(2, 1)


def test_det_multiplicative():
    rng = random.Random(1)
    for m in (1, 2, 3, 4):
        X = SMatrix(2, [[random_series(rng, 2) for _ in range(m)] for _ in range(m)])
        Y = SMatrix(2, [[random_series(rng, 2) for _ in range(m)] for _ in range(m)])
        assert (X * Y).det() == X.det() * Y.det()


def test_det_beyond_leibniz_range():
    # 5x5, upper triangular: the determinant is the product of the diagonal
    rng = random.Random(2)
    m = 5
    rows = [
        [
            mono(2, i + 1, 1, coeff=i + 1)
            if i == j
            else (random_series(rng, 2, 1) if j > i else PSeries.zero(2))
            for j in range(m)
        ]
        for i in range(m)
    ]
    got = SMatrix(2, rows).det()
    want = PSeries.one(2)
    for i in range(m):
        want = want * mono(2, i + 1, 1, coeff=i + 1)
    assert got == want

    X = SMatrix(2, [[random_series(rng, 2, 2) for _ in range(m)] for _ in range(m)])
    Y = SMatrix(2, [[random_series(rng, 2, 2) for _ in range(m)] for _ in range(m)])
    assert (X * Y).det() == X.det() * Y.det()


def test_det_requires_exact_entries():
    M = SMatrix(2, [[PSeries(2, {ZERO: 1}, 3)]])
    with pytest.raises(ValueError):
        M.det()
    # One sweep reads every entry: the only truncated entry is the last one.
    rows = [[PSeries.one(2) if i == j else mono(2, i - j, 1) for j in range(3)] for i in range(3)]
    rows[2][2] = PSeries(2, {ZERO: 1}, 3)
    with pytest.raises(ValueError) as info:
        SMatrix(2, rows).det()
    assert type(info.value) is ValueError
    assert str(info.value) == "operation requires exact matrix entries"


def test_transition_examples():
    assert SMatrix.diagonal(2, [PExp(1, 1), PExp(1, 1)]).is_transition()
    M = SMatrix(
        2,
        [
            [PSeries.one(2), PSeries.zero(2)],
            [PSeries.zero(2), srs(2, [(0, 0, 1), (1, 0, 1)])],
        ],
    )
    assert not M.is_transition()
    Z = SMatrix(2, [[PSeries.zero(2)] * 2] * 2)
    assert not Z.is_transition()


def test_bundle_degree_examples():
    assert SMatrix.diagonal(2, [PExp(1, 1), PExp(1, 1)]).bundle_degree() == BundleDegree(
        PExp(1, 0)
    )
    assert SMatrix.identity(2, 4).bundle_degree() == BundleDegree(ZERO)
    D = SMatrix.diagonal(2, [PExp(-1, 2), PExp(1, 0)])
    assert D.bundle_degree() == BundleDegree(PExp(3, 2))


def test_bundle_degree_requires_transition():
    M = SMatrix(
        2,
        [
            [PSeries.one(2), PSeries.zero(2)],
            [PSeries.zero(2), srs(2, [(0, 0, 1), (1, 0, 1)])],
        ],
    )
    with pytest.raises(NotATransitionMatrix, match="^determinant is not a unit of the full ring$"):
        M.bundle_degree()
    Z = SMatrix(2, [[PSeries.zero(2)] * 2] * 2)
    with pytest.raises(NotATransitionMatrix, match="^determinant is not a unit of the full ring$"):
        Z.bundle_degree()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.booleans(), st.integers(0, 2**32))
def test_bundle_degree_is_the_monomial_factor_exponent(p, m, planted, seed):
    # Planted transition matrices, and matrices of random entries, whose
    # determinant is often not a unit or zero.
    rng = random.Random(seed)
    if planted:
        M = random_transition(rng, p, m)
    else:
        M = SMatrix(p, [[random_series(rng, p) for _ in range(m)] for _ in range(m)])
    d = M.det()
    if d.is_unit(SubringTag.FULL):
        (e,) = d.dominant_terms()
        assert M.bundle_degree() == BundleDegree(e)
    else:
        with pytest.raises(NotATransitionMatrix, match="^determinant is not a unit of the full ring$"):
            M.bundle_degree()


def test_validate_automorphism_examples():
    U = SMatrix.shear(2, 2, 0, 1, mono(2, 1, 1))
    assert U.validate_automorphism(SubringTag.NONNEG)
    D = SMatrix.diagonal(2, [PExp(1, 1), ZERO])
    assert not D.validate_automorphism(SubringTag.NONNEG)
    V = SMatrix.shear(2, 2, 1, 0, mono(2, -1))
    assert V.validate_automorphism(SubringTag.NONPOS)
    assert not V.validate_automorphism(SubringTag.NONNEG)
    with pytest.raises(ValueError):
        U.validate_automorphism(SubringTag.FULL)


def test_act_identity():
    rng = random.Random(3)
    A = random_transition(rng, 2, 2)
    eye = SMatrix.identity(2, 2)
    assert act(eye, A, eye) == A


def test_act_shear_example():
    A = SMatrix.diagonal(2, [PExp(1, 0), ZERO])
    U = SMatrix.shear(2, 2, 0, 1, mono(2, 1, 2))
    got = act(SMatrix.identity(2, 2), A, U)
    want = SMatrix(
        2,
        [[mono(2, 1), mono(2, 5, 2)], [PSeries.zero(2), PSeries.one(2)]],
    )
    assert got == want
    assert got.bundle_degree() == A.bundle_degree()


def test_act_validates_inputs():
    A = SMatrix.diagonal(2, [PExp(1, 0), ZERO])
    eye = SMatrix.identity(2, 2)
    nonneg_shear = SMatrix.shear(2, 2, 0, 1, mono(2, 1, 1))
    nonpos_shear = SMatrix.shear(2, 2, 0, 1, mono(2, -1))

    with pytest.raises(InvalidAutomorphism) as err:
        act(eye, A, nonpos_shear)
    assert err.value.side == "NONNEG"

    with pytest.raises(InvalidAutomorphism) as err:
        act(nonneg_shear, A, eye)
    assert err.value.side == "NONPOS"

    bad = SMatrix(
        2,
        [
            [PSeries.one(2), PSeries.zero(2)],
            [PSeries.zero(2), srs(2, [(0, 0, 1), (1, 0, 1)])],
        ],
    )
    with pytest.raises(NotATransitionMatrix):
        act(eye, bad, eye)


def test_random_automorphism_trivial_case():
    # No shears: the diagonal of one-sided units alone.
    got = random_automorphism(2, 3, SubringTag.NONNEG, 0, seed=9)
    assert all(f.is_zero() for i, r in enumerate(got.rows) for j, f in enumerate(r) if i != j)
    assert got.validate_automorphism(SubringTag.NONNEG)


def test_random_automorphism_is_valid_with_unimodular_determinant():
    for seed in range(8):
        for side in (SubringTag.NONNEG, SubringTag.NONPOS):
            M = random_automorphism(3, 3, side, 4, seed=seed)
            assert M.validate_automorphism(side)
            assert M.det().degree() == ZERO


def test_random_automorphism_matches_the_shear_product_oracle():
    # Each shear is a column operation; the product loop it replaced is the
    # oracle, on every prime, size, side, shear count and seed of the grid.
    sides = (SubringTag.NONNEG, SubringTag.NONPOS)
    for args in itertools.product((2, 3, 5, 7), range(1, 7), sides, range(9), range(6)):
        assert kernels(random_automorphism(*args)) == kernels(random_automorphism_oracle(*args))


def test_random_automorphism_deterministic():
    a = random_automorphism(2, 2, SubringTag.NONNEG, 3, seed=11)
    b = random_automorphism(2, 2, SubringTag.NONNEG, 3, seed=11)
    assert a == b
    assert a != random_automorphism(2, 2, SubringTag.NONNEG, 3, seed=12)


def test_degree_invariance_sample():
    rng = random.Random(7)
    for _ in range(10):
        m = rng.randrange(1, 4)
        A = random_transition(rng, 2, m)
        U = random_automorphism(2, m, SubringTag.NONNEG, rng.randrange(0, 4), seed=rng.randrange(10**6))
        V = random_automorphism(2, m, SubringTag.NONPOS, rng.randrange(0, 4), seed=rng.randrange(10**6))
        moved = act(V, A, U)
        assert moved.is_transition()
        assert moved.bundle_degree() == A.bundle_degree()


def test_family_counts():
    assert len(degree_one_family(2, 0)) == 2
    assert len(degree_one_family(2, 4)) == 17
    assert len(degree_one_family(3, 1)) == 4


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_family_equals_the_validated_build_up_to_the_cap(p):
    k = 0
    while p**k + 1 <= MAX_FAMILY:
        q = p**k
        fam = degree_one_family(p, k)
        assert fam == [SMatrix.diagonal(p, [canon(j, k, p), canon(q - j, k, p)]) for j in range(q + 1)]
        assert all(type(M) is SMatrix for M in fam)
        assert all(PSeries(p, f.terms) == f for M in fam for r in M.rows for f in r)
        k += 1


def test_family_members_have_degree_one():
    for M in degree_one_family(2, 4):
        assert M.m == 2
        assert M.bundle_degree() == BundleDegree(PExp(1, 0))


def test_family_exponent_pairs():
    fam = degree_one_family(2, 3)
    seen = set()
    for M in fam:
        a = M.entry(0, 0).degree().as_fraction(2)
        b = M.entry(1, 1).degree().as_fraction(2)
        assert a + b == 1
        assert 0 <= a <= 1
        if a <= Fraction(1, 2):
            key = tuple(sorted((a, b)))
            assert key not in seen
            seen.add(key)
