"""Matrices of series: determinants, transition validity, the two-sided
equivalence action, and the generators."""

import random
from fractions import Fraction

import pytest

from projectivoid import (
    BundleDegree,
    DimensionMismatch,
    InvalidAutomorphism,
    NotATransitionMatrix,
    PExp,
    PrimeMismatch,
    PSeries,
    SMatrix,
    SubringTag,
    ZERO,
    act,
    degree_one_family,
    random_automorphism,
)
from helpers import mono, random_series, random_transition, srs


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
    with pytest.raises(NotATransitionMatrix):
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
    got = random_automorphism(2, 3, SubringTag.NONNEG, 0, seed=9, trivial_diagonal=True)
    assert got == SMatrix.identity(2, 3)


def test_random_automorphism_is_valid_with_unimodular_determinant():
    for seed in range(8):
        for side in (SubringTag.NONNEG, SubringTag.NONPOS):
            M = random_automorphism(3, 3, side, 4, seed=seed)
            assert M.validate_automorphism(side)
            assert M.det().degree() == ZERO


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
