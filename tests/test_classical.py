"""Classical Laurent matrices over a field and the constructive diagonal
factorization with certificates."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from projectivoid import (
    DivisionByZero,
    FactorizationCertificate,
    InvalidAutomorphism,
    IterationLimitExceeded,
    LMatrix,
    LaurentPoly,
    NotInvertibleOverRing,
    PrimeField,
    RationalField,
    SplittingType,
    split,
    splitting_invariance_check,
)
from projectivoid.classical import _adjugate
from projectivoid.determinants import berkowitz_det, laplace_det, leibniz_det
from helpers import random_unimodular

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
Q = RationalField()


def lp(field, pairs):
    return LaurentPoly(field, pairs)


# ----------------------------------------------------------------------
# fields


def test_prime_field_ops():
    assert F3.inv(2) == 2
    assert F3.coerce(Fraction(1, 2)) == 2
    assert F3.coerce(-1) == 2
    assert sorted(F3.elements()) == [0, 1, 2]


def test_prime_field_rejects_bad_denominator():
    with pytest.raises(DivisionByZero):
        F2.coerce(Fraction(1, 2))


def test_rational_field_ops():
    assert Q.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert Q.coerce(2) == Fraction(2)
    assert Q.is_zero(Q.sub(Q.one, Q.one))


# ----------------------------------------------------------------------
# Laurent polynomials


def test_laurent_arithmetic():
    s_plus = lp(Q, {1: 1, 0: 1})
    s_minus = lp(Q, {1: 1, 0: -1})
    assert s_plus * s_minus == lp(Q, {2: 1, 0: -1})
    assert s_plus + s_minus == lp(Q, {1: 2})
    assert (s_plus - s_plus).is_zero()


def test_laurent_arithmetic_mod_two():
    f = lp(F2, {1: 1, 0: 1})
    assert f * f == lp(F2, {2: 1, 0: 1})
    assert (f + f).is_zero()


def test_laurent_shape_queries():
    f = lp(Q, {-2: 1, 3: 2})
    assert f.min_exp() == -2
    assert f.max_exp() == 3
    assert f.span() == 5
    assert not f.in_poly_ring()
    assert lp(Q, {0: 1, 2: 1}).in_poly_ring()
    assert lp(Q, {-1: 1}).in_inverse_ring()
    with pytest.raises(ValueError):
        lp(Q, {}).min_exp()


def test_laurent_shift_scale():
    f = lp(Q, {0: 1, 1: 1})
    assert f.shift(-2) == lp(Q, {-2: 1, -1: 1})
    assert f.scale(3) == lp(Q, {0: 3, 1: 3})


def test_unit_parts():
    assert lp(Q, {-2: 3}).unit_parts() == (Fraction(3), -2)
    assert lp(Q, {0: 1, 1: 1}).unit_parts() is None
    assert lp(Q, {}).unit_parts() is None


# ----------------------------------------------------------------------
# matrices


def test_lmatrix_det_examples():
    assert LMatrix.diagonal_powers(Q, [1, -1]).det() == lp(Q, {0: 1})
    A = LMatrix(Q, [[lp(Q, {1: 1}), lp(Q, {0: 1})], [lp(Q, {}), lp(Q, {1: 1})]])
    assert A.det() == lp(Q, {2: 1})


def test_lmatrix_constant_det():
    assert LMatrix.identity(F2, 3).constant_det() == 1
    assert LMatrix.diagonal_powers(Q, [1, 0]).constant_det() is None


def sparse_lmatrices(field):
    """Square matrices, m = 1..5, whose entries are mostly zero or monomials."""
    if field == Q:
        elem = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        elem = st.integers(0, field.p - 1)
    entry = st.dictionaries(st.integers(-2, 2), elem, max_size=2).map(lambda d: lp(field, d))
    return st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.one_of(st.just(LaurentPoly.zero(field)), entry), min_size=m, max_size=m),
            min_size=m,
            max_size=m,
        ).map(lambda rows: LMatrix(field, rows))
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F2, F3, F5, Q]).flatmap(sparse_lmatrices))
def test_det_and_adjugate_match_leibniz_oracle(M):
    one, zero, m = LaurentPoly.one(M.field), LaurentPoly.zero(M.field), M.m
    d = leibniz_det(M.rows, one)
    assert M.det() == d
    adj, adj_det = _adjugate(M)
    assert adj_det == d
    d_eye = LMatrix(M.field, [[d if i == j else zero for j in range(m)] for i in range(m)])
    assert M * adj == d_eye
    # Entry by entry too: a singular M satisfies the identity above for
    # either sign of adj(M).
    for i in range(m):
        for j in range(m):
            minor = [[r[c] for c in range(m) if c != i] for k, r in enumerate(M.rows) if k != j]
            cofactor = leibniz_det(minor, one)
            assert adj.entry(i, j) == (cofactor if (i + j) % 2 == 0 else -cofactor)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F2, F3, Q]).flatmap(sparse_lmatrices))
def test_determinant_strategies_agree(M):
    one = LaurentPoly.one(M.field)
    d = leibniz_det(M.rows, one)
    assert laplace_det(M.rows, one) == d
    assert berkowitz_det(M.rows, one) == d


def test_lmatrix_side_predicates():
    U = LMatrix.shear(Q, 2, 0, 1, lp(Q, {0: 1, 2: 1}))
    assert U.is_polynomial()
    assert not U.is_inverse_polynomial()
    V = LMatrix.shear(Q, 2, 1, 0, lp(Q, {-1: 1}))
    assert V.is_inverse_polynomial()
    assert LMatrix.diagonal_powers(Q, [0, 2]).is_diagonal_of_powers()
    assert not U.is_diagonal_of_powers()


# ----------------------------------------------------------------------
# splitting


def test_split_identity():
    for m in (1, 2, 3):
        t, cert = split(LMatrix.identity(F2, m))
        assert t == SplittingType((0,) * m)
        assert cert.V == LMatrix.identity(F2, m)
        assert cert.U == LMatrix.identity(F2, m)
        assert cert.D == LMatrix.identity(F2, m)


def test_split_already_diagonal():
    A = LMatrix.diagonal_powers(Q, [-1, 3])
    t, cert = split(A)
    assert t == SplittingType((-1, 3))
    assert cert.D == LMatrix.diagonal_powers(Q, [-1, 3])
    assert cert.verify(A)


def test_split_sorts_degrees():
    A = LMatrix.diagonal_powers(F3, [2, -1, 0])
    t, _ = split(A)
    assert t == SplittingType((-1, 0, 2))
    assert str(t) == "(-1, 0, 2)"


def test_split_rejects_non_unit_determinant():
    A = LMatrix(Q, [[lp(Q, {0: 1, 1: 1}), lp(Q, {})], [lp(Q, {}), lp(Q, {0: 1})]])
    with pytest.raises(NotInvertibleOverRing):
        split(A)
    with pytest.raises(NotInvertibleOverRing):
        split(LMatrix(Q, [[lp(Q, {})]]))


def test_split_iteration_cap():
    A = LMatrix(Q, [[lp(Q, {0: 1}), lp(Q, {1: 1})], [lp(Q, {-1: 1}), lp(Q, {0: 2})]])
    with pytest.raises(IterationLimitExceeded):
        split(A, max_iterations=0)
    t, cert = split(A)
    assert sum(t.degrees) == 0
    assert cert.verify(A)


def test_upper_triangular_type_by_exhaustive_search():
    """Certify the splitting type of [[s, 1], [0, s]] against a bounded
    brute-force search over unimodular factors with entries of degree <= 1:
    the only reachable diagonal is (s, s)."""
    A = LMatrix(F2, [[lp(F2, {1: 1}), lp(F2, {0: 1})], [lp(F2, {}), lp(F2, {1: 1})]])

    def all_side_matrices(exponents):
        cells = [
            lp(F2, dict(zip(exponents, combo)))
            for combo in itertools.product([0, 1], repeat=len(exponents))
        ]
        for a, b, c, d in itertools.product(cells, repeat=4):
            M = LMatrix(F2, [[a, b], [c, d]])
            if M.constant_det() is not None:
                yield M

    reachable = set()
    rights = list(all_side_matrices((0, 1)))
    lefts = list(all_side_matrices((-1, 0)))
    for V in lefts:
        VA = V * A
        for U in rights:
            M = VA * U
            if M.is_diagonal_of_powers():
                degrees = tuple(sorted(M.entry(i, i).unit_parts()[1] for i in range(2)))
                reachable.add(degrees)
    assert reachable == {(1, 1)}

    t, cert = split(A)
    assert t == SplittingType((1, 1))
    assert cert.verify(A)


def test_split_round_trip_randomized():
    rng = random.Random(42)
    for field in (F2, F3, Q):
        for _ in range(15):
            m = rng.randrange(1, 4)
            degrees = sorted(rng.randrange(-3, 4) for _ in range(m))
            D = LMatrix.diagonal_powers(field, degrees)
            U1 = random_unimodular(rng, field, m, side=1, factors=rng.randrange(0, 4))
            V1 = random_unimodular(rng, field, m, side=-1, factors=rng.randrange(0, 4))
            A = V1 * D * U1
            t, cert = split(A)
            assert t == SplittingType(tuple(degrees))
            assert cert.verify(A)
            assert sum(t.degrees) == A.det().unit_parts()[1]


@pytest.mark.parametrize("m", [8, 10])
@pytest.mark.parametrize("field", [F3, Q], ids=["GF3", "Q"])
def test_split_large_planted(field, m):
    rng = random.Random(m)
    degrees = [rng.randrange(-3, 4) for _ in range(m)]
    V1 = random_unimodular(rng, field, m, side=-1, factors=m, max_deg=1)
    U1 = random_unimodular(rng, field, m, side=1, factors=m, max_deg=1)
    A = V1 * LMatrix.diagonal_powers(field, degrees) * U1
    t, cert = split(A)
    assert t == SplittingType(tuple(sorted(degrees)))
    assert cert.verify(A)


def test_invariance_check():
    rng = random.Random(9)
    A = LMatrix.diagonal_powers(F2, [0, 2])
    U = random_unimodular(rng, F2, 2, side=1)
    V = random_unimodular(rng, F2, 2, side=-1)
    assert splitting_invariance_check(A, U, V)


def test_invariance_check_validates_sides():
    A = LMatrix.identity(F2, 2)
    eye = LMatrix.identity(F2, 2)
    inverse_shear = LMatrix.shear(F2, 2, 0, 1, lp(F2, {-1: 1}))
    poly_shear = LMatrix.shear(F2, 2, 0, 1, lp(F2, {1: 1}))
    with pytest.raises(InvalidAutomorphism):
        splitting_invariance_check(A, inverse_shear, eye)
    with pytest.raises(InvalidAutomorphism):
        splitting_invariance_check(A, eye, poly_shear)


def test_certificate_verify_rejects_wrong_product():
    eye = LMatrix.identity(F2, 2)
    cert = FactorizationCertificate(eye, eye, LMatrix.diagonal_powers(F2, [0, 1]))
    assert not cert.verify(eye)
