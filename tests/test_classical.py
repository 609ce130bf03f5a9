"""Classical Laurent matrices over a field and the constructive diagonal
factorization with certificates."""

import itertools
import random
from fractions import Fraction
from math import gcd, prod

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
from projectivoid.classical import _inverse, _poly
from projectivoid.determinants import berkowitz_det, kronecker_det, leibniz_det
from projectivoid.series import scaled_rows
from helpers import random_unimodular, split_oracle

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
    assert Q.is_zero(Q.add(Q.one, Q.coerce(-1)))


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


def field_elements(field):
    if field == Q:
        return st.fractions(min_value=-4, max_value=4, max_denominator=6)
    # unreduced representatives too: the constructor reduces them
    return st.integers(-2 * field.p, 2 * field.p)


def laurent_polys(field):
    return st.lists(st.tuples(st.integers(-4, 4), field_elements(field)), max_size=5).map(
        lambda pairs: lp(field, pairs)
    )


def in_field(field, acc):
    """A Fraction-valued dict as the coefficients of a polynomial over field."""
    out = {n: field.coerce(c) for n, c in acc.items()}
    return {n: c for n, c in out.items() if not field.is_zero(c)}


def assert_normal_form(r):
    field, D, ints = r.field, r.D, r.ints
    assert all(ints.values())
    if field == Q:
        assert D > 0 and gcd(D, *ints.values()) == 1
    else:
        assert D == 1 and all(0 < a < field.p for a in ints.values())
    assert LaurentPoly(field, r.coeffs) == r
    view = r.coeffs
    view[99] = field.one
    assert 99 not in r.coeffs


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_laurent_results_are_in_normal_form(data):
    """Results of the ring operations meet the kernel invariants, round-trip
    through the validating constructor and agree with Fraction arithmetic."""
    field = data.draw(st.sampled_from([F2, F3, F5, Q]))
    f, g = data.draw(laurent_polys(field)), data.draw(laurent_polys(field))
    k, c = data.draw(st.integers(-3, 3)), data.draw(field_elements(field))
    a = {n: Fraction(x) for n, x in f.coeffs.items()}
    b = {n: Fraction(x) for n, x in g.coeffs.items()}

    def plus(x, y, sign=1):
        out = dict(x)
        for n, v in y.items():
            out[n] = out.get(n, 0) + sign * v
        return out

    product = {}
    for n1, v1 in a.items():
        for n2, v2 in b.items():
            product[n1 + n2] = product.get(n1 + n2, 0) + v1 * v2
    cases = [
        (f, a),
        (f + g, plus(a, b)),
        (f - g, plus(a, b, -1)),
        (f * g, product),
        (-f, {n: -v for n, v in a.items()}),
        (f.shift(k), {n + k: v for n, v in a.items()}),
        (f.scale(c), {n: v * Fraction(c) for n, v in a.items()}),
    ]
    for r, want in cases:
        assert_normal_form(r)
        assert r.coeffs == in_field(field, want)


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


def unimodular_over_inverse_ring(field, m):
    """Matrices over k[1/s] with a nonzero constant determinant: rows permuted,
    a product of shears, times a constant diagonal."""
    if field == Q:
        unit = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    else:
        unit = st.integers(1, field.p - 1)

    def build(seed, factors, perm, constants):
        rng = random.Random(seed)
        C = random_unimodular(rng, field, m, side=-1, factors=factors, max_deg=2)
        C = C * LMatrix.diagonal(field, [LaurentPoly.constant(field, c) for c in constants])
        return LMatrix(field, [C.rows[i] for i in perm])

    return st.builds(
        build,
        st.integers(0, 2**32),
        st.integers(0, 2 * m),
        st.permutations(range(m)),
        st.lists(unit, min_size=m, max_size=m),
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F2, F3, F5, Q]).flatmap(sparse_lmatrices), st.data())
def test_det_and_adjugate_match_leibniz_oracle(M, data):
    one, m = LaurentPoly.one(M.field), M.m
    d = leibniz_det(M.rows, one)
    assert M.det() == d
    # The inverse that split builds V from: for C unimodular over k[1/s],
    # C * C^-1 = I and det(C) * C^-1 is the adjugate, entry by entry.
    field = M.field
    C = data.draw(unimodular_over_inverse_ring(field, m))
    inv = LMatrix(field, _inverse(field, *scaled_rows(1, 0, C.rows), [1] * m))
    assert C * inv == LMatrix.identity(field, m)
    c = leibniz_det(C.rows, one)
    for i in range(m):
        for j in range(m):
            minor = [[r[col] for col in range(m) if col != i] for k, r in enumerate(C.rows) if k != j]
            cofactor = leibniz_det(minor, one)
            assert c * inv.entry(i, j) == (cofactor if (i + j) % 2 == 0 else -cofactor)
    # A row times 1 + s^-1 makes the determinant non-constant.
    bent = [list(r) for r in C.rows]
    bent[0] = [f * lp(field, {0: 1, -1: 1}) for f in bent[0]]
    with pytest.raises(RuntimeError, match="not constant-determinant"):
        _inverse(field, *scaled_rows(1, 0, bent), [1] * m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F2, F3, F5, Q]).flatmap(sparse_lmatrices))
def test_determinant_strategies_agree(M):
    d = leibniz_det(M.rows, LaurentPoly.one(M.field))
    assert M.det() == d
    Ds, scaled = scaled_rows(1, 0, M.rows)
    for routine in (kronecker_det, berkowitz_det):
        assert _poly(M.field, prod(Ds), routine(scaled)) == d


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


# ----------------------------------------------------------------------
# split against the LaurentPoly-object oracle


def planted_split_input(field, m, seed, max_exp=2):
    """V1 * diag(s^d) * U1 with m monomial shears per side, as the split
    benchmark builds its inputs; over Q the shear coefficients and a
    constant diagonal on each side carry denominators 2 and 3."""
    rng = random.Random(seed)

    def unit():
        if field == Q:
            return Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 3)))
        return rng.randrange(1, field.p)

    def side(sign):
        M = LMatrix.diagonal(field, [LaurentPoly.constant(field, unit()) for _ in range(m)])
        for _ in range(m if m > 1 else 0):
            i, j = rng.sample(range(m), 2)
            f = LaurentPoly.monomial(field, sign * rng.randrange(0, max_exp + 1), unit())
            M = M * LMatrix.shear(field, m, i, j, f)
        return M

    degrees = [rng.randrange(-3, 4) for _ in range(m)]
    return side(-1) * LMatrix.diagonal_powers(field, degrees) * side(1)


def assert_same_split(A):
    t, cert = split(A)
    t_oracle, cert_oracle = split_oracle(A)
    assert t == t_oracle
    assert (cert.V, cert.U, cert.D) == (cert_oracle.V, cert_oracle.U, cert_oracle.D)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([F2, F3, F5, Q]), st.integers(1, 8), st.integers(0, 2**32))
def test_split_matches_object_oracle(field, m, seed):
    assert_same_split(planted_split_input(field, m, seed))


@pytest.mark.parametrize("m", range(9, 15))
def test_split_matches_object_oracle_large(m):
    for k, field in enumerate((F2, F3, F5, Q)):
        assert_same_split(planted_split_input(field, m, 100 * m + k, max_exp=1))


def test_split_iteration_cap_on_both():
    A = planted_split_input(Q, 4, 7)
    with pytest.raises(IterationLimitExceeded):
        split(A, max_iterations=0)
    with pytest.raises(IterationLimitExceeded):
        split_oracle(A, max_iterations=0)
