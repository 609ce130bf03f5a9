"""Classical Laurent matrices over a field and the constructive diagonal
factorization with certificates."""

import itertools
import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from projectivoid import (
    DimensionMismatch,
    DivisionByZero,
    FactorizationCertificate,
    InvalidAutomorphism,
    LMatrix,
    LaurentPoly,
    NotInvertibleOverRing,
    ParseError,
    PrimeField,
    RationalField,
    SplittingType,
    split,
    splitting_invariance_check,
)
from projectivoid import classical
from projectivoid.classical import MAX_SPLIT_PASSES, _inverse, _poly
from projectivoid.determinants import (
    _plan,
    adjugate,
    bareiss_det,
    berkowitz_det,
    leibniz_det,
)
from projectivoid.matrices import _flat_rows, scaled_rows
import helpers
from helpers import (
    euclid_inverse,
    kernel_product,
    pass_bound,
    random_laurent,
    random_unimodular,
    split_oracle,
    verify_oracle,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
Q = RationalField()
NOT_MONOMIAL = r"^determinant is not of the form c \* s\^n$"


def lp(field, pairs):
    return LaurentPoly(field, pairs)


# ----------------------------------------------------------------------
# fields


def test_prime_field_ops():
    assert all(F3.coerce(Fraction(1, a)) * a % 3 == 1 for a in (1, 2))
    assert F3.coerce(Fraction(1, 2)) == 2
    assert F3.coerce(-1) == 2


def test_prime_field_rejects_bad_denominator():
    with pytest.raises(DivisionByZero):
        F2.coerce(Fraction(1, 2))


def test_rational_field_ops():
    assert Q.coerce(Fraction(1, Fraction(2, 3))) == Fraction(3, 2)
    assert Q.coerce(2) == Fraction(2)
    assert Q.add(Q.one, Q.coerce(-1)) == Q.zero


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
    assert not f.in_poly_ring()
    assert lp(Q, {0: 1, 2: 1}).in_poly_ring()
    assert lp(Q, {-1: 1}).in_inverse_ring()
    with pytest.raises(ValueError):
        lp(Q, {}).min_exp()


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
    return {n: c for n, c in out.items() if c != 0}


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
    ]
    for r, want in cases:
        assert_normal_form(r)
        assert r.coeffs == in_field(field, want)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_laurent_constructor_merges_like_the_monomial_sum(data):
    """The constructor merges its pairs, repeated exponents included, into
    the normal form of the sum of their monomials."""
    field = data.draw(st.sampled_from([F2, F3, F5, Q]))
    pairs = data.draw(st.lists(st.tuples(st.integers(-3, 3), field_elements(field)), max_size=8))
    f = lp(field, pairs)
    assert_normal_form(f)
    want = sum((LaurentPoly.monomial(field, n, c) for n, c in pairs), LaurentPoly.zero(field))
    assert (f.D, f.ints) == (want.D, want.ints)


@pytest.mark.parametrize("field", [F2, F3, F5], ids=["GF2", "GF3", "GF5"])
def test_laurent_constructor_rejects_a_denominator_divisible_by_p(field):
    with pytest.raises(DivisionByZero):
        lp(field, [(0, 1), (2, Fraction(1, 2 * field.p))])


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
        C = C * LMatrix.diagonal(field, [LaurentPoly.monomial(field, 0, c) for c in constants])
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
    inv = LMatrix(field, _inverse(field, *scaled_rows(1, 0, C.rows), [0] * m, [1] * m))
    assert C * inv == LMatrix.identity(field, m)
    c = leibniz_det(C.rows, one)
    for i in range(m):
        for j in range(m):
            minor = [[r[col] for col in range(m) if col != i] for k, r in enumerate(C.rows) if k != j]
            cofactor = leibniz_det(minor, one)
            assert c * inv.rows[i][j] == (cofactor if (i + j) % 2 == 0 else -cofactor)
    # A row times 1 + s^-1 makes the determinant non-constant.
    bent = [list(r) for r in C.rows]
    bent[0] = [f * lp(field, {0: 1, -1: 1}) for f in bent[0]]
    with pytest.raises(NotInvertibleOverRing, match=NOT_MONOMIAL):
        _inverse(field, *scaled_rows(1, 0, bent), [0] * m, [1] * m)


def _kernel_copy(rows):
    return [[dict(f) for f in r] for r in rows]


def _shifted(rows, k):
    """B' = rows * diag(s^k): column j of the integer kernels shifted by k_j."""
    return [[{n + kj: a for n, a in f.items()} for f, kj in zip(r, k)] for r in rows]


def assert_inverse_matches_oracle(C, rng, k=None):
    """_inverse of B', the integer rows of C times diag(s^k) (k = 0 when not
    given), with random column scales d, is euclid_inverse's, diag(d) *
    C^-1, and leaves its input as it was."""
    field, m = C.field, C.m
    R, rows = scaled_rows(1, 0, C.rows)
    k = k or [0] * m
    rows = _shifted(rows, k)
    p = field.characteristic
    d = [rng.choice([x for x in (1, 2, -3, 4, 6, -7) if not p or x % p]) for _ in range(m)]
    before = _kernel_copy(rows), list(R), list(k), list(d)
    got = _inverse(field, R, rows, k, d)
    assert (_kernel_copy(rows), R, k, d) == before
    assert got == euclid_inverse(field, R, rows, k, d)
    assert LMatrix(field, got) * C == LMatrix.diagonal(field, [LaurentPoly.monomial(field, 0, x) for x in d])


def spread_unimodular(field, m, seed, max_exp=40):
    """A product of m monomial shears over k[1/s] with exponents up to
    max_exp, times a permutation and a constant diagonal: sparse rows whose
    exponents spread far apart."""
    rng = random.Random(seed)
    unit = (lambda: rng.choice([1, -1, 2, Fraction(1, 3)])) if field == Q else (lambda: rng.randrange(1, field.p))
    M = LMatrix.diagonal(field, [LaurentPoly.monomial(field, 0, unit()) for _ in range(m)])
    for _ in range(m if m > 1 else 0):
        i, j = rng.sample(range(m), 2)
        M = M * LMatrix.shear(field, m, i, j, LaurentPoly.monomial(field, -rng.randrange(max_exp + 1), unit()))
    perm = list(range(m))
    rng.shuffle(perm)
    return LMatrix(field, [M.rows[i] for i in perm])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F2, F3, F5, Q]), st.integers(1, 7), st.data())
def test_packed_inverse_matches_euclidean_oracle(field, m, data):
    # At k = 0 and at drawn column degrees k, whose B' = C' * diag(s^k) has
    # det c * s^(sum k).
    C = data.draw(unimodular_over_inverse_ring(field, m))
    seed = data.draw(st.integers(0, 2**32))
    k = data.draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
    for degrees in (None, k):
        assert_inverse_matches_oracle(C, random.Random(seed), degrees)
        assert_inverse_matches_oracle(spread_unimodular(field, m, seed), random.Random(seed), degrees)


def _permutation(field, perm, rng):
    """Row i holds a nonzero constant at column perm[i] and zeros elsewhere."""
    m = len(perm)
    unit = (lambda: rng.choice([1, -2, Fraction(3, 2)])) if field == Q else (lambda: rng.randrange(1, field.p))
    return LMatrix(field, [[LaurentPoly.monomial(field, 0, unit()) if j == perm[i] else LaurentPoly.zero(field)
                            for j in range(m)] for i in range(m)])


@pytest.mark.parametrize("m", range(2, 13))
@pytest.mark.parametrize("field", [F2, F3, F5, Q], ids=["GF2", "GF3", "GF5", "Q"])
def test_packed_inverse_pivot_swaps(field, m):
    # Antidiagonal and permutation matrices leave a zero pivot in most
    # columns; products with shears over k[1/s] add exponents.
    rng = random.Random(m)
    antidiagonal = _permutation(field, list(reversed(range(m))), rng)
    perm = list(range(m))
    rng.shuffle(perm)
    for C in (antidiagonal, _permutation(field, perm, rng)):
        assert_inverse_matches_oracle(C, rng)
        shears = random_unimodular(rng, field, m, side=-1, factors=m, max_deg=1)
        assert_inverse_matches_oracle(C * shears, rng)
        assert_inverse_matches_oracle(shears * C, rng)


def assert_adjugate(M):
    """determinants.adjugate of the integer rows of M: det as Berkowitz
    gives it, adj * rows = det * I over Z (or adj None for det {}), and the
    rows left as they were."""
    _, rows = scaled_rows(1, 0, M.rows)
    before = _kernel_copy(rows)
    det, adj = adjugate(rows)
    assert _kernel_copy(rows) == before
    assert det == berkowitz_det(rows)
    if not det:
        assert adj is None
        return
    m = len(rows)
    want = [[det if i == j else {} for j in range(m)] for i in range(m)]
    assert kernel_product(0, adj, [*zip(*rows)]) == want


@pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 12])
@pytest.mark.parametrize("field", [F2, F3, F5, Q], ids=["GF2", "GF3", "GF5", "Q"])
def test_adjugate_times_rows_is_det(field, m):
    # Shear products over both one-sided rings with a diagonal of powers
    # between them (rows of both signs of exponent); permutation and
    # antidiagonal matrices and their products with shears, which swap rows
    # at most pivots; column-shifted spread rows; and singular matrices, with
    # a repeated row, a zero row or a zero column.
    rng = random.Random(m)
    degrees = [rng.randint(-2, 2) for _ in range(m)]
    shears = random_unimodular(rng, field, m, side=-1, factors=m, max_deg=1)
    perm = list(range(m))
    rng.shuffle(perm)
    cases = [
        shears * LMatrix.diagonal_powers(field, degrees) * random_unimodular(rng, field, m, side=1, factors=m),
        _permutation(field, list(reversed(range(m))), rng),
        _permutation(field, perm, rng) * shears,
        shears * _permutation(field, perm, rng),
        spread_unimodular(field, m, m),
    ]
    zero = LaurentPoly.zero(field)
    rows = [list(r) for r in cases[0].rows]
    cases.append(LMatrix(field, [[zero] * m] + rows[1:]))
    cases.append(LMatrix(field, [[zero] + r[1:] for r in rows]))
    if m > 1:
        cases.append(LMatrix(field, [rows[1]] + rows[1:]))
    for M in cases:
        assert_adjugate(M)


@pytest.mark.parametrize("field", [F2, F3, F5, Q], ids=["GF2", "GF3", "GF5", "Q"])
def test_packed_inverse_refuses_singular_and_nonconstant(field):
    zero, one, t = LaurentPoly.zero(field), LaurentPoly.one(field), LaurentPoly.monomial(field, -1)
    cases = [
        [[one, t], [zero, zero]],  # a zero row
        [[one, t], [one, t]],  # equal rows
        [[t, zero], [zero, one]],  # det = s^-1
        [[one + t, zero], [zero, one]],  # det = 1 + s^-1
    ]
    if field == F3:
        cases.append([[one, one + one], [one + one, one]])  # det = -3 over Z, 0 over GF(3)
    for rows in cases:
        R, scaled = scaled_rows(1, 0, rows)
        with pytest.raises(NotInvertibleOverRing, match=NOT_MONOMIAL):
            _inverse(field, R, scaled, [0, 0], [1, 1])
        # The same C' as B' = C' * diag(s^k): det(B') is det(C') * s^(sum k).
        with pytest.raises(NotInvertibleOverRing, match=NOT_MONOMIAL):
            _inverse(field, R, _shifted(scaled, [2, -3]), [2, -3], [1, 1])
    # det(B') = s^-1 is c * s^K exactly when K = -1.
    R, scaled = scaled_rows(1, 0, cases[2])
    assert LMatrix(field, _inverse(field, R, scaled, [-1, 0], [1, 1])) == LMatrix.identity(field, 2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F2, F3, F5, Q]).flatmap(sparse_lmatrices))
def test_determinant_strategies_agree(M):
    d = leibniz_det(M.rows, LaurentPoly.one(M.field))
    assert M.det() == d
    Ds, scaled = scaled_rows(1, 0, M.rows)
    for got in (bareiss_det(scaled, _plan(scaled)), berkowitz_det(scaled)):
        assert _poly(M.field, prod(Ds), got) == d


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


def _count_passes(monkeypatch, settle=True):
    """Count the kernel_vector calls of split, one per pass and one more
    when the reduction settles; with settle=False every top-degree matrix
    is singular with kernel vector e_0, so a pass leaves column 0 as it
    was and only the pass bound stops split."""
    calls = []
    real = classical.kernel_vector
    monkeypatch.setattr(classical, "kernel_vector",
                        lambda p, rows: calls.append(rows) or (real(p, rows) if settle else [1]))
    return calls


def test_split_iteration_cap(monkeypatch):
    # P = (0 - (-1)) + (1 - 0) = 2: with every top-degree matrix kept
    # singular, the third kernel vector is a pass past P, which proves
    # det(A) = 0 and refuses A.
    A = LMatrix(Q, [[lp(Q, {0: 1}), lp(Q, {1: 1})], [lp(Q, {-1: 1}), lp(Q, {0: 2})]])
    t, cert = split(A)
    assert sum(t.degrees) == 0
    assert cert.verify(A)
    assert pass_bound(A) == 2
    calls = _count_passes(monkeypatch, settle=False)
    with pytest.raises(NotInvertibleOverRing, match=NOT_MONOMIAL):
        split(A)
    assert len(calls) == 3


def _cap_edge(field, n):
    """[[s^n, 1], [1, 0]]: pass bound P = n + 0, one pass to type (0, 0)."""
    return LMatrix(field, [[lp(field, {n: 1}), lp(field, {0: 1})], [lp(field, {0: 1}), lp(field, {})]])


def _cap_message(P):
    return f"^split needs up to {P} column passes, above the cap {MAX_SPLIT_PASSES}$"


@pytest.mark.parametrize("field", [F3, Q], ids=["GF3", "Q"])
def test_split_pass_bound_cap_edge(field, monkeypatch):
    # [[s^4095, 1], [1, 0]] has P = MAX_SPLIT_PASSES: kept from settling, it
    # is refused as singular by the pass past P, the 4096th kernel vector.
    # [[s^4096, 1], [1, 0]] has P one more and is refused before any pass,
    # by verify-split too.
    assert MAX_SPLIT_PASSES == 4095
    calls = _count_passes(monkeypatch, settle=False)
    with pytest.raises(NotInvertibleOverRing, match=NOT_MONOMIAL):
        split(_cap_edge(field, MAX_SPLIT_PASSES))
    assert len(calls) == MAX_SPLIT_PASSES + 1
    calls.clear()
    A = _cap_edge(field, MAX_SPLIT_PASSES + 1)
    with pytest.raises(ParseError, match=_cap_message(4096)):
        split(A)
    I = LMatrix.identity(field, 2)
    with pytest.raises(ParseError, match=_cap_message(4096)):
        splitting_invariance_check(A, I, I)
    assert calls == []


@pytest.mark.parametrize("field", [F2, F3, Q], ids=["GF2", "GF3", "Q"])
def test_split_pass_bound_edges(field, monkeypatch):
    # The bound is summed over columns: diag(s, s^4095) and diag(1, 1,
    # s^1365) have P = 0 (the whole-document bound m * (hi - lo) + 1 was
    # 8189 and 4096), and [[s^4095, 1], [1, 0]], P = 4095, splits in one
    # pass: its kernel_vector calls are that pass, the settled reduction
    # and the two rank tests of verify.
    assert split(LMatrix.diagonal_powers(field, [1, 4095]))[0] == SplittingType((1, 4095))
    assert split(LMatrix.diagonal_powers(field, [0, 0, 1365]))[0] == SplittingType((0, 0, 1365))
    A = _cap_edge(field, 4095)
    calls = _count_passes(monkeypatch)
    t, cert = split(A)
    assert len(calls) == 1 + 3
    assert t == SplittingType((0, 0)) and cert.verify(A)
    with pytest.raises(ParseError, match=_cap_message(4096)):
        split(_cap_edge(field, 4096))
    # A zero column adds nothing to P, and the cap is checked before the
    # zero column refuses A.
    for n, error in ((4095, NotInvertibleOverRing), (4096, ParseError)):
        with pytest.raises(error):
            split(LMatrix(field, [[lp(field, {n: 1}), lp(field, {})], [lp(field, {0: 1}), lp(field, {})]]))


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
                degrees = tuple(sorted(M.rows[i][i].unit_parts()[1] for i in range(2)))
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


def _diag(field, pairs):
    return LMatrix.diagonal(field, [LaurentPoly.monomial(field, n, c) for n, c in pairs])


@pytest.mark.parametrize("field", [F2, F3, F5, Q], ids=["GF2", "GF3", "GF5", "Q"])
def test_certificate_verify_rejects_forged_sides(field):
    # The product identity holds in each, but a side has determinant s^+-1,
    # so it is not unimodular; its s^0 coefficients are singular.
    eye = LMatrix.identity(field, 2)
    forged = [
        (eye, _diag(field, [(1, 1), (0, 1)]), LMatrix.diagonal_powers(field, [1, 0])),
        (_diag(field, [(-1, 1), (0, 1)]), _diag(field, [(1, 1), (0, 1)]), eye),
        (_diag(field, [(-1, 1), (0, 1)]), eye, LMatrix.diagonal_powers(field, [-1, 0])),
    ]
    for V, U, D in forged:
        assert V * eye * U == D
        cert = FactorizationCertificate(V, U, D)
        assert not cert.verify(eye)
        assert not verify_oracle(cert, eye)
    # Constant factors that cancel are a valid certificate.
    c = field.coerce(2) if field.characteristic != 2 else 1
    V, U = _diag(field, [(0, field.coerce(Fraction(1, c))), (0, 1)]), _diag(field, [(0, c), (0, 1)])
    assert FactorizationCertificate(V, U, eye).verify(eye)


def test_certificate_verify_mismatches():
    A = LMatrix.diagonal_powers(F3, [0, 1])
    _, cert = split(A)
    assert cert.verify(A)
    with pytest.raises(ValueError, match="different fields"):
        cert.verify(LMatrix.diagonal_powers(F5, [0, 1]))
    with pytest.raises(DimensionMismatch):
        cert.verify(LMatrix.diagonal_powers(F3, [0, 1, 0]))
    # A D over another field or of another size is False, as the matrix
    # comparison makes it.
    assert not FactorizationCertificate(cert.V, cert.U, LMatrix.diagonal_powers(F5, [0, 1])).verify(A)
    assert not FactorizationCertificate(cert.V, cert.U, LMatrix.diagonal_powers(F3, [0, 1, 2])).verify(A)
    # A side that is not unimodular is False before any mismatch is raised,
    # also when its s^0 coefficients are nonsingular: U = [[1 + s]].
    bent = LMatrix(Q, [[lp(Q, {0: 1, 1: 1})]])
    one = LMatrix.identity(Q, 1)
    for cert in (FactorizationCertificate(one, bent, one), FactorizationCertificate(bent, one, one)):
        assert not verify_oracle(cert, LMatrix.identity(F3, 1))
        assert not cert.verify(LMatrix.identity(F3, 1))
        assert not cert.verify(LMatrix.identity(Q, 2))
    with pytest.raises(ValueError, match="different fields"):
        FactorizationCertificate(one, one, one).verify(LMatrix.identity(F3, 1))


def _one_term(field, m, i, j, n, c=1):
    """The identity plus c * s^n at (i, j), i != j; [[c * s^n]] at m = 1."""
    rows = [list(r) for r in LMatrix.identity(field, m).rows]
    term = LaurentPoly.monomial(field, n, c)
    rows[i][j] = term if m == 1 else rows[i][j] + term
    return LMatrix(field, rows)


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("field", [F2, Q], ids=["GF2", "Q"])
def test_certificate_verify_at_the_flat_key_boundaries(field, m):
    # verify reads term n of entry (i, j) at key m * n + j: U lies over k[s]
    # exactly when no key is < 0, V over k[1/s] exactly when no key is >= m.
    # Each side is T, the identity plus one term, A is T^-1 and D = I, so
    # the product identity holds and only the side's key decides.  s^-1 in
    # the last column of U is key -1 and s^1 in column 0 of V is key m, both
    # refused; s^0 in the last column of V is key m - 1 and s^0 in column 0
    # of U is key 0, both accepted.
    c = field.coerce(2) if field.characteristic != 2 else 1
    eye = LMatrix.identity(field, m)
    cases = [  # (side, position, n, key, valid)
        ("U", (0, m - 1), -1, -1, False),
        ("V", (m - 1, 0), 1, m, False),
        ("V", (0, m - 1), 0, m - 1, True),
        ("U", (m - 1, 0), 0, 0, True),
    ]
    for side, (i, j), n, key, valid in cases:
        T = _one_term(field, m, i, j, n, c)
        if m == 1:
            inverse = _one_term(field, m, i, j, -n, field.coerce(Fraction(1, c)))
        else:
            inverse = _one_term(field, m, i, j, n, -c)
        assert T * inverse == eye
        keys = [*itertools.chain.from_iterable(_flat_rows(1, 0, T.rows)[1])]
        assert (min(keys) if side == "U" else max(keys)) == key
        V, U = (T, eye) if side == "V" else (eye, T)
        cert = FactorizationCertificate(V, U, eye)
        assert cert.verify(inverse) is valid
        assert verify_oracle(cert, inverse) is valid


def _corrupt(cert, rng):
    """The certificate changed in one of several ways, some of which keep it
    valid (constants that cancel) and some of which keep the product
    identity but break a side."""
    V, U, D = cert.V, cert.U, cert.D
    field, m = V.field, V.m
    j = rng.randrange(m)
    c = field.coerce(rng.choice([1, 2, 3]))
    if c == 0:
        c = field.one
    kind = rng.randrange(7)

    def one_at(f):
        return LMatrix.diagonal(field, [f if k == j else LaurentPoly.one(field) for k in range(m)])

    def bump(M, n):
        rows = [list(r) for r in M.rows]
        i, k = rng.randrange(m), rng.randrange(m)
        rows[i][k] = rows[i][k] + LaurentPoly.monomial(field, n, c)
        return LMatrix(field, rows)

    if kind == 0:
        return cert
    if kind == 1:  # constants that cancel: still valid
        return FactorizationCertificate(
            one_at(LaurentPoly.monomial(field, 0, field.coerce(Fraction(1, c)))) * V,
            U * one_at(LaurentPoly.monomial(field, 0, c)),
            D,
        )
    if kind == 2:  # U times s in column j, D likewise: product holds, U is not unimodular
        s = one_at(LaurentPoly.monomial(field, 1))
        return FactorizationCertificate(V, U * s, D * s)
    if kind == 3:  # V times 1/s in row j, D likewise
        t = one_at(LaurentPoly.monomial(field, -1))
        return FactorizationCertificate(t * V, U, t * D)
    if kind == 4:
        return FactorizationCertificate(V, bump(U, rng.randrange(0, 3)), D)
    if kind == 5:
        return FactorizationCertificate(bump(V, -rng.randrange(0, 3)), U, D)
    degrees = [D.rows[k][k].unit_parts()[1] for k in range(m)]
    degrees[j] += rng.choice([-1, 1])
    return FactorizationCertificate(V, U, LMatrix.diagonal_powers(field, degrees))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([F2, F3, F5, Q]), st.integers(1, 5), st.integers(0, 2**32))
def test_certificate_verify_matches_four_step_oracle(field, m, seed):
    A = planted_split_input(field, m, seed)
    _, cert = split(A)
    rng = random.Random(seed)
    for _ in range(3):
        forged = _corrupt(cert, rng)
        assert forged.verify(A) == verify_oracle(forged, A)


def test_certificate_verify_needs_no_laurent_determinant_or_product(monkeypatch):
    A = planted_split_input(Q, 5, 11)
    _, cert = split(A)
    eye = LMatrix.identity(F3, 2)
    forged = FactorizationCertificate(eye, _diag(F3, [(1, 1), (0, 1)]), LMatrix.diagonal_powers(F3, [1, 0]))

    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(LMatrix, "det", refuse)
    monkeypatch.setattr(LMatrix, "__mul__", refuse)
    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    assert cert.verify(A)
    assert not forged.verify(eye)


# ----------------------------------------------------------------------
# split against the LaurentPoly-object oracle


def planted_split_input(field, m, seed, max_exp=2, spread=3):
    """V1 * diag(s^d) * U1 with m monomial shears per side, as the split
    benchmark builds its inputs, and |d_i| <= spread; over Q the shear
    coefficients and a constant diagonal on each side carry denominators 2
    and 3."""
    rng = random.Random(seed)

    def unit():
        if field == Q:
            return Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 3)))
        return rng.randrange(1, field.p)

    def side(sign):
        M = LMatrix.diagonal(field, [LaurentPoly.monomial(field, 0, unit()) for _ in range(m)])
        for _ in range(m if m > 1 else 0):
            i, j = rng.sample(range(m), 2)
            f = LaurentPoly.monomial(field, sign * rng.randrange(0, max_exp + 1), unit())
            M = M * LMatrix.shear(field, m, i, j, f)
        return M

    degrees = [rng.randrange(-spread, spread + 1) for _ in range(m)]
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


@pytest.mark.parametrize("m", range(7, 13))
@pytest.mark.parametrize("field", [F2, F3, F5, Q], ids=["GF2", "GF3", "GF5", "Q"])
def test_split_matches_object_oracle_with_pivot_swaps(field, m):
    # A planted input, and the same input under an antidiagonal and a random
    # permutation, whose reduced matrices C' have zero leading minors, so
    # the packed Gauss-Jordan of V = C'^-1 swaps rows.  split leaves the
    # entries of its input as they were.
    rng = random.Random(10 * m + field.characteristic)
    planted = planted_split_input(field, m, rng.randrange(2**32), max_exp=1)
    perm = list(range(m))
    rng.shuffle(perm)
    for P in ([], list(reversed(range(m))), perm):
        A = _permutation(field, P, rng) * planted if P else planted
        before = [[(f.D, dict(f.ints)) for f in r] for r in A.rows]
        assert_same_split(A)
        assert [[(f.D, dict(f.ints)) for f in r] for r in A.rows] == before


def test_split_iteration_cap_on_both(monkeypatch):
    # Both kept from settling: split refuses the planted A as singular at
    # the pass past P, and the oracle, which has seen det(A) = c * s^n up
    # front, calls that pass an internal error.
    A = planted_split_input(Q, 4, 7)
    P = pass_bound(A)
    calls = _count_passes(monkeypatch, settle=False)
    with pytest.raises(NotInvertibleOverRing, match=NOT_MONOMIAL):
        split(A)
    assert len(calls) == P + 1
    monkeypatch.setattr(helpers, "_oracle_kernel_vector", lambda rows, field: [field.one] * len(rows))
    with pytest.raises(RuntimeError, match=f"^internal error: column reduction did not settle within {P} passes$"):
        split_oracle(A)


UNPLANTED = ("rank", "zero row", "zero column", "bent", "monomial entries", "spread")


def unplanted_split_input(field, m, kind, seed):
    """An input of one kind: the product of random m x r and r x m matrices
    with r < m; a planted input with a zero row, a zero column, or a row
    times 1 + c * s^k, so a determinant that is not a monomial; entries that
    are zero or one monomial with exponents up to +-60; or a planted input
    whose diagonal reaches +-60."""
    rng = random.Random(seed)
    zero = LaurentPoly.zero(field)
    if kind == "rank":
        r = rng.randrange(m)
        L = [[random_laurent(rng, field) for _ in range(r)] for _ in range(m)]
        R = [[random_laurent(rng, field) for _ in range(m)] for _ in range(r)]
        return LMatrix(field, [[sum((L[i][k] * R[k][j] for k in range(r)), zero) for j in range(m)]
                               for i in range(m)])
    if kind == "monomial entries":
        c = (lambda: rng.choice([1, -2, Fraction(1, 3)])) if field == Q else (lambda: rng.randrange(1, field.p))
        return LMatrix(field, [[LaurentPoly.monomial(field, rng.randint(-60, 60), c()) if rng.random() < 0.7
                                else zero for _ in range(m)] for _ in range(m)])
    if kind == "spread":
        return planted_split_input(field, m, seed, spread=60)
    rows = [list(r) for r in planted_split_input(field, m, seed).rows]
    i = rng.randrange(m)
    if kind == "zero row":
        rows[i] = [zero] * m
    elif kind == "zero column":
        rows = [r[:i] + [zero] + r[i + 1:] for r in rows]
    else:
        bend = lp(field, {0: 1, rng.choice([-2, -1, 1, 3]): 1})
        rows[i] = [f * bend for f in rows[i]]
    return LMatrix(field, rows)


def _outcome(split_fn, A):
    """The type and (V, U, D) that split_fn gives A, or its error's class and
    message."""
    try:
        t, cert = split_fn(A)
    except (NotInvertibleOverRing, RuntimeError) as exc:
        return type(exc), str(exc)
    return t, (cert.V, cert.U, cert.D)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([F2, F3, F5, Q]), st.integers(1, 5), st.sampled_from(UNPLANTED), st.integers(0, 2**32))
def test_split_matches_object_oracle_off_the_planted_family(field, m, kind, seed):
    # split takes no determinant of A: a zero column of B' or a det(C') that
    # is not a nonzero constant refuses A, with the error the oracle raises
    # from det(A) up front.
    A = unplanted_split_input(field, m, kind, seed)
    assert _outcome(split, A) == _outcome(split_oracle, A)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([F2, F3, F5, Q]), st.integers(1, 5),
       st.one_of(st.integers(0, 8), st.sampled_from(UNPLANTED)), st.integers(0, 2**32))
def test_split_passes_stay_within_the_column_bound(field, m, kind, seed):
    # A planted input of spread 0..8 or an unplanted one of each kind.  A
    # pass is a kernel_vector call that finds a vector; split succeeds
    # exactly when det(A) = c * s^n, and then makes one call more to settle
    # and two for the rank tests of verify.  When det(A) != 0 at most P
    # passes run, which is the proof in split's docstring; when det(A) = 0
    # the pass past P refuses A, so one more is found.  P is never above
    # the whole-document bound m * (hi - lo) + 1.
    if isinstance(kind, int):
        A = planted_split_input(field, m, seed, spread=kind)
    else:
        A = unplanted_split_input(field, m, kind, seed)
    P = pass_bound(A)
    exps = [n for r in A.rows for f in r for n in f.ints] or [0]
    assert P <= m * (max(exps) - min(exps)) + 1
    found = []
    real = classical.kernel_vector
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classical, "kernel_vector", lambda p, rows: found.append(w := real(p, rows)) or w)
        try:
            split(A)
        except NotInvertibleOverRing:
            settled = False
        else:
            settled = True
    passes, det = sum(w is not None for w in found), A.det()
    assert settled == (det.unit_parts() is not None)
    if settled:
        assert len(found) == passes + 3
    assert passes <= (P + 1 if det.is_zero() else P)


def test_split_iteration_cap_comes_before_the_determinant_error(monkeypatch):
    # det(A) = 1 + s is not a monomial, but the top-degree matrix
    # [[1, 1], [0, 0]] is singular, so the reduction needs a pass first.
    # Kept from settling, split, which takes no determinant of A, meets the
    # pass past P = 1 + 2 before the determinant of C', and refuses A there
    # with the same error; the oracle takes det(A) first, before any pass.
    A = LMatrix(Q, [[lp(Q, {1: 1}), lp(Q, {1: 1})], [lp(Q, {0: 1}), lp(Q, {-1: 1, 0: 2})]])
    with pytest.raises(NotInvertibleOverRing, match=NOT_MONOMIAL):
        split(A)
    oracle_calls = []
    monkeypatch.setattr(helpers, "_oracle_kernel_vector", lambda rows, field: oracle_calls.append(rows))
    with pytest.raises(NotInvertibleOverRing, match=NOT_MONOMIAL):
        split_oracle(A)
    assert oracle_calls == []
    calls = _count_passes(monkeypatch, settle=False)
    with pytest.raises(NotInvertibleOverRing, match=NOT_MONOMIAL):
        split(A)
    assert len(calls) == pass_bound(A) + 1 == 4


@pytest.mark.parametrize("field", [Q, F3], ids=["Q", "GF3"])
def test_split_zero_column_after_a_column_operation(field, monkeypatch):
    # Column 1 of [[1, s], [1, s]] is nonzero, and the top-degree matrix
    # [[1, 1], [1, 1]] is singular: the first column operation subtracts s
    # times column 0 and leaves column 1 zero, which refuses A in that same
    # pass, so kernel_vector runs once.
    A = LMatrix(field, [[lp(field, {0: 1}), lp(field, {1: 1})]] * 2)
    calls = _count_passes(monkeypatch)
    with pytest.raises(NotInvertibleOverRing, match=NOT_MONOMIAL):
        split(A)
    assert len(calls) == 1
    with pytest.raises(NotInvertibleOverRing, match=NOT_MONOMIAL):
        split_oracle(A)


@pytest.mark.parametrize("field", [F2, F3, F5, Q], ids=["GF2", "GF3", "GF5", "Q"])
def test_split_certificate_passes_the_constructor_checks(field):
    # V, U and D skip LMatrix.__init__ (SquareMatrix._new); each is what the
    # checking constructor builds from the same rows.
    for m in range(1, 7):
        _, cert = split(planted_split_input(field, m, m))
        for M in (cert.V, cert.U, cert.D):
            assert type(M.rows) is tuple and all(type(r) is tuple for r in M.rows)
            assert M == LMatrix(field, M.rows)
        degrees = [cert.D.rows[i][i].max_exp() for i in range(m)]
        assert cert.D == LMatrix.diagonal(field, [LaurentPoly.monomial(field, d) for d in degrees])
    with pytest.raises(DimensionMismatch):
        LMatrix.diagonal_powers(field, [])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([F2, F3, F5, Q]), st.integers(1, 6), st.integers(0, 2**32))
def test_split_certificate_entries_are_in_normal_form_and_unshared(field, m, seed):
    # V's entries are built in one pass and, over GF(p), U's are the dicts
    # of the column loop as they stand: each is in normal form, and no two
    # entries of V and U hold one ints dict.
    _, cert = split(planted_split_input(field, m, seed))
    for M in (cert.V, cert.U, cert.D):
        for r in M.rows:
            for f in r:
                assert_normal_form(f)
    owned = [id(f.ints) for M in (cert.V, cert.U) for r in M.rows for f in r]
    assert len(set(owned)) == len(owned)


def _is_diagonal_of_powers_by_unit_parts(M):
    """The rule is_diagonal_of_powers had: each diagonal entry a unit c * s^n
    with c the field's one, each other entry zero."""
    for i, row in enumerate(M.rows):
        for j, f in enumerate(row):
            if i == j:
                parts = f.unit_parts()
                if parts is None or parts[0] != M.field.one:
                    return False
            elif not f.is_zero():
                return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([F2, F3, F5, Q]), st.integers(1, 4), st.data())
def test_is_diagonal_of_powers_matches_the_unit_parts_rule(field, m, data):
    # Diagonals of s^d, c * s^d (2 and 1/2 over Q), zero and two-term
    # entries, and a matrix with one off-diagonal term.
    units = [1, 2, Fraction(1, 2), -1] if field == Q else list(range(1, field.p))
    entry = st.one_of(
        st.builds(lambda d, c: LaurentPoly.monomial(field, d, c), st.integers(-3, 3), st.sampled_from(units)),
        st.builds(lambda d: LaurentPoly.monomial(field, d), st.integers(-3, 3)),
        st.just(LaurentPoly.zero(field)),
        st.builds(lambda d: lp(field, {d: 1, d + 1: 1}), st.integers(-3, 3)),
    )
    diag = data.draw(st.lists(entry, min_size=m, max_size=m))
    rows = [[diag[i] if i == j else LaurentPoly.zero(field) for j in range(m)] for i in range(m)]
    if m > 1 and data.draw(st.booleans()):
        i, j = data.draw(st.permutations(range(m)))[:2]
        rows[i][j] = data.draw(entry)
    M = LMatrix(field, rows)
    assert M.is_diagonal_of_powers() == _is_diagonal_of_powers_by_unit_parts(M)
    if field == Q:
        for c in (2, Fraction(1, 2)):
            assert not LMatrix.diagonal(Q, [LaurentPoly.monomial(Q, 1, c)] * m).is_diagonal_of_powers()


def test_split_default_budget_bounds_the_passes(monkeypatch):
    # det(A) = s^-114, and the reduction takes 69 passes: more than the old
    # default budget 10 * m * (sum of entry spans + 1) = 50 allowed, within
    # the pass bound P = 277 (the whole-document bound m * (hi - lo) + 1 was
    # 5 * 108 + 1).
    monos = [[None, None, None, (2, -45), None],
             [None, (2, -36), (2, 42), (1, 35), (2, -19)],
             [(2, 49), (2, -55), (2, 6), (2, 41), (2, 36)],
             [None, None, (1, -43), (1, 11), None],
             [None, None, (1, -18), (2, 53), (2, -39)]]
    A = LMatrix(F3, [[LaurentPoly.zero(F3) if e is None else LaurentPoly.monomial(F3, e[1], e[0]) for e in r]
                     for r in monos])
    assert pass_bound(A) == 277
    assert _outcome(split, A) == _outcome(split_oracle, A)
    calls = _count_passes(monkeypatch)
    t, cert = split(A)
    assert len(calls) == 69 + 3
    assert t == SplittingType((-36, -25, -25, -18, -10))
    assert cert.verify(A)
