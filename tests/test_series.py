"""Series over exponents in Z[1/p]: arithmetic and precision tracking, the
Gauss valuation, unit criteria, geometric-series inversion, and residue
reduction."""

import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from projectivoid import (
    INFINITY,
    NonpositivePrecision,
    NormExceedsOne,
    NotAUnit,
    PExp,
    PadicCoeff,
    PSeries,
    PrimeMismatch,
    ResiduePoly,
    SMatrix,
    SubringTag,
    SubringViolation,
    Valuation,
    ZERO,
    ZeroSeries,
    canon,
    exp_add,
    exp_neg,
    format_series,
    parse_series,
)
from projectivoid import literals
from helpers import mono, oracle_inverse, random_multidominant, srs


def exps(p, lo=-6, hi=7, max_pow=2):
    return st.builds(lambda n, b: canon(n, b, p), st.integers(lo, hi), st.integers(0, max_pow))


def series(p, max_terms=4, coeffs=st.integers(-9, 9), lo=-6, hi=7):
    return st.lists(
        st.tuples(exps(p, lo, hi), coeffs), max_size=max_terms
    ).map(lambda pairs: PSeries(p, [(e, Fraction(c)) for e, c in pairs]))


def _unit_from(p, e, v0, u0, tail):
    pairs = {e: Fraction(u0) * Fraction(p) ** v0}
    for rel, dv, c in tail:
        if rel == ZERO:
            continue
        ee = exp_add(e, rel, p)
        pairs[ee] = pairs.get(ee, Fraction(0)) + Fraction(c) * Fraction(p) ** (v0 + dv)
    return PSeries(p, pairs)


def units(p):
    tail = st.lists(
        st.tuples(exps(p, -5, 5), st.integers(1, 3), st.sampled_from([1, -1, p + 1])),
        max_size=4,
    )
    return st.builds(
        lambda e, v0, u0, t: _unit_from(p, e, v0, u0, t),
        exps(p, -5, 5),
        st.integers(0, 2),
        st.sampled_from([1, -1, p + 1, 2 * p + 1]),
        tail,
    )


# ----------------------------------------------------------------------
# construction and normalization


def test_terms_merge_to_canonical_exponents():
    f = PSeries(2, [(PExp(2, 1), 1), (PExp(1, 0), 1)])
    assert f.ordered_terms() == [(PExp(1, 0), 2)]


def test_zero_coefficients_drop():
    assert PSeries(2, {ZERO: 0}).is_zero()
    assert (mono(2, 1) + mono(2, 1, coeff=-1)).is_zero()


def test_precision_prunes_stored_terms():
    f = PSeries(2, {ZERO: 1, PExp(1, 0): 8}, 3)
    assert [e for e, _ in f.ordered_terms()] == [ZERO]
    assert f.precision == Valuation(3)
    assert f.precision is not None


def test_infinite_precision_means_exact():
    assert PSeries(2, {ZERO: 1}, INFINITY).precision is None


def test_rejects_non_prime():
    with pytest.raises(ValueError):
        PSeries(4, {})


# ----------------------------------------------------------------------
# ring operations


def test_add_cancels_opposite_terms():
    f = mono(2, 1, 1)
    assert (f + (-f)).is_zero()


def test_add_merges():
    assert srs(2, [(0, 0, 1), (1, 0, 1)]) + srs(2, [(0, 0, 1), (1, 0, -1)]) == srs(
        2, [(0, 0, 2)]
    )
    assert srs(2, [(0, 0, 2), (1, 2, 1)]) + srs(2, [(1, 2, 1)]) == srs(
        2, [(0, 0, 2), (1, 2, 2)]
    )


def test_mul_adds_exponents():
    assert mono(2, 1, 1) * mono(2, 1, 1) == mono(2, 1, 0)


def test_difference_of_squares():
    plus = srs(2, [(0, 0, 1), (1, 0, 1)])
    minus = srs(2, [(0, 0, 1), (1, 0, -1)])
    assert plus * minus == srs(2, [(0, 0, 1), (2, 0, -1)])


def test_mul_by_zero():
    f = srs(3, [(1, 1, 2), (0, 0, 1)])
    assert (f * PSeries.zero(3)).is_zero()


def test_prime_mismatch():
    with pytest.raises(PrimeMismatch):
        PSeries.one(2) + PSeries.one(3)


def test_constructor_accepts_int_fraction_and_padic_coefficients():
    f = PSeries(3, [(PExp(1, 0), 2), (PExp(1, 1), Fraction(1, 3)),
                    (PExp(2, 0), PadicCoeff(Fraction(-10, 14), 3))])
    # 2*v + (1/3)*v^(1/3) - (5/7)*v^2 over D = 21 on the grid 3^1
    assert (f.K, f.D, f.ints) == (1, 21, {3: 42, 1: 7, 6: -15})
    with pytest.raises(PrimeMismatch):
        PSeries(3, {PExp(1, 0): PadicCoeff(Fraction(1, 2), 2)})


def test_scale_and_shift():
    f = srs(2, [(0, 0, 1), (1, 0, 1)])
    assert f.scale(Fraction(3, 5)) == srs(2, [(0, 0, Fraction(3, 5)), (1, 0, Fraction(3, 5))])
    assert f.shift(PExp(1, 1)) == srs(2, [(1, 1, 1), (3, 1, 1)])


def test_truncate():
    f = srs(2, [(0, 0, 1), (1, 0, 2), (2, 0, 4)])
    assert f.truncate(2) == PSeries(2, {ZERO: 1, PExp(1, 0): 2}, 2)


@settings(max_examples=60, deadline=None)
@given(series(2), series(2), series(2))
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


# ----------------------------------------------------------------------
# precision propagation


def test_add_takes_min_precision():
    f = PSeries(2, {ZERO: 1}, 5)
    g = mono(2, 1)
    assert (f + g).precision == Valuation(5)
    assert (g + f).precision == Valuation(5)


def test_mul_precision_rule():
    f = PSeries(2, {ZERO: 1}, 5)  # gauss valuation 0, cutoff 5
    g = PSeries(2, {ZERO: 2}, 4)  # gauss valuation 1, cutoff 4
    assert (f * g).precision == Valuation(4)  # min(5+1, 4+0)


def test_mul_precision_shifts_by_gauss_valuation():
    f = PSeries(2, {ZERO: 1}, 3)
    g = srs(2, [(1, 0, 4)])  # exact, gauss valuation 2
    assert (f * g).precision == Valuation(5)


def test_exact_elements_stay_exact():
    f = srs(2, [(0, 0, 1), (1, 1, 3)])
    g = srs(2, [(-1, 0, 2)])
    assert (f + g).precision is None and (f * g).precision is None


# ----------------------------------------------------------------------
# tail completion: a truncated result holds for every series its inputs
# stand for


def _coefficients(p):
    return st.builds(
        lambda a, b, k: Fraction(a, b) * Fraction(p) ** k,
        st.integers(-9, 9),
        st.sampled_from([1, 2, 3, 5, 7]),
        st.integers(-2, 3),
    )


def _truncated(p):
    """(f, V): a series on the grids up to p^2 truncated at V, its terms of
    valuation >= V dropped, or exact when V is None."""
    return st.tuples(
        st.lists(st.tuples(exps(p), _coefficients(p)), max_size=4),
        st.none() | st.integers(-3, 4),
    ).map(lambda t: (PSeries(p, t[0], t[1]), t[1]))


def _tail(p, V):
    """An exact series whose every coefficient has valuation >= V, with
    exponents of both signs on the finer grids p^2 .. p^4; zero when V is
    None."""
    if V is None:
        return st.just(PSeries.zero(p))
    units = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([w for w in (1, 2, 3, 7) if w % p]))
    term = st.tuples(
        st.builds(lambda n, j: canon(n, 2 + j, p), st.integers(-40, 40), st.integers(0, 2)),
        st.builds(lambda u, k: u * Fraction(p) ** (V + k), units, st.integers(0, 3)),
    )
    return st.lists(term, max_size=4).map(lambda pairs: PSeries(p, pairs))


_SERIES_OPS = [
    "+", "-", "*", "scale", "truncate", "shift", "normalize_gauss", "print/parse", "SMatrix *", "inverse",
]
_QUERIES = ["gauss_valuation", "dominant_terms", "reduce", "equals_mod"]


@pytest.mark.parametrize("op", _SERIES_OPS + _QUERIES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_truncated_results_hold_for_every_completion(op, data):
    # f stands for every exact(f) + t.  A series result is sound exactly when
    # op of the completions minus op(f, g) carries the result's precision and
    # stores no term; a query is sound when every completion gives its
    # answer.  Otherwise the operation must refuse with a documented error.
    p = data.draw(st.sampled_from([2, 3, 5]))
    if op == "SMatrix *":
        _matrix_product_holds_for_every_completion(p, data)
        return
    (f, V), (g, W) = data.draw(_truncated(p)), data.draw(_truncated(p))
    F = PSeries(p, f.ordered_terms()) + data.draw(_tail(p, V))
    G = PSeries(p, g.ordered_terms()) + data.draw(_tail(p, W))
    if op in _QUERIES:
        _query_holds_for_every_completion(op, data, f, F, g, G)
        return
    if op == "inverse":
        _inverse_holds_for_every_completion(p, data, f)
        return
    if op == "+":
        result, completed = f + g, F + G
    elif op == "-":
        result, completed = f - g, F - G
    elif op == "*":
        result, completed = f * g, F * G
    elif op == "scale":
        c = data.draw(_coefficients(p))
        result, completed = f.scale(c), F.scale(c)
    elif op == "truncate":
        cutoff = data.draw(st.integers(-4, 6))
        result, completed = f.truncate(cutoff), F.truncate(cutoff)
    elif op == "shift":
        e = data.draw(exps(p, -20, 20, 3))
        result, completed = f.shift(e), F.shift(e)
    elif op == "normalize_gauss":
        if not f.ints:
            _refuses_undetermined(f, f.normalize_gauss)
            return
        result, completed = f.normalize_gauss(), F.normalize_gauss()
    else:
        text = format_series(f)
        assert literals._read_printed(text, p) is not None, text
        result, completed = parse_series(text, p), F
        assert result == f
    diff = completed - result
    assert diff.precision == result.precision
    assert diff.is_zero(), (f, g, F, G, result, completed)


def _matrix_product_holds_for_every_completion(p, data):
    """The SMatrix product of two m x m matrices (m = 1..3) of entries drawn
    as above, some truncated: every entry of the product of any completions
    agrees with the stored product's entry below that entry's precision."""
    m = data.draw(st.integers(1, 3))
    pairs = [data.draw(_truncated(p)) for _ in range(2 * m * m)]
    completed = [PSeries(p, f.ordered_terms()) + data.draw(_tail(p, V)) for f, V in pairs]
    result = _product(p, [f for f, _ in pairs], m)
    exact = _product(p, completed, m)
    for got, want in zip(chain.from_iterable(result.rows), chain.from_iterable(exact.rows)):
        diff = want - got
        assert diff.precision == got.precision
        assert diff.is_zero(), (pairs, completed, got, want)


def _inverse_holds_for_every_completion(p, data, f):
    """A truncated f refuses with the unit test's ValueError and an exact f
    that is not a unit with NotAUnit.  For an exact unit f and a cutoff c,
    f.inverse(c) states at least c, and every completion g of it makes f * g
    agree with 1 below min(c, precision + gauss(f)), the rule of the
    benchmark's ``inverse_is_sound``, and also below precision + gauss(f)."""
    c = data.draw(st.integers(1, 6))
    if f.precision is not None:
        with pytest.raises(ValueError) as info:
            f.inverse(c)
        assert type(info.value) is ValueError
        assert str(info.value) == "unit test requires an exact series"
        return
    if not f.is_unit(SubringTag.FULL):
        with pytest.raises(NotAUnit):
            f.inverse(c)
        return
    r = f.inverse(c)
    V = None if r.precision is None else r.precision.v
    g = PSeries(p, r.ordered_terms()) + data.draw(_tail(p, V))
    rest = (f * g - PSeries.one(p)).gauss_valuation()
    bound = c if V is None else min(c, V + f.gauss_valuation().v)
    assert V is None or V >= c
    assert not rest < Valuation(bound), (f, c, r, g)
    # g - 1/f = (f * g - 1) / f, so g agrees with 1/f below V exactly when
    # f * g - 1 lies at or above V + gauss(f): the stated precision itself.
    assert V is None or not rest < Valuation(V + f.gauss_valuation().v), (f, c, r, g)


def _product(p, entries, m):
    """The SMatrix product of the first m * m entries, row by row, and the
    next m * m."""
    left, right = ([entries[k + i * m:k + (i + 1) * m] for i in range(m)] for k in (0, m * m))
    return SMatrix(p, left) * SMatrix(p, right)


def _refuses_undetermined(f, query):
    """f stores no term: an exact zero raises ZeroSeries, and a truncated f
    the ValueError of ``check_determined``, since its tail decides."""
    if f.precision is None:
        with pytest.raises(ZeroSeries):
            query()
        return
    with pytest.raises(ValueError) as info:
        query()
    assert type(info.value) is ValueError
    assert str(info.value) == (
        f"no term is known below val >= {f.precision}: the valuation is not determined"
    )


def _query_holds_for_every_completion(op, data, f, F, g, G):
    if op == "gauss_valuation":
        gv = f.gauss_valuation()
        if f.ints or f.precision is None:
            assert F.gauss_valuation() == gv
        else:
            # inf reads "no stored term": every completion lies at or above V.
            assert gv.is_infinite and not F.gauss_valuation() < f.precision
        assert not F.gauss_valuation() < f._effective_valuation()
    elif op == "dominant_terms":
        if not f.ints:
            _refuses_undetermined(f, f.dominant_terms)
            _refuses_undetermined(f, f.degree)
            return
        assert F.dominant_terms() == f.dominant_terms()
        assert F.degree() == f.degree()
    elif op == "reduce":
        try:
            r = f.reduce()
        except NormExceedsOne:
            with pytest.raises(NormExceedsOne):
                F.reduce()
            return
        except ValueError as exc:
            assert type(exc) is ValueError
            assert str(exc) == "series is not determined modulo the maximal ideal"
            return
        assert F.reduce() == r
    else:
        cutoff = data.draw(st.integers(-4, 6))
        try:
            same = f.equals_mod(g, cutoff)
        except ValueError as exc:
            assert str(exc).startswith(f"cutoff {cutoff} exceeds the known precision")
            return
        assert F.equals_mod(G, cutoff) == same


# ----------------------------------------------------------------------
# Gauss valuation, dominance, degree


def test_gauss_valuation_examples():
    assert srs(2, [(0, 0, 2), (1, 1, 1)]).gauss_valuation() == Valuation(0)
    assert srs(2, [(1, 0, 4), (2, 0, 2)]).gauss_valuation() == Valuation(1)
    assert PSeries.zero(2).gauss_valuation() == INFINITY


def test_dominant_terms():
    assert srs(2, [(0, 0, 1), (1, 0, 2)]).dominant_terms() == {ZERO}
    assert srs(2, [(0, 0, 1), (1, 0, 1)]).dominant_terms() == {ZERO, PExp(1, 0)}
    assert srs(2, [(-1, 1, 2), (1, 1, 2)]).dominant_terms() == {PExp(-1, 1), PExp(1, 1)}


def test_dominant_terms_of_zero():
    with pytest.raises(ZeroSeries):
        PSeries.zero(2).dominant_terms()


@pytest.mark.parametrize("text", ["0 (mod val >= 3)", "1 (mod val >= -3)", "2 (mod val >= 1)"])
def test_truncated_series_with_no_stored_term_names_its_cutoff(text):
    # The stored terms are gone below the cutoff, so the tail decides the
    # valuation and the dominant terms: every query that needs them refuses
    # with the cutoff in the message; gauss_valuation keeps its inf, which
    # the precision rules read as "no stored term".
    f = parse_series(text, 2)
    cutoff = text.split(">= ")[1].rstrip(")")
    want = f"no term is known below val >= {cutoff}: the valuation is not determined"
    for query in (f.check_determined, f.dominant_terms, f.degree, f.normalize_gauss):
        with pytest.raises(ValueError) as info:
            query()
        assert type(info.value) is ValueError and str(info.value) == want
    assert f.gauss_valuation().is_infinite
    assert f.equals_mod(PSeries.zero(2), f.precision)


def test_determined_series_pass_the_check():
    for text in ("0", "v (mod val >= 3)", "4 + v^(1/2^1) (mod val >= 3)"):
        f = parse_series(text, 2)
        assert f.check_determined() is None
    assert parse_series("4 + v (mod val >= 3)", 2).degree() == PExp(1, 0)
    with pytest.raises(ZeroSeries):
        PSeries.zero(2).normalize_gauss()


def test_degree_examples():
    assert srs(2, [(1, 1, 1), (3, 1, 2)]).degree() == PExp(1, 1)
    assert srs(2, [(0, 0, 1), (1, 0, 1)]).degree() == PExp(1, 0)
    assert srs(2, [(0, 0, 5)]).degree() == ZERO
    with pytest.raises(ZeroSeries):
        PSeries.zero(2).degree()


def test_normalize_gauss():
    f = srs(2, [(0, 0, 4), (1, 0, 8)])
    g = f.normalize_gauss()
    assert g.gauss_valuation() == Valuation(0)
    assert g == srs(2, [(0, 0, 1), (1, 0, 2)])


@settings(max_examples=80, deadline=None)
@given(series(2), series(2))
def test_gauss_valuation_multiplicative(f, g):
    assert (f * g).gauss_valuation() == f.gauss_valuation() + g.gauss_valuation()


# ----------------------------------------------------------------------
# subring membership and unit criteria


def test_in_subring():
    f = srs(2, [(0, 0, 1), (1, 1, 1)])
    assert f.in_subring(SubringTag.NONNEG)
    assert not f.in_subring(SubringTag.NONPOS)
    assert f.in_subring(SubringTag.FULL)
    assert not mono(2, -1).in_subring(SubringTag.NONNEG)
    assert PSeries.zero(2).in_subring(SubringTag.NONPOS)


def test_unit_examples():
    f = srs(2, [(0, 0, 1), (1, 1, 2)])
    assert f.is_unit(SubringTag.NONNEG)
    assert f.is_unit(SubringTag.FULL)
    assert not srs(2, [(0, 0, 1), (1, 0, 1)]).is_unit(SubringTag.FULL)
    assert srs(2, [(-1, 1, 1), (1, 1, 2)]).is_unit(SubringTag.FULL)


def test_one_sided_units_need_a_dominant_constant():
    assert srs(2, [(0, 0, 3), (1, 0, 2)]).is_unit(SubringTag.NONNEG)
    assert not mono(2, 1, 1).is_unit(SubringTag.NONNEG)
    assert mono(2, 1, 1).is_unit(SubringTag.FULL)
    assert srs(2, [(0, 0, 1), (-1, 0, 2)]).is_unit(SubringTag.NONPOS)


def test_unit_of_zero_is_false():
    assert not PSeries.zero(2).is_unit(SubringTag.FULL)
    assert not PSeries.zero(2).is_unit(SubringTag.NONNEG)


def test_unit_outside_subring():
    with pytest.raises(SubringViolation):
        mono(2, -1).is_unit(SubringTag.NONNEG)


def test_unit_requires_exact_input():
    with pytest.raises(ValueError):
        PSeries(2, {ZERO: 1}, 4).is_unit(SubringTag.FULL)


@settings(max_examples=60, deadline=None)
@given(series(2))
def test_full_unit_iff_normalized_residue_is_monomial(f):
    if f.is_zero():
        return
    assert f.is_unit(SubringTag.FULL) == (len(f.normalize_gauss().reduce().coeffs) == 1)


def test_multidominant_series_are_never_units():
    rng = random.Random(5)
    for _ in range(25):
        f = random_multidominant(rng, 2)
        assert not f.is_unit(SubringTag.FULL)
        assert len(f.normalize_gauss().reduce().coeffs) != 1


# ----------------------------------------------------------------------
# monomial factor and inversion


def test_monomial_factor_examples():
    # A full-ring unit f is v^e * u: e its one dominant exponent, u = v^-e * f.
    g = srs(2, [(0, 0, 1), (1, 1, 2)])
    for f, e, u in [
        (mono(2, 3, 2), PExp(3, 2), PSeries.one(2)),
        (srs(2, [(-1, 0, 2), (1, 0, 4)]), PExp(-1, 0), srs(2, [(0, 0, 2), (2, 0, 4)])),
        (g, ZERO, g),
    ]:
        assert f.is_unit(SubringTag.FULL)
        assert f.dominant_terms() == {e}
        assert f.shift(exp_neg(e)) == u


def test_monomial_factor_reassembles():
    f = srs(2, [(-3, 2, 6), (1, 1, 12)])
    (e,) = f.dominant_terms()
    u = f.shift(exp_neg(e))
    assert u.dominant_terms() == {ZERO}
    assert u.shift(e) == f


def test_monomial_factor_rejects_non_units():
    f = srs(2, [(0, 0, 1), (1, 0, 1)])
    assert not f.is_unit(SubringTag.FULL)
    assert len(f.dominant_terms()) == 2


def test_invert_one():
    assert PSeries.one(2).inverse(7) == PSeries.one(2)


def test_invert_geometric_example():
    f = srs(2, [(0, 0, 1), (1, 0, -2)])
    got = f.inverse(4)
    assert got == PSeries(2, {ZERO: 1, PExp(1, 0): 2, PExp(2, 0): 4, PExp(3, 0): 8}, 4)
    assert (f * got).equals_mod(PSeries.one(2), 4)


def test_invert_monomial_is_exact():
    got = mono(2, 1, 1).inverse(10)
    assert got == mono(2, -1, 1)
    assert got.precision is None


def test_invert_keeps_terms_above_cutoff_for_small_leading_coefficient():
    # leading coefficient 4 shifts the inverse's valuations down by two, so
    # the series must run farther than target/w terms to fill the tag
    f = srs(2, [(0, 0, 4), (1, 0, 8)])
    got = f.inverse(3)
    want = PSeries(
        2,
        {
            ZERO: Fraction(1, 4),
            PExp(1, 0): Fraction(-1, 2),
            PExp(2, 0): Fraction(1),
            PExp(3, 0): Fraction(-2),
            PExp(4, 0): Fraction(4),
        },
        3,
    )
    assert got == want
    assert (f * got).equals_mod(PSeries.one(2), 3)


def test_invert_drops_a_running_sum_at_the_cutoff():
    # 1 / (1 + 6v + 4v^2) at p = 2 to valuation 5: after the third power the
    # sum at v^4 is 16 - 432 = -2^5 * 13, at the cutoff, so it is dropped,
    # and the fourth power adds 1296 to nothing.  Summing first and
    # truncating once would leave 880 there.
    f = parse_series("1 + 6*v + 4*v^2", 2)
    want = "1 - 6*v - 168*v^3 + 1296*v^4 (mod val >= 5)"
    assert format_series(f.inverse(5)) == want
    assert format_series(oracle_inverse(f, 5)) == want


def test_invert_errors():
    with pytest.raises(NotAUnit):
        srs(2, [(0, 0, 1), (1, 0, 1)]).inverse(4)
    with pytest.raises(NonpositivePrecision):
        PSeries.one(2).inverse(0)


@settings(max_examples=50, deadline=None)
@given(units(2), st.integers(1, 15))
def test_unit_times_inverse_is_one(f, target):
    assert f.is_unit(SubringTag.FULL)
    assert (f * f.inverse(target)).equals_mod(PSeries.one(2), target)


@settings(max_examples=40, deadline=None)
@given(units(3), units(3))
def test_degree_additive_on_units(f, g):
    assert (f * g).degree() == exp_add(f.degree(), g.degree(), 3)


# ----------------------------------------------------------------------
# residue reduction


def test_reduce_examples():
    assert srs(2, [(0, 0, 3), (1, 0, 2)]).reduce() == ResiduePoly(2, {ZERO: 1})
    f = srs(2, [(0, 0, 1), (1, 1, 1)])
    assert f.reduce() == ResiduePoly(2, {ZERO: 1, PExp(1, 1): 1})
    assert srs(2, [(1, 0, 2)]).reduce() == ResiduePoly(2, {})


def test_reduce_rejects_norm_above_one():
    with pytest.raises(NormExceedsOne):
        srs(2, [(0, 0, Fraction(1, 2))]).reduce()


def test_reduce_of_certain_inexact_series():
    assert PSeries(2, {ZERO: 3}, 1).reduce() == ResiduePoly(2, {ZERO: 1})
    with pytest.raises(ValueError):
        PSeries(2, {}, 0).reduce()


@settings(max_examples=60, deadline=None)
@given(series(2), series(2))
def test_reduce_multiplicative(f, g):
    assert (f * g).reduce() == f.reduce() * g.reduce()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(series(p), series(p))))
def test_reduce_additive(fg):
    f, g = fg
    assert (f + g).reduce() == f.reduce() + g.reduce()


@settings(max_examples=60, deadline=None)
@given(series(2, lo=0), series(2, lo=0))
def test_nonneg_subring_closed_under_arithmetic(f, g):
    assert (f + g).in_subring(SubringTag.NONNEG)
    assert (f * g).in_subring(SubringTag.NONNEG)


# ----------------------------------------------------------------------
# residue polynomials


def test_residue_poly_normalizes_mod_p():
    r = ResiduePoly(3, {ZERO: 5, PExp(1, 0): 3})
    assert r.coeffs == {ZERO: 2}
    assert len(r.coeffs) == 1
    assert len(ResiduePoly(2, {}).coeffs) != 1
    assert ResiduePoly(2, {}).is_zero()


def test_residue_poly_arithmetic():
    a = ResiduePoly(2, {ZERO: 1})
    b = ResiduePoly(2, {ZERO: 1, PExp(1, 0): 1})
    assert a + b == ResiduePoly(2, {PExp(1, 0): 1})
    assert b * b == ResiduePoly(2, {ZERO: 1, PExp(2, 0): 1})
    # over F_3, with exponents on different p-power scales
    c = ResiduePoly(3, {ZERO: 1, PExp(1, 1): 2})
    d = ResiduePoly(3, {PExp(2, 1): 2})
    assert c * d == ResiduePoly(3, {PExp(2, 1): 2, PExp(1, 0): 1})
    assert c + c == ResiduePoly(3, {ZERO: 2, PExp(1, 1): 1})


def test_equals_mod():
    f = srs(2, [(0, 0, 1), (5, 0, 32)])
    assert f.equals_mod(PSeries.one(2), 5)
    assert not f.equals_mod(PSeries.one(2), 6)


def test_equals_mod_refuses_cutoff_beyond_precision():
    known_mod_2 = parse_series("1 (mod val >= 1)", 2)
    assert known_mod_2.equals_mod(parse_series("1 + 2*v", 2), 1)
    with pytest.raises(ValueError):
        known_mod_2.equals_mod(parse_series("1 + 2*v", 2), 10)
    with pytest.raises(ValueError):
        PSeries.one(2).equals_mod(known_mod_2, 2)
