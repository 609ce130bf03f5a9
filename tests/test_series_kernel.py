"""The integer series kernel against the per-term oracle in helpers, the
normal form equality depends on, and the soundness of the precision every
truncated result states."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from projectivoid import PExp, PSeries, ResiduePoly, Valuation, ZERO, ZeroSeries, canon, exp_add
from projectivoid.series import _series
from helpers import (
    mono,
    oracle_add,
    oracle_dominant,
    oracle_gauss,
    oracle_inverse,
    oracle_mul,
    oracle_neg,
    oracle_scale,
    oracle_shift,
    oracle_sub,
    oracle_truncate,
    srs,
)

PRIMES = st.sampled_from([2, 3, 5])
CUTOFFS = st.integers(-3, 8)


def exps(p, lo=-40, hi=40):
    # denominators up to p^4
    return st.builds(lambda n, b: canon(n, b, p), st.integers(lo, hi), st.integers(0, 4))


def coeffs(p):
    # p may sit in the numerator or in the denominator
    return st.builds(
        lambda u, k, d: Fraction(u, d) * Fraction(p) ** k,
        st.integers(-9, 9),
        st.integers(-3, 3),
        st.sampled_from([1, 2, 3, 7]),
    )


def series(p, exact=False, max_terms=6):
    precision = st.none() if exact else st.none() | CUTOFFS
    return st.builds(
        lambda pairs, prec: PSeries(p, pairs, prec),
        st.lists(st.tuples(exps(p), coeffs(p)), max_size=max_terms),
        precision,
    )


@st.composite
def operands(draw, count=2, exact=False):
    p = draw(PRIMES)
    return [draw(series(p, exact)) for _ in range(count)]


@st.composite
def units(draw, tail=(0, 3)):
    """v^e * a0 * (1 + tail), the tail of strictly larger valuation than a0
    and of tail[0] to tail[1] drawn terms; a0 may have positive or negative
    valuation."""
    p = draw(PRIMES)
    e = draw(exps(p, -8, 8))
    v0 = draw(st.integers(-2, 2))
    pairs = {e: Fraction(draw(st.sampled_from([1, -1, p + 1, -(2 * p + 1)]))) * Fraction(p) ** v0}
    for rel, dv, c in draw(
        st.lists(
            st.tuples(exps(p, -6, 6), st.integers(1, 3), st.sampled_from([1, -1, p + 1])),
            min_size=tail[0],
            max_size=tail[1],
        )
    ):
        if rel != ZERO:
            x = exp_add(e, rel, p)
            pairs[x] = pairs.get(x, Fraction(0)) + Fraction(c, draw(st.sampled_from([1, 7, 11]))) * Fraction(p) ** (v0 + dv)
    return PSeries(p, pairs)


# ----------------------------------------------------------------------
# the kernel against the oracle


@settings(max_examples=150, deadline=None)
@given(operands())
def test_ring_operations_match_oracle(fg):
    f, g = fg
    zero = PSeries.zero(f.prime)
    assert f + g == oracle_add(f, g)
    assert f - g == oracle_sub(f, g)
    assert f * g == oracle_mul(f, g)
    assert -f == oracle_neg(f)
    # cancellation to zero and the zero series, exact and truncated
    assert f - f == oracle_sub(f, f)
    assert f + (-f) == oracle_add(f, oracle_neg(f))
    for z in (zero, zero.truncate(2)):
        assert f + z == oracle_add(f, z)
        assert f * z == oracle_mul(f, z)
        assert z * f == oracle_mul(z, f)


@settings(max_examples=150, deadline=None)
@given(operands(1), st.data())
def test_unary_operations_match_oracle(fs, data):
    (f,) = fs
    p = f.prime
    c = data.draw(coeffs(p) | st.just(Fraction(0)))
    e = data.draw(exps(p))
    cutoff = data.draw(CUTOFFS)
    assert f.scale(c) == oracle_scale(f, c)
    assert f.shift(e) == oracle_shift(f, e)
    assert f.truncate(cutoff) == oracle_truncate(f, cutoff)
    assert f.gauss_valuation() == oracle_gauss(f)
    if f.is_zero():
        # An exact zero has no dominant terms; a truncated series with no
        # stored term has unknown ones, decided by its tail.
        with pytest.raises(ZeroSeries if f.is_exact() else ValueError):
            f.dominant_terms()
    else:
        assert f.dominant_terms() == oracle_dominant(f)


@settings(max_examples=80, deadline=None)
@given(units(), st.integers(1, 12))
def test_inverse_matches_oracle(f, target):
    got = f.inverse(target)
    want = oracle_inverse(f, target)
    assert got.terms == want.terms
    assert got.precision == want.precision


@settings(max_examples=40, deadline=None)
@given(units(tail=(2, 4)), st.integers(1, 25))
def test_inverse_of_longer_units_equals_oracle(f, target):
    # two to four tail terms, a0 of valuation -2..2 (guard digits when it is
    # positive) and targets past 12: the whole kernel agrees, not only terms
    assert f.inverse(target) == oracle_inverse(f, target)


def test_kernel_keeps_precision_edge_cases():
    # a cutoff at or below every stored valuation empties the series
    f = srs(2, [(0, 0, 4), (1, 1, 8)])
    assert f.truncate(2) == PSeries(2, {}, 2)
    assert f.truncate(-1) == PSeries(2, {}, -1)
    # scaling a truncated series by zero is exactly zero
    assert PSeries(2, {ZERO: 1}, 3).scale(0) == PSeries.zero(2)
    # a sum whose coinciding terms carry into the cutoff drops them
    half = PSeries(2, {PExp(1, 1): 1}, 1)
    assert half + half == PSeries(2, {}, 1)


def test_truncated_product_states_a_representative():
    # Found by test_truncated_products_and_sums_are_sound in its first form,
    # which asked for equality with the truncated exact product.  Below
    # valuation 0 the product (1/2 + O(1)) * (1 + v) is 1/2 + 1/2*v, while the
    # exact (1/2 + v) * (1 + v) truncates to 1/2 + 3/2*v: the two differ by v,
    # of valuation 0, so both are right modulo valuation >= 0.
    f, g = srs(2, [(0, 0, Fraction(1, 2)), (1, 0, 1)]), srs(2, [(0, 0, 1), (1, 0, 1)])
    got = f.truncate(0) * g.truncate(1)
    assert got == srs(2, [(0, 0, Fraction(1, 2)), (1, 0, Fraction(1, 2))], 0)
    assert got.equals_mod(f * g, 0)
    assert got != (f * g).truncate(0)


# ----------------------------------------------------------------------
# the normal form: equal series have equal kernels


def assert_normal_form(r):
    p, K, D, ints = r.prime, r.K, r.D, r.ints
    assert K >= 0 and (K == 0 or any(n % p for n in ints))
    assert D > 0 and gcd(D, *ints.values()) == 1
    assert all(ints.values())
    if r.precision is not None:
        assert not r.precision.is_infinite
        assert all(c.valuation() < r.precision for c in r.terms.values())
    # the view round-trips through the validating constructor
    view, before = r.terms, r.terms
    assert PSeries(p, view, r.precision) == r
    # and is a new dict on each access: changing it leaves r as it was
    kernel = (K, D, dict(ints), r.precision)
    view[PExp(1, 9)] = view.pop(ZERO, 1)
    assert r.terms == before and (r.K, r.D, r.ints, r.precision) == kernel


@settings(max_examples=150, deadline=None)
@given(operands(), st.data())
def test_results_are_in_normal_form(fg, data):
    f, g = fg
    p = f.prime
    c = data.draw(coeffs(p) | st.just(Fraction(0)))
    results = [f, g, f + g, f - g, f - f, f * g, -f, f.scale(c)]
    results += [f.shift(data.draw(exps(p))), f.truncate(data.draw(CUTOFFS))]
    for r in results:
        assert_normal_form(r)


@settings(max_examples=150, deadline=None)
@given(operands(), st.data())
def test_results_leave_the_operands_kernels_alone(fg, data):
    # _normalise deletes cancelled numerators in place.  A kernel that a
    # series hands over (truncate, shift by 0, scale by 1, _series on f.ints)
    # is in normal form and holds no zero, so none is ever changed.
    f, g = fg
    p = f.prime
    before = [(dict(h.ints), list(h.ints)) for h in (f, g)]
    c = data.draw(coeffs(p) | st.sampled_from([Fraction(0), Fraction(1)]))
    results = [f + g, f - g, f - f, f * g, g * f, -f, f.scale(c), f.shift(ZERO)]
    results += [f.truncate(data.draw(CUTOFFS)), _series(p, f.K, f.D, f.ints, f.precision)]
    results += [_series(p, f.K, f.D, f.ints, Valuation(data.draw(CUTOFFS)))]
    assert [(dict(h.ints), list(h.ints)) for h in (f, g)] == before
    for r in results:
        assert_normal_form(r)


def test_cancelled_numerators_are_deleted_from_a_fresh_accumulator():
    acc = {-3: 2, 0: 0, 1: 4, 5: 0}
    r = _series(2, 0, 1, acc)
    assert r.ints is acc == {-3: 2, 1: 4}


@settings(max_examples=80, deadline=None)
@given(units(), st.integers(1, 12))
def test_inverse_is_in_normal_form(f, target):
    assert_normal_form(f.inverse(target))


def residues(p):
    return st.builds(
        lambda pairs: ResiduePoly(p, pairs),
        st.lists(st.tuples(exps(p), st.integers(-2 * p, 2 * p)), max_size=6),
    )


def assert_residue_normal_form(r):
    p, K, ints = r.prime, r.K, r.ints
    assert K >= 0 and (K == 0 or any(n % p for n in ints))
    assert all(0 < a < p for a in ints.values())
    # the view round-trips through the validating constructor
    view, before = r.coeffs, r.coeffs
    assert ResiduePoly(p, view) == r
    # and is a new dict on each access: changing it leaves r as it was
    kernel = (K, dict(ints))
    view[PExp(1, 9)] = view.pop(ZERO, 1)
    assert r.coeffs == before and (r.K, r.ints) == kernel
    # sorting by n on the grid is sorting by the rational exponent
    ordered = sorted(before, key=lambda e: e.as_fraction(p))
    assert r.ordered_terms() == [(e, before[e]) for e in ordered]


@st.composite
def residue_operands(draw):
    p = draw(PRIMES)
    return draw(residues(p)), draw(residues(p)), draw(series(p, exact=True))


@settings(max_examples=150, deadline=None)
@given(residue_operands())
def test_residues_are_in_normal_form(rsf):
    r, s, f = rsf
    minus_r = r * ResiduePoly(r.prime, {ZERO: -1})
    results = [r, s, r + s, r * s, minus_r, r + minus_r]
    # the reduction of a norm-one series, whose terms of positive valuation
    # reduce to 0 and may leave a coarser grid
    results.append((f if f.is_zero() else f.normalize_gauss()).reduce())
    for x in results:
        assert_residue_normal_form(x)
    assert (r + minus_r).is_zero()


def test_different_constructions_compare_equal():
    assert mono(2, 1, 1) * mono(2, 1, 1) == mono(2, 1)
    assert mono(3, -1, 2) * mono(3, 1, 2, 5) == PSeries.monomial(3, ZERO, 5)
    f = srs(3, [(1, 1, Fraction(2, 3)), (-2, 2, 5)], 4)
    assert f.scale(2).scale(Fraction(1, 2)) == f
    g = srs(2, [(1, 1, Fraction(1, 6)), (3, 2, 4)])
    assert g + g.scale(-1) == PSeries.zero(2)
    assert srs(2, [(1, 1, 1), (1, 1, -1)], 3) == PSeries(2, {}, 3)


# ----------------------------------------------------------------------
# soundness of stated precision


def _agrees(result, exact):
    """The result differs from the exact value only at or above its stated
    precision.  The representative itself is not unique: below a cutoff V,
    1/2 * v and 3/2 * v stand for the same series when 1 has valuation >= V."""
    if result.precision is None:
        return result == exact
    return result.equals_mod(exact, result.precision)


@settings(max_examples=150, deadline=None)
@given(operands(exact=True), CUTOFFS, CUTOFFS)
def test_truncated_products_and_sums_are_sound(fg, a, b):
    f, g = fg
    assert _agrees(f.truncate(a) * g.truncate(b), f * g)
    assert _agrees(f.truncate(a) * g, f * g)
    assert _agrees(f.truncate(a) + g, f + g)
    assert _agrees(f.truncate(a) - g.truncate(b), f - g)


@settings(max_examples=100, deadline=None)
@given(units(), st.integers(1, 40))
def test_inverse_is_sound(f, c):
    inv = f.inverse(c)
    assert inv.is_exact() or inv.precision == Valuation(c)
    bound = c if inv.is_exact() else min(c, inv.precision.v + f.gauss_valuation().v)
    assert (f * inv).equals_mod(PSeries.one(f.prime), bound)
