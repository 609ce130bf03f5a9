from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from projectivoid import (
    DivisionByZero,
    INFINITY,
    NegativeValuation,
    PadicCoeff,
    PrimeMismatch,
    Valuation,
)
from projectivoid.coefficients import _int_valuation, _strip
from projectivoid.exponents import PExp, _power_of, canon

rationals = st.builds(Fraction, st.integers(-300, 300), st.integers(1, 300))
nonzero_rationals = rationals.filter(bool)
primes = st.sampled_from([2, 3, 5])


def test_valuation_of_integers_and_fractions():
    assert PadicCoeff(Fraction(8), 2).valuation() == Valuation(3)
    assert PadicCoeff(Fraction(3, 4), 2).valuation() == Valuation(-2)
    assert PadicCoeff(Fraction(0), 2).valuation() == INFINITY


def test_valuation_total_order():
    assert Valuation(-1) < Valuation(0) < Valuation(5) < INFINITY
    assert max(Valuation(3), INFINITY) == INFINITY
    assert Valuation(2) >= Valuation(2)


def test_valuation_addition_absorbs_infinity():
    assert Valuation(2) + Valuation(3) == Valuation(5)
    assert Valuation(2) + INFINITY == INFINITY
    assert INFINITY + INFINITY == INFINITY


def test_valuation_str():
    assert str(Valuation(-2)) == "-2"
    assert str(INFINITY) == "inf"


def test_reduce():
    assert PadicCoeff(Fraction(3), 2).reduce() == 1
    assert PadicCoeff(Fraction(2), 2).reduce() == 0
    assert PadicCoeff(Fraction(1, 3), 2).reduce() == 1
    assert PadicCoeff(Fraction(2, 3), 5).reduce() == 4


def test_reduce_rejects_norm_above_one():
    with pytest.raises(NegativeValuation):
        PadicCoeff(Fraction(1, 2), 2).reduce()


def test_invert():
    x = PadicCoeff(Fraction(2, 3), 5)
    assert x.invert().value == Fraction(3, 2)
    assert (x.invert() * x).value == 1


def test_invert_zero():
    with pytest.raises(DivisionByZero):
        PadicCoeff(Fraction(0), 3).invert()


def test_arithmetic():
    half = PadicCoeff(Fraction(1, 2), 2)
    assert (half + half).value == 1
    assert (PadicCoeff(Fraction(3), 2) * PadicCoeff(Fraction(1, 3), 2)).value == 1
    assert (-PadicCoeff(Fraction(2), 2)).value == -2
    assert (PadicCoeff(Fraction(5), 3) - PadicCoeff(Fraction(2), 3)).value == 3


def test_prime_mismatch():
    with pytest.raises(PrimeMismatch):
        PadicCoeff(Fraction(1), 2) + PadicCoeff(Fraction(1), 3)


@given(nonzero_rationals, nonzero_rationals, primes)
def test_valuation_multiplicative(a, b, p):
    x, y = PadicCoeff(a, p), PadicCoeff(b, p)
    assert (x * y).valuation() == x.valuation() + y.valuation()


@given(rationals, rationals, primes)
def test_ultrametric_inequality(a, b, p):
    x, y = PadicCoeff(a, p), PadicCoeff(b, p)
    lo = min(x.valuation(), y.valuation())
    assert (x + y).valuation() >= lo
    if x.valuation() != y.valuation():
        assert (x + y).valuation() == lo


@given(rationals, rationals, primes)
def test_reduce_is_a_ring_homomorphism(a, b, p):
    x, y = PadicCoeff(a, p), PadicCoeff(b, p)
    assume(x.valuation() >= Valuation(0))
    assume(y.valuation() >= Valuation(0))
    assert (x + y).reduce() == (x.reduce() + y.reduce()) % p
    assert (x * y).reduce() == (x.reduce() * y.reduce()) % p


def one_step_strip(n, p, cap=None):
    """The loop _strip replaced: divide out one p at a time."""
    v = 0
    while (cap is None or v < cap) and n % p == 0:
        n //= p
        v += 1
    return n, v


@settings(max_examples=300)
@given(
    st.integers(1, 10**6).filter(lambda u: u % 2 and u % 3 and u % 5) | st.integers(1, 10**6),
    st.sampled_from([1, -1]),
    st.integers(0, 300),
    st.none() | st.integers(0, 320),
    primes,
)
def test_strip_matches_one_step_loop(u, sign, k, cap, p):
    n = sign * u * p**k
    assert _strip(n, p, cap) == one_step_strip(n, p, cap)
    assert _int_valuation(n, p) == one_step_strip(n, p)[1]
    # the two callers that strip p off an exponent or a denominator
    K = 0 if cap is None else cap
    m, j = one_step_strip(n, p, K)
    assert canon(n, K, p) == PExp(m, K - j)
    m, j = one_step_strip(abs(n), p)
    assert _power_of(abs(n), p) == (j if m == 1 else None)
