"""Exponent lattice: canonical forms, group laws, and the two enumerations."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from projectivoid import (
    ONE,
    PExp,
    ParseError,
    ZERO,
    canon,
    enumerate_antidiagonal,
    enumerate_calkin_wilf,
    exp_add,
    exp_neg,
    is_prime,
)
from projectivoid.exponents import MAX_CALKIN_WILF_TERMS, PRIME_LIMIT
from helpers import calkin_wilf_stream


def exps(p, bound=40, max_pow=4):
    return st.builds(
        lambda n, b: canon(n, b, p), st.integers(-bound, bound), st.integers(0, max_pow)
    )


def test_canon_reduces_common_p_factors():
    assert canon(4, 2, 2) == PExp(1, 0)
    assert canon(6, 1, 2) == PExp(3, 0)
    assert canon(6, 1, 3) == PExp(2, 0)
    assert canon(3, 2, 2) == PExp(3, 2)


def test_canon_zero():
    assert canon(0, 5, 3) == ZERO


def test_canon_rejects_negative_pow():
    with pytest.raises(ValueError):
        canon(1, -1, 2)


def test_as_fraction():
    assert PExp(3, 2).as_fraction(2) == Fraction(3, 4)
    assert PExp(-5, 1).as_fraction(3) == Fraction(-5, 3)
    assert ZERO.as_fraction(7) == 0


def test_add_and_neg():
    assert exp_add(PExp(1, 1), PExp(1, 1), 2) == ONE
    assert exp_neg(PExp(3, 2)) == PExp(-3, 2)


@given(exps(2), exps(2), exps(2))
def test_add_associative(x, y, z):
    assert exp_add(exp_add(x, y, 2), z, 2) == exp_add(x, exp_add(y, z, 2), 2)


@given(exps(3), exps(3))
def test_add_matches_rational_addition(x, y):
    assert exp_add(x, y, 3).as_fraction(3) == x.as_fraction(3) + y.as_fraction(3)


@given(exps(2))
def test_inverse_law(x):
    assert exp_add(x, exp_neg(x), 2) == ZERO


@given(exps(2))
def test_results_are_canonical(x):
    assert x.pow == 0 or x.num % 2 != 0


def test_antidiagonal_first_six_base_two():
    assert enumerate_antidiagonal(2, 6) == [
        PExp(0, 0),
        PExp(1, 0),
        PExp(1, 1),
        PExp(2, 0),
        PExp(1, 2),
        PExp(3, 0),
    ]


def test_antidiagonal_starts_at_zero():
    assert enumerate_antidiagonal(3, 1) == [ZERO]


def test_antidiagonal_base_three_prefix():
    got = [e.as_fraction(3) for e in enumerate_antidiagonal(3, 7)]
    want = [
        Fraction(0),
        Fraction(1),
        Fraction(1, 3),
        Fraction(2),
        Fraction(1, 9),
        Fraction(2, 3),
        Fraction(3),
    ]
    assert got == want


def test_antidiagonal_distinct_and_covers_small_box():
    vals = [e.as_fraction(2) for e in enumerate_antidiagonal(2, 1000)]
    assert len(set(vals)) == 1000
    box = {Fraction(a, 2**b) for a in range(11) for b in range(11) if a + b <= 10}
    assert box <= set(vals)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1000003])
def test_antidiagonal_matches_a_walk_that_skips_seen_values(p):
    # The stream yields the pairs in lowest terms; the oracle canonicalises
    # every pair of the same walk and skips the values it has already seen.
    seen, want, k = set(), [], 0
    while len(want) < 20000:
        for a in range(k + 1):
            e = canon(a, k - a, p)
            if e not in seen:
                seen.add(e)
                want.append(e)
        k += 1
    got = enumerate_antidiagonal(p, 20000)
    assert got == want[:20000]
    assert all(canon(e.num, e.pow, p) == e for e in got)


def test_antidiagonal_rejects_bad_count():
    with pytest.raises(ValueError):
        enumerate_antidiagonal(2, 0)


def test_calkin_wilf_prefix():
    assert enumerate_calkin_wilf(5) == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(2),
        Fraction(1, 3),
        Fraction(3, 2),
    ]


def test_calkin_wilf_seed():
    assert enumerate_calkin_wilf(1) == [Fraction(1)]


def test_calkin_wilf_all_distinct():
    got = enumerate_calkin_wilf(1000)
    assert len(set(got)) == 1000
    assert all(q > 0 for q in got)


def test_calkin_wilf_filtered_base_two():
    got = [e.as_fraction(2) for e in enumerate_calkin_wilf(8, 2)]
    want = [
        Fraction(1),
        Fraction(1, 2),
        Fraction(2),
        Fraction(3, 2),
        Fraction(3),
        Fraction(1, 4),
        Fraction(5, 2),
        Fraction(3, 4),
    ]
    assert got == want


def _is_power_of(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def test_calkin_wilf_filtered_returns_canonical_positive_exponents():
    for e in enumerate_calkin_wilf(30, 3):
        assert isinstance(e, PExp)
        assert e.pow == 0 or e.num % 3 != 0
        assert e.as_fraction(3) > 0


def test_calkin_wilf_filter_is_a_subsequence():
    raw = enumerate_calkin_wilf(400)
    kept = [q for q in raw if _is_power_of(q.denominator, 3)]
    got = enumerate_calkin_wilf(len(kept), 3)
    assert [e.as_fraction(3) for e in got] == kept


def test_calkin_wilf_matches_the_fraction_walk():
    assert enumerate_calkin_wilf(20000) == list(islice(calkin_wilf_stream(), 20000))


@pytest.mark.parametrize("p,kept", [(2, 456), (3, 375), (5, 297), (1_000_003, 15)])
def test_calkin_wilf_filtered_walk_matches_the_fraction_walk_up_to_the_cap(p, kept):
    want = []
    for q in islice(calkin_wilf_stream(), MAX_CALKIN_WILF_TERMS):
        d, b = q.denominator, 0
        while d % p == 0:
            d, b = d // p, b + 1
        if d == 1:
            want.append(canon(q.numerator, b, p))
    assert len(want) == kept
    assert enumerate_calkin_wilf(kept, p) == want
    with pytest.raises(ParseError) as info:
        enumerate_calkin_wilf(kept + 1, p)
    assert str(info.value) == (
        f"the Calkin-Wilf walk kept {kept} of {kept + 1} values"
        f" in its first {MAX_CALKIN_WILF_TERMS} terms"
    )


@pytest.mark.parametrize(
    "n,expected",
    [
        (0, False),
        (1, False),
        (2, True),
        (3, True),
        (4, False),
        (41, True),
        (91, False),
        (97, True),
        (10**18 + 3, True),
        (2**61 - 1, True),
        # strong pseudoprimes to the first 5 and the first 9 prime bases
        (3215031751, False),
        (3825123056546413051, False),
        (PRIME_LIMIT - 1, False),
    ],
)
def test_is_prime(n, expected):
    assert is_prime(n) is expected


def test_is_prime_agrees_with_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(is_prime(n) is by_trial_division(n) for n in range(5000))


def test_is_prime_refuses_beyond_its_exact_range():
    with pytest.raises(ParseError):
        is_prime(PRIME_LIMIT)
    with pytest.raises(ParseError):
        is_prime(2**89 - 1)
