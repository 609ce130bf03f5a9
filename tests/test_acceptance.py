"""End-to-end acceptance gate.

Each test exercises one headline guarantee over a randomized (but seeded)
workload, inside a wall-clock budget, and emits a single summary line of the
form ``[criterion] <name>: PASS|FAIL (<elapsed>, budget <budget>)`` on the
real terminal even when pytest captures output.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction

import pytest

from projectivoid import (
    BundleDegree,
    LMatrix,
    PExp,
    PSeries,
    PrimeField,
    SMatrix,
    SubringTag,
    act,
    degree_one_family,
    enumerate_antidiagonal,
    enumerate_calkin_wilf,
    random_automorphism,
    split,
)
from projectivoid.cli import main
from projectivoid.literals import format_series, parse_series
from helpers import (
    GOLDEN_CLI,
    LITERAL_CORPUS,
    random_multidominant,
    random_series,
    random_transition,
    random_unimodular,
    random_unit,
)


@pytest.fixture
def criterion(capsys):
    @contextlib.contextmanager
    def _criterion(name, budget):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            _emit(capsys, name, "FAIL", time.perf_counter() - start, budget)
            raise
        elapsed = time.perf_counter() - start
        _emit(capsys, name, "PASS" if elapsed < budget else "FAIL", elapsed, budget)
        assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded the {budget:g}s budget"

    return _criterion


def _emit(capsys, name, status, elapsed, budget):
    with capsys.disabled():
        print(f"[criterion] {name}: {status} ({elapsed:.2f}s, budget {budget:g}s)")


def test_unit_inversion(criterion):
    rng = random.Random(101)
    with criterion("unit inversion", 5.0):
        for i in range(200):
            p = (2, 3)[i % 2]
            f = random_unit(rng, p)
            assert f.is_unit(SubringTag.FULL)
            inv = f.inverse(10)
            assert (f * inv).equals_mod(PSeries.one(p), 10)


def test_multidominant_series_are_not_units(criterion):
    rng = random.Random(202)
    with criterion("non-unit detection", 2.0):
        for i in range(200):
            p = (2, 3)[i % 2]
            f = random_multidominant(rng, p)
            assert not f.is_unit(SubringTag.FULL)
            assert len(f.normalize_gauss().reduce().coeffs) != 1


def test_degree_invariance_under_automorphisms(criterion):
    rng = random.Random(303)
    with criterion("degree invariance", 20.0):
        for i in range(100):
            p = (2, 3)[i % 2]
            m = rng.randrange(1, 5)
            A = random_transition(rng, p, m)
            U = random_automorphism(
                p, m, SubringTag.NONNEG, rng.randrange(0, 5), seed=rng.randrange(10**6)
            )
            V = random_automorphism(
                p, m, SubringTag.NONPOS, rng.randrange(0, 5), seed=rng.randrange(10**6)
            )
            assert act(V, A, U).bundle_degree() == A.bundle_degree()


def test_determinant_is_multiplicative(criterion):
    rng = random.Random(404)
    with criterion("determinant multiplicativity", 10.0):
        for i in range(100):
            p = (2, 3)[i % 2]
            m = rng.randrange(1, 5)
            X = SMatrix(p, [[random_series(rng, p, 3) for _ in range(m)] for _ in range(m)])
            Y = SMatrix(p, [[random_series(rng, p, 3) for _ in range(m)] for _ in range(m)])
            assert (X * Y).det() == X.det() * Y.det()


def test_degree_one_family(criterion):
    with criterion("degree-one family", 1.0):
        fam = degree_one_family(2, 4)
        assert len(fam) == 17
        ordered = set()
        multisets = set()
        for M in fam:
            assert M.bundle_degree() == BundleDegree(PExp(1, 0))
            a = M.rows[0][0].degree().as_fraction(2)
            b = M.rows[1][1].degree().as_fraction(2)
            assert a + b == 1
            ordered.add((a, b))
            if a <= Fraction(1, 2):
                key = tuple(sorted((a, b)))
                assert key not in multisets
                multisets.add(key)
        assert len(ordered) == 17
        assert len(multisets) == 9


def test_splitting_recovers_planted_degrees(criterion):
    rng = random.Random(505)
    with criterion("splitting round trip", 30.0):
        for i in range(100):
            field = PrimeField((2, 3)[i % 2])
            m = rng.randrange(1, 4)
            degrees = [rng.randrange(-3, 4) for _ in range(m)]
            D = LMatrix.diagonal_powers(field, degrees)
            U1 = random_unimodular(rng, field, m, side=1, factors=rng.randrange(1, 4))
            V1 = random_unimodular(rng, field, m, side=-1, factors=rng.randrange(1, 4))
            A = V1 * D * U1
            stype, cert = split(A)
            assert stype.degrees == tuple(sorted(degrees))
            assert cert.verify(A)
            coeff, exp = A.det().unit_parts()
            assert exp == sum(degrees)


def test_exponent_enumerations(criterion):
    with criterion("exponent enumeration", 1.0):
        anti = [e.as_fraction(2) for e in enumerate_antidiagonal(2, 1000)]
        assert len(set(anti)) == 1000
        box = {
            Fraction(a, 2**b) for b in range(11) for a in range(11 - b)
        }
        assert box <= set(anti)
        cw = enumerate_calkin_wilf(1000)
        assert len(set(cw)) == 1000


ALL_COMMANDS = frozenset(
    {
        "norm",
        "unit",
        "invert",
        "degree",
        "reduce",
        "det",
        "transition",
        "bundle-degree",
        "act",
        "rand-auto",
        "family",
        "enumerate",
        "split",
        "verify-split",
    }
)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_cli_golden_table(criterion):
    rand_auto = ["rand-auto", "--prime", "3", "--side", "nonpos", "--rank", "2", "--seed", "9"]
    with criterion("command-line contract", 5.0):
        assert len(GOLDEN_CLI) + 1 >= 20
        covered = {argv[0] for argv, _ in GOLDEN_CLI} | {rand_auto[0]}
        assert covered == ALL_COMMANDS
        for argv, expected in GOLDEN_CLI:
            first = _run_cli(argv)
            assert first == (0, expected, ""), argv
            assert _run_cli(argv) == first
        code, out, err = _run_cli(rand_auto)
        assert code == 0 and err == ""
        json.loads(out)
        assert _run_cli(rand_auto) == (code, out, err)
        for text in LITERAL_CORPUS:
            f = parse_series(text, 2)
            printed = format_series(f)
            assert parse_series(printed, 2) == f
            assert format_series(parse_series(printed, 2)) == printed
