"""Command-line contract: golden outputs, determinism, file input, JSON
mode, and the exit-code scheme (0 ok / 1 domain error / 2 parse error)."""

import contextlib
import io
import json
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from projectivoid import (
    SubringTag,
    doc_to_laurent_matrix,
    doc_to_matrix,
    split,
    splitting_invariance_check,
)
from projectivoid.literals import MAX_EXP_BITS
from projectivoid.cli import MAX_COUNT, MAX_FAMILY, MAX_PREC, MAX_RANK, MAX_SHEARS, main
from helpers import (
    ACT_TRIPLE,
    GOLDEN_CLI,
    MIXED_DIAG,
    NONUNIT_DET,
    OFFDIAG,
    SPLIT_DIAG,
    SPLIT_UPPER,
    VERIFY_TRIPLE,
    mutate,
)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv,expected", GOLDEN_CLI, ids=lambda x: x[0] if isinstance(x, list) else None)
def test_golden_invocations(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == expected
    assert err == ""


@pytest.mark.parametrize("argv,expected", GOLDEN_CLI, ids=lambda x: x[0] if isinstance(x, list) else None)
def test_golden_invocations_are_deterministic(capsys, argv, expected):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_rand_auto_is_deterministic_and_valid(capsys):
    argv = ["rand-auto", "--prime", "2", "--side", "nonneg", "--rank", "3", "--seed", "5"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    code2, out2, _ = run(capsys, *argv)
    assert out == out2
    M = doc_to_matrix(out, 2)
    assert M.m == 3
    assert M.validate_automorphism(SubringTag.NONNEG)

    code3, out3, _ = run(capsys, "rand-auto", "--prime", "2", "--side", "nonpos", "--seed", "5")
    assert code3 == 0
    assert doc_to_matrix(out3, 2).validate_automorphism(SubringTag.NONPOS)


def test_rand_auto_seed_changes_output(capsys):
    _, a, _ = run(capsys, "rand-auto", "--prime", "3", "--side", "nonneg", "--seed", "0")
    _, b, _ = run(capsys, "rand-auto", "--prime", "3", "--side", "nonneg", "--seed", "1")
    assert a != b


def test_family_json_mode(capsys):
    code, out, _ = run(capsys, "family", "--prime", "3", "--max-pow", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["matrices"]) == 4
    for entry in doc["matrices"]:
        assert doc_to_matrix(entry, 3).is_transition()


def test_act_json_mode_wraps_matrix(capsys):
    triple = json.dumps(
        {
            "V": {"p": 2, "m": 1, "entries": [["1"]]},
            "A": {"p": 2, "m": 1, "entries": [["v"]]},
            "U": {"p": 2, "m": 1, "entries": [["1"]]},
        }
    )
    code, out, _ = run(capsys, "act", "--prime", "2", "--format", "json", triple)
    assert code == 0
    assert json.loads(out) == {"matrix": {"p": 2, "m": 1, "entries": [["v"]]}}


def test_split_json_mode_returns_verified_certificate(capsys):
    code, out, _ = run(capsys, "split", "--format", "json", SPLIT_UPPER)
    assert code == 0
    doc = json.loads(out)
    assert doc["degrees"] == [1, 1]
    from projectivoid import PrimeField

    field = PrimeField(2)
    A = doc_to_laurent_matrix(json.loads(SPLIT_UPPER), field)
    V = doc_to_laurent_matrix(doc["V"], field)
    U = doc_to_laurent_matrix(doc["U"], field)
    D = doc_to_laurent_matrix(doc["D"], field)
    assert V * A * U == D
    assert splitting_invariance_check(A, U, V)


def test_split_reads_prime_from_flag_when_doc_has_none(capsys):
    code, out, _ = run(capsys, "split", "--prime", "3", '{"m": 1, "entries": [["v^-2"]]}')
    assert code == 0
    assert out == "(-2)\n"


def test_file_input(tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text(OFFDIAG, encoding="utf-8")
    code, out, _ = run(capsys, "det", "--prime", "2", "--file", str(path))
    assert code == 0
    assert out == "1 - v^2\n"


def test_file_and_inline_conflict(capsys):
    code, _, err = run(capsys, "norm", "--prime", "2", "--file", "x", "1")
    assert code == 2
    assert "ParseError" in err


def test_missing_input(capsys):
    code, _, err = run(capsys, "norm", "--prime", "2")
    assert code == 2
    assert "ParseError" in err


def test_missing_prime(capsys):
    code, _, err = run(capsys, "norm", "1 + v")
    assert code == 2
    assert "--prime" in err


def test_non_prime_rejected(capsys):
    code, _, err = run(capsys, "norm", "--prime", "6", "v")
    assert code == 2
    assert "ParseError" in err


@pytest.mark.parametrize(
    "argv,error",
    [
        (["invert", "--prime", "2", "--prec", "4", "1 + v"], "NotAUnit"),
        (["invert", "--prime", "2", "--prec", "0", "1 - 2*v"], "NonpositivePrecision"),
        (["reduce", "--prime", "2", "1/2"], "NormExceedsOne"),
        (["degree", "--prime", "2", "0"], "ZeroSeries"),
        (["det", "--prime", "3", OFFDIAG], "PrimeMismatch"),
        (["bundle-degree", "--prime", "2", NONUNIT_DET], "NotATransitionMatrix"),
        (["unit", "--prime", "2", "--ring", "nonneg", "v^-1"], "SubringViolation"),
    ],
)
def test_domain_errors_exit_one(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(error)


def test_act_side_violation_exits_one(capsys):
    triple = json.dumps(
        {
            "V": {"p": 2, "m": 1, "entries": [["1"]]},
            "A": {"p": 2, "m": 1, "entries": [["v"]]},
            "U": {"p": 2, "m": 1, "entries": [["v^-1"]]},
        }
    )
    code, _, err = run(capsys, "act", "--prime", "2", triple)
    assert code == 1
    assert err.startswith("InvalidAutomorphism")
    assert "right factor" in err


@pytest.mark.parametrize(
    "argv,error",
    [
        (["norm", "--prime", "2", "1 +"], "ParseError"),
        (["norm", "--prime", "2", "v^(1/3^1)"], "WrongPrimeDenominator"),
        (["det", "--prime", "2", '{"p": 2, "m": 2, "entries": [["1"], ["0", "1"]]}'], "RaggedMatrix"),
        (["det", "--prime", "2", "not json"], "ParseError"),
        (["act", "--prime", "2", '{"A": {"p": 2, "m": 1, "entries": [["v"]]}}'], "ParseError"),
        (["split", '{"m": 1, "entries": [["v"]]}'], "ParseError"),
        (["det", "--prime", "2", '{"p": 2, "m": true, "entries": [["1"]]}'], "ParseError"),
    ],
)
def test_parse_errors_exit_two(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(error)


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--prime", "2", "1 - 2*v"])  # --prec is required
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--count", "0"],
        ["family", "--prime", "2", "--max-pow", "-1"],
        ["rand-auto", "--prime", "2", "--side", "nonneg", "--shears", "-1"],
        ["rand-auto", "--prime", "2", "--side", "nonneg", "--rank", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_of_range_options_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be at least" in err


def test_invert_prec_above_cap_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--prime", "2", "--prec", str(MAX_PREC + 1), "1 - 2*v"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"must be at most {MAX_PREC}" in err


@pytest.mark.parametrize(
    "argv,cap",
    [
        (["enumerate", "--count", str(MAX_COUNT + 1)], MAX_COUNT),
        (["rand-auto", "--prime", "2", "--side", "nonneg", "--rank", str(MAX_RANK + 1)], MAX_RANK),
        (["rand-auto", "--prime", "2", "--side", "nonpos", "--shears", str(MAX_SHEARS + 1)], MAX_SHEARS),
    ],
    ids=lambda x: x[-2] if isinstance(x, list) else None,
)
def test_options_above_cap_exit_two(capsys, argv, cap):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"must be at most {cap}" in err


def test_options_at_cap_are_accepted(capsys):
    code, out, _ = run(capsys, "enumerate", "--prime", "2", "--count", str(MAX_COUNT))
    assert code == 0 and out.count("\n") == MAX_COUNT
    code, out, _ = run(
        capsys, "rand-auto", "--prime", "5", "--side", "nonneg",
        "--rank", str(MAX_RANK), "--shears", str(MAX_SHEARS),
    )
    assert code == 0 and doc_to_matrix(out, 5).m == MAX_RANK


def test_family_size_cap(capsys):
    assert MAX_FAMILY == 2**12 + 1
    code, out, _ = run(capsys, "family", "--prime", "2", "--max-pow", "12")
    assert code == 0 and out.count("\n") == MAX_FAMILY
    for prime, max_pow in (("2", "13"), ("3", "8"), ("2", str(10**9))):
        code, out, err = run(capsys, "family", "--prime", prime, "--max-pow", max_pow)
        assert (code, out) == (2, "")
        assert err.startswith("ParseError") and f"more than {MAX_FAMILY} matrices" in err


def test_invert_prec_at_cap_is_accepted(capsys):
    code, out, _ = run(capsys, "invert", "--prime", "2", "--prec", str(MAX_PREC), "v^(1/2^1)")
    assert (code, out) == (0, "v^(-1/2^1)\n")


def _exponent_cap_calls(p, k):
    """invert on a three-term unit and transition on a 2 x 2 matrix, both
    with exponent denominator p^k."""
    unit = f"1 + {p}*v^(1/{p}^{k}) - {p}*v^(-1/{p}^{k})"
    doc = {"p": p, "m": 2, "entries": [[f"v^(1/{p}^{k})", "1"], ["0", f"1 + v^(-1/{p}^{k})"]]}
    return [
        ["invert", "--prime", str(p), "--prec", "50", unit],
        ["transition", "--prime", str(p), json.dumps(doc)],
    ]


@pytest.mark.parametrize("p", [2, 3, 1000003])
def test_exponent_denominator_cap(capsys, p):
    k = MAX_EXP_BITS // (p - 1).bit_length()
    for argv in _exponent_cap_calls(p, k):
        start = time.process_time()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
        assert time.process_time() - start < 1.0
    # Both readers: the scanner takes "1/p^k", "+1/p^k" goes to the
    # descent parser.
    calls = _exponent_cap_calls(p, k + 1) + [["norm", "--prime", str(p), f"v^(+1/{p}^{k + 1})"]]
    for argv in calls:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("ParseError") and f"above {p}^{k} are not accepted" in err


def test_large_prime_is_decided_quickly(capsys):
    code, out, _ = run(capsys, "norm", "--prime", str(10**18 + 3), "1")
    assert (code, out) == (0, "0\n")


def test_prime_beyond_exact_range_exits_two(capsys):
    code, out, err = run(capsys, "norm", "--prime", str(10**25), "1")
    assert (code, out) == (2, "")
    assert err.startswith("ParseError")


def test_split_rational_field_ignores_prime_key(capsys):
    code, out, _ = run(
        capsys,
        "split",
        "--field",
        "rational",
        '{"p": 2, "m": 2, "entries": [["s", "1"], ["0", "s"]]}',
    )
    assert code == 0
    assert out == "(1, 1)\n"


# ----------------------------------------------------------------------
# fuzzing main() on mutated literals and documents

_FUZZ_BASES = [
    ["norm", "--prime", "2", "1 + 2*v^(1/2^1) - v^(-3/2^2) (mod val >= 3)"],
    ["reduce", "--prime", "3", "1 + v^(1/3^1) - 2/5*v^-2"],
    ["invert", "--prime", "2", "--prec", "4", "1 - 2*v + 4*v^(1/2^2)"],
    ["det", "--prime", "2", MIXED_DIAG],
    ["act", "--prime", "2", ACT_TRIPLE],
    ["split", SPLIT_DIAG],
    ["split", "--field", "rational", '{"m": 2, "entries": [["1/2*s", "1"], ["0", "s^2"]]}'],
    ["verify-split", VERIFY_TRIPLE],
]
_FUZZ_CHARS = '0123456789+-*/^() vs,:"[]{}pmentrisx.\\'
_ERROR_LINE = re.compile(r"[A-Z][A-Za-z]*: [^\n]*\n")


@st.composite
def _mutated_argv(draw):
    """A base call with one to three characters inserted, deleted or replaced,
    mostly in the input, sometimes in the command or a flag."""
    argv = list(draw(st.sampled_from(_FUZZ_BASES)))
    k = len(argv) - 1 if draw(st.integers(0, 5)) else draw(st.integers(0, len(argv) - 1))
    text = argv[k]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        text = mutate(text, i, op, draw(st.sampled_from(_FUZZ_CHARS)))
    argv[k] = text
    return argv


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, usage = main(list(argv)), False
        except SystemExit as exc:
            code, usage = exc.code, True
    return code, usage, out.getvalue(), err.getvalue(), time.process_time() - start


@settings(max_examples=250, deadline=None)
@given(_mutated_argv(), st.sampled_from(GOLDEN_CLI))
def test_fuzzed_calls_exit_cleanly(argv, golden):
    code, usage, out, err, cpu = _call(argv)
    assert cpu <= 2.0, argv
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err == "", argv
    else:
        assert out == "", argv
        if usage:
            assert code == 2 and err.startswith("usage: ") and "error: " in err, argv
        else:
            assert _ERROR_LINE.fullmatch(err), (argv, err)
    # The parser is shared between calls: the next call must not see this one.
    golden_argv, expected = golden
    assert _call(golden_argv)[:4] == (0, False, expected, "")
