"""Command-line contract: golden outputs, determinism, file input, JSON
mode, and the exit-code scheme (0 ok / 1 domain error / 2 parse error)."""

import argparse
import contextlib
import io
import json
import re
import shlex
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from projectivoid import (
    SubringTag,
    doc_to_laurent_matrix,
    doc_to_matrix,
    literals,
    split,
    splitting_invariance_check,
)
from projectivoid.exponents import MAX_CALKIN_WILF_TERMS
from projectivoid.literals import MAX_DIGITS, MAX_EXP_BITS, MAX_M, MAX_PREC_BITS
from projectivoid.cli import (
    MAX_COUNT,
    MAX_FAMILY,
    MAX_PREC,
    MAX_RANK,
    MAX_SHEARS,
    _parse_args,
    _parsers,
    _read_plain,
    main,
)
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


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_command_line_examples(capsys):
    """Each example of the README "Command line" block that shows its output
    in a comment, run through main: the output lines joined by spaces equal
    the comment, except for family, whose comment starts with the number of
    output lines.  Examples with {...} placeholders are skipped."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    checked = 0
    for line in block.splitlines():
        command, _, comment = line.partition(" # ")
        if not comment or "{...}" in command:
            continue
        argv = shlex.split(command)[1:]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), line
        lines = out.splitlines()
        if argv[0] == "family":
            assert comment.split()[0] == str(len(lines)), line
        else:
            assert " ".join(lines) == comment.strip(), line
        checked += 1
    assert checked == 14


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


def test_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe1")
    code, out, err = run(capsys, "norm", "--prime", "2", "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"ParseError: cannot read {path}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def _nested(depth, kind):
    """A JSON value nested depth levels deep, of arrays or of objects."""
    if kind == "array":
        return "[" * depth + "]" * depth
    return '{"a": ' * depth + "1" + "}" * depth


@pytest.mark.parametrize("kind", ["array", "object"])
@pytest.mark.parametrize("command", ["det", "transition", "bundle-degree", "act", "split", "verify-split"])
def test_deeply_nested_json_exits_two(tmp_path, capsys, command, kind):
    # Past the interpreter's recursion limit json.loads raises RecursionError.
    path = tmp_path / "deep.json"
    path.write_text(_nested(100_000, kind), encoding="utf-8")
    for argv in ([command, "--prime", "2", _nested(1000, kind)],
                 [command, "--prime", "2", "--file", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "ParseError: invalid JSON: nested too deeply\n"


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


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("text,cutoff", [("0 (mod val >= 3)", "3"), ("1 (mod val >= -3)", "-3")])
def test_norm_refuses_an_inexact_zero(capsys, fmt, text, cutoff):
    # No stored term means only val >= cutoff is known, not an exact zero:
    # the norm is undetermined, so it is refused rather than printed as inf.
    code, out, err = run(capsys, "norm", "--prime", "2", "--format", fmt, text)
    assert (code, out) == (1, "")
    assert err.startswith("ValueError: ") and f"val >= {cutoff}" in err
    assert err.count("\n") == 1
    # Stored terms below the cutoff determine the norm.
    code, out, _ = run(capsys, "norm", "--prime", "2", "--format", fmt, "4*v + 2 (mod val >= 3)")
    assert (code, out) == (0, '{"valuation": 1}\n' if fmt == "json" else "1\n")


def _truncated_act(key):
    """The act triple V = A = U = I (m = 2, p = 2), with one entry of `key`
    known only modulo val >= 3."""
    triple = {k: {"p": 2, "m": 2, "entries": [["1", "0"], ["0", "1"]]} for k in "VAU"}
    triple[key]["entries"][0][0] = "1 (mod val >= 3)"
    return json.dumps(triple)


@pytest.mark.parametrize(
    "argv",
    [
        ["det", '{"p": 2, "m": 2, "entries": [["1", "v (mod val >= 3)"], ["v", "1"]]}'],
        ["det", '{"p": 2, "m": 1, "entries": [["0 (mod val >= 3)"]]}'],
        *(["act", _truncated_act(key)] for key in "VAU"),
    ],
    ids=["det", "det-inexact-zero", "act-V", "act-A", "act-U"],
)
def test_truncated_matrix_entries_exit_one(capsys, argv):
    # Determinants, and so the three validations of act, need exact entries.
    code, out, err = run(capsys, argv[0], "--prime", "2", *argv[1:])
    assert (code, out) == (1, "")
    assert err == "ValueError: operation requires exact matrix entries\n"


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


_INPUT = ("--prime", "--format", "--file", "input")
OPTION_TABLE = {
    "norm": _INPUT,
    "unit": _INPUT + ("--ring",),
    "invert": _INPUT + ("--prec",),
    "degree": _INPUT,
    "reduce": _INPUT,
    "det": _INPUT,
    "transition": _INPUT,
    "bundle-degree": _INPUT,
    "act": _INPUT,
    "rand-auto": ("--prime", "--format", "--rank", "--side", "--shears", "--seed"),
    "family": ("--prime", "--format", "--max-pow"),
    "enumerate": ("--prime", "--format", "--count", "--order", "--filter"),
    "split": _INPUT + ("--field",),
    "verify-split": _INPUT + ("--field",),
}


def test_option_table():
    # Every settable value of every command, in the order the parser adds
    # them: options by their one option string, the positional by name.
    (sub,) = [a for a in _parsers()[0]._actions if isinstance(a, argparse._SubParsersAction)]
    table = {}
    for name, sp in sub.choices.items():
        values = []
        for a in sp._actions:
            if isinstance(a, argparse._HelpAction):
                continue
            if a.option_strings:
                (option,) = a.option_strings
                values.append(option)
            else:
                values.append(a.dest)
        table[name] = tuple(values)
    assert table == OPTION_TABLE


def test_every_action_is_of_a_kind_the_plain_reader_reads():
    # The plain reader handles store options of one value, store_true, one
    # nargs='?' positional and argparse's own -h/--help; an action of any
    # other kind, or one missing from the table, would send every call of
    # its command back to argparse without a failing test.
    (sub,) = [a for a in _parsers()[0]._actions if isinstance(a, argparse._SubParsersAction)]
    tables = _parsers()[1]
    assert sub.choices.keys() == tables.keys() and len(tables) == 14
    for name, sp in sub.choices.items():
        options, positional, _, _, _ = tables[name]
        helps = [a for a in sp._actions if type(a) is argparse._HelpAction]
        assert [a.option_strings for a in helps] == [["-h", "--help"]]
        others = [a for a in sp._actions if a not in helps]
        assert set(others) == {*options.values(), positional} - {None}
        for a in others:
            if a is positional:
                assert type(a) is argparse._StoreAction and a.nargs == "?"
                assert a.type is None and a.choices is None
            else:
                assert (type(a), a.nargs) in ((argparse._StoreAction, None), (argparse._StoreTrueAction, 0))
            assert not (isinstance(a.default, str) and a.type is not None), (name, a.dest)


DISPATCH_CORPUS = [
    # every command with its options
    ["norm", "--prime", "2", "--format", "json", "1 + v"],
    ["norm", "--prime", "2", "--file", "x.txt"],
    ["unit", "--prime", "3", "--ring", "nonneg", "--format", "text", "1 + 3*v"],
    ["invert", "--prime", "2", "--prec", "5", "1 + 2*v"],
    ["degree", "--prime", "5", "v^(1/5^2)"],
    ["reduce", "--format", "json", "--prime", "3", "1 + 3*v"],
    ["det", "--prime", "2", OFFDIAG],
    ["transition", "--prime", "2", "--format", "json", OFFDIAG],
    ["bundle-degree", "--file", "m.json", "--prime", "2"],
    ["act", "--prime", "2", ACT_TRIPLE],
    ["rand-auto", "--prime", "2", "--rank", "3", "--side", "nonneg", "--shears", "2", "--seed", "5"],
    ["family", "--prime", "3", "--max-pow", "2", "--format", "json"],
    ["enumerate", "--prime", "2", "--count", "7", "--order", "calkin-wilf", "--filter"],
    ["enumerate"],
    ["split", "--field", "rational", "--format", "json", SPLIT_UPPER],
    ["verify-split", "--field", "fp", "--prime", "3", VERIFY_TRIPLE],
    # = forms and abbreviations, unique and ambiguous
    ["norm", "--prime=2", "1"],
    ["norm", "--pri", "2", "--form=json", "1"],
    ["enumerate", "--ord", "calkin-wilf", "--co=3"],
    ["unit", "--f", "json", "1"],
    ["enumerate", "--f"],
    # help before and after the command
    ["-h"],
    ["--help"],
    ["-h", "norm"],
    ["norm", "-h"],
    ["rand-auto", "--help"],
    ["invert", "--prime", "2", "--he"],
    ["family", "--help=yes"],
    # no command, an unknown command, an option before the command
    [],
    ["frobnicate"],
    ["frobnicate", "--prime", "2", "1"],
    ["--prime", "2", "norm", "1"],
    ["--", "norm", "1"],
    # another command's option, unknown options, surplus arguments
    ["norm", "--seed", "1", "--prime", "2", "1 + v"],
    ["norm", "--prime", "2", "--seed", "1", "1 + v"],
    ["enumerate", "--prime", "2", "--file", "x", "--count", "3"],
    ["norm", "-x", "1"],
    ["norm", "1", "2", "3"],
    ["enumerate", "extra"],
    # bad values, missing values and missing required options
    ["unit", "--ring", "bogus", "1"],
    ["invert", "--prime", "2", "1 - 2*v"],
    ["invert", "--prime", "2", "--prec", "many", "1"],
    ["rand-auto", "--prime", "2"],
    ["enumerate", "--count", "0"],
    ["family", "--prime", "2", "--max-pow", "x"],
    ["norm", "--prime"],
    ["norm", "--prime", "two", "1"],
    # literals that start with "-", with and without "--"
    ["norm", "--prime", "2", "--", "-1 + v"],
    ["degree", "--prime", "2", "--", "-v"],
    ["norm", "--prime", "2", "-1"],
    ["norm", "--prime", "2", "-v"],
    ["norm", "--", "--prime", "2"],
    # forms at the edge of the plain reader: inputs led by "-" (the reader
    # takes one only with a space and no "=" or option string at its start),
    # a lone "-" and an empty input, options given twice, option values led
    # by "-", and a --file name led by "-"
    ["norm", "--prime", "2", "-1 + v"],
    ["norm", "-1 + v", "--prime", "2"],
    ["norm", "--prime", "2", "-h x"],
    ["norm", "--prime", "2", "--x y"],
    ["norm", "--prime", "2", "-1 = v"],
    ["norm", "--prime", "2", "-"],
    ["norm", "--prime", "2", ""],
    ["norm", "--prime", "2", "--prime", "3", "1 + v"],
    ["enumerate", "--filter", "--filter"],
    ["rand-auto", "--prime", "2", "--side", "nonneg", "--seed", "-4"],
    ["invert", "--prime", "2", "--prec", "-1", "1 + 2*v"],
    ["norm", "--prime", "2", "--file", "-x y"],
    # an abbreviation before "=" splits a token with a space; an option
    # string is never a value
    ["norm", "--prime", "2", "--form=json x"],
    ["norm", "--prime", "2", "--file", "-h"],
]


def _parse_outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=lambda argv: " ".join(argv)[:40] or "[]")
def test_dispatch_parses_like_the_top_level_parser(argv):
    # main reads a plain argv from the table of the command argv[0] names
    # and hands every other argv to the top-level parser; the namespace, or
    # the exit code and every byte printed, must be what that parser gives.
    ours = _parse_outcome(_parse_args, argv)
    assert ours == _parse_outcome(_parsers()[0].parse_args, argv)
    if isinstance(ours[0], dict):
        assert ours[0]["command"] == argv[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--prime", "2", "--seed", "1", "1 + v"],
        ["enumerate", "--prime", "2", "--file", "x", "--count", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_option_of_another_command_exits_two(capsys, argv):
    # --seed belongs to rand-auto alone, and --file to the commands that
    # take an input.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {argv[3]} {argv[4]}" in err


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


def test_family_formats_each_distinct_entry_once(capsys, monkeypatch):
    # q + 1 matrices share q + 1 monomials and one exact zero: q + 2 strings.
    calls = []
    fmt = literals.format_series

    def counting(f):
        calls.append(f)
        return fmt(f)

    monkeypatch.setattr(literals, "format_series", counting)
    for fmt_option in ("text", "json"):
        calls.clear()
        code, out, _ = run(capsys, "family", "--prime", "3", "--max-pow", "2", "--format", fmt_option)
        assert code == 0
        assert len(calls) == 3**2 + 2


def _identity_doc(m, p=None):
    doc = {"m": m, "entries": [["1" if i == j else "0" for j in range(m)] for i in range(m)]}
    return json.dumps(dict(doc, p=p) if p else doc)


def test_matrix_size_cap(capsys):
    # At the cap the identity runs; one row more is refused with one stderr
    # line before any entry is parsed.
    for argv in (["det", "--prime", "2"], ["transition", "--prime", "2"], ["split", "--field", "rational"]):
        code, out, _ = run(capsys, *argv, _identity_doc(MAX_M, 2 if "--prime" in argv else None))
        assert code == 0 and out
        code, out, err = run(capsys, *argv, _identity_doc(MAX_M + 1, 2 if "--prime" in argv else None))
        assert (code, out) == (2, "")
        assert err == f"ParseError: matrices larger than {MAX_M} x {MAX_M} are not accepted\n"
    triple = json.dumps({"V": json.loads(_identity_doc(1, 2)), "A": json.loads(_identity_doc(MAX_M + 1, 2)),
                         "U": json.loads(_identity_doc(1, 2))})
    code, out, err = run(capsys, "act", "--prime", "2", triple)
    assert (code, out) == (2, "") and err.startswith("ParseError: matrices larger than")


# Short 2 x 2 documents whose pass bound P, the sum over the columns of
# their exponent spreads, is far above classical.MAX_SPLIT_PASSES: the rows
# (s^N - 1, s^(N-1) - 1), P = 2N - 1, take about N column passes, each
# longer than the one before, and [[1 + s^-2N, s^-N], [s^-N, 1]], P = 3N,
# takes none but packs its adjugate into integers of about N digits.  Both
# are refused before the reduction starts.
SPLIT_PAST_THE_CAP = [
    {"p": 3, "m": 2, "entries": [["s^100000 - 1", "s^99999 - 1"], ["s^100000 - 1", "s^99999 - 1"]]},
    {"p": 3, "m": 2, "entries": [["1 + s^-200000", "s^-100000"], ["s^-100000", "1"]]},
]


@pytest.mark.parametrize("doc", SPLIT_PAST_THE_CAP, ids=["euclid", "spread"])
def test_split_pass_bound_cap(capsys, doc):
    identity = {"p": 3, "m": 2, "entries": [["1", "0"], ["0", "1"]]}
    for argv in (["split", json.dumps(doc)],
                 ["verify-split", json.dumps({"A": doc, "U": identity, "V": identity})]):
        start = time.process_time()
        code, out, err = run(capsys, *argv)
        assert time.process_time() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("ParseError: split needs up to") and err.count("\n") == 1


def test_split_singular_rows_at_the_pass_bound(capsys):
    # The rows (s^N - 1, s^(N-1) - 1) at N = 2048 have P = 4095, the cap:
    # the reduction runs and refuses the singular matrix (exit 1, one
    # stderr line); one degree more, P = 4097, is refused before it.
    for n, code_want, name in ((2048, 1, "NotInvertibleOverRing"), (2049, 2, "ParseError")):
        row = [f"s^{n} - 1", f"s^{n - 1} - 1"]
        start = time.process_time()
        code, out, err = run(capsys, "split", json.dumps({"p": 3, "m": 2, "entries": [row, row]}))
        assert time.process_time() - start < 10.0
        assert (code, out) == (code_want, "")
        assert err.startswith(name + ": ") and err.count("\n") == 1


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


@pytest.mark.parametrize("p", [2, 3, 1000003])
def test_precision_cutoff_cap(capsys, p):
    top = MAX_PREC_BITS // (p - 1).bit_length()
    lit = f"1 + {p}*v^(1/{p}^1) - v^3 (mod val >= {top})"
    for cmd in ("norm", "degree", "reduce"):
        start = time.process_time()
        code, out, _ = run(capsys, cmd, "--prime", str(p), lit)
        assert code == 0 and out
        assert time.process_time() - start < 1.0
    # Both readers: the scanner takes ">= V", ">= +V" goes to the descent
    # parser; a matrix entry is parsed like a literal.
    doc = {"p": p, "m": 1, "entries": [[f"v (mod val >= {top + 1})"]]}
    for argv in (
        ["norm", "--prime", str(p), f"1 + v (mod val >= {top + 1})"],
        ["norm", "--prime", str(p), f"1 + v (mod val >= +{top + 1})"],
        ["det", "--prime", str(p), json.dumps(doc)],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("ParseError") and f"cutoffs above {top} are not accepted" in err
        assert err.count("\n") == 1


def test_numeral_digit_cap(capsys):
    # 4,301 digits: past the 4,300 that Python's int(str) converts.
    over = "1" + "0" * 4300
    for argv in (
        ["norm", "--prime", "2", f"1 - 2*v^{over}"],
        ["norm", "--prime", "2", "1 - 2*v^1" + "0" * MAX_DIGITS],
        ["split", '{"m": ' + over + ', "entries": []}'],
        # a result that would print a numeral of about 10,000 digits
        ["invert", "--prime", "2", "--prec", "100", "1 - " + "6" * 100 + "*v"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("ParseError") and f"more than {MAX_DIGITS} digits" in err
        assert err.count("\n") == 1
    code, out, _ = run(capsys, "norm", "--prime", "2", "1 - 2*v^1" + "0" * (MAX_DIGITS - 1))
    assert (code, out) == (0, "0\n")


def test_filtered_calkin_wilf_walk_is_bounded(capsys):
    # Only the integers qualify at a large prime, and the integer n sits at
    # index 2^n - 1 of the walk.
    argv = ["enumerate", "--prime", "1000003", "--count", "20", "--order", "calkin-wilf", "--filter"]
    start = time.process_time()
    code, out, err = run(capsys, *argv)
    assert time.process_time() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("ParseError") and f"its first {MAX_CALKIN_WILF_TERMS} terms" in err


def test_calkin_wilf_cap_admits_every_unfiltered_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--count", str(MAX_COUNT), "--order", "calkin-wilf")
    assert code == 0 and out.count("\n") == MAX_COUNT


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


def _assert_exits_cleanly(argv):
    """Exit 0, 1 or 2 within 2 s of CPU; on failure no output and one error
    line (or argparse's usage message), never a traceback."""
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


@settings(max_examples=250, deadline=None)
@given(_mutated_argv(), st.sampled_from(GOLDEN_CLI))
def test_fuzzed_calls_exit_cleanly(argv, golden):
    _assert_exits_cleanly(argv)
    # The parser is shared between calls: the next call must not see this one.
    golden_argv, expected = golden
    assert _call(golden_argv)[:4] == (0, False, expected, "")


@pytest.mark.parametrize("command", ["norm", "degree"])
@pytest.mark.parametrize("text,cutoff", [("0 (mod val >= 3)", "3"), ("1 (mod val >= -3)", "-3")])
def test_series_known_only_modulo_its_cutoff_is_refused(capsys, command, text, cutoff):
    # No stored term lies below the cutoff, so neither the valuation nor the
    # dominant terms are known: a domain error (exit 1) that names the
    # cutoff, not the ZeroSeries of an exact zero.
    code, out, err = run(capsys, command, "--prime", "2", text)
    assert (code, out) == (1, "")
    assert err == f"ValueError: no term is known below val >= {cutoff}: the valuation is not determined\n"


def test_degree_and_norm_of_exact_zero_are_unchanged(capsys):
    assert run(capsys, "norm", "--prime", "2", "0") == (0, "inf\n", "")
    code, out, err = run(capsys, "degree", "--prime", "2", "0")
    assert (code, out, err) == (1, "", "ZeroSeries: the zero series has no dominant terms\n")


# ----------------------------------------------------------------------
# calls of every command on inputs drawn from the literal grammar

_WS = st.sampled_from(["", " ", "  "])
_SIGN = st.sampled_from(["+", "-"])


@st.composite
def _literal(draw, p, integral):
    """A series literal from the grammar in the ``literals`` docstring,
    whitespace between its tokens.  integral keeps to the Laurent form:
    integer exponents and no suffix.  Coefficients reach 10^6, exponent
    numerators 60 and exponent powers 12; a denominator may be 0 and an
    exponent base another number than p."""
    def ws(*tokens):
        return "".join(t + draw(_WS) for t in tokens)

    def exp():
        text = draw(st.sampled_from(["", "-", "+"])) + str(draw(st.integers(0, 60)))
        if integral or draw(st.booleans()):
            return text
        base = draw(st.sampled_from([p] * 8 + [0, 6]))
        return ws(text, "/", str(base), "^") + str(draw(st.integers(0, 12)))

    def term():
        coeff = str(draw(st.integers(0, 10**6)))
        if draw(st.integers(0, 3)) == 0:
            coeff = ws(coeff, "/") + str(draw(st.integers(0, 50)))
        mono = draw(st.sampled_from(["v", "s"]))
        shape = draw(st.sampled_from(["v", "v^e", "v^(e)"]))
        if shape == "v^e":
            mono = ws(mono, "^") + exp()
        elif shape == "v^(e)":
            mono = ws(mono, "^", "(", exp()) + ")"
        kind = draw(st.sampled_from(["coeff", "coeff*mono", "mono"]))
        return coeff if kind == "coeff" else mono if kind == "mono" else ws(coeff, "*") + mono

    text = draw(st.sampled_from(["", "-", "+"])) + draw(_WS) + term()
    for _ in range(draw(st.integers(0, 4))):
        text += draw(_WS) + draw(_SIGN) + draw(_WS) + term()
    if not integral and draw(st.booleans()):
        value = draw(st.sampled_from(["", "-", "+"])) + str(draw(st.integers(0, 20)))
        text += draw(_WS) + ws("(", "mod", "val", ">=", value) + ")"
    return text


@st.composite
def _doc(draw, p, m, integral):
    entries = [[draw(_literal(p, integral)) for _ in range(m)] for _ in range(m)]
    return {"p": p, "m": m, "entries": entries}


@st.composite
def _grammar_argv(draw):
    """A call of one of the 14 commands: a series literal for the series
    commands, 1x1 to 3x3 documents of them for the matrix commands, and the
    options of the others.  --prec stays at most 40, since invert near
    MAX_PREC is slow on units with several tail terms, a known limit."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 3))
    command = draw(st.sampled_from([
        "norm", "unit", "invert", "degree", "reduce", "det", "transition", "bundle-degree",
        "act", "rand-auto", "family", "enumerate", "split", "verify-split",
    ]))
    argv = [command, "--prime", str(p)] + draw(st.sampled_from([[], ["--format", "json"]]))
    if command in ("norm", "unit", "invert", "degree", "reduce"):
        argv.append(draw(_literal(p, False)))
        if command == "unit":
            argv += ["--ring", draw(st.sampled_from(["nonneg", "nonpos", "full"]))]
        if command == "invert":
            argv += ["--prec", str(draw(st.integers(-1, 40)))]
    elif command in ("det", "transition", "bundle-degree"):
        argv.append(json.dumps(draw(_doc(p, m, False))))
    elif command in ("act", "split", "verify-split"):
        integral = command != "act" and draw(st.booleans())
        docs = {k: draw(_doc(p, m, integral)) for k in ("V", "A", "U")}
        argv.append(json.dumps(docs["A"] if command == "split" else docs))
        if command != "act" and draw(st.booleans()):
            argv += ["--field", "rational"]
    elif command == "rand-auto":
        argv += ["--side", draw(st.sampled_from(["nonneg", "nonpos"])), "--seed", str(draw(st.integers(0, 99))),
                 "--rank", str(draw(st.integers(1, MAX_RANK))), "--shears", str(draw(st.integers(0, MAX_SHEARS)))]
    elif command == "family":
        argv += ["--max-pow", str(draw(st.integers(0, 13)))]
    else:
        argv += ["--count", str(draw(st.integers(1, MAX_COUNT)))]
        argv += draw(st.sampled_from([[], ["--order", "calkin-wilf"], ["--order", "calkin-wilf", "--filter"]]))
    return argv


@settings(max_examples=300, deadline=None)
@given(_grammar_argv())
def test_grammar_drawn_calls_exit_cleanly(argv):
    _assert_exits_cleanly(argv)


@settings(max_examples=200, deadline=None)
@given(_grammar_argv(), st.data())
def test_plain_reader_answers_shuffled_grammar_calls(argv, data):
    # The option/value pairs in any order and the input anywhere among them:
    # _parse_args gives the top-level parser's namespace without calling a
    # command parser.  A token led by "-" is plain only as an input holding
    # a space and no "="; the others are argparse's forms (DISPATCH_CORPUS).
    units, tokens = [], iter(argv[1:])
    for token in tokens:
        units.append((token, next(tokens)) if token.startswith("--") and token != "--filter" else (token,))
    values = [unit[-1] for unit in units if unit != ("--filter",)]
    assume(all(not v.startswith("-") or " " in v and "=" not in v for v in values))
    argv = [argv[0]] + [token for unit in data.draw(st.permutations(units)) for token in unit]
    expected = _parse_outcome(_parsers()[0].parse_args, argv)
    assert isinstance(expected[0], dict)
    (sub,) = [a for a in _parsers()[0]._actions if isinstance(a, argparse._SubParsersAction)]
    with contextlib.ExitStack() as stack:
        for sp in sub.choices.values():
            stack.enter_context(mock.patch.object(sp, "parse_known_args", side_effect=AssertionError(argv)))
        assert _parse_outcome(_parse_args, argv) == expected


def test_argv_the_plain_reader_declines_goes_to_parse_args_once():
    # The top-level parser's parse_args is the one route besides the plain
    # reader: it runs once, on the argv as given, exactly when the reader
    # declines (or argv[0] names no command).
    parser, tables = _parsers()
    declined = 0
    for argv in DISPATCH_CORPUS:
        plain = bool(argv) and argv[0] in tables and _read_plain(tables[argv[0]], argv) is not None
        with mock.patch.object(parser, "parse_args", wraps=parser.parse_args) as spy:
            _parse_outcome(_parse_args, argv)
        assert spy.call_args_list == ([] if plain else [mock.call(argv)]), argv
        declined += not plain
    assert 0 < declined < len(DISPATCH_CORPUS)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["split", "--prime", "4", '{"m": 1, "entries": [["s"]]}'], "4 is not a prime"),
        (["split", '{"p": 4, "m": 1, "entries": [["s"]]}'], "'p' must be a prime number"),
        (["verify-split", '{"A": {"p": 1, "m": 1, "entries": [["s"]]}, "U": {"m": 1, "entries": [["1"]]},'
          ' "V": {"m": 1, "entries": [["1"]]}}'], "'p' must be a prime number"),
    ],
)
def test_laurent_commands_refuse_a_non_prime(capsys, argv, message):
    # --prime is checked in main, a document's 'p' by the document reader.
    assert run(capsys, *argv) == (2, "", f"ParseError: {message}\n")


@pytest.mark.parametrize(
    "triple",
    [
        VERIFY_TRIPLE,
        VERIFY_TRIPLE.replace('"v^-1"', '"v"'),
        VERIFY_TRIPLE.replace('"p": 2, "m": 2, "entries": [["s", "1"]', '"p": 3, "m": 2, "entries": [["s", "1"]'),
    ],
    ids=["kept", "refused", "prime-mismatch"],
)
def test_verify_split_reads_a_given_as_a_string_like_an_object(capsys, triple):
    # verify-split decodes the A document once, for its field and its
    # matrix; A as a JSON string inside the triple reads as A as an object.
    obj = json.loads(triple)
    as_string = json.dumps(dict(obj, A=json.dumps(obj["A"])))
    assert run(capsys, "verify-split", as_string) == run(capsys, "verify-split", triple)
