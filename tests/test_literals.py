"""The text layer: series literal grammar, canonical printing, and the JSON
matrix documents."""

import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from projectivoid import literals
from projectivoid import (
    DivisionByZero,
    LMatrix,
    LaurentPoly,
    ParseError,
    PExp,
    PrimeField,
    PrimeMismatch,
    PSeries,
    RaggedMatrix,
    RationalField,
    SMatrix,
    WrongPrimeDenominator,
    ZERO,
    canon,
    doc_to_laurent_matrix,
    doc_to_matrix,
    format_exponent,
    format_laurent,
    format_residue,
    format_series,
    laurent_matrix_to_doc,
    matrix_to_doc,
    parse_laurent,
    parse_series,
)
from projectivoid.literals import MAX_DIGITS, MAX_M
from helpers import LITERAL_CORPUS, _Parser, mono, mutate, srs

Q = RationalField()
F2 = PrimeField(2)


def test_parse_basic_series():
    assert parse_series("1 + 2*v^(1/2^1)", 2) == srs(2, [(0, 0, 1), (1, 1, 2)])
    assert parse_series("0", 2) == PSeries.zero(2)
    assert parse_series("v", 3) == mono(3, 1)
    assert parse_series("-3/8", 2) == srs(2, [(0, 0, Fraction(-3, 8))])


def test_parse_is_whitespace_insensitive():
    a = parse_series("1+2*v^(1/2^1)", 2)
    b = parse_series(" 1 + 2 * v ^ ( 1 / 2 ^ 1 ) ", 2)
    assert a == b


def test_parse_accepts_s_alias():
    assert parse_series("s^2 + 1", 2) == parse_series("v^2 + 1", 2)


def test_parse_unparenthesized_fractional_exponent():
    assert parse_series("v^1/2^1", 2) == mono(2, 1, 1)
    assert parse_series("v^-3/2^2", 2) == mono(2, -3, 2)


def test_parse_precision_suffix():
    f = parse_series("1 (mod val >= 3)", 2)
    assert f == PSeries(2, {ZERO: 1}, 3)
    assert parse_series("0 (mod val >= 2)", 2) == PSeries(2, {}, 2)


def test_parse_rejects_wrong_prime_denominator():
    with pytest.raises(WrongPrimeDenominator) as err:
        parse_series("v^(3/3^1)", 2)
    assert "position" in str(err.value)
    with pytest.raises(WrongPrimeDenominator):
        parse_series("v^(1/4^1)", 2)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1 +",
        "1 + + 2",
        "v^",
        "v^(1/2^1",
        "1/0",
        "v^1/2",
        "2v",
        "v 2",
        "w",
        "1 # 2",
        "(mod val >= 2)",
        "1 (mod val >= )",
        "1 (mod val 2)",
        "1 extra",
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        parse_series(text, 2)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_series("1 + w", 2)
    assert "(at position 4)" in str(err.value)


def test_print_orders_terms_ascending():
    f = parse_series("v + 1", 2)
    assert format_series(f) == "1 + v"
    g = parse_series("v^2 - v^-1 + 3", 2)
    assert format_series(g) == "-1*v^-1 + 3 + v^2"


def test_print_leading_negative_styles():
    assert format_series(parse_series("-v", 2)) == "-1*v"
    assert format_series(parse_series("-2*v", 2)) == "-2*v"
    assert format_series(parse_series("-1", 2)) == "-1"
    assert format_series(parse_series("2 - v", 2)) == "2 - v"


def test_print_examples():
    assert format_series(srs(2, [(0, 0, 1), (1, 1, 2), (-3, 2, -1)])) == (
        "-1*v^(-3/2^2) + 1 + 2*v^(1/2^1)"
    )
    assert format_series(PSeries.zero(2)) == "0"
    assert format_series(PSeries(2, {}, 2)) == "0 (mod val >= 2)"
    assert format_series(srs(2, [(0, 0, 1)], 4)) == "1 (mod val >= 4)"


def test_round_trip_corpus():
    for text in LITERAL_CORPUS:
        f = parse_series(text, 2)
        printed = format_series(f)
        again = parse_series(printed, 2)
        assert again == f, text
        assert format_series(again) == printed, text


def test_format_exponent():
    assert format_exponent(ZERO, 2) == "0"
    assert format_exponent(PExp(-3, 0), 2) == "-3"
    assert format_exponent(PExp(3, 2), 2) == "3/2^2"


def test_format_residue():
    f = srs(2, [(0, 0, 3), (1, 1, 1), (1, 0, 2)])
    assert format_residue(f.reduce()) == "1 + v^(1/2^1)"
    assert format_residue(srs(2, [(1, 0, 2)]).reduce()) == "0"


# ----------------------------------------------------------------------
# Laurent literals


def test_parse_laurent():
    f = parse_laurent("s^2 - s^-1 + 1", Q)
    assert f == LaurentPoly(Q, {2: 1, -1: -1, 0: 1})
    assert parse_laurent("0", F2).is_zero()


def test_parse_laurent_reduces_a_coefficient_before_the_field_check():
    F3 = PrimeField(3)
    assert parse_laurent("3/3*s", F3) == LaurentPoly.monomial(F3, 1)
    for text, message in (("6/9*s", "denominator of 2/3 vanishes mod 3"),
                          ("1/3*s", "denominator of 1/3 vanishes mod 3")):
        with pytest.raises(DivisionByZero) as info:
            parse_laurent(text, F3)
        assert str(info.value) == message


def test_parse_series_merges_coefficients_not_in_lowest_terms():
    assert parse_series("4/6*v + 1/3*v", 3) == mono(3, 1)


@st.composite
def _fraction_terms(draw):
    """(p, terms, precision): signed Fraction coefficients over denominators
    1, 7, 11, p and p^2, not in lowest terms, on a few exponents that
    repeat."""
    p = draw(st.sampled_from([2, 3, 5]))
    exps = st.tuples(st.integers(-6, 6), st.integers(0, 2))
    pool = draw(st.lists(exps, min_size=1, max_size=3))
    terms = draw(st.lists(st.tuples(
        st.integers(-30, 30), st.sampled_from([1, 7, 11, p, p * p]), st.sampled_from(pool)),
        min_size=1, max_size=8))
    return p, terms, draw(st.one_of(st.none(), st.integers(-2, 5)))


@settings(max_examples=200, deadline=None)
@given(_fraction_terms())
def test_parse_series_agrees_with_the_constructor_on_fractions(case):
    p, terms, precision = case
    text = ""
    for a, d, (n, b) in terms:
        text += ("-" if a < 0 else "+" if text else "") + f"{abs(a)}/{d}*v^({n}/{p}^{b})"
    if precision is not None:
        text += f" (mod val >= {precision})"
    want = PSeries(p, [(canon(n, b, p), Fraction(a, d)) for a, d, (n, b) in terms], precision)
    assert parse_series(text, p) == want


def test_parse_laurent_rejects_fractional_exponents_and_precision():
    with pytest.raises(ParseError):
        parse_laurent("v^(1/2^1)", Q)
    with pytest.raises(ParseError):
        parse_laurent("1 (mod val >= 2)", Q)


def test_format_laurent():
    assert format_laurent(LaurentPoly(Q, {2: 1, 0: -1})) == "-1 + v^2"
    assert format_laurent(LaurentPoly(F2, {-1: 1, 1: 1})) == "v^-1 + v"
    assert format_laurent(LaurentPoly(Q, {})) == "0"
    f = parse_laurent(format_laurent(LaurentPoly(Q, {-2: Fraction(1, 2)})), Q)
    assert f == LaurentPoly(Q, {-2: Fraction(1, 2)})


# ----------------------------------------------------------------------
# matrix documents


def test_matrix_doc_round_trip():
    M = SMatrix(
        2,
        [
            [srs(2, [(0, 0, 1), (1, 1, 2)]), PSeries.zero(2)],
            [mono(2, -1), srs(2, [(0, 0, 1)], 3)],
        ],
    )
    doc = matrix_to_doc(M)
    assert doc["p"] == 2 and doc["m"] == 2
    assert doc_to_matrix(doc) == M


def test_matrix_doc_accepts_json_text():
    M = doc_to_matrix('{"p": 2, "m": 1, "entries": [["1 + v"]]}')
    assert M.rows[0][0] == srs(2, [(0, 0, 1), (1, 0, 1)])


def test_matrix_doc_prime_agreement():
    doc = '{"p": 2, "m": 1, "entries": [["v"]]}'
    assert doc_to_matrix(doc, 2).prime == 2
    with pytest.raises(PrimeMismatch):
        doc_to_matrix(doc, 3)


@pytest.mark.parametrize(
    "doc",
    [
        "[1, 2]",
        '{"p": 4, "m": 1, "entries": [["1"]]}',
        '{"m": 1, "entries": [["1"]]}',
        '{"p": 2, "entries": [["1"]]}',
        '{"p": 2, "m": 0, "entries": []}',
        '{"p": 2, "m": 2, "entries": [["1", "0"]]}',
        '{"p": 2, "m": 1, "entries": [[7]]}',
        '{"p": 2, "m": 1, "entries": [["1"]',
    ],
)
def test_matrix_doc_rejects_malformed(doc):
    with pytest.raises(ParseError):
        doc_to_matrix(doc)


def test_matrix_docs_refuse_more_rows_than_the_cap():
    # The cap is checked before the grid, so even a document with no entries
    # names it.
    for read in (doc_to_matrix, lambda doc: doc_to_laurent_matrix(doc, Q)):
        for entries in ([["1"] * (MAX_M + 1)] * (MAX_M + 1), []):
            with pytest.raises(ParseError, match=f"larger than {MAX_M} x {MAX_M}"):
                read({"p": 2, "m": MAX_M + 1, "entries": entries})


def test_matrix_doc_ragged_is_specific():
    with pytest.raises(RaggedMatrix):
        doc_to_matrix('{"p": 2, "m": 2, "entries": [["1", "0"], ["1"]]}')


def test_laurent_doc_round_trip():
    M = LMatrix(F2, [[LaurentPoly(F2, {1: 1}), LaurentPoly(F2, {0: 1})],
                     [LaurentPoly(F2, {}), LaurentPoly(F2, {-1: 1})]])
    doc = laurent_matrix_to_doc(M)
    assert doc["p"] == 2
    assert doc_to_laurent_matrix(doc, F2) == M


def test_laurent_doc_rational_field_has_no_prime():
    M = LMatrix(Q, [[LaurentPoly(Q, {0: Fraction(1, 2)})]])
    doc = laurent_matrix_to_doc(M)
    assert "p" not in doc
    assert doc_to_laurent_matrix(doc, Q) == M


def test_laurent_doc_prime_mismatch():
    doc = {"p": 3, "m": 1, "entries": [["v"]]}
    with pytest.raises(PrimeMismatch):
        doc_to_laurent_matrix(doc, F2)


# ----------------------------------------------------------------------
# the reader against the recursive-descent oracle in helpers


def _outcome(parse, text, arg):
    try:
        return "ok", parse(text, arg)
    except Exception as exc:
        return "error", type(exc), str(exc)


def _both_paths(parse, text, arg):
    fast = _outcome(parse, text, arg)
    with mock.patch.object(literals, "_read", lambda text, prime: _Parser(text, prime).parse()):
        slow = _outcome(parse, text, arg)
    return fast, slow


_THREE = "\u0663"  # ARABIC-INDIC DIGIT THREE
_SPACE = st.sampled_from(["", "", "", " ", "  ", "\t"])
_MUTATION_CHARS = "0123456789+-*/^() \tvsmodal>=w#.\u0663"


@st.composite
def _exponent_text(draw, prime):
    sp = lambda: draw(_SPACE)
    num = draw(st.sampled_from(["", "-", "-", "-", "- ", "+"])) + str(draw(st.integers(0, 40)))
    if draw(st.booleans()):
        base = prime if draw(st.integers(0, 5)) else draw(st.sampled_from([2, 3, 4, 5, 7]))
        num += sp() + "/" + sp() + str(base) + sp() + "^" + sp() + str(draw(st.integers(0, 5)))
        parens = draw(st.integers(0, 4)) > 0
    else:
        parens = draw(st.booleans())
    return "(" + sp() + num + sp() + ")" if parens else num


@st.composite
def _literal_text(draw, prime):
    """A literal from the grammar, with rarer forms (v^+3, a space after an
    exponent sign) and some that the reader rejects (zero denominators,
    wrong bases, fractional Laurent exponents)."""
    sp = lambda: draw(_SPACE)
    out = []
    for i in range(draw(st.integers(1, 5))):
        out.append(sp() + draw(st.sampled_from(["", "-", "+"] if i == 0 else ["+", "-"])) + sp())
        coeff = str(draw(st.integers(0, 60)))
        if draw(st.integers(0, 3)) == 0:
            coeff += sp() + "/" + sp() + str(draw(st.integers(0, 12)))
        mono = draw(st.sampled_from("vs"))
        if draw(st.integers(0, 3)):
            mono += sp() + "^" + sp() + draw(_exponent_text(prime))
        shape = draw(st.sampled_from(["coeff", "mono", "both", "one"]))
        out.append(
            {"coeff": coeff, "mono": mono, "both": coeff + sp() + "*" + sp() + mono,
             "one": "1" + sp() + "*" + sp() + mono}[shape]
        )
    if draw(st.integers(0, 3)) == 0:
        value = draw(st.sampled_from(["", "-"])) + str(draw(st.integers(0, 9)))
        out.append(f"{sp()} ({sp()}mod val{sp()} >={sp()}{value}{sp()}){sp()}")
    text = "".join(out)
    if draw(st.integers(0, 2)) == 0:
        # Half of the mutations hit an operator, where a scanner that skipped
        # a check would go wrong.
        ops = [i for i, c in enumerate(text) if c in "+-*/^()"]
        i = draw(st.sampled_from(ops) if ops and draw(st.booleans()) else st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        text = mutate(text, i, op, draw(st.sampled_from(_MUTATION_CHARS)))
    return text


@settings(max_examples=250, deadline=None)
@given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(st.just(p), _literal_text(p))))
def test_parse_series_scanner_matches_descent_parser(case):
    p, text = case
    fast, slow = _both_paths(parse_series, text, p)
    assert fast == slow, text


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([F2, Q]), _literal_text(2))
def test_parse_laurent_scanner_matches_descent_parser(field, text):
    fast, slow = _both_paths(parse_laurent, text, field)
    assert fast == slow, text


@pytest.mark.parametrize(
    "text,same_as", [("v^+3", "v^3"), ("v^(- 3)", "v^-3"), ("v^2 (mod val >= +1)", "v^2 (mod val >= 1)")]
)
def test_signed_exponent_and_precision_forms(text, same_as):
    assert parse_series(text, 2) == parse_series(same_as, 2)


def test_oversized_integer_fails_as_in_the_descent_parser():
    big = "7" * (MAX_DIGITS + 1)
    for text in (
        f"1 + {big}*v",
        f"1/{big} + v",
        f"1 + v^{big}",
        f"1 + v^(-{big})",
        f"1 + v^({big}/2^1)",
        f"1 + v^(1/{big}^1)",
        f"1 + v^(1/2^{big})",
        f"1 + v (mod val >= {big})",
        f"1 + {big}*v # 2",
        # Any decimal digit counts, as in the oracle's tokenizer: an
        # Arabic-Indic three past the cap, and past Python's own int limit.
        f"1 + {_THREE * (MAX_DIGITS + 1)}*v",
        f"1 + {_THREE * 4301}*v",
    ):
        fast, slow = _both_paths(parse_series, text, 2)
        assert fast == slow and fast[1] is ParseError, text
        assert f"more than {MAX_DIGITS} digits" in fast[2]
    fast, slow = _both_paths(parse_laurent, f"1 + {big}*s^-1", Q)
    assert fast == slow and fast[1] is ParseError
    # A numeral at the cap is read, by both paths alike.
    fast, slow = _both_paths(parse_series, "1 + " + "7" * MAX_DIGITS + "*v^-3", 2)
    assert fast == slow and fast[0] == "ok"
    fast, slow = _both_paths(parse_series, f"v^{_THREE}", 2)
    assert fast == slow == ("ok", parse_series("v^3", 2))


@pytest.mark.parametrize(
    "text,prime,error",
    [
        # A lexical fault anywhere wins over an earlier syntax error ...
        ("1 + + 2 #", 2, (ParseError, "unexpected character '#' (at position 8)")),
        # ... and a wrong base, found once the exponent is read, over the
        # missing ')' after it.
        ("v^(1/3^1", 2, (WrongPrimeDenominator,
                         "denominator base 3 is not the session prime 2 (at position 5)")),
    ],
)
def test_error_precedence(text, prime, error):
    fast, slow = _both_paths(parse_series, text, prime)
    assert fast == slow == ("error", *error)


# ----------------------------------------------------------------------
# the printed-form reader against the regular-expression loop


def _regex_read(text, prime):
    """``_read`` with the printed-form step switched off."""
    with mock.patch.object(literals, "_read_printed", lambda text, prime: None):
        return literals._read(text, prime)


@st.composite
def _printed(draw):
    """(text, prime): what a printer writes for an exact or truncated series
    at p = 2, 3 or 5, a residue polynomial, or a Laurent polynomial over
    GF(2) or Q (read with prime None)."""
    kind = draw(st.sampled_from(["series", "residue", "laurent"]))
    p = draw(st.sampled_from([2, 3, 5]))
    exps = st.builds(lambda n, b: canon(n, b, p), st.integers(-40, 40), st.integers(0, 3))
    if kind == "laurent":
        field = draw(st.sampled_from([F2, Q]))
        coeffs = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 1, 3, 7]))
        if field is F2:
            coeffs = st.integers(-30, 30)
        terms = draw(st.dictionaries(st.integers(-12, 12), coeffs, max_size=8))
        return format_laurent(LaurentPoly(field, terms)), None
    if kind == "residue":
        terms = draw(st.lists(st.tuples(exps, st.integers(-9, 9)), max_size=8))
        return format_residue(PSeries(p, terms).reduce()), p
    coeffs = st.builds(lambda a, d, k: Fraction(a, d) * Fraction(p) ** k,
                       st.integers(-30, 30), st.sampled_from([1, 1, 7, 11]), st.integers(-2, 3))
    terms = draw(st.lists(st.tuples(exps, coeffs), max_size=8))
    return format_series(PSeries(p, terms, draw(st.none() | st.integers(-3, 6)))), p


@settings(max_examples=300, deadline=None)
@given(_printed())
def test_printed_form_reader_agrees_with_the_regex_loop(case):
    text, prime = case
    got = literals._read_printed(text, prime)
    assert got is not None, text
    assert got == _regex_read(text, prime), text


@pytest.mark.parametrize(
    "text",
    [
        "1  + 2*v^(1/2^1)",  # a double space
        "1 +\t2*v",  # a tab
        "1 + v ",  # a trailing space
        "+1 + v",  # a leading '+'
        "- 1 + v",
        "v^+3",
        "v^3/2^1",  # a fractional exponent without parentheses
        "2v",
        "1/0",
        "1 + v^(1/3^1)",  # a wrong base
        f"1 + {_THREE}*v",  # the Arabic-Indic digit
        "1 + v (mod val >=  3)",  # a suffix with extra spaces
        "1 + v  (mod val >= 3)",
        "1 + v (mod val >= 3 )",
        "1 + v (mod val >= 12",  # no ')'
    ],
)
def test_printed_form_deviations_go_through_the_grammar(text):
    # Each text leaves the printed form, so the regular-expression loop reads
    # it: value, or error class, message and position, as the oracle gives.
    assert literals._read_printed(text, 2) is None
    fast, slow = _both_paths(parse_series, text, 2)
    assert fast == slow, text


def test_printed_literal_makes_no_term_regex_match():
    f = PSeries(2, {canon(n, 3, 2): (-1) ** n * (abs(n) + 1) for n in range(-100, 100)}, 40)
    text = format_series(f)
    calls = []

    class Counting:
        def match(self, *args):
            calls.append(args)
            return term_re.match(*args)

    term_re = literals._TERM_RE
    with mock.patch.object(literals, "_TERM_RE", Counting()):
        assert parse_series(text, 2) == f
        assert not calls
        # A text off the printed form still runs the term loop.
        assert parse_series(text.replace(" + ", "  + ", 1), 2) == f
    assert len(calls) == 201


def _printed_spacing(text):
    """text with its whitespace where the printer puts it: one space on each
    side of a sign between terms and between the words of the suffix."""
    text = re.sub(r"(?<=[0-9vs)])([-+])", r" \1 ", re.sub(r"\s+", "", text))
    return text.replace("(mod", " (mod ").replace("val>=", "val >= ")


@st.composite
def _near_printed(draw):
    """(text, prime): grammar text with mutations at p = 2, 3 or 5 or in
    Laurent mode (prime None), as drawn or respaced as the printer spaces,
    or printer output with one mutation, read at its own prime or another."""
    source = draw(st.sampled_from(["grammar", "respaced", "printed"]))
    if source != "printed":
        prime = draw(st.sampled_from([2, 3, 5, None]))
        text = draw(_literal_text(prime or 2))
        return (_printed_spacing(text) if source == "respaced" else text), prime
    text, prime = draw(_printed())
    i = draw(st.integers(0, len(text)))
    op = draw(st.sampled_from(["insert", "delete", "replace"]))
    text = mutate(text, i, op, draw(st.sampled_from(_MUTATION_CHARS)))
    return text, draw(st.sampled_from([prime, prime, 2, 3, 5, None]))


@settings(max_examples=400, deadline=None)
@given(_near_printed())
@example(("2* + v", 2))
@example(("1 + 2*", 3))
@example(("v^(1/2^1)", None))
def test_printed_form_reader_is_sound_off_the_printed_form(case):
    # Wherever the printed-form step answers, the grammar loop reads the same
    # terms and precision, and raises nothing.
    text, prime = case
    got = literals._read_printed(text, prime)
    if got is not None:
        assert got == _regex_read(text, prime), text


@pytest.mark.parametrize("p", [2, 3, 1000003])
def test_printed_precision_cutoffs_read_back(p):
    # The printer and the parser share the cap on a precision cutoff: at the
    # cap the literal round-trips, one past it neither side accepts.
    top = literals.MAX_PREC_BITS // (p - 1).bit_length()
    f = PSeries(p, {ZERO: 1}, top)
    assert parse_series(format_series(f), p) == f
    past = PSeries(p, {ZERO: 1}, top) * PSeries(p, {ZERO: p})
    assert past.precision.v == top + 1
    refused = f"precision cutoffs above {top} are not accepted at p = {p}"
    with pytest.raises(ParseError, match=refused):
        format_series(past)
    with pytest.raises(ParseError, match=refused):
        parse_series(f"1 (mod val >= {top + 1})", p)


def test_printers_refuse_numerals_past_the_cap():
    # What a printer writes, the parser reads back: a numeral at the cap is
    # printed, one digit more is a ParseError naming the cap.
    at, past = 10**MAX_DIGITS - 1, 10**MAX_DIGITS
    for c in (at, -at, Fraction(1, at)):
        f = PSeries(3, {PExp(1, 0): 1, PExp(2, 0): c})
        assert parse_series(format_series(f), 3) == f
    assert format_exponent(PExp(-at, 0), 2) == str(-at)
    assert parse_laurent(format_laurent(LaurentPoly(Q, {at: at})), Q) == LaurentPoly(Q, {at: at})
    for text in (
        lambda: format_series(PSeries(3, {PExp(1, 0): 1, PExp(2, 0): -past})),
        lambda: format_series(PSeries(3, {ZERO: Fraction(1, past)})),
        lambda: format_series(PSeries(3, {PExp(past, 1): 1})),
        lambda: format_exponent(PExp(past, 0), 2),
        lambda: format_laurent(LaurentPoly(Q, {-past: 1})),
    ):
        with pytest.raises(ParseError, match=f"more than {MAX_DIGITS} digits"):
            text()
