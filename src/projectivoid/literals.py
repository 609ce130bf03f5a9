"""Text formats: series literals and JSON matrix documents.

The literal grammar, with insignificant whitespace:

    series := [sign] term (sign term)* [suffix]
    term   := coeff | coeff '*' mono | mono
    mono   := 'v' | 'v' '^' exp | 'v' '^' '(' exp ')'
    exp    := [sign] int | [sign] int '/' int '^' int
    coeff  := int | int '/' int
    suffix := '(' 'mod' 'val' '>=' [sign] int ')'
    sign   := '+' | '-'

Fractional exponents must spell their denominator as prime**power and the
base must equal the session prime.  Printed output lists terms by ascending
exponent, keeps coefficients in lowest terms, and appends the suffix
"(mod val >= V)" exactly when the series is inexact.  The classical Laurent
side uses the same grammar restricted to integer exponents and without the
suffix.  's' is accepted as an alias for 'v' on input.

One reader, ``_read``, takes every literal apart, in two steps.  First,
``_read_printed`` reads the form the printer writes, so every literal that
one command's output hands to another: ASCII, one space on each side of a
sign between terms, no '+' before an exponent or a value, and a fractional
exponent only inside parentheses.  It matches one strict pattern per term
and one for the suffix, and gives up (None) at the first character off that
form.  Only then does the second step run: one regular expression match per
term, then one for the suffix.  That step defines the grammar.  Each piece
of a match is optional and tried once, so the match stops where the text
leaves the grammar, and ``_read`` raises a ``ParseError`` that names the
first missing piece at the token where it should stand; every error comes
from this step.  A lexical fault (a character that starts no token, an
unknown word, or a numeral past MAX_DIGITS) wins over any other fault,
wherever it stands in the text.  Each term comes out as integers, the
coefficient's numerator and denominator as written and the exponent's
numerator and power of p, and ``series._kernel`` merges them into the
kernel of the series with no Fraction built.  The tests compare the reader
with a tokenizer and a recursive-descent parser over the same grammar, kept
in ``tests/helpers.py`` as the oracle: value, error class, message and
position all agree, and the first step agrees with the second wherever it
reads a text.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

from .classical import LaurentPoly, LMatrix
from .coefficients import Valuation, _strip
from .errors import ParseError, PrimeMismatch, RaggedMatrix, WrongPrimeDenominator
from .exponents import PExp, is_prime
from .fields import PrimeField
from .matrices import SMatrix
from .series import PSeries, ResiduePoly, _kernel, _series

# Cap on the digits of one numeral in a literal or a JSON document, well
# under the 4,300 digits past which Python refuses to convert a string to an
# int.  It admits what the printer writes for series at the exponent cap
# (MAX_EXP_BITS): at most 1,235 digits for a mixed-scale inverse at p = 2.
MAX_DIGITS = 2000
_LONG_NUMERAL_RE = re.compile(r"(?<!\d)\d{%d}" % (MAX_DIGITS + 1))
_LONG_NUMERAL = f"numerals of more than {MAX_DIGITS} digits are not accepted"

# The longest run of whole tokens, then the lexical fault that ends it, if
# any: a numeral past MAX_DIGITS (1), an unknown word (2) or a character
# that starts no token (3).
_LEXICAL_RE = re.compile(
    r"(?:\s|\d{1,%d}(?!\d)|(?:[vs]|mod|val)(?![A-Za-z])|>=|[-+*/^()])*"
    r"(?:(\d)|([A-Za-z]+)|(.))?" % MAX_DIGITS,
    re.S,
)
_SPACE_RE = re.compile(r"\s*")

# One term.  Every piece is optional and tried once, inside the piece it
# follows in the grammar: sign (1), numerator (2), '/' (3) and denominator
# (4) of the coefficient, '*' (5), variable (6), '^' (7), '(' (8), sign (9)
# and numerator (10) of the exponent, its '/' (11), base (12), '^' (13) and
# power (14), and ')' (15) after '('.  _read names the first piece that the
# grammar needs and the match lacks.
_TERM_RE = re.compile(
    r"\s*([+-])?\s*(?:(\d+)\s*(?:(/)\s*(?:(\d+)\s*)?)?)?(?:(\*)\s*)?"
    r"(?:([vs])(?![A-Za-z])\s*(?:(\^)\s*(?:(\()\s*)?(?:([+-])\s*)?"
    r"(?:(\d+)\s*(?:(/)\s*(?:(\d+)\s*(?:(\^)\s*(?:(\d+)\s*)?)?)?)?)?"
    r"(?(8)(?:(\))\s*)?))?)?"
)
# The precision suffix in the same scheme: '(' (1), 'mod' (2), 'val' (3),
# '>=' (4), sign (5), value (6) and ')' (7).
_SUFFIX_RE = re.compile(
    r"\s*(?:(\()\s*(?:(mod)(?![A-Za-z])\s*(?:(val)(?![A-Za-z])\s*(?:(>=)\s*"
    r"(?:([+-])\s*)?(?:(\d+)\s*(?:(\))\s*)?)?)?)?)?)?"
)
_SUFFIX_PIECES = ((2, "'mod'"), (3, "'val'"), (4, "'>='"), (6, "a precision value"), (7, "')'"))


def _fail(text: str, message: str, position: int, cls=ParseError):
    """Raise cls(message, position), unless text has a lexical fault: the
    first of those wins wherever it stands, as if the whole text were split
    into tokens before it is parsed."""
    m = _LEXICAL_RE.match(text)
    if m.group(1):
        raise ParseError(_LONG_NUMERAL, m.start(1))
    if m.group(2):
        raise ParseError(f"unexpected symbol {m.group(2)!r}", m.start(2))
    if m.group(3):
        raise ParseError(f"unexpected character {m.group(3)!r}", m.start(3))
    raise cls(message, position)


def _expected(text: str, m, group: int, what: str):
    """Fail with 'expected <what>' at the token after the last piece before
    ``group`` that the match holds."""
    end = max(m.start(), *map(m.end, range(1, group)))
    _fail(text, f"expected {what}", _SPACE_RE.match(text, end).end())


# One term of the printed form: its sign (1), '-' or nothing at the start of
# the text ('^' matches there only, also under match(text, pos)) and ' + ' or
# ' - ' before every later term, the coefficient's numerator (2) and
# denominator (3), the variable (4), and its exponent: an integer (5), or in
# parentheses a numerator (6) and a denominator's base (7) and power (8).
_PRINTED_TERM_RE = re.compile(
    r"(^-?| [-+] )(?:([0-9]+)(?:/([0-9]+))?(?:\*(?=[vs])|(?![vs])))?"
    r"(?:([vs])(?:\^(?:(-?[0-9]+)|\((-?[0-9]+)(?:/([0-9]+)\^([0-9]+))?\)))?)?"
)
# The printed precision suffix, if any, with its value (1).
_PRINTED_SUFFIX_RE = re.compile(r"(?: \(mod val >= (-?[0-9]+)\))?")


def _read_printed(text: str, prime: int | None):
    """``_read`` of a literal in the printer's own form, or None at the
    first deviation from it; never raises.  The form is ASCII, terms joined
    by ' + ' / ' - ' with an optional '-' before the first, each term a,
    a/d, a*mono, a/d*mono or mono, with mono v (or s), v^n, v^(n) or
    v^(n/p^k), then an optional ' (mod val >= V)'.  A pattern match reads
    each term, and one more the suffix; checked here are what the patterns
    leave out: a term is not empty (so each match moves on), a denominator
    is not zero, and a fractional exponent's base is the prime (never in
    Laurent mode).  The form lies inside the grammar, so wherever this
    returns terms the grammar's patterns read the same ones.  ``_read`` has
    refused numerals past MAX_DIGITS before it calls this."""
    terms = []
    pos = 0
    while m := _PRINTED_TERM_RE.match(text, pos):
        sign, a, d, var, e, pe, base, k = m.groups()
        d = 1 if d is None else int(d)
        if a is None and var is None or not d:
            return None
        if base is not None and (prime is None or int(base) != prime):
            return None
        a = 1 if a is None else int(a)
        e = e or pe
        num = 0 if var is None else 1 if e is None else int(e)
        terms.append((-a if "-" in sign else a, d, num, 0 if k is None else int(k)))
        pos = m.end()
    m = _PRINTED_SUFFIX_RE.fullmatch(text, pos)
    if m is None:
        return None
    return terms, None if m[1] is None else int(m[1])


def _read(text: str, prime: int | None):
    """The terms and the precision value (or None) of a literal.  Each term
    is (a, d, num, pw), all integers: the coefficient a / d as written, with
    the sign on a and d > 0 (not brought to lowest terms), the exponent
    numerator and the power of p in the exponent denominator.  prime None
    restricts the exponents to integers (the classical Laurent mode)."""
    if len(text) > MAX_DIGITS and (long := _LONG_NUMERAL_RE.search(text)):
        _fail(text, _LONG_NUMERAL, long.start())
    printed = _read_printed(text, prime)
    if printed is not None:
        return printed
    terms = []
    pos = 0
    while True:
        m = _TERM_RE.match(text, pos)
        (sign, n, slash, d, star, var, caret, paren,
         esign, e, eslash, base, ecaret, k, close) = m.groups()
        if terms and sign is None:
            break
        if n is None and (var is None or star):
            _expected(text, m, 2, "a coefficient or a monomial")
        a, den = (1 if n is None else int(n)), 1
        if slash:
            if d is None:
                _expected(text, m, 4, "a denominator")
            den = int(d)
            if not den:
                _fail(text, "zero denominator", m.start(4))
        if star and var is None:
            _expected(text, m, 6, "a variable")
        if n is not None and var is not None and star is None:
            _fail(text, "unexpected trailing input", m.start(6))
        num, pw = (0 if var is None else 1), 0
        if caret:
            if e is None:
                _expected(text, m, 10, "an exponent numerator")
            num = -int(e) if esign == "-" else int(e)
            if eslash:
                if prime is None:
                    _fail(text, "integer exponent expected", m.start(11))
                if base is None:
                    _expected(text, m, 12, "a denominator base")
                if ecaret is None:
                    _expected(text, m, 13, "'^' in the exponent denominator")
                if k is None:
                    _expected(text, m, 14, "a denominator power")
                if int(base) != prime:
                    msg = f"denominator base {base} is not the session prime {prime}"
                    _fail(text, msg, m.start(12), WrongPrimeDenominator)
                pw = int(k)
            if paren and close is None:
                _expected(text, m, 15, "')'")
        terms.append((-a if sign == "-" else a, den, num, pw))
        pos = m.end()
    m = _SUFFIX_RE.match(text, pos)
    precision = None
    if m.group(1):
        for group, what in _SUFFIX_PIECES:
            if m.group(group) is None:
                _expected(text, m, group, what)
        precision = -int(m.group(6)) if m.group(5) == "-" else int(m.group(6))
    if m.end() < len(text):
        _fail(text, "unexpected trailing input", m.end())
    return terms, precision


# ----------------------------------------------------------------------
# parsing entry points


# Cap on the exponent denominators p^k of a series literal, in bits counted
# as k * ceil(log2 p): the work grows with the bits, not with k alone, and a
# result that mixes scales prints numerators of about that many bits.
MAX_EXP_BITS = 2**12

# Cap on the cutoff V of a precision suffix, in bits counted the same way:
# truncation tests numerators against p^V, which has about that many bits.
MAX_PREC_BITS = 2**21


def _cutoff(v: int, prime: int) -> int:
    """The cutoff v of a precision suffix, refused past MAX_PREC_BITS: the
    parser reads, and the printer writes, no cutoff above the cap."""
    top = MAX_PREC_BITS // (prime - 1).bit_length()
    if v > top:
        raise ParseError(f"precision cutoffs above {top} are not accepted at p = {prime}")
    return v


def parse_series(text: str, prime: int) -> PSeries:
    if not is_prime(prime):
        raise ParseError(f"{prime} is not a prime")
    terms, precision = _read(text, prime)
    top = MAX_EXP_BITS // (prime - 1).bit_length()
    K = max(pw for _, _, _, pw in terms)
    if K > top:
        raise ParseError(f"exponent denominators above {prime}^{top} are not accepted")
    if precision is not None:
        precision = Valuation(_cutoff(precision, prime))
    return _series(prime, K, *_kernel(prime, K, terms), precision)


def parse_laurent(text: str, field) -> LaurentPoly:
    terms, precision = _read(text, None)
    if precision is not None:
        raise ParseError("precision tags are not allowed on Laurent polynomials")
    # a / d in lowest terms, so that GF(p) refuses only a denominator that
    # vanishes mod p once reduced: "3/3*s" is s over GF(3).
    return LaurentPoly(field, [(num, a if d == 1 else Fraction(a, d)) for a, d, num, _ in terms])


# ----------------------------------------------------------------------
# printing


# Past MAX_DIGITS digits a numeral is refused, not printed: the parser would
# not read it back, and past 4,300 digits str(int) raises ValueError.
_NUMERAL_LIMIT = 10**MAX_DIGITS
_LONG_RESULT = f"the result has a numeral of more than {MAX_DIGITS} digits, which is not printed"


def _numeral(n: int) -> str:
    if -_NUMERAL_LIMIT < n < _NUMERAL_LIMIT:
        return str(n)
    raise ParseError(_LONG_RESULT)


def format_exponent(e: PExp, prime: int) -> str:
    if e.pow == 0:
        return _numeral(e.num)
    return f"{_numeral(e.num)}/{prime}^{e.pow}"


def _format_terms(items, K: int = 0, D: int = 1, prime: int | None = None) -> str:
    """The literal of the kernel terms (a / D) * v^(n / p^K), for the (n, a)
    pairs given by ascending n: a series or a residue polynomial over the
    prime, or a Laurent polynomial when prime is None (then K is 0).  Each
    exponent and coefficient is brought to lowest terms here; every series,
    residue and Laurent printer goes through here."""
    pieces = []
    for n, a in items:
        pw = K
        if pw and not n % prime:
            n, j = _strip(n, prime, pw)
            pw -= j
        if pw:
            mono = f"v^({_numeral(n)}/{prime}^{pw})"
        else:
            mono = None if n == 0 else "v" if n == 1 else f"v^{_numeral(n)}"
        if pieces:
            pieces.append(" - " if a < 0 else " + ")
            a = abs(a)
        d = D
        if d != 1:
            g = gcd(a, d)
            a, d = a // g, d // g
        coeff = _numeral(a) if d == 1 else f"{_numeral(a)}/{_numeral(d)}"
        if mono is None:
            pieces.append(coeff)
        else:
            pieces.append(mono if a == d == 1 else f"{coeff}*{mono}")
    return "".join(pieces) or "0"


def format_series(f: PSeries) -> str:
    body = _format_terms(sorted(f.ints.items()), f.K, f.D, f.prime)
    if f.precision is not None:
        body += f" (mod val >= {_cutoff(f.precision.v, f.prime)})"
    return body


def format_residue(r: ResiduePoly) -> str:
    return _format_terms(sorted(r.ints.items()), r.K, 1, r.prime)


def format_laurent(f: LaurentPoly) -> str:
    return _format_terms(sorted(f.ints.items()), 0, f.D)


# ----------------------------------------------------------------------
# matrix documents


def _json_int(text: str) -> int:
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise ParseError(_LONG_NUMERAL)
    return int(text)


def load_doc(doc):
    """Accept a dict or a JSON string and return the dict."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc, parse_int=_json_int)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.pos)
        except RecursionError:
            raise ParseError("invalid JSON: nested too deeply")
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object")
    return doc


def _doc_prime(doc: dict, prime: int | None) -> int:
    p = doc.get("p")
    if not isinstance(p, int) or not is_prime(p):
        raise ParseError("'p' must be a prime number")
    if prime is not None and prime != p:
        raise PrimeMismatch(f"document prime {p} does not match session prime {prime}")
    return p


# Cap on the size m of a matrix document.  CPU seconds of one CLI call at m =
# 10/20/40 (CPython 3.11.7): det of a permutation 0.01/0.02/0.03, of random
# three-term entries 0.01/0.10/7.9, with 70-bit coefficients 0.04/3.3/362,
# and of rows too spread to pack (v^(1/2^12) + v^(40+i+j)) 0.19/35/over 200;
# split over Q of a dense shear product 0.02/0.12/14, but of L*diag(s^d)*U
# (L, U unitriangular) 0.12/68 at m = 10/20, 95 % of it the packed adjugate.
MAX_M = 40


def _doc_grid(doc: dict):
    m = doc.get("m")
    # JSON true loads as a bool, which is an int subclass.
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ParseError("'m' must be a positive integer")
    if m > MAX_M:
        raise ParseError(f"matrices larger than {MAX_M} x {MAX_M} are not accepted")
    entries = doc.get("entries")
    if (
        not isinstance(entries, list)
        or len(entries) != m
        or any(not isinstance(row, list) or len(row) != m for row in entries)
    ):
        raise RaggedMatrix(f"'entries' must be an {m} x {m} grid of literals")
    for row in entries:
        for cell in row:
            if not isinstance(cell, str):
                raise ParseError("matrix entries must be series literals")
    return entries


def doc_to_matrix(doc, prime: int | None = None) -> SMatrix:
    doc = load_doc(doc)
    p = _doc_prime(doc, prime)
    entries = _doc_grid(doc)
    return SMatrix(p, [[parse_series(cell, p) for cell in row] for row in entries])


def matrix_to_doc(M: SMatrix) -> dict:
    return _matrix_docs([M])[0]


def _matrix_docs(Ms) -> list[dict]:
    """``matrix_to_doc`` of each matrix, printing each distinct entry object
    once: the matrices of ``degree_one_family`` share their monomials and one
    exact zero."""
    text = {}
    for M in Ms:
        for row in M.rows:
            for f in row:
                if id(f) not in text:
                    text[id(f)] = format_series(f)
    return [
        {"p": M.prime, "m": M.m, "entries": [[text[id(f)] for f in row] for row in M.rows]}
        for M in Ms
    ]


def doc_to_laurent_matrix(doc, field) -> LMatrix:
    doc = load_doc(doc)
    if isinstance(field, PrimeField) and "p" in doc:
        _doc_prime(doc, field.p)
    entries = _doc_grid(doc)
    return LMatrix(field, [[parse_laurent(cell, field) for cell in row] for row in entries])


def laurent_matrix_to_doc(M: LMatrix) -> dict:
    doc = {}
    if isinstance(M.field, PrimeField):
        doc["p"] = M.field.p
    doc["m"] = M.m
    doc["entries"] = [[format_laurent(f) for f in row] for row in M.rows]
    return doc
