"""Text formats: series literals and JSON matrix documents.

The literal grammar, with insignificant whitespace:

    series := term (('+' | '-') term)*
    term   := coeff | coeff '*' mono | mono
    mono   := 'v' | 'v' '^' exp | 'v' '^' '(' exp ')'
    exp    := int | int '/' int '^' int
    coeff  := int | int '/' int

Fractional exponents must spell their denominator as prime**power and the
base must equal the session prime.  Printed output lists terms by ascending
exponent, keeps coefficients in lowest terms, and appends the suffix
"(mod val >= V)" exactly when the series is inexact; the parser accepts that
suffix back, as well as a redundant leading sign.  The classical Laurent side
uses the same grammar restricted to integer exponents, with 's' accepted as
an alias for 'v' on input.

Two readers share the grammar.  ``_scan`` reads a literal with one regular
expression match per term; it covers the forms the printer writes, with any
whitespace between tokens: an optional sign, a coefficient ``n`` or ``n/d``,
an optional ``*`` before ``v`` or ``s``, an exponent ``e``, ``-e`` or
``e/p^k`` with or without parentheses, and the precision suffix.  Text it
does not consume completely, or that names a zero denominator, a wrong
exponent base or a fractional exponent in Laurent mode, goes unchanged to
the recursive-descent ``_Parser``.  That parser reads the whole grammar
(also ``v^+3`` or ``v^(- 3)``), raises every ``ParseError`` with its
position, and is the oracle that the tests compare the scanner against.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .classical import LaurentPoly, LMatrix
from .errors import ParseError, PrimeMismatch, RaggedMatrix, WrongPrimeDenominator
from .exponents import PExp, ZERO, canon, is_prime
from .fields import PrimeField
from .matrices import SMatrix
from .series import PSeries, ResiduePoly

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z]+)|(>=)|([-+*/^()])")


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m.group(1):
            tokens.append(("num", m.group(1), i))
        elif m.group(2):
            word = m.group(2)
            if word in ("v", "s"):
                tokens.append(("var", word, i))
            elif word in ("mod", "val"):
                tokens.append(("name", word, i))
            else:
                raise ParseError(f"unexpected symbol {word!r}", i)
        elif m.group(3):
            tokens.append(("ge", ">=", i))
        else:
            tokens.append((m.group(4), m.group(4), i))
        i = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over the token list; prime None restricts the
    exponents to integers (the classical Laurent mode)."""

    def __init__(self, text: str, prime: int | None):
        self.toks = _tokenize(text)
        self.i = 0
        self.prime = prime

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def parse(self):
        terms = []
        sign = 1
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.advance()
            sign = -1 if tok[0] == "-" else 1
        terms.append(self._term(sign))
        while self.peek()[0] in ("+", "-"):
            op = self.advance()
            terms.append(self._term(-1 if op[0] == "-" else 1))
        precision = None
        if self.peek()[0] == "(":
            precision = self._precision_suffix()
        end = self.advance()
        if end[0] != "end":
            raise ParseError("unexpected trailing input", end[2])
        return terms, precision

    def _term(self, sign: int):
        tok = self.peek()
        if tok[0] == "num":
            coeff = self._coefficient()
            if self.peek()[0] == "*":
                self.advance()
                num, pw = self._mono()
            else:
                num, pw = 0, 0
        elif tok[0] == "var":
            coeff = Fraction(1)
            num, pw = self._mono()
        else:
            raise ParseError("expected a coefficient or a monomial", tok[2])
        return sign * coeff, num, pw

    def _coefficient(self) -> Fraction:
        tok = self.expect("num", "an integer")
        value = Fraction(int(tok[1]))
        if self.peek()[0] == "/":
            self.advance()
            den = self.expect("num", "a denominator")
            if int(den[1]) == 0:
                raise ParseError("zero denominator", den[2])
            value /= int(den[1])
        return value

    def _mono(self):
        self.expect("var", "a variable")
        if self.peek()[0] != "^":
            return 1, 0
        self.advance()
        if self.peek()[0] == "(":
            self.advance()
            num, pw = self._exponent()
            closing = self.advance()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
        else:
            num, pw = self._exponent()
        return num, pw

    def _exponent(self):
        sign = 1
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.advance()
            sign = -1 if tok[0] == "-" else 1
        numtok = self.expect("num", "an exponent numerator")
        num = sign * int(numtok[1])
        if self.peek()[0] != "/":
            return num, 0
        slash = self.advance()
        if self.prime is None:
            raise ParseError("integer exponent expected", slash[2])
        base = self.expect("num", "a denominator base")
        caret = self.advance()
        if caret[0] != "^":
            raise ParseError("expected '^' in the exponent denominator", caret[2])
        pw = self.expect("num", "a denominator power")
        if int(base[1]) != self.prime:
            raise WrongPrimeDenominator(
                f"denominator base {base[1]} is not the session prime {self.prime}",
                base[2],
            )
        return num, int(pw[1])

    def _precision_suffix(self) -> int:
        self.expect("(", "'('")
        tok = self.advance()
        if tok[0] != "name" or tok[1] != "mod":
            raise ParseError("expected 'mod'", tok[2])
        tok = self.advance()
        if tok[0] != "name" or tok[1] != "val":
            raise ParseError("expected 'val'", tok[2])
        tok = self.advance()
        if tok[0] != "ge":
            raise ParseError("expected '>='", tok[2])
        sign = 1
        if self.peek()[0] in ("+", "-"):
            op = self.advance()
            sign = -1 if op[0] == "-" else 1
        num = self.expect("num", "a precision value")
        tok = self.advance()
        if tok[0] != ")":
            raise ParseError("expected ')'", tok[2])
        return sign * int(num[1])


# ----------------------------------------------------------------------
# the one-match-per-term scanner

# One term: sign (1), coefficient numerator (2) and denominator (3), '*' (4),
# variable (5), '(' around the exponent (6), exponent numerator (7), base (8)
# and power (9).  Every part is optional, so the match never fails; _scan
# decides whether what it matched is a term.
_TERM_RE = re.compile(
    r"\s*([+-]?)\s*"
    r"(?:([0-9]+)(?:\s*/\s*([0-9]+))?)?"
    r"(\s*\*\s*)?"
    r"(?:([vs])(?:\s*\^\s*(\()?\s*(-?[0-9]+)"
    r"(?:\s*/\s*([0-9]+)\s*\^\s*([0-9]+))?(?(6)\s*\)))?)?"
)
_TAIL_RE = re.compile(r"\s*(?:\(\s*mod\s+val\s*>=\s*(-?[0-9]+)\s*\)\s*)?")


def _scan(text: str, prime: int | None):
    """``_Parser(text, prime).parse()`` for the forms the scanner reads, else
    None.  Integers are converted only once the whole text has matched, and in
    the parser's order, so an oversized integer fails as it does there."""
    matches = []
    pos = 0
    while True:
        m = _TERM_RE.match(text, pos)
        sign, num, star, var = m.group(1, 2, 4, 5)
        # A term is a coefficient, a monomial, or both joined by '*'; every
        # term after the first starts with its sign.
        if num is None and var is None:
            break
        if (star is not None) != (num is not None and var is not None):
            break
        if matches and not sign:
            break
        matches.append(m.groups())
        pos = m.end()
    tail = _TAIL_RE.fullmatch(text, pos)
    if not matches or tail is None:
        return None
    terms = []
    for sign, num, den, _, var, _, exp, base, pw in matches:
        coeff = int(num) if num is not None else 1
        if sign == "-":
            coeff = -coeff
        if den is None:
            coeff = Fraction(coeff)
        else:
            den = int(den)
            if den == 0:
                return None
            coeff = Fraction(coeff, den)
        if var is None:
            terms.append((coeff, 0, 0))
        elif exp is None:
            terms.append((coeff, 1, 0))
        elif base is None:
            terms.append((coeff, int(exp), 0))
        else:
            exp = int(exp)
            if prime is None or int(base) != prime:
                return None
            terms.append((coeff, exp, int(pw)))
    precision = tail.group(1)
    return terms, None if precision is None else int(precision)


def _parse_terms(text: str, prime: int | None):
    scanned = _scan(text, prime)
    return scanned if scanned is not None else _Parser(text, prime).parse()


# ----------------------------------------------------------------------
# parsing entry points


# Cap on the exponent denominators p^k of a series literal, in bits counted
# as k * ceil(log2 p): the work grows with the bits, not with k alone, and a
# result that mixes scales prints numerators of about that many bits.
MAX_EXP_BITS = 2**12


def parse_series(text: str, prime: int) -> PSeries:
    if not is_prime(prime):
        raise ParseError(f"{prime} is not a prime")
    terms, precision = _parse_terms(text, prime)
    top = MAX_EXP_BITS // (prime - 1).bit_length()
    if any(pw > top for _, _, pw in terms):
        raise ParseError(f"exponent denominators above {prime}^{top} are not accepted")
    pairs = [(canon(num, pw, prime), coeff) for coeff, num, pw in terms]
    return PSeries(prime, pairs, precision)


def parse_laurent(text: str, field) -> LaurentPoly:
    terms, precision = _parse_terms(text, None)
    if precision is not None:
        raise ParseError("precision tags are not allowed on Laurent polynomials")
    return LaurentPoly(field, [(num, coeff) for coeff, num, _ in terms])


# ----------------------------------------------------------------------
# printing


def format_exponent(e: PExp, prime: int) -> str:
    if e.pow == 0:
        return str(e.num)
    return f"{e.num}/{prime}^{e.pow}"


def _mono_str(num: int, pw: int, prime) -> str:
    if pw > 0:
        return f"v^({num}/{prime}^{pw})"
    if num == 1:
        return "v"
    return f"v^{num}"


def _join_terms(parts) -> str:
    pieces = []
    for idx, (mono, coeff) in enumerate(parts):
        if idx == 0:
            if mono is None:
                pieces.append(str(coeff))
            elif coeff == 1:
                pieces.append(mono)
            else:
                pieces.append(f"{coeff}*{mono}")
        else:
            neg = coeff < 0
            mag = -coeff if neg else coeff
            op = " - " if neg else " + "
            if mono is None:
                pieces.append(op + str(mag))
            elif mag == 1:
                pieces.append(op + mono)
            else:
                pieces.append(op + f"{mag}*{mono}")
    return "".join(pieces)


def format_series(f: PSeries) -> str:
    parts = []
    for e in f.support():
        mono = None if e == ZERO else _mono_str(e.num, e.pow, f.prime)
        parts.append((mono, f.terms[e].value))
    body = _join_terms(parts) if parts else "0"
    if f.precision is not None:
        body += f" (mod val >= {f.precision.v})"
    return body


def format_residue(r: ResiduePoly) -> str:
    parts = []
    for e in r.support():
        mono = None if e == ZERO else _mono_str(e.num, e.pow, r.prime)
        parts.append((mono, r.coeffs[e]))
    return _join_terms(parts) if parts else "0"


def format_laurent(f: LaurentPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for n in sorted(f.coeffs):
        mono = None if n == 0 else _mono_str(n, 0, None)
        parts.append((mono, f.coeffs[n]))
    return _join_terms(parts)


# ----------------------------------------------------------------------
# matrix documents


def load_doc(doc):
    """Accept a dict or a JSON string and return the dict."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.pos)
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


def _doc_grid(doc: dict):
    m = doc.get("m")
    # JSON true loads as a bool, which is an int subclass.
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ParseError("'m' must be a positive integer")
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
    return {
        "p": M.prime,
        "m": M.m,
        "entries": [[format_series(f) for f in row] for row in M.rows],
    }


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
