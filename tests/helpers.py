"""Shared builders and frozen tables used across the test modules."""

import random
import re
from fractions import Fraction

from projectivoid import (
    INFINITY,
    FactorizationCertificate,
    LMatrix,
    LaurentPoly,
    NotInvertibleOverRing,
    PSeries,
    PrimeField,
    SMatrix,
    SplittingType,
    SubringTag,
    Valuation,
    ZERO,
    canon,
    exp_add,
    exp_neg,
)
from projectivoid.classical import _poly, _primitive
from projectivoid.determinants import leibniz_det
from projectivoid.errors import ParseError, WrongPrimeDenominator
from projectivoid.literals import _LONG_NUMERAL, MAX_DIGITS
from projectivoid.matrices import _random_onesided_unit, _random_side_series
from projectivoid.series import _convolve, _lift, _reduce


def srs(p, triples, precision=None):
    """Series from (num, pow, coeff) triples."""
    return PSeries(p, [(canon(n, b, p), Fraction(c)) for n, b, c in triples], precision)


def mono(p, num, pow=0, coeff=1):
    return srs(p, [(num, pow, coeff)])


def mutate(text, i, op, c):
    """text with c inserted at i ("insert"), or text[i] deleted ("delete")
    or replaced by c ("replace")."""
    if op == "insert":
        return text[:i] + c + text[i:]
    return text[:i] + ("" if op == "delete" else c) + text[i + 1:]


def random_exponent(rng, p, lo=-6, hi=7, max_pow=2):
    return canon(rng.randrange(lo, hi), rng.randrange(0, max_pow + 1), p)


def random_series(rng, p, max_terms=3):
    pairs = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        e = random_exponent(rng, p)
        pairs[e] = pairs.get(e, Fraction(0)) + rng.randrange(-4, 5)
    return PSeries(p, pairs)


def random_unit(rng, p, max_tail=4):
    """A series υ^e · (a0 + tail) whose tail coefficients all have strictly
    larger valuation than a0 — a unit of the full ring by construction."""
    e = random_exponent(rng, p, -8, 9)
    v0 = rng.randrange(0, 3)
    pairs = {e: Fraction(rng.choice([1, -1, p + 1, 2 * p + 1])) * Fraction(p) ** v0}
    for _ in range(rng.randrange(0, max_tail)):
        rel = random_exponent(rng, p)
        if rel == ZERO:
            continue
        c = Fraction(rng.choice([1, -1, p + 1])) * Fraction(p) ** (v0 + rng.randrange(1, 4))
        ee = exp_add(e, rel, p)
        pairs[ee] = pairs.get(ee, Fraction(0)) + c
    return PSeries(p, pairs)


def random_multidominant(rng, p):
    """A series with at least two exponents at the minimal valuation."""
    v0 = rng.randrange(0, 3)
    want = rng.randrange(2, 5)
    exps = set()
    while len(exps) < want:
        exps.add(random_exponent(rng, p, -8, 9))
    pairs = {
        e: Fraction(rng.choice([1, -1, p + 1, 2 * p + 1])) * Fraction(p) ** v0
        for e in exps
    }
    for _ in range(rng.randrange(0, 3)):
        e = random_exponent(rng, p, -8, 9)
        if e not in pairs:
            pairs[e] = Fraction(p) ** (v0 + rng.randrange(1, 3))
    return PSeries(p, pairs)


def random_transition(rng, p, m, max_shears=3):
    """Monomial diagonal times unimodular shears: a transition matrix."""
    A = SMatrix.diagonal(p, [PSeries.monomial(p, random_exponent(rng, p, -4, 5)) for _ in range(m)])
    if m >= 2:
        for _ in range(rng.randrange(0, max_shears + 1)):
            i, j = rng.sample(range(m), 2)
            S = SMatrix.shear(p, m, i, j, random_series(rng, p))
            A = A * S if rng.random() < 0.5 else S * A
    return A


def field_elem(rng, field):
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    return Fraction(rng.randrange(-3, 4))


def random_laurent(rng, field, lo=-2, hi=3, max_terms=3):
    pairs = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        pairs[rng.randrange(lo, hi)] = field_elem(rng, field)
    return LaurentPoly(field, pairs)


def random_unimodular(rng, field, m, side=1, factors=3, max_deg=2):
    """Product of shears supported on k[s] (side=+1) or k[1/s] (side=-1)."""
    M = LMatrix.identity(field, m)
    if m < 2:
        return M
    for _ in range(factors):
        i, j = rng.sample(range(m), 2)
        f = LaurentPoly(field, {side * n: field_elem(rng, field) for n in range(max_deg + 1)})
        M = M * LMatrix.shear(field, m, i, j, f)
    return M


# ----------------------------------------------------------------------
# Slow oracle for series arithmetic: the per-term algorithm that the integer
# kernel in projectivoid.series replaced.  Every exponent sum goes through
# exp_add, every coefficient operation through PadicCoeff, and every result
# through the validating PSeries constructor.


def _min_precision(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def oracle_add(f, g):
    acc = dict(f.terms)
    for e, c in g.terms.items():
        acc[e] = acc[e] + c if e in acc else c
    return PSeries(f.prime, acc, _min_precision(f.precision, g.precision))


def oracle_neg(f):
    return PSeries(f.prime, {e: -c for e, c in f.terms.items()}, f.precision)


def oracle_sub(f, g):
    return oracle_add(f, oracle_neg(g))


def oracle_gauss(f):
    return min((c.valuation() for c in f.terms.values()), default=INFINITY)


def oracle_dominant(f):
    gv = oracle_gauss(f)
    return {e for e, c in f.terms.items() if c.valuation() == gv}


def _oracle_effective(f):
    gv = oracle_gauss(f)
    return gv if f.precision is None else min(gv, f.precision)


def oracle_mul(f, g):
    acc = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = exp_add(e1, e2, f.prime)
            c = c1 * c2
            acc[e] = acc[e] + c if e in acc else c
    cands = []
    if f.precision is not None:
        cands.append(f.precision + _oracle_effective(g))
    if g.precision is not None:
        cands.append(g.precision + _oracle_effective(f))
    return PSeries(f.prime, acc, min(cands) if cands else None)


def oracle_scale(f, c):
    return oracle_mul(f, PSeries(f.prime, {ZERO: c}))


def oracle_shift(f, e):
    if e == ZERO:
        return f
    moved = {exp_add(x, e, f.prime): c for x, c in f.terms.items()}
    return PSeries(f.prime, moved, f.precision)


def oracle_truncate(f, cutoff):
    if isinstance(cutoff, int):
        cutoff = Valuation(cutoff)
    prec = cutoff if f.precision is None else min(f.precision, cutoff)
    return PSeries(f.prime, f.terms, prec)


def oracle_inverse(f, target):
    """Geometric-series inverse of a full-ring unit, one power at a time."""
    assert f.precision is None and len(oracle_dominant(f)) == 1
    p = f.prime
    (e,) = oracle_dominant(f)
    a0 = f.terms[e]
    inv_lead = PSeries.monomial(p, exp_neg(e), a0.invert())
    g = oracle_sub(PSeries.one(p), oracle_scale(oracle_shift(f, exp_neg(e)), a0.invert()))
    if g.is_zero():
        return inv_lead
    w = oracle_gauss(g).v
    cutoff = target + max(a0.valuation().v, 0)
    acc = power = PSeries.one(p)
    for _ in range(-(-cutoff // w)):
        power = oracle_truncate(oracle_mul(power, g), cutoff)
        acc = oracle_add(acc, power)
    return oracle_truncate(oracle_mul(inv_lead, acc), target)


def oracle_det(A):
    """Determinant of a series matrix by Leibniz expansion over the PSeries
    entries themselves: every product and sum through the series layer."""
    return leibniz_det(A.rows, PSeries.one(A.prime))


def product_oracle(A, B):
    """A * B for two SMatrix or two LMatrix, the loop that the integer kernel
    product replaced: each entry is the left-to-right sum of the ring
    products f * g over the pairs with no exact zero, or the ring's zero when
    there is none.  A series zero known only modulo a precision is not an
    exact zero: its product bounds the precision of the entry."""

    def skip(f):
        return f.is_zero() and getattr(f, "precision", None) is None

    zero = A._zero(A.base)
    out = []
    for r in A.rows:
        row = []
        for col in zip(*B.rows):
            terms = [f * g for f, g in zip(r, col) if not (skip(f) or skip(g))]
            row.append(sum(terms[1:], terms[0]) if terms else zero)
        out.append(row)
    return type(A)(A.base, out)


def kernel_product(char, rows, cols):
    """The product of two matrices of integer kernels on one grid, entry by
    entry, the loop that the row-flat product replaced: the left given by its
    rows and the right by its columns, entry (i, j) the sum over k of
    rows[i][k] * cols[j][k], accumulated into one dict and reduced once (mod
    char when char is nonzero).  A pair with a zero kernel adds no term."""
    live = [[(k, g) for k, g in enumerate(c) if g] for c in cols]
    out = []
    for r in rows:
        row = []
        for col in live:
            acc = {}
            for k, g in col:
                if f := r[k]:
                    _convolve(f, g, acc)
            row.append(_reduce(char, acc) if acc else acc)
        out.append(row)
    return out


def random_automorphism_oracle(prime, m, side, shears, seed=0):
    """``matrices.random_automorphism`` as the product loop it replaced: the
    diagonal of one-sided units times one m x m ``SMatrix.shear`` per shear,
    with the same random draws in the same order."""
    rng = random.Random(seed)
    out = SMatrix.diagonal(prime, [_random_onesided_unit(rng, prime, side) for _ in range(m)])
    if m >= 2:
        for _ in range(shears):
            i = rng.randrange(m)
            j = rng.randrange(m - 1)
            if j >= i:
                j += 1
            out = out * SMatrix.shear(prime, m, i, j, _random_side_series(rng, prime, side))
    return out


# ----------------------------------------------------------------------
# Oracle for ``exponents.enumerate_calkin_wilf``: the Calkin-Wilf walk
# stepped on Fractions, q -> 1 / (2 * floor(q) - q + 1).


def calkin_wilf_stream():
    """The Calkin-Wilf walk of the positive rationals, starting at 1."""
    q = Fraction(1)
    while True:
        yield q
        q = 1 / (2 * (q.numerator // q.denominator) - q + 1)


# ----------------------------------------------------------------------
# Slow oracle for the literal reader: a tokenizer and a recursive-descent
# parser over the whole grammar.  ``_Parser(text, prime).parse()`` returns
# what ``literals._read`` returns, and raises the same errors at the same
# positions.

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
            if len(m.group(1)) > MAX_DIGITS:
                raise ParseError(_LONG_NUMERAL, i)
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
        return sign * coeff.numerator, coeff.denominator, num, pw

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
# Slow oracle for classical.split: the column reduction and the inverse on
# LaurentPoly objects, with the kernel vector in field elements, which the
# integer working state of split replaced.  The field's subtraction,
# negation, inverse and zero test are spelled through ``coerce``.


def _oracle_kernel_vector(rows, field):
    """A nonzero kernel vector of a square matrix over `field`, or None.

    Gauss-Jordan elimination column by column; at the first column c with no
    pivot, columns 0..c-1 are unit vectors, so the vector is read off it."""
    m = len(rows)
    a = [list(r) for r in rows]
    for c in range(m):
        pr = next((i for i in range(c, m) if field.coerce(a[i][c]) != 0), None)
        if pr is None:
            return [field.coerce(-a[k][c]) for k in range(c)] + [field.one] + [field.zero] * (m - c - 1)
        a[c], a[pr] = a[pr], a[c]
        inv = field.coerce(Fraction(1, a[c][c]))
        a[c] = [field.mul(inv, x) for x in a[c]]
        for i in range(m):
            if i != c and field.coerce(a[i][c]) != 0:
                fac = a[i][c]
                a[i] = [field.coerce(x - field.mul(fac, y)) for x, y in zip(a[i], a[c])]
    return None


def _oracle_inverse(field, rows) -> list:
    """The rows of C^-1 for C = rows over k[t], t = 1/s, where the t-degree
    of f is -f.min_exp(), when det(C) is a nonzero constant.

    Row elimination of [C | I]: in each column the entry of least t-degree is
    the pivot and the entries below it are reduced modulo it, Euclid-style,
    one leading term at a time, until only the pivot is left.  The pivots
    multiply to det(C), so each must be a nonzero constant; back-substitution
    then leaves C^-1 where I was."""
    m = len(rows)
    one, zero = LaurentPoly.one(field), LaurentPoly.zero(field)
    a = [list(r) + [one if i == k else zero for k in range(m)] for i, r in enumerate(rows)]

    def subtract(i, q, j, start):
        """Row i minus q times row j, from column start on."""
        ri, rj, q = a[i], a[j], -q
        for k in range(start, 2 * m):
            if not rj[k].is_zero():
                ri[k] = ri[k] + q * rj[k]

    for j in range(m):
        while True:
            live = [i for i in range(j, m) if not a[i][j].is_zero()]
            if live:
                top = max(live, key=lambda i: a[i][j].min_exp())
                a[j], a[top] = a[top], a[j]
            if len(live) < 2:
                break
            low = a[j][j].min_exp()
            inv = field.coerce(Fraction(1, a[j][j].coeffs[low]))
            for i in range(j + 1, m):
                while not a[i][j].is_zero() and (n := a[i][j].min_exp()) <= low:
                    c = field.mul(a[i][j].coeffs[n], inv)
                    subtract(i, LaurentPoly.monomial(field, n - low, c), j, j)
        parts = a[j][j].unit_parts()
        if parts is None or parts[1] != 0:
            raise RuntimeError("internal error: reduced matrix is not constant-determinant")
        c = field.coerce(Fraction(1, parts[0]))
        a[j] = [LaurentPoly(field, {n: x * c for n, x in f.coeffs.items()}) for f in a[j]]
    for j in reversed(range(m)):
        for i in range(j):
            if not a[i][j].is_zero():
                subtract(i, a[i][j], j, m)
    return [r[m:] for r in a]


def verify_oracle(cert, A) -> bool:
    """What ``cert.verify(A)`` returns, by the four checks it replaced: U
    unimodular over k[s] and V over k[1/s], each by its Laurent determinant,
    D a diagonal of powers, and the LMatrix product V * A * U == D."""
    if not cert.U.validate_automorphism(SubringTag.NONNEG):
        return False
    if not cert.V.validate_automorphism(SubringTag.NONPOS):
        return False
    if not cert.D.is_diagonal_of_powers():
        return False
    return cert.V * A * cert.U == cert.D


def euclid_inverse(field, R: list, rows: list, k: list, d: list) -> list:
    """What ``classical._inverse(field, R, rows, k, d)`` returns, by the
    Euclidean row elimination it replaced: the rows of diag(d) * C'^-1 *
    diag(R) for C' = rows * diag(s^-k), integer kernels over k[t], t = 1/s
    (mod p over GF(p)), with a nonzero constant determinant.

    Row elimination of [C' | I] without fractions: in each column the entry
    of least t-degree is the pivot and the entries below it are reduced
    modulo it, Euclid-style, one leading term at a time: row_i <- lead *
    row_i - c * s^e * row_j.  The pivots multiply to a constant times
    det(C'), so each must be a nonzero constant; back-substitution, row_i <-
    pivot_j * row_i - a_ij * row_j, then leaves a diagonal of constants where
    C' was.  Over Q each new row is divided by its content, and each row by
    its pivot once, at the end."""
    p, m = field.characteristic, len(rows)
    rows = [[{n - kj: c for n, c in f.items()} for f, kj in zip(r, k)] for r in rows]
    a = [list(r) + [{0: 1} if i == j else {} for j in range(m)] for i, r in enumerate(rows)]

    def subtract(i, u, q, j):
        """Row i <- u * row i - q * row j, for an integer u and a kernel q."""
        q = {n: -c for n, c in q.items()}
        new = []
        for f, g in zip(a[i], a[j]):
            if g or u != 1:
                f = _reduce(p, _convolve(g, q, {n: u * c for n, c in f.items()}))
            new.append(f)
        a[i] = _primitive(p, new)[0]

    for j in range(m):
        while True:
            live = [i for i in range(j, m) if a[i][j]]
            if live:
                top = max(live, key=lambda i: min(a[i][j]))
                a[j], a[top] = a[top], a[j]
            if len(live) < 2:
                break
            low = min(a[j][j])
            lead = a[j][j][low]
            for i in range(j + 1, m):
                while a[i][j] and (n := min(a[i][j])) <= low:
                    subtract(i, lead, {n - low: a[i][j][n]}, j)
        if a[j][j].keys() != {0}:
            raise RuntimeError("internal error: reduced matrix is not constant-determinant")
    for j in reversed(range(m)):
        for i in range(j):
            if a[i][j]:
                subtract(i, a[j][j][0], a[i][j], j)
    return [[_poly(field, a[j][j][0], _lift(f, 1, d[j] * r)) for r, f in zip(R, a[j][m:])]
            for j in range(m)]


def pass_bound(A):
    """P = sum_j (k_j - lo_j), k_j and lo_j the largest and least exponents
    of the nonzero column j of A: ``split``'s bound on its column passes."""
    exps = [[n for r in A.rows for n in r[j].ints] for j in range(A.m)]
    return sum(max(e) - min(e) for e in exps if e)


def split_oracle(A):
    """What ``split(A)`` returns, raising the same errors (but no ParseError
    for a pass bound above ``classical.MAX_SPLIT_PASSES``).  det(A) = c * s^n
    is tested up front, so a pass past the bound P is an internal error."""
    field, m = A.field, A.m
    parts = A.det().unit_parts()
    if parts is None:
        raise NotInvertibleOverRing("determinant is not of the form c * s^n")

    # Clear denominators: B = s^N * A is polynomial in s.
    lift = max(0, -min((f.min_exp() for r in A.rows for f in r if not f.is_zero()), default=0))
    b_rows = [[LaurentPoly(field, {n + lift: a for n, a in f.coeffs.items()}) for f in r] for r in A.rows]
    u_rows = [list(r) for r in LMatrix.identity(field, m).rows]

    budget = pass_bound(A)
    iterations = 0
    while True:
        # det(B) is nonzero, so no column is zero.
        cdeg = [max(r[j].max_exp() for r in b_rows if not r[j].is_zero()) for j in range(m)]
        top = [[b_rows[i][j].coeffs.get(cdeg[j], field.zero) for j in range(m)] for i in range(m)]
        w = _oracle_kernel_vector(top, field)
        if w is None:
            break
        iterations += 1
        if iterations > budget:
            raise RuntimeError(f"internal error: column reduction did not settle within {budget} passes")
        support = [j for j in range(m) if field.coerce(w[j]) != 0]
        jstar = max(support, key=lambda j: (cdeg[j], j))
        # Column operation col_jstar <- sum_j w_j * s^(k* - k_j) * col_j.
        # The top-degree coefficients cancel, so the degree of that column
        # strictly drops while the determinant only picks up w_jstar.  U
        # takes the same operation, which keeps B = s^N * A * U.
        factors = [
            (j, LaurentPoly.monomial(field, cdeg[jstar] - cdeg[j], w[j])) for j in support
        ]
        for row in b_rows + u_rows:
            row[jstar] = sum((row[j] * g for j, g in factors if not row[j].is_zero()), LaurentPoly.zero(field))

    # B is column-reduced: C = B * diag(s^-k_j) lives in k[1/s] and its
    # determinant is the nonzero constant det(top).
    v_rows = _oracle_inverse(
        field, [[LaurentPoly(field, {n - k: a for n, a in f.coeffs.items()}) for f, k in zip(r, cdeg)]
                for r in b_rows])

    # Sort the exponents: permute the rows of V and the columns of U alike.
    degrees = [k - lift for k in cdeg]
    order = sorted(range(m), key=lambda j: (degrees[j], j))
    v_final = LMatrix(field, [v_rows[j] for j in order])
    u_final = LMatrix(field, [[r[j] for j in order] for r in u_rows])
    d_final = LMatrix.diagonal_powers(field, [degrees[j] for j in order])

    certificate = FactorizationCertificate(v_final, u_final, d_final)
    if not verify_oracle(certificate, A):
        raise RuntimeError("internal error: certificate failed to re-multiply")
    if sum(degrees) != parts[1]:
        raise RuntimeError("internal error: splitting degrees do not sum to det exponent")
    return SplittingType(tuple(degrees[j] for j in order)), certificate


# ----------------------------------------------------------------------
# Round-trip corpus: 50 literals exercising the whole grammar (p = 2).

LITERAL_CORPUS = [
    "0",
    "1",
    "-1",
    "7",
    "-7",
    "1/2",
    "-3/8",
    "2/3",
    "v",
    "-1*v",
    "2*v",
    "v^2",
    "v^-1",
    "v^-3",
    "v^(1/2^1)",
    "v^(-1/2^1)",
    "v^(3/2^2)",
    "v^(-3/2^2)",
    "v^(5/2^3)",
    "1 + v",
    "1 - v",
    "2 + 2*v^(1/2^2)",
    "1/2 + v",
    "1 + 2*v^(1/2^1) - v^(-3/2^2)",
    "3/4*v^(1/2^1)",
    "-5/8*v^(7/2^3)",
    "1 + v + v^2 + v^3",
    "1 - v + v^2 - v^3",
    "v^-2 + v^2",
    "v^(-1/2^3) + v^(1/2^3)",
    "5",
    "1 (mod val >= 3)",
    "0 (mod val >= 2)",
    "1 + 2*v + 4*v^2 + 8*v^3 (mod val >= 4)",
    "2 - v (mod val >= 5)",
    "1/4 - 1/2*v (mod val >= 1)",
    "v^(1/2^4) - v^(3/2^4)",
    "100*v^-5",
    "-2*v^(1/2^1) + 3*v - 4*v^(3/2^1) + 5*v^2",
    "17/16 + v^(15/2^4)",
    "s",
    "s^2 - s^-2",
    " 1+2*v ",
    "+1 - v",
    "-v",
    "6/4",
    "v^(2/2^2)",
    "0*v + 1",
    "1 + 0*v^(1/2^1)",
    "2*v^(1/2^1) + 2*v^(1/2^1)",
]


# ----------------------------------------------------------------------
# Golden CLI table: (argv, expected stdout).  Everything here is exact and
# deterministic; expected values were derived by hand from the definitions.

DIAG_HALVES = '{"p": 2, "m": 2, "entries": [["v^(1/2^1)", "0"], ["0", "v^(1/2^1)"]]}'
OFFDIAG = '{"p": 2, "m": 2, "entries": [["1", "v"], ["v", "1"]]}'
NONUNIT_DET = '{"p": 2, "m": 2, "entries": [["1", "0"], ["0", "1 + v"]]}'
MIXED_DIAG = '{"p": 2, "m": 2, "entries": [["v^(-1/2^2)", "0"], ["0", "v"]]}'
ACT_TRIPLE = (
    '{"V": {"p": 2, "m": 2, "entries": [["1", "0"], ["0", "1"]]},'
    ' "A": {"p": 2, "m": 2, "entries": [["v", "0"], ["0", "1"]]},'
    ' "U": {"p": 2, "m": 2, "entries": [["1", "v^(1/2^2)"], ["0", "1"]]}}'
)
SPLIT_UPPER = '{"p": 2, "m": 2, "entries": [["s", "1"], ["0", "s"]]}'
SPLIT_DIAG = '{"p": 2, "m": 2, "entries": [["s^-1", "0"], ["0", "s^3"]]}'
VERIFY_TRIPLE = (
    '{"A": {"p": 2, "m": 2, "entries": [["s", "1"], ["0", "s"]]},'
    ' "U": {"p": 2, "m": 2, "entries": [["1", "0"], ["0", "1"]]},'
    ' "V": {"p": 2, "m": 2, "entries": [["1", "v^-1"], ["0", "1"]]}}'
)

GOLDEN_CLI = [
    (["norm", "--prime", "2", "2 + v^(1/2^1)"], "0\n"),
    (["norm", "--prime", "2", "0"], "inf\n"),
    (["norm", "--prime", "2", "--format", "json", "4*v + 2*v^2"], '{"valuation": 1}\n'),
    (["unit", "--prime", "2", "1 + 2*v^(1/2^1)"], "true\n"),
    (["unit", "--prime", "2", "--ring", "nonneg", "v"], "false\n"),
    (["unit", "--prime", "2", "--format", "json", "1 + v"], '{"result": false}\n'),
    (["invert", "--prime", "2", "--prec", "4", "1 - 2*v"],
     "1 + 2*v + 4*v^2 + 8*v^3 (mod val >= 4)\n"),
    (["invert", "--prime", "2", "--prec", "10", "v^(1/2^1)"], "v^(-1/2^1)\n"),
    (["invert", "--prime", "2", "--prec", "5", "1 + 6*v + 4*v^2"],
     "1 - 6*v - 168*v^3 + 1296*v^4 (mod val >= 5)\n"),
    (["degree", "--prime", "2", "1 + v"], "1\n"),
    (["degree", "--prime", "2", "2*v + v^(1/2^1) + 4*v^2"], "1/2^1\n"),
    (["reduce", "--prime", "2", "3 + 2*v"], "1\n"),
    (["reduce", "--prime", "2", "1 + v^(1/2^1)"], "1 + v^(1/2^1)\n"),
    (["det", "--prime", "2", OFFDIAG], "1 - v^2\n"),
    (["det", "--prime", "2", "--format", "json", OFFDIAG], '{"series": "1 - v^2"}\n'),
    (["transition", "--prime", "2", DIAG_HALVES], "true\n"),
    (["transition", "--prime", "2", NONUNIT_DET], "false\n"),
    (["bundle-degree", "--prime", "2", DIAG_HALVES], "1\n"),
    (["bundle-degree", "--prime", "2", MIXED_DIAG], "3/2^2\n"),
    (["act", "--prime", "2", ACT_TRIPLE],
     '{"p": 2, "m": 2, "entries": [["v", "v^(5/2^2)"], ["0", "1"]]}\n'),
    (["family", "--prime", "2", "--max-pow", "0"],
     '{"p": 2, "m": 2, "entries": [["1", "0"], ["0", "v"]]}\n'
     '{"p": 2, "m": 2, "entries": [["v", "0"], ["0", "1"]]}\n'),
    (["enumerate", "--prime", "2", "--count", "6"], "0\n1\n1/2^1\n2\n1/2^2\n3\n"),
    (["enumerate", "--count", "5", "--order", "calkin-wilf"], "1\n1/2\n2\n1/3\n3/2\n"),
    (["enumerate", "--prime", "2", "--count", "8", "--order", "calkin-wilf", "--filter"],
     "1\n1/2^1\n2\n3/2^1\n3\n1/2^2\n5/2^1\n3/2^2\n"),
    (["enumerate", "--prime", "2", "--count", "4", "--format", "json"],
     '{"values": ["0", "1", "1/2^1", "2"]}\n'),
    (["split", SPLIT_UPPER], "(1, 1)\n"),
    (["split", SPLIT_DIAG], "(-1, 3)\n"),
    (["split", "--field", "rational", '{"m": 1, "entries": [["v^2"]]}'], "(2)\n"),
    (["verify-split", VERIFY_TRIPLE], "true\n"),
]
