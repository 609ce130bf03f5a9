"""The four seeded workloads: inputs, timed operations and result checks.

Each build function takes the freshly imported library (a namespace of its
modules) and a seed, and returns a pool of operations.  Structural properties
that set an operation's cost (term counts, matrix size, field, cutoff,
command) follow a fixed schedule, repeated in shuffled blocks, so that every
seed runs the same mix; the seed draws the exponents, coefficients, orders
and block shuffles.  Values are drawn in reference form (``reference``: dicts of
Fractions) and handed to the library only through its constructors or as
CLI text, and every check compares against an answer planted in that form or,
for CLI output, against the library's own value computed without the CLI.

Operations look library entry points up at call time (``lib.matrices.act``,
``lib.cli.main``) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import reference as ref


class Op:
    """One timed operation: ``run()`` computes, ``check(result)`` verifies."""

    __slots__ = ("kind", "run", "check", "corrupt", "props")

    def __init__(self, kind, run, check, corrupt, props):
        self.kind = kind
        self.run = run
        self.check = check
        self.corrupt = corrupt
        self.props = props


def _memo(fn):
    """Compute an expected value on first use, outside any timed region."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def _blocks(rng, slots, count):
    """``count`` shuffled copies of the slot schedule, as (block, slot) pairs."""
    out = []
    for b in range(count):
        block = [(b, i, s) for i, s in enumerate(slots)]
        rng.shuffle(block)
        out.extend(block)
    return out


def to_series(lib, p, d):
    """Build a library series from a reference dict."""
    canon = lib.exponents.canon
    return lib.series.PSeries(
        p, {canon(e.numerator, ref.power_of(e.denominator, p), p): c for e, c in d.items()}
    )


def _exponent(rng, p, num_lo, num_hi, max_pow):
    return Fraction(rng.randint(num_lo, num_hi), p ** rng.randint(0, max_pow))


def _series_dict(rng, p, n, num_span, max_pow, coeff):
    d = {}
    while len(d) < n:
        d[_exponent(rng, p, -num_span, num_span, max_pow)] = coeff()
    return d


def _unit_choice(rng, p):
    return Fraction(rng.choice((1, -1, p + 1, -(p + 1))))


def _unit_dict(rng, p, v0, tail_vals, num_span=6, max_pow=2):
    """v^e * (a0 + tail): a0 of valuation v0, tail terms of higher valuation,
    so exactly one term dominates and the series is a full-ring unit."""
    e = _exponent(rng, p, -8, 8, 2)
    d = {e: _unit_choice(rng, p) * Fraction(p) ** v0}
    for vt in tail_vals:
        while True:
            x = _exponent(rng, p, -num_span, num_span, max_pow)
            if x != 0 and e + x not in d:
                break
        d[e + x] = _unit_choice(rng, p) * Fraction(p) ** vt
    return d


def _perturb_series(lib, s):
    """A series that differs from s by a term no check can accept."""
    p = s.prime
    extra = lib.series.PSeries(p, {lib.exponents.canon(1, 9, p): 1})
    return s + extra


# ----------------------------------------------------------------------
# series: exact products and truncated unit inversions

SERIES_SIZES = (5, 10, 20, 40, 80)
SERIES_CUTOFFS = (10, 25, 50)
# (valuation of the leading coefficient, valuations of the two tail terms,
# ratio of the tail exponents).  A fixed ratio fixes how many terms the
# powers of the tail have, so an inversion costs the same for every seed;
# the last shape needs guard digits because a0 is not a p-adic unit.
SERIES_SHAPES = ((0, (1, 1), -1), (0, (1, 2), 2), (1, (2, 2), -1))
SERIES_SLOTS = [("mul", a, b) for a in SERIES_SIZES for b in SERIES_SIZES] + [
    ("inverse", c, s) for c in SERIES_CUTOFFS for s in range(len(SERIES_SHAPES))
]
PRIMES = (2, 3, 5)


def _coeff(rng, p):
    def draw():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 1, 2, 3, p)))

    return draw


def build_series(lib, seed, blocks):
    rng = random.Random(seed)
    ops = []
    for b, i, (kind, x, y) in _blocks(rng, SERIES_SLOTS, blocks):
        p = PRIMES[(i + b) % 3]
        if kind == "mul":
            fd = _series_dict(rng, p, x, 40, 4, _coeff(rng, p))
            gd = _series_dict(rng, p, y, 40, 4, _coeff(rng, p))
            ops.append(_mul_op(lib, p, fd, gd))
        else:
            ops.append(_inverse_op(lib, p, _shaped_unit(rng, p, *SERIES_SHAPES[y]), x, y))
    warmup = [
        next(o for o in ops if o.props.get("terms") == (5, 5)),
        next(o for o in ops if o.props.get("cutoff") == 10),
    ]
    return ops, warmup


def _shaped_unit(rng, p, v0, vals, ratio):
    """v^e * (a0 + t1 v^x + t2 v^(ratio x)) with x = s / p^k, p not dividing s."""
    e = _exponent(rng, p, -8, 8, 2)
    s = rng.choice([k for k in range(1, 8) if k % p])
    x = Fraction(rng.choice((-s, s)), p ** rng.randint(1, 2))
    return {
        e: _unit_choice(rng, p) * Fraction(p) ** v0,
        e + x: _unit_choice(rng, p) * Fraction(p) ** vals[0],
        e + ratio * x: _unit_choice(rng, p) * Fraction(p) ** vals[1],
    }


def _mul_op(lib, p, fd, gd):
    f, g = to_series(lib, p, fd), to_series(lib, p, gd)
    expected = _memo(lambda: ref.mul(fd, gd))

    def check(r):
        return r.precision is None and ref.from_series(r) == expected()

    return Op(
        "mul",
        lambda: f * g,
        check,
        lambda r: _perturb_series(lib, r),
        {"p": p, "terms": (len(fd), len(gd))},
    )


def _inverse_op(lib, p, fd, cutoff, shape):
    f = to_series(lib, p, fd)

    def check(r):
        return ref.inverse_is_sound(fd, ref.from_series(r), ref.precision_of(r), cutoff, p)

    return Op(
        "inverse",
        lambda: f.inverse(cutoff),
        check,
        lambda r: _perturb_series(lib, r),
        {"p": p, "cutoff": cutoff, "shape": shape},
    )


# ----------------------------------------------------------------------
# matrix: planted determinants and the action V*A*U


def _perm_sign(perm):
    sign, seen = 1, set()
    for start in range(len(perm)):
        if start in seen:
            continue
        j, length = start, 0
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _mono(rng, p, lo=0, hi=2):
    """c * v^(k/p) with lo <= k <= hi and c = +-1..9.

    Few exponents and many coefficient values make the products inside a
    determinant fill the same exponents with rarely cancelling terms, so
    matrices of one size cost nearly the same to reduce."""
    return {Fraction(rng.randint(lo, hi), p): Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))}


def _planted_diag(rng, p, m):
    """One two-term entry, the rest monomials: det A is a two-term series."""
    first = _mono(rng, p)
    while len(first) < 2:
        first.update(_mono(rng, p))
    return [first] + [_mono(rng, p) for _ in range(m - 1)]


def _planted(rng, p, m, diag, lo=0, hi=2, lower=True, upper=True, permute=True):
    """Entries of P * L * diag * R * Q as reference dicts, with the sign of
    the permutations.  L and R are unit-triangular with monomial entries, so
    det = sign * prod(diag) without any division."""
    one = {Fraction(0): Fraction(1)}
    L = [[one if i == j else (_mono(rng, p, lo, hi) if i > j and lower else {}) for j in range(m)] for i in range(m)]
    R = [[one if i == j else (_mono(rng, p, lo, hi) if i < j and upper else {}) for j in range(m)] for i in range(m)]
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = {}
            for k in range(min(i, j) + 1):
                for e, c in ref.product((L[i][k], diag[k], R[k][j])).items():
                    acc[e] = acc.get(e, 0) + c
            row.append({e: c for e, c in acc.items() if c})
        rows.append(row)
    sigma, tau = list(range(m)), list(range(m))
    if permute:
        rng.shuffle(sigma)
        rng.shuffle(tau)
    rows = [[rows[sigma[i]][tau[j]] for j in range(m)] for i in range(m)]
    return rows, _perm_sign(sigma) * _perm_sign(tau)


def _to_matrix(lib, p, rows):
    return lib.matrices.SMatrix(p, [[to_series(lib, p, d) for d in r] for r in rows])


def _entry_terms(rows):
    m = len(rows)
    return sum(len(d) for r in rows for d in r) / (m * m)


def _side_unit(rng, p, side):
    x = Fraction(rng.randint(1, 2), p ** rng.randint(0, 1)) * side
    return {Fraction(0): _unit_choice(rng, p), x: Fraction(p * rng.choice((1, -1, 2)))}


# (operation, m, slots per block of 20).  m <= 4 takes 70 % of the operations;
# the shares put the median in the middle of the m = 4 determinants and the
# 90th percentile in the middle of the m = 6 ones, away from the boundary
# between two sizes, where a quantile would jump.
MATRIX_SCHEDULE = (
    ("det", 1, 1), ("det", 2, 1), ("det", 3, 3), ("act", 1, 1), ("act", 2, 1),
    ("det", 4, 6), ("act", 3, 1), ("det", 5, 2), ("det", 6, 4),
)
MATRIX_SLOTS = [(kind, m) for kind, m, n in MATRIX_SCHEDULE for _ in range(n)]


def build_matrix(lib, seed, blocks):
    rng = random.Random(seed)
    ops = []
    for b, i, (kind, m) in _blocks(rng, MATRIX_SLOTS, blocks):
        p = (2, 3)[(i + b) % 2]
        if kind == "det":
            ops.append(_det_op(lib, p, rng, _planted_diag(rng, p, m)))
        else:
            ops.append(_act_op(lib, p, rng, m))
    warmup = [next(o for o in ops if o.props["m"] == 1 and o.kind == k) for k in ("det", "act")]
    return ops, warmup


def _det_op(lib, p, rng, diag):
    rows, sign = _planted(rng, p, len(diag), diag)
    A = _to_matrix(lib, p, rows)
    expected = _memo(lambda: ref.scale(ref.product(diag), sign))

    def check(r):
        return r.precision is None and ref.from_series(r) == expected()

    return Op(
        "det",
        lambda: A.det(),
        check,
        lambda r: _perturb_series(lib, r),
        {"p": p, "m": len(diag), "entry_terms": _entry_terms(rows)},
    )


def _act_op(lib, p, rng, m):
    exps = [_exponent(rng, p, -2, 2, 1) for _ in range(m)]
    diag = [{e: Fraction(rng.choice((1, -1, 3)))} for e in exps]
    a_rows, _ = _planted(rng, p, m, diag)
    u_rows, _ = _planted(rng, p, m, [_side_unit(rng, p, 1) for _ in range(m)], 0, 1, lower=False, permute=False)
    v_rows, _ = _planted(rng, p, m, [_side_unit(rng, p, -1) for _ in range(m)], -1, 0, upper=False, permute=False)
    A, U, V = (_to_matrix(lib, p, r) for r in (a_rows, u_rows, v_rows))
    planted = sum(exps)

    def check(r):
        return ref.exponent_of(r.value, p) == planted

    def corrupt(r):
        e = r.value
        return type(r)(type(e)(e.num + 1, e.pow))

    return Op(
        "act",
        lambda: lib.matrices.act(V, A, U).bundle_degree(),
        check,
        corrupt,
        {"p": p, "m": m, "entry_terms": _entry_terms(a_rows)},
    )


# ----------------------------------------------------------------------
# split: classical splitting of planted V1 * diag(s^d) * U1

SPLIT_FIELDS = ("GF2", "GF3", "GF5", "Q")
# Sizes per block of 20: the median falls inside m = 4, the 90th percentile
# inside m = 6.
SPLIT_SLOTS = [2] * 4 + [3] * 4 + [4] * 5 + [5] * 3 + [6] * 4


def _field(lib, name):
    if name == "Q":
        return lib.fields.RationalField()
    return lib.fields.PrimeField(int(name[2:]))


def _field_elem(rng, name):
    if name == "Q":
        return Fraction(rng.choice((1, -1, 2, -3))) / rng.choice((1, 2, 3))
    return rng.randint(1, int(name[2:]) - 1)


def _unimodular(lib, rng, field, name, m, side):
    C = lib.classical
    M = C.LMatrix.identity(field, m)
    for _ in range(m):
        i, j = rng.sample(range(m), 2)
        f = C.LaurentPoly.monomial(field, side * rng.randint(0, 2), _field_elem(rng, name))
        M = M * C.LMatrix.shear(field, m, i, j, f)
    return M


def build_split(lib, seed, blocks):
    rng = random.Random(seed)
    C = lib.classical
    ops = []
    for b, i, m in _blocks(rng, SPLIT_SLOTS, blocks):
        name = SPLIT_FIELDS[(i + b) % 4]
        field = _field(lib, name)
        degrees = [rng.randint(-3, 3) for _ in range(m)]
        V1 = _unimodular(lib, rng, field, name, m, -1)
        U1 = _unimodular(lib, rng, field, name, m, 1)
        A = V1 * C.LMatrix.diagonal_powers(field, degrees) * U1
        ops.append(_split_op(lib, A, degrees, name))
    warmup = [next(o for o in ops if o.props["m"] == 2 and o.props["field"] == f) for f in SPLIT_FIELDS]
    return ops, warmup


def _split_op(lib, A, degrees, name):
    planted = tuple(sorted(degrees))

    def corrupt(r):
        stype, cert = r
        return type(stype)((stype.degrees[0] + 1,) + stype.degrees[1:]), cert

    return Op(
        "split",
        lambda: lib.classical.split(A),
        lambda r: tuple(r[0].degrees) == planted,
        corrupt,
        {"m": A.m, "field": name},
    )


# ----------------------------------------------------------------------
# cli: in-process calls of every command on literal-heavy inputs

# Well-formed calls per block of 20; the other two slots are malformed.
CLI_GOOD = (
    ("norm", 200, "text"), ("norm", 50, "json"), ("unit", 100, "text"),
    ("unit-nonneg", 20, "text"), ("degree", 100, "text"), ("reduce", 200, "text"),
    ("reduce", 50, "json"), ("invert", 4, "text"), ("det", 3, "json"),
    ("transition", 3, "text"), ("bundle-degree", 3, "text"), ("act", 2, "text"),
    ("rand-auto", 3, "text"), ("family", 0, "text"), ("enumerate", 0, "text"),
    ("enumerate-cw", 0, "json"), ("split", 4, "text"), ("verify-split", 3, "text"),
)
CLI_BAD = (
    "wrong-denominator", "syntax", "ragged", "not-a-unit",
    "norm-exceeds-one", "not-transition", "bad-flag", "not-prime",
)
CLI_SLOTS = [("good", g) for g in CLI_GOOD] + [("bad", 0), ("bad", 1)]


def _run_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _corrupt_cli(r):
    code, out, err = r
    if code != 0:
        return 0, out, err
    for idx, ch in enumerate(out):
        if ch.isdigit():
            return code, out[:idx] + str((int(ch) + 1) % 10) + out[idx + 1:], err
    flipped = out.replace("true", "FALSE").replace("false", "true").replace("FALSE", "false")
    return code, flipped, err


def _literal(rng, d, p):
    order = list(d)
    rng.shuffle(order)
    return ref.literal(d, p, order)


def _doc(rng, p, rows):
    return json.dumps({"p": p, "m": len(rows), "entries": [[_literal(rng, d, p) for d in r] for r in rows]})


def _laurent_doc(M, name):
    """Classical matrix as a document, written without the library's printer."""
    doc = {} if name == "Q" else {"p": int(name[2:])}
    doc["m"] = M.m
    entries = []
    for r in M.rows:
        row = []
        for f in r:
            d = {Fraction(n): Fraction(c) for n, c in f.coeffs.items()}
            row.append(ref.literal(d, 1, sorted(d)).replace("v", "s"))
        entries.append(row)
    doc["entries"] = entries
    return json.dumps(doc)


def build_cli(lib, seed, blocks):
    rng = random.Random(seed)
    ops = []
    for b, i, (kind, spec) in _blocks(rng, CLI_SLOTS, blocks):
        p = PRIMES[(i + b) % 3]
        if kind == "good":
            ops.append(_good_cli(lib, rng, p, b, *spec))
        else:
            ops.append(_bad_cli(lib, rng, p, CLI_BAD[(2 * b + spec) % len(CLI_BAD)]))
    warmup = [next(o for o in ops if o.props["command"] == "norm")]
    return ops, warmup


def _good_cli(lib, rng, p, b, command, size, fmt):
    """A well-formed call; ``parse(stdout, json_doc)`` checks its output.

    Sizes, counts and yes/no answers cycle with the block number ``b``, so
    every seed calls each command on the same mix of sizes."""
    P = str(p)
    nbytes = 0
    if command in ("norm", "degree", "unit", "unit-nonneg", "reduce"):
        if command == "reduce":
            coeff = lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 30) * p ** rng.randint(0, 2), rng.choice((1, 7, 11)))
        else:
            coeff = _coeff(rng, p)
        if command == "unit-nonneg":
            d = {Fraction(0): Fraction(1)}
            while len(d) < size:
                d[_exponent(rng, p, 1, 40, 4)] = coeff() * Fraction(p) ** rng.randint(0, 1)
            planted = all(ref.vp(c, p) > 0 for e, c in d.items() if e != 0)
            argv = ["unit", "--ring", "nonneg"]
        else:
            d = _series_dict(rng, p, size, 40, 4, coeff)
            argv = [command]
            if command == "unit":
                if b % 2:
                    d = _unit_dict(rng, p, 0, [1 + k % 3 for k in range(size - 1)], 40, 4)
                    planted = True
                else:
                    planted = len([c for c in d.values() if ref.vp(c, p) == ref.gauss(d, p)]) == 1
        text = _literal(rng, d, p)
        nbytes = len(text)
        argv += ["--prime", P, "--format", fmt, text]
        if command == "norm":
            want = ref.gauss(d, p)
            parse = lambda out, doc: (doc["valuation"] if doc else int(out)) == want
        elif command == "degree":
            want = ref.degree(d, p)
            parse = lambda out, doc: ref.parse_exponent(doc["exponent"] if doc else out, p) == want
        elif command == "reduce":
            want = ref.residue(d, p)
            parse = lambda out, doc: ref.from_series(lib.literals.parse_series(doc["residue"] if doc else out, p)) == want
        else:
            parse = lambda out, doc: (doc["result"] if doc else {"true": True, "false": False}[out]) == planted
    elif command == "invert":
        d = _unit_dict(rng, p, 0, (1, 1, 2))
        prec = 3 + b % 4
        text = _literal(rng, d, p)
        nbytes = len(text)
        argv = ["invert", "--prime", P, "--prec", str(prec), "--format", fmt, text]

        def parse(out, doc):
            inv = lib.literals.parse_series(out, p)
            return ref.inverse_is_sound(d, ref.from_series(inv), ref.precision_of(inv), prec, p)
    elif command in ("det", "transition", "bundle-degree", "act"):
        m = 2 + b % (size - 1)
        if command == "det":
            diag = _planted_diag(rng, p, m)
            rows, sign = _planted(rng, p, m, diag)
            want = ref.scale(ref.product(diag), sign)
            parse = lambda out, doc: ref.from_series(lib.literals.parse_series(doc["series"], p)) == want
        else:
            exps = [_exponent(rng, p, -2, 2, 1) for _ in range(m)]
            diag = [{e: Fraction(rng.choice((1, -1, 3)))} for e in exps]
            if command == "transition" and b % 2:
                diag[0] = {Fraction(0): Fraction(1), Fraction(1): Fraction(1)}
            rows, _ = _planted(rng, p, m, diag)
            planted = all(len(x) == 1 for x in diag)
            want = sum(exps)
            if command == "transition":
                parse = lambda out, doc: {"true": True, "false": False}[out] == planted
            elif command == "bundle-degree":
                parse = lambda out, doc: ref.parse_exponent(out, p) == want
        text = _doc(rng, p, rows)
        if command == "act":
            u_rows, _ = _planted(rng, p, m, [_side_unit(rng, p, 1) for _ in range(m)], 0, 1, lower=False, permute=False)
            v_rows, _ = _planted(rng, p, m, [_side_unit(rng, p, -1) for _ in range(m)], -1, 0, upper=False, permute=False)
            docs = {"V": json.loads(_doc(rng, p, v_rows)), "A": json.loads(text), "U": json.loads(_doc(rng, p, u_rows))}
            text = json.dumps(docs)
            L = lib.literals
            want_m = _memo(lambda: lib.matrices.act(*(L.doc_to_matrix(docs[k], p) for k in "VAU")))
            parse = lambda out, doc: lib.literals.doc_to_matrix(out, p) == want_m()
        nbytes = len(text)
        argv = [command, "--prime", P, "--format", fmt, text]
    elif command == "rand-auto":
        rank, shears, seed = 2 + b % (size - 1), 2 + b % 3, rng.randrange(10**6)
        side = ("nonneg", "nonpos")[b % 2]
        argv = ["rand-auto", "--prime", P, "--side", side, "--rank", str(rank), "--shears", str(shears), "--seed", str(seed)]
        want_m = _memo(lambda: lib.matrices.random_automorphism(p, rank, lib.series.SubringTag(side), shears, seed))
        parse = lambda out, doc: lib.literals.doc_to_matrix(out, p) == want_m()
    elif command == "family":
        k = 2 + b % 2 if p > 2 else 3 + b % 3
        argv = ["family", "--prime", P, "--max-pow", str(k)]
        want_f = _memo(lambda: lib.matrices.degree_one_family(p, k))
        parse = lambda out, doc: [lib.literals.doc_to_matrix(x, p) for x in out.split("\n")] == want_f()
    elif command == "enumerate":
        n = 50 * (1 + b % 4)
        argv = ["enumerate", "--prime", P, "--count", str(n)]
        want_e = _memo(lambda: [ref.exponent_of(e, p) for e in lib.exponents.enumerate_antidiagonal(p, n)])
        parse = lambda out, doc: [ref.parse_exponent(x, p) for x in out.split("\n")] == want_e()
    elif command == "enumerate-cw":
        n = 50 * (1 + (b + 1) % 4)
        argv = ["enumerate", "--order", "calkin-wilf", "--count", str(n), "--format", "json"]
        want_e = _memo(lambda: lib.exponents.enumerate_calkin_wilf(n))
        parse = lambda out, doc: [Fraction(x) for x in doc["values"]] == want_e()
    else:  # split, verify-split
        name = SPLIT_FIELDS[b % 4]
        field = _field(lib, name)
        m = 2 + b % (size - 1)
        degrees = [rng.randint(-3, 3) for _ in range(m)]
        V1 = _unimodular(lib, rng, field, name, m, -1)
        U1 = _unimodular(lib, rng, field, name, m, 1)
        A = V1 * lib.classical.LMatrix.diagonal_powers(field, degrees) * U1
        flag = ["--field", "rational"] if name == "Q" else []
        if command == "split":
            text = _laurent_doc(A, name)
            want_d = tuple(sorted(degrees))
            parse = lambda out, doc: tuple(int(x) for x in out.strip("()").split(",")) == want_d
        else:
            U = _unimodular(lib, rng, field, name, m, 1)
            V = _unimodular(lib, rng, field, name, m, -1)
            text = json.dumps({k: json.loads(_laurent_doc(M, name)) for k, M in (("A", A), ("U", U), ("V", V))})
            parse = lambda out, doc: out == "true"
        nbytes = len(text)
        argv = [command] + flag + [text]

    def check(r):
        code, out, err = r
        if code != 0 or err:
            return False
        out = out.rstrip("\n")
        doc = json.loads(out) if fmt == "json" else None
        return parse(out, doc)

    return Op("cli", lambda: _run_cli(lib, argv), check, _corrupt_cli, {"command": command, "bytes": nbytes, "malformed": False})


def _bad_cli(lib, rng, p, what):
    P = str(p)
    d = _series_dict(rng, p, 20, 40, 4, _coeff(rng, p))
    text = _literal(rng, d, p)
    if what == "wrong-denominator":
        argv, code = ["norm", "--prime", P, text + " + v^(1/7^1)"], 2
    elif what == "syntax":
        argv, code = ["unit", "--prime", P, text + " + * v"], 2
    elif what == "ragged":
        argv, code = ["det", "--prime", P, json.dumps({"p": p, "m": 2, "entries": [[text, "1"], ["1"]]})], 2
    elif what == "not-a-unit":
        bad = {Fraction(0): Fraction(1), Fraction(1, p): Fraction(-1), Fraction(2): Fraction(p)}
        argv, code = ["invert", "--prime", P, "--prec", "5", _literal(rng, bad, p)], 1
    elif what == "norm-exceeds-one":
        argv, code = ["reduce", "--prime", P, text + f" + 1/{p}*v^(1/{p}^5)"], 1
    elif what == "not-transition":
        doc = {"p": p, "m": 2, "entries": [["1 + v", "0"], ["0", "1"]]}
        argv, code = ["bundle-degree", "--prime", P, json.dumps(doc)], 1
    elif what == "bad-flag":
        argv, code = ["invert", "--prime", P, "--prec", "many", text], 2
    else:
        argv, code = ["norm", "--prime", str(p * (p + 1)), text], 2

    def check(r):
        return r[0] == code and r[1] == ""

    return Op("cli", lambda: _run_cli(lib, argv), check, _corrupt_cli, {"command": argv[0], "bytes": len(argv[-1]), "malformed": True})


# name -> (build function, blocks in the timed pool, blocks in a traced pass).
# The pools are large enough that the median and 90th percentile of a run
# rest on many distinct inputs: the matrix and split pools, whose inputs of
# one size vary most in cost, take about one 20 s run to cover.  A traced
# pass covers whole blocks, so its mix is the scheduled one.
WORKLOADS = {
    "series": (build_series, 8, 2),
    "matrix": (build_matrix, 24, 2),
    "split": (build_split, 8, 2),
    "cli": (build_cli, 8, 4),
}
