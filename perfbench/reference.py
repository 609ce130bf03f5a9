"""Reference arithmetic that the result checks use instead of the library.

A series is a plain dict ``{Fraction exponent: nonzero Fraction coefficient}``.
Nothing here calls into ``projectivoid``: the checks read library series
through ``from_series`` and compare them with answers derived from the
planted inputs by this module's own arithmetic, so a fault in the library's
kernels cannot also hide in the expected value.
"""

from __future__ import annotations

import re
from fractions import Fraction


def vp(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def mul(f: dict, g: dict) -> dict:
    acc: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def product(factors) -> dict:
    acc = {Fraction(0): Fraction(1)}
    for f in factors:
        acc = mul(acc, f)
    return acc


def scale(f: dict, c) -> dict:
    return {e: c * a for e, a in f.items() if c * a}


def gauss(f: dict, p: int):
    """Minimum coefficient valuation, None for the zero series."""
    return min((vp(c, p) for c in f.values()), default=None)


def degree(f: dict, p: int) -> Fraction:
    """Largest exponent whose coefficient attains the Gauss valuation."""
    g = gauss(f, p)
    return max(e for e, c in f.items() if vp(c, p) == g)


def residue(f: dict, p: int) -> dict:
    """Term-wise image in F_p of a series whose coefficients are p-integral."""
    out = {}
    for e, c in f.items():
        r = c.numerator * pow(c.denominator, -1, p) % p
        if r:
            out[e] = Fraction(r)
    return out


def agrees_below(f: dict, g: dict, p: int, cutoff: int) -> bool:
    """True when f - g has no term of coefficient valuation below cutoff."""
    for e in set(f) | set(g):
        d = f.get(e, 0) - g.get(e, 0)
        if d and vp(Fraction(d), p) < cutoff:
            return False
    return True


def inverse_is_sound(f: dict, inv: dict, inv_prec, cutoff: int, p: int) -> bool:
    """Check a truncated inverse of the exact unit f by multiplying back.

    The library states the inverse modulo valuation ``inv_prec`` (None when
    exact).  It must state at least the requested ``cutoff``; then f * inv
    is 1 modulo ``inv_prec + gauss(f)``, and the comparison runs only up to
    the smaller of that and ``cutoff``.
    """
    if inv_prec is not None and inv_prec < cutoff:
        return False
    bound = cutoff
    if inv_prec is not None:
        bound = min(bound, inv_prec + gauss(f, p))
    return agrees_below(mul(f, inv), {Fraction(0): Fraction(1)}, p, bound)


# ----------------------------------------------------------------------
# reading library values and CLI text


def exponent_of(e, p: int) -> Fraction:
    """A library exponent ``num / p**pow`` as a Fraction."""
    return Fraction(e.num, p ** e.pow)


def from_series(s) -> dict:
    p = s.prime
    return {exponent_of(e, p): c.value for e, c in s.terms.items()}


def precision_of(s):
    return None if s.precision is None else s.precision.v


_EXP_RE = re.compile(r"^(-?\d+)(?:/(\d+)\^(\d+))?$")


def parse_exponent(text: str, p: int) -> Fraction:
    """Read ``a`` or ``a/p^b`` as printed by the CLI."""
    m = _EXP_RE.match(text.strip())
    if m is None or (m.group(2) is not None and int(m.group(2)) != p):
        raise ValueError(f"not an exponent over p={p}: {text!r}")
    return Fraction(int(m.group(1)), p ** int(m.group(3) or 0))


# ----------------------------------------------------------------------
# writing literals in the library's grammar


def power_of(den: int, p: int) -> int:
    """k with den == p**k."""
    k = 0
    while den > 1:
        if den % p:
            raise ValueError(f"denominator {den} is not a power of {p}")
        den //= p
        k += 1
    return k


def _mono(e: Fraction, p: int) -> str:
    if e.denominator == 1:
        return "v" if e == 1 else f"v^{e.numerator}"
    return f"v^({e.numerator}/{p}^{power_of(e.denominator, p)})"


def literal(f: dict, p: int, order=None) -> str:
    """A series literal for f; ``order`` lists the exponents to write."""
    exps = list(f) if order is None else order
    if not exps:
        return "0"
    parts = []
    for idx, e in enumerate(exps):
        c = f[e]
        mag = abs(c)
        body = str(mag) if e == 0 else f"{mag}*{_mono(e, p)}"
        if idx == 0:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)
