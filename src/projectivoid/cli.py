"""Command line front end.

Every command reads its input inline or from ``--file``, computes one thing,
and prints the result; ``--format json`` switches the output to a single JSON
object per line.  Exit codes: 0 on success, 1 for domain errors (the error
class name goes to stderr), 2 for unparseable input or bad usage, including
a size above its cap: ``invert --prec`` above ``MAX_PREC``, ``enumerate
--count`` above ``MAX_COUNT``, ``rand-auto --rank`` above ``MAX_RANK`` and
``--shears`` above ``MAX_SHEARS``, a ``family`` of more than
``MAX_FAMILY`` matrices, and a series literal whose exponent denominators
exceed ``literals.MAX_EXP_BITS``.

``main(argv)`` can be called any number of times in one process.  The
argument parser is built on the first call and reused; parsing keeps no
state in it, so one call cannot change the next.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import literals
from .classical import split, splitting_invariance_check
from .errors import DomainError, ParseError
from .exponents import enumerate_antidiagonal, enumerate_calkin_wilf, is_prime
from .fields import PrimeField, RationalField
from .matrices import act, degree_one_family, random_automorphism
from .series import SubringTag


def _input_text(args) -> str:
    inline = getattr(args, "input", None)
    if args.file is not None and inline is not None:
        raise ParseError("give the input inline or with --file, not both")
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read {args.file}: {exc}")
    if inline is None:
        raise ParseError("missing input (pass it inline or with --file)")
    return inline


def _require_prime(args) -> int:
    if args.prime is None:
        raise ParseError("--prime is required for this command")
    return args.prime


def _series_input(args):
    return literals.parse_series(_input_text(args), _require_prime(args))


def _matrix_input(args):
    return literals.doc_to_matrix(_input_text(args), args.prime)


def _bool_lines(args, value: bool):
    if args.format == "json":
        return [json.dumps({"result": value})]
    return ["true" if value else "false"]


def _series_lines(args, f, key: str = "series"):
    text = literals.format_series(f)
    if args.format == "json":
        return [json.dumps({key: text})]
    return [text]


def _matrix_lines(args, doc: dict):
    if args.format == "json":
        return [json.dumps({"matrix": doc})]
    return [json.dumps(doc)]


# ----------------------------------------------------------------------
# command handlers


def _cmd_norm(args):
    v = _series_input(args).gauss_valuation()
    if args.format == "json":
        return [json.dumps({"valuation": None if v.is_infinite else v.v})]
    return [str(v)]


def _cmd_unit(args):
    value = _series_input(args).is_unit(SubringTag(args.ring))
    return _bool_lines(args, value)


def _cmd_invert(args):
    return _series_lines(args, _series_input(args).inverse(args.prec))


def _cmd_degree(args):
    f = _series_input(args)
    text = literals.format_exponent(f.degree(), f.prime)
    if args.format == "json":
        return [json.dumps({"exponent": text})]
    return [text]


def _cmd_reduce(args):
    text = literals.format_residue(_series_input(args).reduce())
    if args.format == "json":
        return [json.dumps({"residue": text})]
    return [text]


def _cmd_det(args):
    return _series_lines(args, _matrix_input(args).det())


def _cmd_transition(args):
    return _bool_lines(args, _matrix_input(args).is_transition())


def _cmd_bundle_degree(args):
    M = _matrix_input(args)
    text = literals.format_exponent(M.bundle_degree().value, M.prime)
    if args.format == "json":
        return [json.dumps({"exponent": text})]
    return [text]


def _triple_input(args, keys=("V", "A", "U")):
    obj = literals.load_doc(_input_text(args))
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ParseError("missing keys: " + ", ".join(missing))
    return obj


def _cmd_act(args):
    obj = _triple_input(args)
    V = literals.doc_to_matrix(obj["V"], args.prime)
    A = literals.doc_to_matrix(obj["A"], args.prime)
    U = literals.doc_to_matrix(obj["U"], args.prime)
    return _matrix_lines(args, literals.matrix_to_doc(act(V, A, U)))


def _cmd_rand_auto(args):
    p = _require_prime(args)
    M = random_automorphism(p, args.rank, SubringTag(args.side), args.shears, args.seed)
    return _matrix_lines(args, literals.matrix_to_doc(M))


def _cmd_family(args):
    p = _require_prime(args)
    # p >= 2, so p^k exceeds MAX_FAMILY once k reaches its bit length: the
    # power is never taken of a large k.
    count = p ** min(args.max_pow, MAX_FAMILY.bit_length()) + 1
    if count > MAX_FAMILY:
        raise ParseError(
            f"--max-pow {args.max_pow} at p = {p} asks for more than {MAX_FAMILY} matrices"
        )
    docs = [literals.matrix_to_doc(M) for M in degree_one_family(p, args.max_pow)]
    if args.format == "json":
        return [json.dumps({"matrices": docs})]
    return [json.dumps(doc) for doc in docs]


def _cmd_enumerate(args):
    if args.order == "antidiagonal":
        p = _require_prime(args)
        values = [literals.format_exponent(e, p) for e in enumerate_antidiagonal(p, args.count)]
    elif args.filter:
        p = _require_prime(args)
        values = [literals.format_exponent(e, p) for e in enumerate_calkin_wilf(args.count, p)]
    else:
        values = [str(q) for q in enumerate_calkin_wilf(args.count)]
    if args.format == "json":
        return [json.dumps({"values": values})]
    return values


def _laurent_field(args, doc):
    if args.field == "rational":
        return RationalField()
    p = args.prime
    doc_p = doc.get("p")
    if doc_p is not None:
        p = literals._doc_prime(doc, args.prime)
    if p is None:
        raise ParseError("a prime is required (--prime or a 'p' key in the document)")
    if not is_prime(p):
        raise ParseError(f"{p} is not a prime")
    return PrimeField(p)


def _cmd_split(args):
    doc = literals.load_doc(_input_text(args))
    field = _laurent_field(args, doc)
    A = literals.doc_to_laurent_matrix(doc, field)
    stype, cert = split(A)
    if args.format == "json":
        return [
            json.dumps(
                {
                    "degrees": list(stype.degrees),
                    "V": literals.laurent_matrix_to_doc(cert.V),
                    "U": literals.laurent_matrix_to_doc(cert.U),
                    "D": literals.laurent_matrix_to_doc(cert.D),
                }
            )
        ]
    return [str(stype)]


def _cmd_verify_split(args):
    obj = _triple_input(args)
    field = _laurent_field(args, literals.load_doc(obj["A"]))
    A = literals.doc_to_laurent_matrix(obj["A"], field)
    U = literals.doc_to_laurent_matrix(obj["U"], field)
    V = literals.doc_to_laurent_matrix(obj["V"], field)
    return _bool_lines(args, splitting_invariance_check(A, U, V))


# ----------------------------------------------------------------------
# argument parsing


# Largest --prec that invert accepts.  Inverting 1 - 2*v + 4*v^(1/2^1) takes
# 0.2 s at precision 500 and 1.8 s at 1000 (CPython 3.11, 2-vCPU Xeon); the
# work grows faster than the square of the precision and with the number of
# terms, so the cap keeps headroom for slower hosts and longer inputs.
MAX_PREC = 500

# The other caps, timed the same way at doubling sizes (CPU seconds, worst of
# p = 2, 3, 5 and of the orders or sides):
# - enumerate: 0.12 s at --count 20000, 0.25 s at 40000, linear in the count;
# - rand-auto: 0.16 s at --rank 8 --shears 16, 0.58 s at 8 and 32, 0.95 s at
#   16 and 16; the work grows with the shears times the cube of the rank;
# - family: 0.21 s for 4097 matrices, 0.40 s for 8193, linear in the count.
MAX_COUNT = 20_000
MAX_RANK = 8
MAX_SHEARS = 16
MAX_FAMILY = 2**12 + 1


def _bounded_int(low=None, high=None):
    """An argparse type: an integer in [low, high], either end open when None,
    else a usage error (exit 2)."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projectivoid",
        description="computations with finite series over p-power exponents",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, handler, help_text, input_help=None):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--prime", type=int, help="session prime p")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--seed", type=int, default=0, help="randomness seed")
        sp.add_argument("--file", help="read the input from a file instead")
        if input_help is not None:
            sp.add_argument("input", nargs="?", help=input_help)
        sp.set_defaults(handler=handler)
        return sp

    command("norm", _cmd_norm, "Gauss valuation of a series", "series literal")
    sp = command("unit", _cmd_unit, "test whether a series is a unit", "series literal")
    sp.add_argument("--ring", choices=("nonneg", "nonpos", "full"), default="full")
    sp = command("invert", _cmd_invert, "invert a unit to a valuation cutoff", "series literal")
    sp.add_argument(
        "--prec", type=_bounded_int(high=MAX_PREC), required=True, help="target valuation cutoff"
    )
    command("degree", _cmd_degree, "largest dominant exponent", "series literal")
    command("reduce", _cmd_reduce, "residue of a norm-one series", "series literal")
    command("det", _cmd_det, "determinant of a matrix document", "matrix JSON")
    command("transition", _cmd_transition, "test the transition-matrix property", "matrix JSON")
    command("bundle-degree", _cmd_bundle_degree, "degree of the determinant line", "matrix JSON")
    command("act", _cmd_act, "apply the two-sided action V*A*U", 'JSON {"V":..,"A":..,"U":..}')
    sp = command("rand-auto", _cmd_rand_auto, "sample a random one-sided automorphism")
    sp.add_argument("--rank", type=_bounded_int(1, MAX_RANK), default=2, help="matrix size")
    sp.add_argument("--side", choices=("nonneg", "nonpos"), required=True)
    sp.add_argument(
        "--shears", type=_bounded_int(0, MAX_SHEARS), default=3, help="number of shear factors"
    )
    sp = command("family", _cmd_family, "degree-one diagonal family at a p-power scale")
    sp.add_argument("--max-pow", type=_bounded_int(low=0), required=True, help="exponent denominator power")
    sp = command("enumerate", _cmd_enumerate, "enumerate nonnegative p-power exponents")
    sp.add_argument("--count", type=_bounded_int(1, MAX_COUNT), default=10, help="how many values")
    sp.add_argument("--order", choices=("antidiagonal", "calkin-wilf"), default="antidiagonal")
    sp.add_argument("--filter", action="store_true", help="keep only p-power denominators")
    sp = command("split", _cmd_split, "factor a classical Laurent matrix", "matrix JSON")
    sp.add_argument("--field", choices=("fp", "rational"), default="fp")
    sp = command(
        "verify-split",
        _cmd_verify_split,
        "check splitting-type invariance under V, U",
        'JSON {"V":..,"A":..,"U":..}',
    )
    sp.add_argument("--field", choices=("fp", "rational"), default="fp")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.prime is not None and not is_prime(args.prime):
            raise ParseError(f"{args.prime} is not a prime")
        lines = args.handler(args)
    except ParseError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
