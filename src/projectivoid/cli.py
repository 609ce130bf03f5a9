"""Command line front end.

Every command that takes an input reads it inline or from ``--file``
(``rand-auto``, ``family`` and ``enumerate`` take none), computes one thing,
and prints the result; ``--format json`` switches the output to a single JSON
object per line.  Exit codes: 0 on success, 1 for domain errors (the error
class name goes to stderr), 2 for unparseable input or bad usage, including
a size above its cap: ``invert --prec`` above ``MAX_PREC``, ``enumerate
--count`` above ``MAX_COUNT``, ``rand-auto --rank`` above ``MAX_RANK`` and
``--shears`` above ``MAX_SHEARS``, a ``family`` of more than ``MAX_FAMILY``
matrices, a matrix document of more than ``literals.MAX_M`` rows, a series
literal whose exponent denominators exceed ``literals.MAX_EXP_BITS``, a
numeral of more than ``literals.MAX_DIGITS`` digits in a literal, a JSON
document or a result, and a ``split`` or ``verify-split`` document whose pass
bound, the sum over its columns of their exponent spreads, exceeds
``classical.MAX_SPLIT_PASSES``.

``main(argv)`` can be called any number of times in one process.  The
parsers, and a table of each command's argparse actions, are built on the
first call and reused; parsing keeps no state in them, so one call cannot
change the next.  After a command name, a plain argv (exact option strings,
each once, values not led by "-", and the one input) is read from the table
with the actions' own types, choices and defaults.  Every other argv (none,
``-h``, an unknown command, an option first, or a command's argv that is not
plain) goes to the top-level parser.  argparse alone prints help and usage
errors and reads abbreviations, ``--opt=value`` and "-"-led values; both
routes give one namespace, output and exit code.
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
    inline = args.input
    if args.file is not None and inline is not None:
        raise ParseError("give the input inline or with --file, not both")
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                return handle.read()
        except (OSError, UnicodeDecodeError) as exc:
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


def _result(args, key: str, value, text: str | None = None):
    """The one output line of a command: {key: value} in JSON, else the text
    (the value itself when no text is given)."""
    if args.format == "json":
        return [json.dumps({key: value})]
    return [value if text is None else text]


def _bool_lines(args, value: bool):
    return _result(args, "result", value, "true" if value else "false")


def _matrix_lines(args, doc: dict):
    return _result(args, "matrix", doc, json.dumps(doc))


# ----------------------------------------------------------------------
# command handlers


def _cmd_norm(args):
    f = _series_input(args)
    f.check_determined()
    v = f.gauss_valuation()
    return _result(args, "valuation", None if v.is_infinite else v.v, str(v))


def _cmd_unit(args):
    return _bool_lines(args, _series_input(args).is_unit(SubringTag(args.ring)))


def _cmd_invert(args):
    return _result(args, "series", literals.format_series(_series_input(args).inverse(args.prec)))


def _cmd_degree(args):
    f = _series_input(args)
    return _result(args, "exponent", literals.format_exponent(f.degree(), f.prime))


def _cmd_reduce(args):
    return _result(args, "residue", literals.format_residue(_series_input(args).reduce()))


def _cmd_det(args):
    return _result(args, "series", literals.format_series(_matrix_input(args).det()))


def _cmd_transition(args):
    return _bool_lines(args, _matrix_input(args).is_transition())


def _cmd_bundle_degree(args):
    M = _matrix_input(args)
    return _result(args, "exponent", literals.format_exponent(M.bundle_degree().value, M.prime))


def _triple_input(args):
    obj = literals.load_doc(_input_text(args))
    missing = [k for k in ("V", "A", "U") if k not in obj]
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
    docs = literals._matrix_docs(degree_one_family(p, args.max_pow))
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
    doc = literals.load_doc(obj["A"])
    field = _laurent_field(args, doc)
    A, U, V = (literals.doc_to_laurent_matrix(d, field) for d in (doc, obj["U"], obj["V"]))
    return _bool_lines(args, splitting_invariance_check(A, U, V))


# ----------------------------------------------------------------------
# argument parsing


# Largest --prec that invert accepts.  Inverting 1 - 2*v + 4*v^(1/2^1) takes
# 0.08 s of CPU at precision 500 and 0.7 s at 1000 (CPython 3.11.7, 2-vCPU
# Xeon); the work grows faster than the square of the precision and with the
# number of terms (a five-term unit takes 1.0 s at 200), so the cap keeps
# headroom for slower hosts and longer inputs.
MAX_PREC = 500

# The other caps, timed the same way at doubling sizes (CPU seconds, worst of
# p = 2, 3, 5 and of the orders or sides):
# - enumerate: 0.009 s at --count 10000 and 0.018 s at 20000, in either
#   order, linear in the count (cli.main in one process, best of 7);
# - rand-auto: 0.0005 s at --rank 8 --shears 16, 0.005 s at 8 and 32, 0.0007
#   s at 16 and 16 (random_automorphism and its JSON document in one process,
#   best of 7); each shear is one column operation and adds terms to the
#   entries, so the work grows faster than the shear count;
# - family: 0.03 s for 4097 matrices, 0.07 s for 8193, linear in the count.
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
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The top-level parser, and each command's table (``_table``) by name."""
    parser = argparse.ArgumentParser(
        prog="projectivoid",
        description="computations with finite series over p-power exponents",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    tables = {}

    def command(name, handler, help_text, input_help=None):
        sp = sub.add_parser(name, help=help_text)
        tables[name] = name, handler, (actions := [])
        add = lambda *names, **kw: actions.append(sp.add_argument(*names, **kw))
        add("--prime", type=int, help="session prime p")
        add("--format", choices=("text", "json"), default="text")
        if input_help is not None:
            add("--file", help="read the input from a file instead")
            add("input", nargs="?", help=input_help)
        sp.set_defaults(handler=handler)
        return add

    command("norm", _cmd_norm, "Gauss valuation of a series", "series literal")
    add = command("unit", _cmd_unit, "test whether a series is a unit", "series literal")
    add("--ring", choices=("nonneg", "nonpos", "full"), default="full")
    add = command("invert", _cmd_invert, "invert a unit to a valuation cutoff", "series literal")
    add("--prec", type=_bounded_int(high=MAX_PREC), required=True, help="target valuation cutoff")
    command("degree", _cmd_degree, "largest dominant exponent", "series literal")
    command("reduce", _cmd_reduce, "residue of a norm-one series", "series literal")
    command("det", _cmd_det, "determinant of a matrix document", "matrix JSON")
    command("transition", _cmd_transition, "test the transition-matrix property", "matrix JSON")
    command("bundle-degree", _cmd_bundle_degree, "degree of the determinant line", "matrix JSON")
    command("act", _cmd_act, "apply the two-sided action V*A*U", 'JSON {"V":..,"A":..,"U":..}')
    add = command("rand-auto", _cmd_rand_auto, "sample a random one-sided automorphism")
    add("--rank", type=_bounded_int(1, MAX_RANK), default=2, help="matrix size")
    add("--side", choices=("nonneg", "nonpos"), required=True)
    add("--shears", type=_bounded_int(0, MAX_SHEARS), default=3, help="number of shear factors")
    add("--seed", type=int, default=0, help="randomness seed")
    add = command("family", _cmd_family, "degree-one diagonal family at a p-power scale")
    add("--max-pow", type=_bounded_int(low=0), required=True, help="exponent denominator power")
    add = command("enumerate", _cmd_enumerate, "enumerate nonnegative p-power exponents")
    add("--count", type=_bounded_int(1, MAX_COUNT), default=10, help="how many values")
    add("--order", choices=("antidiagonal", "calkin-wilf"), default="antidiagonal")
    add("--filter", action="store_true", help="keep only p-power denominators")
    add = command("split", _cmd_split, "factor a classical Laurent matrix", "matrix JSON")
    add("--field", choices=("fp", "rational"), default="fp")
    add = command(
        "verify-split",
        _cmd_verify_split,
        "check splitting-type invariance under V, U",
        'JSON {"V":..,"A":..,"U":..}',
    )
    add("--field", choices=("fp", "rational"), default="fp")
    return parser, {name: _table(*t) for name, t in tables.items()}


def _table(name, handler, actions) -> tuple:
    """A command's actions by option string, positional, required dests,
    defaults, and the option strings that may not lead its positional."""
    options = {s: a for a in actions for s in a.option_strings}
    positional = next((a for a in actions if not a.option_strings), None)
    defaults = {"command": name, **{a.dest: a.default for a in actions}, "handler": handler}
    required = {a.dest for a in actions if a.required}
    return options, positional, required, defaults, ("-h", "--help", *options)


def _read_plain(table, argv) -> argparse.Namespace | None:
    """argparse's namespace for a plain argv (module docstring), read with the
    table of the command argv[0]; else None.  It never raises."""
    options, positional, required, defaults, prefixes = table
    values, tokens = {}, iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None:
            action, value = positional, token
            # The input is led by "-" only where argparse surely reads it as
            # an argument: it holds a space, and no "=" or option splits it.
            if action is None or token[:1] == "-" and (
                    " " not in token or "=" in token or token.startswith(prefixes)):
                return None
        elif action.nargs == 0:
            value = action.const
        elif (token := next(tokens, "-"))[:1] == "-":
            return None
        else:
            try:
                value = token if action.type is None else action.type(token)
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        if action.dest in values:
            return None
        values[action.dest] = value
    return argparse.Namespace(**{**defaults, **values}) if required <= values.keys() else None


def _parse_args(argv) -> argparse.Namespace:
    """What ``_parsers()[0].parse_args(argv)`` returns, prints and exits with:
    ``_read_plain``'s namespace for a plain argv, else that call itself, which
    keeps every other form (help, usage errors, abbreviations, ``--opt=value``,
    values led by "-")."""
    parser, tables = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in tables and (args := _read_plain(tables[argv[0]], argv)):
        return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
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
