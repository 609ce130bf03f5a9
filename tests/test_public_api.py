"""The public surface: the names the package exports, the library names that
the benchmark's tracer (perfbench/tracer.py) wraps by name, and the library
calls its workloads (perfbench/workloads.py, perfbench/reference.py) make."""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import projectivoid
import pytest
from helpers import OFFDIAG

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC_NAMES = [
    "BundleDegree", "DimensionMismatch", "DivisionByZero", "DomainError",
    "FactorizationCertificate", "INFINITY", "InvalidAutomorphism", "LMatrix",
    "LaurentPoly", "NegativeValuation", "NonpositivePrecision", "NormExceedsOne",
    "NotATransitionMatrix", "NotAUnit", "NotInvertibleOverRing", "ONE", "PExp",
    "PSeries", "PadicCoeff", "ParseError",
    "PrimeField", "PrimeMismatch", "RaggedMatrix", "RationalField", "ResiduePoly",
    "SMatrix", "SplittingType", "SubringTag", "SubringViolation", "Valuation",
    "WrongPrimeDenominator", "ZERO", "ZeroSeries", "act", "canon",
    "degree_one_family", "doc_to_laurent_matrix", "doc_to_matrix",
    "enumerate_antidiagonal", "enumerate_calkin_wilf", "exp_add", "exp_neg",
    "format_exponent", "format_laurent", "format_residue", "format_series",
    "is_prime", "laurent_matrix_to_doc", "matrix_to_doc", "parse_laurent",
    "parse_series", "random_automorphism", "split", "splitting_invariance_check",
]

# Names that only restated another public call, that only tests called, or
# that nothing raises any more, as (module, dotted name).
REMOVED = [
    ("exponents", "PExp.sign"),
    ("exponents", "exp_sub"),
    ("exponents", "exp_cmp"),
    ("exponents", "antidiagonal_stream"),
    ("coefficients", "Valuation.finite"),
    ("coefficients", "PadicCoeff.of"),
    ("coefficients", "PadicCoeff.abs_cmp"),
    ("fields", "PrimeField.elements"),
    ("fields", "PrimeField.inv"),
    ("fields", "PrimeField.is_zero"),
    ("fields", "RationalField.inv"),
    ("fields", "RationalField.is_zero"),
    ("matrices", "SquareMatrix.entry"),
    ("series", "PSeries.constant"),
    ("series", "PSeries.coefficient"),
    ("series", "PSeries.support"),
    ("series", "PSeries.is_exact"),
    ("series", "ResiduePoly.is_monomial"),
    ("series", "ResiduePoly.support"),
    ("series", "PSeries.monomial_factor"),
    ("series", "UnitDecomposition"),
    ("classical", "LaurentPoly.constant"),
    ("classical", "LaurentPoly.coeff"),
    ("classical", "LaurentPoly.shift"),
    ("classical", "LaurentPoly.scale"),
    ("errors", "IterationLimitExceeded"),
]


def _resolves(owner, dotted: str) -> bool:
    for attr in dotted.split("."):
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def test_public_names():
    assert projectivoid.__all__ == PUBLIC_NAMES
    assert all(hasattr(projectivoid, name) for name in PUBLIC_NAMES)
    for module, dotted in REMOVED:
        assert not _resolves(importlib.import_module("projectivoid." + module), dotted), dotted
        assert not _resolves(projectivoid, dotted), dotted
    # SMatrix.diagonal is SquareMatrix.diagonal: it takes series, not bare exponents.
    assert "diagonal" not in vars(projectivoid.SMatrix)


def test_tracer_finds_every_name_it_wraps(capsys):
    """The namespace perfbench/run.py builds in ``load_library`` (without its
    fresh import), handed to the tracer, which must find every library name
    it wraps, and put each back."""
    saved_path = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        run = importlib.import_module("run")
    finally:
        sys.path[:] = saved_path
    lib = SimpleNamespace(
        pkg=projectivoid,
        **{m: importlib.import_module("projectivoid." + m) for m in run.MODULES},
    )
    main = lib.cli.main
    tracer = run.tracer.Tracer(lib)
    try:
        tracer.install()
        assert lib.cli.main is not main
        assert lib.cli.main(["det", "--prime", "2", OFFDIAG]) == 0
    finally:
        tracer.uninstall()
    assert lib.cli.main is main
    assert capsys.readouterr().out == "1 - v^2\n"
    assert any(span[0] == "cli.main" for span in tracer.spans)


@pytest.mark.parametrize("workload", ["series", "matrix", "split", "cli"])
def test_benchmark_workloads_run_on_the_library(workload):
    """One block of each perfbench workload at seed 7, built on the namespace
    perfbench/run.py builds, and one operation of each kind run, as the
    benchmark's self-test picks them: each result passes its own check, and
    its corrupted result fails it."""
    saved_path = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        run = importlib.import_module("run")
    finally:
        sys.path[:] = saved_path
    lib = SimpleNamespace(
        pkg=projectivoid,
        **{m: importlib.import_module("projectivoid." + m) for m in run.MODULES},
    )
    ops, _ = run.workloads.WORKLOADS[workload][0](lib, 7, 1)
    chosen = {}
    for op in ops:
        chosen.setdefault((op.kind, op.props.get("command"), op.props.get("malformed")), op)
    for key, op in chosen.items():
        result = op.run()
        assert run.passes(op, result, None), key
        assert not run.passes(op, op.corrupt(result), None), key
