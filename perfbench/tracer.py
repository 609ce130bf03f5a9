"""Per-layer tracing by wrapping the library's public entry points.

``Tracer.install`` replaces functions and methods of the freshly imported
library with wrappers and ``uninstall`` puts the originals back, so untraced
runs execute the library exactly as shipped.  Two kinds of wrapper exist:

* counters, for exponent and coefficient operations, which are called too
  often for a span each;
* spans, recorded in memory as ``(name, parent, start, end)`` and reduced
  when the pass ends: a span's self time is its duration minus the durations
  of its direct children.

A function imported by name into several modules is replaced in every
module that holds it, so callers inside the library see the wrapper too.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "exponents.canon.calls": "count",
    "exponents.exp_add.calls": "count",
    "coefficients.padic_mul.calls": "count",
    "coefficients.padic_add.calls": "count",
    "coefficients.valuation.calls": "count",
    "series.mul.calls": "count",
    "series.mul.term_pairs": "count",
    "series.mul.terms_out": "count",
    "series.mul.self_s": "s",
    "series.add.calls": "count",
    "series.add.self_s": "s",
    "series.inverse.calls": "count",
    "series.inverse.mul_calls": "count",
    "series.inverse.self_s": "s",
    "determinants.leibniz.calls": "count",
    "determinants.leibniz.ring_muls": "count",
    "determinants.leibniz.self_s": "s",
    "determinants.berkowitz.calls": "count",
    "determinants.berkowitz.ring_muls": "count",
    "determinants.berkowitz.self_s": "s",
    "matrices.det.calls": "count",
    "matrices.det.calls.m1": "count",
    "matrices.det.calls.m2": "count",
    "matrices.det.calls.m3": "count",
    "matrices.det.calls.m4": "count",
    "matrices.det.calls.m5": "count",
    "matrices.det.calls.m6plus": "count",
    "matrices.mul.calls": "count",
    "matrices.mul.self_s": "s",
    "matrices.act.total_s": "s",
    "classical.laurent_mul.calls": "count",
    "classical.laurent_mul.term_pairs": "count",
    "classical.laurent_mul.self_s": "s",
    "classical.lmatrix_det.calls": "count",
    "classical.split.total_s": "s",
    "classical.certificate_verify.total_s": "s",
    "fields.mul.calls": "count",
    "fields.add.calls": "count",
    "literals.parse.calls": "count",
    "literals.parse.bytes_in": "bytes",
    "literals.parse.self_s": "s",
    "literals.format.calls": "count",
    "literals.format.bytes_out": "bytes",
    "literals.format.self_s": "s",
    "literals.doc.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.main.exit1": "count",
    "cli.main.exit2": "count",
    "trace.overhead_ratio": "ratio",
}

# Spans whose direct children of these names count as ring multiplications.
_RING_MULS = ("series.mul", "classical.laurent_mul")
_LEAVES = _RING_MULS + ("series.add",)


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.counts = Counter()
        self.spans = []
        self.stack = []
        self._saved = []

    # ------------------------------------------------------------------
    # installing wrappers

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _replace_function(self, fn, wrapper):
        for name, mod in list(sys.modules.items()):
            if name == "projectivoid" or name.startswith("projectivoid."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, attr, wrapper)

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn, after=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except SystemExit as exc:
                result = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end)
                if after is not None:
                    after(counts, args, result)

        return wrapper

    def install(self):
        lib = self.lib
        ex, co, se = lib.exponents, lib.coefficients, lib.series
        ma, de, cl, fi, li = lib.matrices, lib.determinants, lib.classical, lib.fields, lib.literals
        PSeries, PadicCoeff = se.PSeries, co.PadicCoeff

        self._replace_function(ex.canon, self._counter("exponents.canon.calls", ex.canon))
        self._replace_function(ex.exp_add, self._counter("exponents.exp_add.calls", ex.exp_add))
        for attr, key in (("__mul__", "padic_mul"), ("__add__", "padic_add"), ("valuation", "valuation")):
            fn = PadicCoeff.__dict__[attr]
            self._replace(PadicCoeff, attr, self._counter(f"coefficients.{key}.calls", fn))
        for field in (fi.PrimeField, fi.RationalField):
            for attr in ("mul", "add"):
                fn = field.__dict__[attr]
                self._replace(field, attr, self._counter(f"fields.{attr}.calls", fn))

        def series_mul(counts, args, r):
            a, b = args
            counts["series.mul.term_pairs"] += len(a.terms) * len(b.terms)
            if r is not None:
                counts["series.mul.terms_out"] += len(r.terms)

        def laurent_mul(counts, args, r):
            a, b = args
            counts["classical.laurent_mul.term_pairs"] += len(a.coeffs) * len(b.coeffs)

        def smatrix_det(counts, args, r):
            m = args[0].m
            counts["matrices.det.calls." + (f"m{m}" if m < 6 else "m6plus")] += 1

        def parse(counts, args, r):
            counts["literals.parse.bytes_in"] += len(args[0].encode())

        def fmt(counts, args, r):
            if isinstance(r, str):
                counts["literals.format.bytes_out"] += len(r.encode())

        def cli_main(counts, args, r):
            code = r.code if isinstance(r, SystemExit) else r
            if code in (1, 2):
                counts[f"cli.main.exit{code}"] += 1

        for owner, attr, name, after in (
            (PSeries, "__mul__", "series.mul", series_mul),
            (PSeries, "__add__", "series.add", None),
            (PSeries, "inverse", "series.inverse", None),
            (ma.SMatrix, "det", "matrices.det", smatrix_det),
            (ma.SMatrix, "__mul__", "matrices.mul", None),
            (cl.LaurentPoly, "__mul__", "classical.laurent_mul", laurent_mul),
            (cl.LMatrix, "det", "classical.lmatrix_det", None),
            (cl.FactorizationCertificate, "verify", "classical.certificate_verify", None),
        ):
            self._replace(owner, attr, self._span(name, owner.__dict__[attr], after))
        for fn, name, after in (
            (de.leibniz_det, "determinants.leibniz", None),
            (de.berkowitz_det, "determinants.berkowitz", None),
            (ma.act, "matrices.act", None),
            (cl.split, "classical.split", None),
            (li.parse_series, "literals.parse", parse),
            (li.parse_laurent, "literals.parse", parse),
            (li.format_series, "literals.format", fmt),
            (li.format_laurent, "literals.format", fmt),
            (li.format_residue, "literals.format", fmt),
            (li.format_exponent, "literals.format", fmt),
            (li.load_doc, "literals.doc", None),
            (li.doc_to_matrix, "literals.doc", None),
            (li.matrix_to_doc, "literals.doc", None),
            (li.doc_to_laurent_matrix, "literals.doc", None),
            (li.laurent_matrix_to_doc, "literals.doc", None),
            (lib.cli.main, "cli.main", cli_main),
        ):
            self._replace_function(fn, self._span(name, fn, after))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reducing spans

    def reset(self):
        self.counts.clear()
        self.spans.clear()
        self.stack.clear()

    def metrics(self):
        """Per-layer values of one pass, without the overhead ratio."""
        spans = self.spans
        child_time = defaultdict(float)
        ring_muls = Counter()
        calls = Counter()
        total = defaultdict(float)
        for name, parent, start, end in spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
                if name in _RING_MULS:
                    ring_muls[parent] += 1
        self_time = defaultdict(float)
        child_muls = Counter()
        for sid, (name, parent, start, end) in enumerate(spans):
            self_time[name] += end - start - child_time[sid]
            child_muls[name] += ring_muls[sid]

        # "<layer>.<stat>": a counter when one was kept, else a span statistic.
        by_stat = {"calls": calls, "self_s": self_time, "total_s": total,
                   "ring_muls": child_muls, "mul_calls": child_muls}
        out = {}
        for key in PER_LAYER:
            layer, _, stat = key.rpartition(".")
            if key in self.counts:
                out[key] = self.counts[key]
            elif stat in by_stat:
                out[key] = by_stat[stat].get(layer, 0)
            elif key != "trace.overhead_ratio":
                out[key] = 0
        return out

    def dump(self, path):
        """Write the spans of the last pass, one JSON array per line.

        Ring multiplications and additions are left out: the split workload
        makes hundreds of thousands per pass, and their totals are already
        in the metrics.  Their parents keep their ids, so the tree of the
        spans written stays intact."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                if name not in _LEAVES:
                    handle.write(json.dumps([sid, name, parent, start, end]) + "\n")
