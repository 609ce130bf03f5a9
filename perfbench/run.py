"""Seeded, closed-loop benchmark of projectivoid.

    python3 perfbench/run.py --workload series --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from ``src/`` of
that checkout and nowhere else.  One client in one process issues the next
operation when the previous one has returned and been checked.

``--trace 0`` sets the library up several times (import, input generation,
warm-up) and reports the median as ``setup_s``, then runs the workload's
pool of operations round-robin, in whole blocks, for ``--seconds`` and
reports the end-to-end metrics, with no wrapper installed.  Each operation
is followed by a fixed reference kernel that uses no library code; operation
times are given in ``ref``, multiples of the kernel's CPU time around them,
so that the shared host's changes of speed cancel.  The wall-clock figures
are printed in the ``info`` line.  ``--trace 1`` runs whole passes over the
same pool, alternately without and with the wrappers of ``tracer.py``,
until ``--seconds`` are used, and reports the per-layer metrics and
``trace.overhead_ratio``.  Every result is checked (``workloads.py``); after
the timed phase a self-test hands every checker a corrupted result and
requires each to be rejected.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the run environment, the measured input mix and every metric by name
and unit.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter, namedtuple
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
MAX_TIMED_S = 120.0
REF_WINDOW = 15  # reference kernel runs on each side of an operation
MODULES = (
    "exponents", "coefficients", "series", "determinants", "matrices",
    "fields", "classical", "literals", "cli",
)
END_TO_END = {
    "ops_per_kref": "ops/kref",
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Input property whose histogram is reported for the samples above the 90th
# percentile, per workload.
TAIL_KEY = {"series": "kind", "matrix": "m", "split": "m", "cli": "command"}


Sample = namedtuple("Sample", "index wall cpu ref ok")


class LibraryMissing(Exception):
    pass


def load_library():
    """Import projectivoid afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "projectivoid" or n.startswith("projectivoid.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("projectivoid")
        mods = {m: importlib.import_module("projectivoid." + m) for m in MODULES}
    except ImportError as exc:
        raise LibraryMissing(f"cannot import projectivoid from {SRC}: {exc}") from exc
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise LibraryMissing(f"projectivoid was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(pkg=pkg, **mods)


def setup(workload, seed, traced):
    """Import, generate the inputs and warm up; returns (lib, ops, seconds)."""
    build, blocks, trace_blocks = workloads.WORKLOADS[workload]
    start = time.perf_counter()
    lib = load_library()
    ops, warmup = build(lib, seed, trace_blocks if traced else blocks)
    for op in warmup:
        op.run()
    elapsed = time.perf_counter() - start
    gc.collect()
    return lib, ops, elapsed


def run_op(op):
    """Time one operation; returns (seconds, result, error)."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, result, None


def passes(op, result, error):
    if error is not None:
        return False
    try:
        return bool(op.check(result))
    except Exception:  # a check that cannot read the result rejects it
        return False


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def reference_kernel():
    """A fixed product of two 10-term rational series in plain Python.

    It calls no library code, so its time follows only how fast the host runs
    this process at the moment.  The timed phase runs it after every
    operation and reports operation times as multiples of it."""
    rng = random.Random(0)

    def draw():
        return {
            Fraction(rng.randint(-40, 40), 3 ** rng.randint(0, 3)): Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
            for _ in range(10)
        }

    f, g = draw(), draw()
    return lambda: reference.mul(f, g)


def timed_phase(ops, block, seconds):
    """Run the pool round-robin, in whole blocks, each operation followed by
    the reference kernel; returns a Sample per operation."""
    kernel = reference_kernel()
    kernel()
    samples = []
    start = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        cpu = time.process_time()
        wall, result, error = run_op(op)
        cpu = time.process_time() - cpu
        ref = time.process_time()
        kernel()
        ref = time.process_time() - ref
        samples.append(Sample(i % len(ops), wall, cpu, ref, passes(op, result, error)))
        i += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i >= MIN_OPS and i % block == 0) or elapsed >= MAX_TIMED_S:
            return samples


def ref_costs(samples):
    """Each operation's CPU time over the median CPU time of the reference
    kernel runs around it, so that the host's changes of speed, which last
    seconds to minutes, cancel."""
    refs = [s.ref for s in samples]
    return [
        s.cpu / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
        for i, s in enumerate(samples)
    ]


def traced_phase(lib, ops, seconds, workload):
    """Alternate untraced and traced passes over the pool."""
    tr = tracer.Tracer(lib)
    per_pass, untraced, traced = [], 0.0, 0.0
    attempted = failed = 0
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        for op in ops:
            dt, result, error = run_op(op)
            untraced += dt
            attempted += 1
            failed += not passes(op, result, error)
        outcomes = []
        tr.reset()
        tr.install()
        try:
            for op in ops:
                dt, result, error = run_op(op)
                traced += dt
                outcomes.append((op, result, error))
        finally:
            tr.uninstall()
        per_pass.append(tr.metrics())
        for op, result, error in outcomes:
            attempted += 1
            failed += not passes(op, result, error)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tr.dump(out_dir / f"spans-{workload}.jsonl")
    # Counts repeat exactly from pass to pass; times take the median pass.
    metrics = {
        k: (statistics.median if tracer.PER_LAYER[k] == "s" else statistics.median_low)(p[k] for p in per_pass)
        for k in per_pass[0]
    }
    metrics["trace.overhead_ratio"] = traced / untraced
    return metrics, attempted, failed, len(per_pass)


def self_test(ops):
    """Corrupt one result per kind of input and require the check to fail."""
    chosen = {}
    for op in ops:
        key = (op.kind, op.props.get("command"), op.props.get("malformed"))
        chosen.setdefault(key, op)
    attempted = failed = 0
    for op in chosen.values():
        _, result, error = run_op(op)
        if error is not None:
            continue
        attempted += 1
        failed += not passes(op, op.corrupt(result), None)
    return attempted, failed


def shares(values):
    counts = Counter(values)
    total = sum(counts.values())
    return {str(k): round(v / total, 4) for k, v in sorted(counts.items(), key=lambda kv: str(kv[0]))}


def mix_report(workload, ops, samples, costs, p90):
    """Measured shares of the input properties over the timed samples."""
    timed = [ops[s.index] for s in samples]
    report = {"op": shares(op.kind for op in timed)}
    keys = sorted({k for op in timed for k in op.props})
    for key in keys:
        values = [op.props[key] for op in timed if key in op.props]
        if isinstance(values[0], float) or key == "bytes":
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            report[key] = {"p25": round(q[0], 2), "p50": round(q[1], 2), "p75": round(q[2], 2), "max": max(values)}
        else:
            report[key] = shares(v if not isinstance(v, tuple) else "x".join(map(str, v)) for v in values)
    if workload == "matrix":
        dets = [op for op in timed if op.kind == "det"]
        report["det_share_m_ge_5"] = round(sum(op.props["m"] >= 5 for op in dets) / len(dets), 4)
    if workload == "series":
        report["operand_terms"] = shares(t for op in timed if op.kind == "mul" for t in op.props["terms"])
    key = TAIL_KEY[workload]
    tail = [ops[s.index] for s, cost in zip(samples, costs) if cost >= p90]
    report[f"above_p90_by_{key}"] = shares(op.kind if key == "kind" else op.props[key] for op in tail)
    return report


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env = environment()

    setup_runs = []
    lib = ops = None
    try:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            lib = ops = None  # each set-up starts from the same heap
            gc.collect()
            lib, ops, elapsed = setup(args.workload, args.seed, args.trace)
            setup_runs.append(elapsed)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(setup_runs)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env, "pool": len(ops)}
    if args.trace:
        metrics, attempted, failed, n_pass = traced_phase(lib, ops, args.seconds, args.workload)
        units = tracer.PER_LAYER
        info["passes"] = n_pass
        if metrics["matrices.det.calls"]:
            info["det_share_berkowitz"] = round(metrics["determinants.berkowitz.calls"] / metrics["matrices.det.calls"], 4)
    else:
        samples = timed_phase(ops, len(ops) // workloads.WORKLOADS[args.workload][1], args.seconds)
        attempted = len(samples)
        failed = sum(not s.ok for s in samples)
        costs = ref_costs(samples)
        lat = sorted(c if s.ok else math.inf for s, c in zip(samples, costs))
        wall = sorted(s.wall if s.ok else math.inf for s in samples)
        p90 = percentile(lat, 90)
        metrics = {
            "ops_per_kref": 1e3 * (attempted - failed) / sum(costs),
            "latency_p50_ref": percentile(lat, 50),
            "latency_p90_ref": p90,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        info["samples"] = attempted
        info["samples_above_p90"] = sum(x > p90 for x in lat)
        info["setup_runs_s"] = [round(t, 4) for t in setup_runs]
        info["ref_kernel_ms"] = round(statistics.median(s.ref for s in samples) * 1e3, 4)
        info["wall_clock"] = {
            "ops_per_s": round((attempted - failed) / sum(s.wall for s in samples), 3),
            "latency_p50_ms": round(percentile(wall, 50) * 1e3, 4),
            "latency_p90_ms": round(percentile(wall, 90) * 1e3, 4),
        }
        info["mix"] = mix_report(args.workload, ops, samples, costs, p90)

    st_attempted, st_failed = self_test(ops)
    info["self_test"] = {"attempted": st_attempted, "failed": st_failed, "failed_ratio": st_failed / max(st_attempted, 1)}
    correct = failed == 0 and st_attempted > 0 and st_failed == st_attempted

    print("info " + json.dumps(info))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_ratio = {failed / attempted:.6g} failed/attempted ({failed} of {attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
