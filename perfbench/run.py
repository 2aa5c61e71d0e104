"""Benchmark for meadows: seeded closed-loop workloads, checked answers.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 30 --trace 0

One client, one process, one thread.  With ``--trace 0`` it reports the
end-to-end metrics: set-up (import) time, throughput, median and tail
latency, and peak memory.  With ``--trace 1`` it runs a fixed number of
operations with spans around the calls into each layer and reports the
per-layer metrics, plus the tracing overhead measured against an untraced
replay of the same operations in a fresh process.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Workloads and the reasons for them are listed in BENCHMARK.json and in
README.md beside this file.  ``deep`` is an extra workload, not listed in
BENCHMARK.json: every operation nests beyond the default recursion limit,
so its failures show that defect.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
WARMUP_OPS = {"queries": 200, "pfsum": 1, "loci": 1, "deep": 4}
# Operations per second of --seconds in a traced run: a fixed count, so the
# per-layer counts repeat exactly for a seed.
TRACE_RATE = {"queries": 100, "pfsum": 0.6, "loci": 0.6, "deep": 20}
TAIL_BEYOND = 10
_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
           "t = time.perf_counter(); import meadows, meadows.cli; "
           "print(time.perf_counter() - t)")


def _import_meadows():
    if not (SRC / "meadows" / "__init__.py").is_file():
        sys.exit(f"error: no meadows sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import meadows
    import meadows.cli  # noqa: F401  (the CLI's import cost is part of set-up)

    if Path(meadows.__file__).resolve().parent != SRC / "meadows":
        sys.exit(f"error: imported meadows from {meadows.__file__}, not {SRC}")
    return meadows


def measure_setup() -> float:
    """Median time for a fresh interpreter to import meadows and its CLI.
    The first import, which may write bytecode caches, is not counted."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-I", "-c", _IMPORT, str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times[1:])


def import_breakdown() -> tuple[float, float]:
    """(self time of meadows modules, time of the modules they pull in),
    from one interpreter started with -X importtime."""
    out = subprocess.run([sys.executable, "-I", "-X", "importtime", "-c",
                          _IMPORT, str(SRC)], capture_output=True, text=True,
                         check=True, timeout=60)
    own = total = 0
    for line in out.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(meadows\S*)$", line)
        if m:
            own += int(m.group(1))
            if len(m.group(3)) == 1:  # imported by the -c program itself
                total += int(m.group(2))
    return own / 1e6, (total - own) / 1e6


def streams(workload: str, seed: int):
    """Warm-up and timed operation streams: disjoint seeds, one shared
    record of inputs already used."""
    seen: set = set()
    make = workloads.WORKLOADS[workload]
    warm = make(random.Random(f"meadows-{workload}-{seed}-warm"), seen)
    timed = make(random.Random(f"meadows-{workload}-{seed}"), seen)
    return warm, timed


def run_ops(m, ops, count=None, seconds=None):
    """Closed loop over ``count`` operations, or for ``seconds`` (at least
    one operation): each is timed around its calls into meadows only and
    checked after the clock stops.  Any exception, or a wrong answer, is a
    failed operation; none is dropped or retried.
    Returns (latencies, wrong, raised, errors)."""
    latencies: list[float] = []
    wrong = raised = 0
    errors: dict[str, int] = {}
    clock = time.perf_counter
    deadline = None if seconds is None else clock() + seconds

    def more() -> bool:
        if count is not None:
            return len(latencies) < count
        return not latencies or clock() < deadline

    while more():
        op = next(ops)
        start = clock()
        try:
            result = op.run(m)
        except Exception as exc:  # every exception counts as a failure
            latencies.append(clock() - start)
            raised += 1
            key = f"{op.kind}: {type(exc).__name__}"
            errors[key] = errors.get(key, 0) + 1
            continue
        latencies.append(clock() - start)
        try:
            ok, reason = op.check(result), "wrong answer"
        except Exception as exc:  # a result the judge cannot read is wrong
            ok, reason = False, f"unreadable result ({type(exc).__name__})"
        if not ok:
            wrong += 1
            key = f"{op.kind}: {reason}"
            errors[key] = errors.get(key, 0) + 1
    return latencies, wrong, raised, errors


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least
    TAIL_BEYOND samples above it, i.e. the (TAIL_BEYOND+1)-th largest."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return 100.0 * k / len(ordered), ordered[k]


def end_to_end(m, workload: str, seed: int, seconds: float):
    setup_s = measure_setup()
    warm, timed = streams(workload, seed)
    run_ops(m, warm, count=WARMUP_OPS[workload])
    latencies, wrong, raised, errors = run_ops(m, timed, seconds=seconds)
    pct, tail_s = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (len(latencies) / math.fsum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    n = len(latencies)
    notes = [f"latency_tail_ms is p{pct:.3f}: {min(TAIL_BEYOND, n - 1)} of {n} "
             f"samples lie above it"]
    return metrics, n, wrong, raised, errors, notes


def _replay_seconds(workload: str, seed: int, count: int) -> float:
    """Untraced time of the traced run's operations, in a fresh process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--replay", str(count)],
        capture_output=True, text=True, check=True, timeout=170)
    return float(out.stdout.split()[-1])


def traced(m, workload: str, seed: int, seconds: float):
    count = max(1, round(TRACE_RATE[workload] * seconds))
    import_self, import_deps = import_breakdown()
    warm, timed = streams(workload, seed)
    run_ops(m, warm, count=WARMUP_OPS[workload])
    hits0, misses0, _ = tracing.cache_stats()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        latencies, wrong, raised, errors = run_ops(m, timed, count=count)
    finally:
        tracer.uninstall()
    hits, misses, entries = tracing.cache_stats()
    hits, misses = hits - hits0, misses - misses0
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{workload}-seed{seed}.csv.gz")
    layer = tracer.layer_metrics()
    own, calls = layer["self_s"], layer["calls"]
    untraced = _replay_seconds(workload, seed, count)

    def self_of(*names):
        return math.fsum(own.get(n, 0.0) for n in names)

    metrics = {
        "factor.self_s": (self_of("factor"), "s"),
        "factor.calls": (calls.get("factor", 0), "count"),
        "factor.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "factor.cache_size": (entries, "count"),
        "poly.self_s": (self_of("poly"), "s"),
        "poly.bezout_self_s": (self_of("poly.poly_bezout"), "s"),
        "poly.bezout_calls": (calls.get("poly.poly_bezout", 0), "count"),
        "poly.bezout_max_degree": (tracer.bezout_max_degree, "degree"),
        "poly.max_coeff_bits": (tracer.max_coeff_bits, "bits"),
        "poly.gcd_self_s": (self_of("poly.poly_gcd"), "s"),
        "poly.gcd_calls": (calls.get("poly.poly_gcd", 0), "count"),
        "poly.interp_self_s": (self_of("poly.lagrange_weights", "poly.lagrange_interpolate"), "s"),
        "poly.trace_sum_self_s": (self_of("poly.trace_sum"), "s"),
        "normalform.self_s": (self_of("normalform"), "s"),
        "normalform.nf_ops": (layer["nf_ops"], "count"),
        "mixed.self_s": (self_of("mixed"), "s"),
        "mixed.check_s": (layer["check_s"], "s"),
        "decide.self_s": (self_of("decide"), "s"),
        "terms.self_s": (self_of("terms"), "s"),
        "terms.calls": (calls.get("terms", 0), "count"),
        "import.meadows_self_s": (import_self, "s"),
        "import.deps_s": (import_deps, "s"),
        "trace.overhead_ratio": (math.fsum(latencies) / untraced, "ratio"),
    }
    notes = [f"{len(tracer)} spans written to "
             f"{(out_dir / f'{workload}-seed{seed}.csv.gz').relative_to(ROOT)}"]
    return metrics, len(latencies), wrong, raised, errors, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=int, default=None,
                        help=argparse.SUPPRESS)  # used by --trace 1 only
    args = parser.parse_args(argv)
    m = _import_meadows()

    if args.replay is not None:
        warm, timed = streams(args.workload, args.seed)
        run_ops(m, warm, count=WARMUP_OPS[args.workload])
        latencies = run_ops(m, timed, count=args.replay)[0]
        print(math.fsum(latencies))
        return 0

    measure = traced if args.trace else end_to_end
    metrics, attempted, wrong, raised, errors, notes = measure(
        m, args.workload, args.seed, args.seconds)
    failed = wrong + raised
    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations, "
          f"{failed} failed (failed_ratio {failed / attempted:.6f})")
    for key, n in sorted(errors.items()):
        print(f"  {n} x {key}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
