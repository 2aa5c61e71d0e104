"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that:

1. a tiny run of each workload in BENCHMARK.json prints exactly the
   end-to-end metrics (``--trace 0``) and the per-layer metrics
   (``--trace 1``) named there, with their units, and counts no failure;
2. an expected answer corrupted on purpose makes the operation count as
   failed, for every kind of operation;
3. with only BENCHMARK.json and the benchmark's files present, the
   benchmark exits nonzero without printing a result.

It also prints the failed ratio of the ``deep`` workload, whose inputs nest
beyond the default recursion limit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BUMP = [("c", Fraction(1)), ("+", None)]  # postfix for "+ 1"


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(out) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metric_names(spec: dict) -> None:
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            res = result_of(bench("--workload", workload["name"], "--seed", "7",
                                  "--seconds", "1", "--trace", trace))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (workload["name"], trace, got, want)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            print(f"ok   {workload['name']} --trace {trace}: "
                  f"{len(got)} metrics, {res['attempted']} operations")


def corrupt(op) -> None:
    e = op.expect
    if op.kind in ("normalize", "pfsum"):
        op.expect = (e[0] + BUMP,) + e[1:]
    elif op.kind == "eq":
        op.expect = (not e[0],) + e[1:]
    elif op.kind == "simple":
        op.expect = ((e[0] + BUMP, e[1], None) if e[2] is None
                     else (e[0], e[1], (e[2][0], e[2][1] + 1)))
    elif op.kind == "sumstar":
        op.expect = (e[0] + 1,) + e[1:]
    else:  # loci
        op.expect = e[:3] + (e[3] + BUMP,) + e[4:]


def check_corrupted_answers(m) -> None:
    # The first 16 queries cover every kind, model and variant.
    for workload, count in (("queries", 16), ("pfsum", 1), ("loci", 1)):
        _, timed = run.streams(workload, 3)
        ops = [next(timed) for _ in range(count)]
        _, wrong, raised, _ = run.run_ops(m, iter(ops), count=count)
        assert (wrong, raised) == (0, 0), (workload, wrong, raised)
        for op in ops:
            corrupt(op)
        _, wrong, raised, errors = run.run_ops(m, iter(ops), count=count)
        assert (wrong, raised) == (count, 0), (workload, wrong, raised, errors)
        print(f"ok   {workload}: {count} corrupted answers, {wrong} failed")


def check_without_program() -> None:
    tmp = HERE / ".selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        (tmp / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in HERE.glob("*.py"):
            shutil.copy(path, tmp / "perfbench")
        shutil.copy(HERE / "README.md", tmp / "perfbench")
        out = bench("--workload", "queries", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp)
        assert out.returncode != 0, out
        assert '"metrics"' not in out.stdout, out.stdout
        print(f"ok   without meadows: exit {out.returncode}, "
              f"{out.stderr.strip().splitlines()[-1]}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def report_deep() -> None:
    res = result_of(bench("--workload", "deep", "--seed", "1", "--seconds", "1"))
    print(f"info deep: {res['failed']} of {res['attempted']} operations failed "
          f"(failed_ratio {res['failed'] / res['attempted']:.3f})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    m = run._import_meadows()
    check_corrupted_answers(m)
    check_without_program()
    check_metric_names(spec)
    report_deep()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
