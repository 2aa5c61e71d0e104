"""The benchmark's own operations, run in-process against the library.

``perfbench/`` calls meadows through the public API the way the CLI does
and checks every answer with its own oracle.  Running a few of its
operations here makes an API change that breaks the benchmark fail the
test suite too.
"""

import sys
from pathlib import Path

import pytest

import meadows

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run as perfbench  # noqa: E402


@pytest.mark.parametrize("workload, count",
                         [("queries", 16), ("pfsum", 1), ("loci", 1), ("deep", 4)])
def test_benchmark_operations_answer_correctly(workload, count):
    _, timed = perfbench.streams(workload, 3)
    latencies, wrong, raised, errors = perfbench.run_ops(meadows, timed, count=count)
    assert len(latencies) == count
    assert (wrong, raised, errors) == (0, 0, {})
