"""The benchmark's seed-0 outputs equal its pinned reference digests.

``benchmarks/run.py`` prints "matches reference" only when someone runs
it; this runs one seed-0 round of every workload (a few seconds in all)
so that a change to decoded tokens, logprobs or written predictions
fails the test suite.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_seed_0_round_matches_the_reference_digest(name):
    outcome = bench.run_workload(name, 0, 0.0)
    assert outcome.digest == bench.reference_digest(name, 0)
