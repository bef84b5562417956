"""Small-size checks of the benchmark itself.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SMALL = 0.02  # 20 short sentences, 2 mid-length ones, 8 n-gram decodes
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    outcome = run.run_workload(name, seed=1, seconds=0, trace=trace, scale=SMALL)
    run.print_outcome(outcome)
    print(run.result_line([outcome]))
    lines = capsys.readouterr().out.splitlines()

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.startswith("  ")}
    assert printed == expected
    if trace:
        assert (tmp_path / f"trace-{name}-seed1.jsonl").stat().st_size > 0


def flip_first_choice(scorer, index):
    """Swap the probabilities of '(' and ')' right after the root opens,
    in the first sentence only, so one greedy choice goes the other way."""
    if index != 0:
        return scorer

    class Flipped:
        def next_distribution(self, inp, prefix):
            dist = dict(scorer.next_distribution(inp, prefix))
            if tuple(prefix) == (run.BOS, "("):
                dist["("], dist[")"] = dist.get(")", 0.0), dist.get("(", 0.0)
            return dist

    return Flipped()


def nan_on_first_step(scorer, index):
    if index != 0:
        return scorer

    class Broken:
        def next_distribution(self, inp, prefix):
            dist = scorer.next_distribution(inp, prefix)
            return {t: float("nan") for t in dist} if len(prefix) == 1 else dist

    return Broken()


def test_gate_rejects_one_flipped_greedy_choice():
    with pytest.raises(run.GateError, match="expected"):
        run.run_workload("oracle-greedy-short", seed=1, seconds=0, scale=SMALL, wrap=flip_first_choice)


def test_gate_rejects_a_failure_that_is_not_a_truncation():
    with pytest.raises(run.GateError, match="decode failed"):
        run.run_workload("ngram-greedy-short", seed=1, seconds=0, scale=SMALL, wrap=nan_on_first_step)


def test_failed_gate_exits_nonzero_without_a_result(capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise run.GateError("corrupted output")

    monkeypatch.setattr(run, "run_workload", failing)
    assert run.main(["--workload", "oracle-greedy-short", "--seconds", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "corrupted output" in captured.err


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [*SPEC["command"], "--workload", "oracle-greedy-short", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
