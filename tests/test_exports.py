import ast
from pathlib import Path

import evseq

BENCHMARK_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


def test_all_resolves_without_duplicates_and_covers_the_benchmark():
    names = evseq.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(evseq, name)]
    assert missing == []
    # the benchmark imports its entry points from the package top level
    tree = ast.parse(BENCHMARK_SCRIPT.read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "evseq"
        for alias in node.names
    }
    assert imported
    assert sorted(imported - set(names)) == []
