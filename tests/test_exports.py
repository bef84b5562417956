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


def _unused_imports(source: str) -> list[str]:
    """Names a module's top-level imports bind that it never reads, and
    that ``__all__`` does not re-export."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read and name not in exported]


def test_no_module_has_an_unused_import():
    modules = sorted(Path(evseq.__file__).parent.glob("*.py"))
    assert modules
    unused = {
        path.name: names
        for path in modules
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_the_unused_import_check_finds_a_leftover_import():
    source = "from threading import RLock\nimport os.path\nimport re\n\nre.compile('x')\n"
    assert _unused_imports(source) == ["RLock", "os"]
    assert _unused_imports("from a import b\n__all__ = ['b']\n") == []
