import ast
import os
import subprocess
import sys
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


def _is_object_setattr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    )


def _hidden_writes(source: str) -> list[int]:
    """Lines of the ``object.__setattr__`` calls in a module other than
    those in a ``__post_init__`` that set, on ``self``, a field declared
    in the enclosing class: the calls that can hang an undeclared
    attribute on a frozen object."""
    tree = ast.parse(source)
    declared = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        fields = {
            node.target.id
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        }
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and method.name == "__post_init__":
                declared |= {
                    call
                    for call in ast.walk(method)
                    if _is_object_setattr(call)
                    and len(call.args) >= 2
                    and isinstance(call.args[0], ast.Name)
                    and call.args[0].id == "self"
                    and isinstance(call.args[1], ast.Constant)
                    and call.args[1].value in fields
                }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if _is_object_setattr(node) and node not in declared
    )


def test_no_module_hangs_an_undeclared_attribute_on_an_object():
    modules = sorted(Path(evseq.__file__).parent.glob("*.py"))
    assert modules
    hidden = {
        path.name: lines
        for path in modules
        if (lines := _hidden_writes(path.read_text(encoding="utf-8")))
    }
    assert hidden == {}


def test_the_hidden_attribute_check_finds_a_cache_written_onto_a_value():
    source = (
        "@dataclass(frozen=True)\n"
        "class State:\n"
        "    tokens: tuple = ()\n"
        "\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'tokens', tuple(self.tokens))\n"
        "        object.__setattr__(self, '_cache', None)\n"
        "\n"
        "    def advance(self, token):\n"
        "        object.__setattr__(self, 'tokens', self.tokens + (token,))\n"
        "\n"
        "\n"
        "def step(state, token, tries):\n"
        "    out = State(state.tokens + (token,))\n"
        "    object.__setattr__(out, '_view', (tries, token))\n"
        "    return out\n"
    )
    assert _hidden_writes(source) == [7, 10, 15]


def _decode_calls(source: str) -> list[int]:
    """Lines of a module's calls to ``constrained_decode``, by name or as
    an attribute: outside the decoder such a call starts its own
    per-item loop, with its own failure policy, beside ``decode_batch``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name)
            and node.func.id == "constrained_decode"
            or isinstance(node.func, ast.Attribute)
            and node.func.attr == "constrained_decode"
        )
    )


def test_only_the_decoder_calls_constrained_decode():
    modules = sorted(Path(evseq.__file__).parent.glob("*.py"))
    assert "decoder.py" in [path.name for path in modules]
    calls = {
        path.name: lines
        for path in modules
        if path.name != "decoder.py"
        and (lines := _decode_calls(path.read_text(encoding="utf-8")))
    }
    assert calls == {}


def test_the_decode_call_check_finds_a_loop_of_its_own():
    source = (
        "from . import decoder\n"
        "from .decoder import constrained_decode, decode_batch\n"
        "\n"
        "\n"
        "def cmd_decode(args):\n"
        "    predictions = []\n"
        "    for ex in examples:\n"
        "        result = constrained_decode(scorer, ex.inp, schema, config)\n"
        "        predictions.append(result)\n"
        "    others = [decoder.constrained_decode(scorer, ex.inp, schema) for ex in examples]\n"
        "    return decode_batch(scorer, [ex.inp for ex in examples], schema)\n"
    )
    assert _decode_calls(source) == [8, 10]


def test_importing_evseq_loads_neither_openssl_nor_decimal():
    # hashlib loads OpenSSL, and statistics loads decimal and fractions;
    # neither is needed until a RandomScorer scores
    src = Path(evseq.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    code = (
        "import sys, evseq, evseq.cli\n"
        "print(sorted(m for m in ('hashlib', '_hashlib', 'statistics', 'decimal')"
        " if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env, check=True
    )
    assert out.stdout.strip() == "[]"

