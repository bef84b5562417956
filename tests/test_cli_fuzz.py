"""The command line over mutated valid files: every run ends in a declared
exit code with one stderr line on failure, and leaves no partial output.

Each example takes one command, one of the files it reads, and one
mutation of that file's bytes: flipped bytes, a truncation, deep
nesting, a JSON value of the wrong type, a lone surrogate, or a byte
that is not UTF-8.
"""

import contextlib
import io
import json
import os
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from evseq import (
    curriculum_train,
    generate_synthetic,
    linearize,
    parse_schema,
    save_scorer,
    write_dataset,
)
from evseq.cli import main

SCHEMA_TEXT = "Transport: Artifact, Origin, Destination\nArrest-Jail: Person, Agent, Time\n"
READS = {
    "schema-validate": ("schema",),
    "encode": ("gold", "schema"),
    "parse": ("seqs", "schema"),
    "decode": ("gold", "schema", "scorer"),
    "train": ("gold",),
    "eval": ("gold", "preds"),
}
JSON_FILES = {"gold", "preds", "scorer"}
EXIT_CODES = {0, 2, 3, 4, 5, 6}


def argv(command: str, paths: dict, out: str) -> list[str]:
    return {
        "schema-validate": ["schema-validate", paths["schema"]],
        "encode": ["encode", paths["gold"], paths["schema"], "--out", out],
        "parse": ["parse", paths["seqs"], paths["schema"], "--out", out],
        "decode": ["decode", paths["gold"], paths["schema"], paths["scorer"],
                   "--max-len", "24", "--out", out],
        "train": ["train", paths["gold"], "--sub-epochs", "1", "--full-epochs", "2",
                  "--out", out],
        "eval": ["eval", paths["gold"], paths["preds"], "--json", out],
    }[command]


@lru_cache(maxsize=1)
def valid_files(directory: str) -> dict[str, bytes]:
    """The bytes of one valid file of each kind."""
    schema = parse_schema(SCHEMA_TEXT)
    gold = generate_synthetic(schema, seed=5, n_sentences=4, max_events=2, max_args=2)
    files = {"schema": SCHEMA_TEXT.encode("utf-8")}
    for name, examples in (("gold", gold), ("preds", gold[1:])):
        path = Path(directory, name)
        write_dataset(examples, path)
        files[name] = path.read_bytes()
    files["seqs"] = "".join(
        " ".join(linearize(ex.records, schema)) + "\n" for ex in gold
    ).encode("utf-8")
    trained = curriculum_train([ex.pair for ex in gold], sub_epochs=1, full_epochs=1)
    path = Path(directory, "scorer")
    save_scorer(trained.scorer_curriculum, path)
    files["scorer"] = path.read_bytes()
    return files


def json_slots(value, slots: list) -> list:
    """Every (container, key) pair that holds a value inside ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        slots.append((value, key))
        if isinstance(item, (dict, list)):
            json_slots(item, slots)
    return slots


NEST = "\x00nest\x00"
OTHER_TYPES = [None, True, 0, -1, 2.5, 10**30, "", "x y", [], {}, [[]], {"text": 1}]


def mutate_json_line(line: str, kind: str, data) -> str:
    value = json.loads(line)
    slots = json_slots(value, []) if isinstance(value, (dict, list)) else []
    if not slots:
        return "[" * 100_000 + line
    container, key = slots[data.draw(st.integers(0, len(slots) - 1))]
    if kind == "nest":
        container[key] = NEST
        depth = data.draw(st.sampled_from([3, 100_000]))
        return json.dumps(value).replace(json.dumps(NEST), "[" * depth + "]" * depth)
    if kind == "retype":
        container[key] = data.draw(st.sampled_from(OTHER_TYPES))
    else:  # a lone surrogate, written as its \\u escape
        container[key] = data.draw(st.sampled_from(["\ud800", "x \udfff y"]))
    return json.dumps(value)


def mutate(name: str, raw: bytes, kind: str, data) -> bytes:
    if kind == "flip":
        out = bytearray(raw)
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(out) - 1))
            out[at] ^= data.draw(st.integers(1, 255))
        return bytes(out)
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if kind == "not-utf8":
        at = data.draw(st.integers(0, len(raw)))
        bad = data.draw(st.sampled_from([b"\xe9", b"\xff", b"\xed\xa0\x80", b"\xc3"]))
        return raw[:at] + bad + raw[at:]
    lines = raw.decode("utf-8").splitlines()
    at = data.draw(st.integers(0, len(lines) - 1))
    if name in JSON_FILES:
        lines[at] = mutate_json_line(lines[at], kind, data)
    elif kind == "nest":
        lines[at] = "( " * 100_000 + lines[at]
    elif kind == "surrogate":  # UTF-8 cannot hold one: its bytes are not UTF-8
        return raw + b"\xed\xa0\x80\n"
    else:  # retype: a line of another shape
        lines[at] = data.draw(st.sampled_from(["1", "( ) )", ":", "T: , ,", '{"a": 1}']))
    return ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=600, deadline=None)
@given(
    st.sampled_from(sorted(READS)),
    st.sampled_from(["flip", "truncate", "nest", "retype", "surrogate", "not-utf8"]),
    st.data(),
)
def test_cli_over_mutated_files(tmp_path_factory, command, kind, data):
    files = valid_files(str(tmp_path_factory.getbasetemp()))
    work = tmp_path_factory.mktemp("cli-fuzz")
    target = data.draw(st.sampled_from(READS[command]))
    paths = {}
    for name, raw in files.items():
        (work / name).write_bytes(mutate(name, raw, kind, data) if name == target else raw)
        paths[name] = str(work / name)
    out = str(work / "out")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv(command, paths, out))
    err = stderr.getvalue()
    assert code in EXIT_CODES
    if code == 0:
        assert err == ""
    else:
        assert err.endswith("\n") and err.count("\n") == 1, err
    # decode writes every prediction before it exits 6; any other failure writes nothing
    written = {"out"} if code in (0, 6) and command != "schema-validate" else set()
    assert set(os.listdir(work)) == set(files) | written
