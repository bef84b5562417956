"""The one reader and the one writer: not-UTF-8 input named at its line,
whole-or-nothing output, and a closed stdout that ends a command quietly."""

import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from evseq import (
    DataError,
    Example,
    TokenizedInput,
    load_scorer,
    read_dataset,
    save_scorer,
    train_ngram,
    write_dataset,
)
from evseq import cli
from evseq.cli import main
from evseq.files import read_lines, read_text, write_lines

SRC = Path(__file__).resolve().parents[1] / "src"
SCHEMA_TEXT = "Transport: Artifact, Origin, Destination\nArrest-Jail: Person, Agent, Time\n"
LATIN1_LINE = '{"id": "x", "text": "caf\xe9", "events": []}\n'.encode("latin-1")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def schema_file(tmp_path):
    path = tmp_path / "schema.txt"
    path.write_text(SCHEMA_TEXT, encoding="utf-8")
    return str(path)


def example(text: str) -> Example:
    return Example("x", TokenizedInput.from_text(text), ())


def test_a_latin1_byte_exits_4_naming_its_file_and_line(capsys, tmp_path, schema_file):
    ok = '{"id": "w", "text": "café", "events": []}\n'.encode("utf-8")
    dataset = tmp_path / "data.jsonl"
    # the bad byte lies past the first chunk the line iteration decodes
    dataset.write_bytes(ok * 400 + LATIN1_LINE)
    schema = tmp_path / "latin1-schema.txt"
    schema.write_bytes(SCHEMA_TEXT.encode("utf-8") + "Caf\xe9: Agent\n".encode("latin-1"))
    seqs = tmp_path / "seqs.txt"
    seqs.write_bytes(b"( )\n( caf\xe9 )\n")
    vocab = tmp_path / "vocab.txt"
    vocab.write_bytes(b"alpha beta\ngamma caf\xe9\n")
    for argv, path, line, column in [
        (("encode", str(dataset), schema_file), dataset, 401, 25),
        (("schema-validate", str(schema)), schema, 3, 4),
        (("parse", str(seqs), schema_file), seqs, 2, 6),
        (("synth", schema_file, "--vocab-file", str(vocab)), vocab, 2, 10),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, ""), argv
        assert err == (
            f"format error: {path}:{line}: not UTF-8: byte 0xe9 at column {column}"
            " (invalid continuation byte)\n"
        )


def test_the_reader_keeps_the_codecs_error_as_the_cause(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ok\n\xff\n")
    with pytest.raises(DataError) as err:
        read_text(path)
    assert str(err.value) == f"{path}:2: not UTF-8: byte 0xff at column 1 (invalid start byte)"
    assert isinstance(err.value.__cause__, UnicodeDecodeError)
    with pytest.raises(DataError) as err:
        list(read_lines(path))
    assert str(err.value) == f"{path}:2: not UTF-8: byte 0xff at column 1 (invalid start byte)"


def test_load_scorer_words_a_non_utf8_artifact_as_the_codec_does(tmp_path):
    path = tmp_path / "scorer.json"
    path.write_bytes(b'{"format": "\xff"}')
    with pytest.raises(ValueError) as err:
        load_scorer(path)
    assert type(err.value) is ValueError
    assert str(err.value) == (
        f"{path}: malformed scorer artifact: "
        "'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"
    )


def test_a_pipe_that_is_not_utf8_is_named_without_a_line(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(b"ok\n" * 5000 + b"\xe9\n",))
    writer.start()
    try:
        with pytest.raises(DataError) as err:
            list(read_lines(fifo))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert str(err.value) == f"{fifo}: not UTF-8 (invalid continuation byte)"


def test_a_failed_write_leaves_no_file_and_an_old_one_unchanged(tmp_path):
    bad = Example("y", TokenizedInput.from_tokens(["\ud800"]), ())
    path = tmp_path / "data.jsonl"
    with pytest.raises(UnicodeEncodeError):
        write_dataset([example("a b"), bad], path)
    assert list(tmp_path.iterdir()) == []
    write_dataset([example("old")], path)
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        write_dataset([example("a b"), bad], path)
    assert path.read_bytes() == before
    scorer = train_ngram([(TokenizedInput.from_tokens(["a"]), ("(", "\ud800", ")"))])
    artifact = tmp_path / "scorer.json"
    with pytest.raises(UnicodeEncodeError):
        save_scorer(scorer, artifact)
    assert not artifact.exists()
    artifact.write_bytes(b"old\n")
    with pytest.raises(UnicodeEncodeError):
        save_scorer(scorer, artifact)
    assert artifact.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "scorer.json"]


def test_a_failed_out_write_leaves_no_file_and_an_old_one_unchanged(
    capsys, tmp_path, schema_file, monkeypatch
):
    lines = iter(['{"id": "a"}', "\ud800"])
    monkeypatch.setattr(cli, "dataset_line", lambda ex: next(lines, "{}"))
    out = tmp_path / "synth.jsonl"
    code, _, err = run(capsys, "synth", schema_file, "--n", "3", "--out", str(out))
    assert code == 4
    assert err.startswith("error: 'utf-8' codec can't encode character '\\ud800'")
    assert not out.exists()
    out.write_bytes(b"old\n")
    lines = iter(['{"id": "a"}', "\ud800"])
    code, _, _ = run(capsys, "synth", schema_file, "--n", "3", "--out", str(out))
    assert code == 4
    assert out.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["schema.txt", "synth.jsonl"]


def test_a_device_is_written_in_place_not_replaced(capsys, tmp_path, schema_file):
    before = os.stat(os.devnull)
    code, _, _ = run(capsys, "synth", schema_file, "--n", "3", "--out", os.devnull)
    assert code == 0
    write_dataset([example("a")], os.devnull)
    after = os.stat(os.devnull)
    assert stat.S_ISCHR(after.st_mode)
    assert (after.st_ino, after.st_rdev, after.st_mode) == (
        before.st_ino, before.st_rdev, before.st_mode
    )


def test_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    try:
        write_lines(fifo, ["a", "b"])
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [b"a\nb\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_a_write_keeps_the_mode_and_the_symlink(tmp_path):
    target = tmp_path / "real.txt"
    target.write_bytes(b"old\n")
    target.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(target.name)
    write_lines(link, ["new"])
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == b"new\n"
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o640
    # a new file gets the mode open() would give it
    made_by_open = tmp_path / "by-open.txt"
    made_by_open.write_bytes(b"")
    write_lines(tmp_path / "new.txt", [])
    assert os.stat(tmp_path / "new.txt").st_mode == os.stat(made_by_open).st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "by-open.txt", "link.txt", "new.txt", "real.txt"
    ]


def test_write_errors_name_the_target(capsys, tmp_path, schema_file, monkeypatch):
    missing = tmp_path / "no-such-dir" / "out.jsonl"
    code, _, err = run(capsys, "synth", schema_file, "--n", "1", "--out", str(missing))
    assert code == 3
    assert err == f"i/o error: [Errno 2] No such file or directory: '{missing}'\n"
    # a target open() could not write is refused, not replaced
    locked = tmp_path / "locked.jsonl"
    locked.write_bytes(b"old\n")
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    with pytest.raises(PermissionError, match=r"Permission denied: '.*locked\.jsonl'"):
        write_lines(locked, ["new"])
    assert locked.read_bytes() == b"old\n"


def test_only_stdout_is_none_a_library_dash_is_a_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_dataset([example("a")], "-")
    assert capsys.readouterr().out == ""
    assert read_dataset("-")[0].inp.text == "a"
    write_lines(None, ["a", "b"])
    assert capsys.readouterr().out == "a\nb\n"


@pytest.mark.parametrize("command", ["encode", "eval", "schema-validate"])
def test_a_closed_stdout_ends_the_command_quietly(tmp_path, schema_file, command):
    data = tmp_path / "data.jsonl"
    write_dataset([example(f"sentence {i}") for i in range(2000)], data)
    argv = {
        "encode": ["encode", str(data), schema_file],
        "eval": ["eval", str(data), str(data)],
        "schema-validate": ["schema-validate", schema_file],
    }[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "evseq.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (3, b"")
