import argparse
import ast
import json
import sys
from pathlib import Path

import pytest

from evseq import (
    DecodeConfig,
    DecodeError,
    Example,
    decode_batch,
    generate_synthetic,
    load_schema,
    load_scorer,
    read_dataset,
    save_scorer,
    train_ngram,
    write_dataset,
)
from evseq import cli
from evseq.cli import _emit, build_parser, main
from evseq.dataio import dataset_line
from evseq.span_index import TokenizedInput

from conftest import FIG_SENTENCE
from oracles import erase_offsets

SCHEMA_TEXT = "Transport: Artifact, Origin, Destination\nArrest-Jail: Person, Agent, Time\n"
BENCHMARK_SCHEMA = Path(__file__).resolve().parents[1] / "benchmarks" / "schema.txt"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def schema_file(tmp_path):
    path = tmp_path / "schema.txt"
    path.write_text(SCHEMA_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture()
def gold_file(tmp_path, fig_input, fig_records):
    path = tmp_path / "gold.jsonl"
    write_dataset([Example("fig-1", fig_input, tuple(fig_records))], path)
    return str(path)


def test_schema_validate_ok(capsys, schema_file):
    code, out, _ = run(capsys, "schema-validate", schema_file)
    assert code == 0
    assert out.strip() == "ok: 2 event types, 6 roles"


def test_schema_validate_bad_schema(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("Transport Artifact\n", encoding="utf-8")
    code, _, err = run(capsys, "schema-validate", str(bad))
    assert code == 5
    assert "schema error" in err


def test_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "schema-validate", str(tmp_path / "nope.txt"))
    assert code == 3
    assert "i/o error" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_encode_to_stdout(capsys, schema_file, gold_file, fig_seq):
    code, out, _ = run(capsys, "encode", gold_file, schema_file)
    assert code == 0
    assert out.strip() == " ".join(fig_seq)


def test_encode_parse_round_trip(capsys, tmp_path, schema_file, gold_file, fig_records):
    seqs = tmp_path / "seqs.txt"
    parsed = tmp_path / "parsed.jsonl"
    code, _, _ = run(capsys, "encode", gold_file, schema_file, "--out", str(seqs))
    assert code == 0
    code, _, _ = run(capsys, "parse", str(seqs), schema_file, "--out", str(parsed))
    assert code == 0
    (example,) = read_dataset(parsed)
    assert example.id == "line-1"
    assert example.records == erase_offsets(fig_records)


def test_parse_accepts_sentinel_wrapped_lines(capsys, tmp_path, schema_file, fig_seq):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("<bos> " + " ".join(fig_seq) + " <eos>\n", encoding="utf-8")
    code, out, _ = run(capsys, "parse", str(seqs), schema_file)
    assert code == 0
    row = json.loads(out.strip())
    assert [e["type"] for e in row["events"]] == ["Transport", "Arrest-Jail"]
    assert row["events"][0]["trigger"]["start"] is None


def test_parse_error_reports_line_and_token(capsys, tmp_path, schema_file):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text(
        "( )\n( ( Transport returned ( BogusRole x ) ) )\n", encoding="utf-8"
    )
    code, _, err = run(capsys, "parse", str(seqs), schema_file)
    assert code == 4
    assert "line 2" in err
    assert "token 5" in err
    assert "unknown role 'BogusRole'" in err
    # With sentinels present, reported positions count them.
    seqs.write_text("<bos> ( ( Transport returned ( BogusRole x ) ) ) <eos>\n")
    code, _, err = run(capsys, "parse", str(seqs), schema_file)
    assert code == 4
    assert "token 6" in err


def test_synth_is_deterministic(capsys, tmp_path, schema_file):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    code, _, err = run(capsys, "synth", schema_file, "--seed", "9", "--n", "30",
                       "--out", str(a))
    assert code == 0
    assert "generated 30 sentences" in err
    run(capsys, "synth", schema_file, "--seed", "9", "--n", "30", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert len(read_dataset(a)) == 30


def test_synth_stdout_is_the_dataset_file_of_its_examples(capsys, tmp_path, schema_file):
    words = [f"café{i}" for i in range(15)]  # not ASCII, written as is
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(" ".join(words), encoding="utf-8")
    code, out, _ = run(capsys, "synth", schema_file, "--vocab-file", str(vocab),
                       "--seed", "4", "--n", "12")
    assert code == 0
    examples = generate_synthetic(load_schema(schema_file), words, seed=4, n_sentences=12)
    path = tmp_path / "synth.jsonl"
    write_dataset(examples, path)
    assert "café" in out
    assert out.encode("utf-8") == path.read_bytes()


def test_synth_rejects_tiny_vocab(capsys, tmp_path, schema_file):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("alpha beta gamma delta\n", encoding="utf-8")
    code, _, err = run(capsys, "synth", schema_file, "--vocab-file", str(vocab))
    assert code == 4
    assert "filler words" in err


def test_synth_custom_vocab(capsys, tmp_path, schema_file):
    words = [f"word{i}" for i in range(15)]
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(" ".join(words), encoding="utf-8")
    out = tmp_path / "synth.jsonl"
    code, _, _ = run(capsys, "synth", schema_file, "--vocab-file", str(vocab),
                     "--n", "10", "--out", str(out))
    assert code == 0
    for ex in read_dataset(out):
        assert set(ex.inp.tokens) <= set(words)


def full_pipeline(capsys, tmp_path, schema_file, extra_train=()):
    corpus = tmp_path / "corpus.jsonl"
    scorer = tmp_path / "scorer.json"
    preds = tmp_path / "preds.jsonl"
    run(capsys, "synth", schema_file, "--seed", "3", "--n", "30", "--out", str(corpus))
    code, out, _ = run(capsys, "train", str(corpus), "--out", str(scorer), *extra_train)
    assert code == 0
    assert "held-out NLL (curriculum)" in out
    assert "held-out NLL (direct)" in out
    code, _, _ = run(capsys, "decode", str(corpus), schema_file, str(scorer),
                     "--beam", "4", "--max-len", "256", "--out", str(preds))
    assert code == 0
    return corpus, scorer, preds


def test_train_decode_eval_pipeline(capsys, tmp_path, schema_file):
    corpus, scorer, preds = full_pipeline(capsys, tmp_path, schema_file)
    assert load_scorer(scorer).order == 3
    gold = read_dataset(corpus)
    predicted = read_dataset(preds)
    assert [p.id for p in predicted] == [g.id for g in gold]
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "eval", str(corpus), str(preds),
                       "--json", str(report_path))
    assert code == 0
    assert "Trig-I" in out and "Arg-C" in out
    report = json.loads(report_path.read_text())
    assert set(report) == {"trig_i", "trig_c", "arg_i", "arg_c"}


def test_train_direct_differs_from_curriculum(capsys, tmp_path, schema_file):
    corpus = tmp_path / "corpus.jsonl"
    run(capsys, "synth", schema_file, "--seed", "3", "--n", "30", "--out", str(corpus))
    direct = tmp_path / "direct.json"
    curriculum = tmp_path / "curriculum.json"
    code, out, _ = run(capsys, "train", str(corpus), "--out", str(direct), "--direct")
    assert code == 0
    assert "saved direct scorer" in out
    assert out.splitlines()[0] == f"saved direct scorer (full targets x1) to {direct}"
    code, out, _ = run(capsys, "train", str(corpus), "--out", str(curriculum))
    assert code == 0
    assert "saved curriculum scorer" in out
    assert out.splitlines()[0] == (
        f"saved curriculum scorer (substructures x5, full targets x30) to {curriculum}"
    )
    assert load_scorer(direct).counts != load_scorer(curriculum).counts
    # full targets re-weighted, no substructure counted: the line says so
    code, out, _ = run(capsys, "train", str(corpus), "--out", str(curriculum),
                       "--sub-epochs", "0", "--alpha", "3.0")
    assert code == 0
    assert out.splitlines()[0] == (
        f"saved curriculum scorer (substructures x0, full targets x30) to {curriculum}"
    )


def test_train_needs_at_least_two_sentences(capsys, tmp_path, schema_file, gold_file):
    code, _, err = run(capsys, "train", gold_file, "--out", str(tmp_path / "s.json"))
    assert code == 4
    assert "at least 2 sentences" in err


def test_malformed_dataset_and_scorer_files_exit_4(capsys, tmp_path, schema_file, gold_file):
    bad_rows = tmp_path / "bad.jsonl"
    bad_rows.write_text('{"id": "x", "text": "a", "events": 5}\n', encoding="utf-8")
    code, _, err = run(capsys, "eval", gold_file, str(bad_rows))
    assert code == 4
    assert "events must be a list" in err
    scorer = tmp_path / "scorer.json"
    save_scorer(train_ngram([(TokenizedInput.from_tokens(["a"]), ("(", ")"))]), scorer)
    payload = json.loads(scorer.read_text())
    counts = payload.pop("counts")
    scorer.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, "decode", gold_file, schema_file, str(scorer),
                       "--out", str(tmp_path / "preds.jsonl"))
    assert code == 4
    assert "scorer artifact has no counts" in err
    payload["counts"] = 5
    scorer.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, "decode", gold_file, schema_file, str(scorer),
                       "--out", str(tmp_path / "preds.jsonl"))
    assert code == 4
    assert f"{scorer}: malformed scorer artifact" in err
    payload["counts"] = [[1, [[[], {"(": "q", ")": 1, "<eos>": 1}]]]]
    scorer.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, "decode", gold_file, schema_file, str(scorer),
                       "--out", str(tmp_path / "preds.jsonl"))
    assert code == 4
    assert f"{scorer}: malformed scorer artifact" in err
    payload["counts"] = [*counts, counts[-1]]
    scorer.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, "decode", gold_file, schema_file, str(scorer),
                       "--out", str(tmp_path / "preds.jsonl"))
    assert code == 4
    assert f"{scorer}: malformed scorer artifact: n-gram order 3 comes twice" in err
    tables = counts[-1][1]
    payload["counts"] = [*counts[:-1], [3, [*tables, tables[0]]]]
    scorer.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, "decode", gold_file, schema_file, str(scorer),
                       "--out", str(tmp_path / "preds.jsonl"))
    assert code == 4
    assert f"order-3 context {tables[0][0]!r} comes twice" in err
    context, pairs = tables[0]
    payload["counts"] = [*counts[:-1], [3, [[context, [*pairs, pairs[0]]], *tables[1:]]]]
    scorer.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, "decode", gold_file, schema_file, str(scorer),
                       "--out", str(tmp_path / "preds.jsonl"))
    assert code == 4
    assert f"counts token {pairs[0][0]!r} twice" in err
    text = json.dumps({**payload, "counts": [[1, [[[], "TABLE"]]]]})
    scorer.write_text(text.replace('"TABLE"', '{"(": 1, "(": 5}'), encoding="utf-8")
    code, _, err = run(capsys, "decode", gold_file, schema_file, str(scorer),
                       "--out", str(tmp_path / "preds.jsonl"))
    assert code == 4
    assert f"{scorer}: malformed scorer artifact: key '(' comes twice" in err
    scorer.write_text("{", encoding="utf-8")
    code, out, err = run(capsys, "decode", gold_file, schema_file, str(scorer),
                         "--out", str(tmp_path / "preds.jsonl"))
    assert (code, out) == (4, "")
    assert err == (
        f"error: {scorer}: malformed scorer artifact: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
    )
    payload.update(counts=counts, alpha=float("nan"))
    scorer.write_text(json.dumps(payload), encoding="utf-8")
    assert '"alpha": NaN' in scorer.read_text(encoding="utf-8")
    code, out, err = run(capsys, "decode", gold_file, schema_file, str(scorer),
                         "--out", str(tmp_path / "nan-preds.jsonl"))
    assert (code, out) == (4, "")
    assert err == f"error: {scorer}: alpha must be finite and > 0, got nan\n"
    assert not (tmp_path / "nan-preds.jsonl").exists()
    for name in ("alpha", "copy_boost"):
        scorer.write_text(json.dumps({**payload, "alpha": 0.1, name: 10**400}), encoding="utf-8")
        code, out, err = run(capsys, "decode", gold_file, schema_file, str(scorer),
                             "--out", str(tmp_path / "huge-preds.jsonl"))
        assert (code, out) == (4, "")
        assert err == f"error: {scorer}: {name} must be finite, got an int too large for a float\n"
        assert not (tmp_path / "huge-preds.jsonl").exists()
    bad_rows.write_text('{"id": null, "text": "a", "events": []}\n', encoding="utf-8")
    code, _, err = run(capsys, "eval", gold_file, str(bad_rows))
    assert code == 4
    assert "id must be a string or an integer" in err
    bad_rows.write_text(
        '{"id": "x", "text": "a", "events": [{"type": "Transport", '
        '"trigger": {"text": " ", "start": null}}]}\n',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "eval", gold_file, str(bad_rows))
    assert (code, out) == (4, "")
    assert err == f"format error: {bad_rows}:1: trigger ' ' contains no tokens\n"


def test_a_count_too_large_for_a_float_exits_4(capsys, tmp_path, schema_file, gold_file):
    scorer = tmp_path / "scorer.json"
    save_scorer(train_ngram([(TokenizedInput.from_tokens(["a"]), ("(", ")"))]), scorer)
    payload = json.loads(scorer.read_text(encoding="utf-8"))
    for _, tables in payload["counts"]:
        tables[0][1][0][1] = 10**400
    scorer.write_text(json.dumps(payload), encoding="utf-8")
    preds = tmp_path / "preds.jsonl"
    code, out, err = run(capsys, "decode", gold_file, schema_file, str(scorer), "--out", str(preds))
    assert (code, out) == (4, "")
    malformed = f"error: {scorer}: malformed scorer artifact: count '(' plus alpha is larger than a float can hold\n"
    assert err == malformed
    assert not preds.exists()
    # an int alpha is added to the count before either becomes a float
    payload["counts"] = payload["counts"][:1]
    largest = int(sys.float_info.max)
    for count in (largest, largest - 10**307 + 1):
        payload["counts"][0][1][0][1][0][1] = count
        scorer.write_text(json.dumps({**payload, "order": 1, "alpha": 10**307}), encoding="utf-8")
        code, out, err = run(capsys, "decode", gold_file, schema_file, str(scorer),
                             "--out", str(preds))
        assert (code, out, err) == (4, "", malformed)
    # the largest sum that converts is still a score; the scores then sum to inf
    payload["counts"][0][1][0][1][0][1] = largest - 10**307
    scorer.write_text(json.dumps({**payload, "order": 1, "alpha": 10**307}), encoding="utf-8")
    assert load_scorer(scorer).counts[1][()]["("] == largest - 10**307
    code, out, err = run(capsys, "decode", gold_file, schema_file, str(scorer), "--out", str(preds))
    assert (code, out) == (4, "")
    assert err.startswith(f"error: alpha={10**307} and copy_boost=4.0 are too large")
    assert not preds.exists()
    # with an int alpha and copy_boost, a boosted score overflows to inf, as with floats
    payload["counts"][0][1][0][1][0][1] = largest - 1
    scorer.write_text(json.dumps({**payload, "order": 1, "alpha": 1, "copy_boost": 4}),
                      encoding="utf-8")
    with pytest.raises(ValueError, match=r"^alpha=1 and copy_boost=4 are too large"):
        load_scorer(scorer).next_distribution(TokenizedInput.from_tokens(["("]), ())


def test_an_integer_with_too_many_digits_exits_4(capsys, tmp_path, gold_file):
    bad_rows = tmp_path / "long-id.jsonl"
    bad_rows.write_text(
        '{"id": 1, "text": "a", "events": []}\n'
        f'{{"id": {"7" * 5000}, "text": "a", "events": []}}\n',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "eval", gold_file, str(bad_rows))
    assert (code, out) == (4, "")
    assert err == f"format error: {bad_rows}:2: invalid JSON: an integer has too many digits\n"


def test_deeply_nested_json_exits_4(capsys, tmp_path, schema_file, gold_file):
    deep = "[" * 100_000 + "]" * 100_000
    bad_rows = tmp_path / "deep.jsonl"
    bad_rows.write_text(f'{{"id": "x", "text": "a", "events": {deep}}}\n', encoding="utf-8")
    scorer = tmp_path / "scorer.json"
    save_scorer(train_ngram([(TokenizedInput.from_tokens(["a"]), ("(", ")"))]), scorer)
    for argv in (
        ("eval", gold_file, str(bad_rows)),
        ("encode", str(bad_rows), schema_file),
        ("decode", str(bad_rows), schema_file, str(scorer)),
        ("train", str(bad_rows), "--out", str(tmp_path / "trained.json")),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, ""), argv
        assert err == f"format error: {bad_rows}:1: invalid JSON: nested too deeply\n"
    payload = json.loads(scorer.read_text(encoding="utf-8"))
    text = json.dumps({**payload, "counts": "COUNTS"})
    scorer.write_text(text.replace('"COUNTS"', deep), encoding="utf-8")
    code, out, err = run(capsys, "decode", gold_file, schema_file, str(scorer))
    assert (code, out) == (4, "")
    assert err == f"error: {scorer}: malformed scorer artifact: nested too deeply\n"


def test_output_that_cannot_be_encoded_leaves_no_file(tmp_path):
    # read_dataset refuses a lone surrogate, so the line is built by hand
    example = Example("x", TokenizedInput.from_tokens(()), ())
    preds = tmp_path / "preds.jsonl"
    with pytest.raises(UnicodeEncodeError) as err:
        _emit(str(preds), [dataset_line(example), "\ud800 y"])
    assert str(err.value).startswith("'utf-8' codec can't encode character '\\ud800'")
    assert not preds.exists()


def test_a_string_that_utf8_cannot_encode_exits_4(capsys, tmp_path, schema_file, gold_file):
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text(
        json.dumps({"id": "w", "text": "y \u00e9", "events": []}) + "\n"
        + json.dumps({"id": "x", "text": "\ud800 y", "events": []}) + "\n",
        encoding="utf-8",
    )
    scorer = tmp_path / "scorer.json"
    save_scorer(train_ngram([(TokenizedInput.from_tokens(["y"]), ("(", ")"))]), scorer)
    preds = tmp_path / "preds.jsonl"
    for argv in (
        ("decode", str(inputs), schema_file, str(scorer), "--out", str(preds)),
        ("encode", str(inputs), schema_file),
        ("eval", gold_file, str(inputs)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, ""), argv
        assert err == (
            f"format error: {inputs}:2: a string holds '\\ud800', which UTF-8 cannot encode\n"
        )
    assert not preds.exists()
    # an escaped character that UTF-8 can encode, and a surrogate pair, read as before
    inputs.write_text(
        json.dumps({"id": "x", "text": "y \u00e9 \U0001f600", "events": []}) + "\n",
        encoding="utf-8",
    )
    assert "\\u00e9 \\ud83d\\ude00" in inputs.read_text(encoding="utf-8")
    (example,) = read_dataset(inputs)
    assert example.inp.text == "y \u00e9 \U0001f600"


def test_eval_identity_is_perfect(capsys, gold_file):
    code, out, _ = run(capsys, "eval", gold_file, gold_file)
    assert code == 0
    assert out.count("F1=1.0000") == 4


def test_decode_unconstrained_emits_warning_for_unparseable(
    capsys, tmp_path, schema_file, gold_file
):
    # A scorer whose unconstrained argmax is the single token ")".
    scorer_path = tmp_path / "scorer.json"
    save_scorer(train_ngram([(TokenizedInput.from_text(""), (")",))]), scorer_path)
    preds = tmp_path / "preds.jsonl"
    code, _, err = run(capsys, "decode", gold_file, schema_file, str(scorer_path),
                       "--no-constraints", "--out", str(preds))
    assert code == 0
    assert "did not parse" in err
    (pred,) = read_dataset(preds)
    assert pred.records == ()
    # The same scorer under constraints cannot leave the grammar.
    code, _, _ = run(capsys, "decode", gold_file, schema_file, str(scorer_path),
                     "--out", str(preds))
    assert code == 0
    (pred,) = read_dataset(preds)
    assert json.loads((tmp_path / "preds.jsonl").read_text())["text"] == FIG_SENTENCE


def test_fuzz_small_run_is_clean(capsys, schema_file):
    code, out, _ = run(capsys, "fuzz", schema_file, "--seeds", "25")
    assert code == 0
    assert out.strip() == "decodes: 25, violations: 0, truncated: 0"


def test_fuzz_counts_truncations_and_checks_the_rest(capsys):
    code, out, err = run(capsys, "fuzz", str(BENCHMARK_SCHEMA), "--seeds", "60",
                         "--max-len", "8")
    assert (code, err) == (0, "")
    assert out == "decodes: 60, violations: 0, truncated: 26\n"


@pytest.mark.parametrize("extra, n_failed", [((), 19), (("--no-constraints",), 18)])
def test_decode_writes_every_prediction_when_some_items_fail(
    capsys, tmp_path, schema_file, extra, n_failed
):
    corpus = tmp_path / "corpus.jsonl"
    scorer = tmp_path / "scorer.json"
    preds = tmp_path / "preds.jsonl"
    run(capsys, "synth", schema_file, "--seed", "3", "--n", "30", "--out", str(corpus))
    run(capsys, "train", str(corpus), "--out", str(scorer))
    code, _, err = run(capsys, "decode", str(corpus), schema_file, str(scorer),
                       *extra, "--out", str(preds))
    gold = read_dataset(corpus)
    outcomes = decode_batch(
        load_scorer(scorer), [ex.inp for ex in gold], load_schema(schema_file),
        DecodeConfig(constrained=not extra),
    )
    failed = [ex.id for ex, outcome in zip(gold, outcomes) if isinstance(outcome, DecodeError)]
    assert len(failed) == n_failed
    assert code == 6
    rows = [json.loads(line) for line in preds.read_text(encoding="utf-8").splitlines()]
    assert [row["id"] for row in rows] == [ex.id for ex in gold]
    assert all(row["events"] == [] for row in rows if row["id"] in failed)
    assert any(row["events"] for row in rows if row["id"] not in failed)
    named = "; ".join(f"{i}: no end sentinel within max_length=128 tokens" for i in failed[:3])
    assert err.splitlines()[-1] == (
        f"decode error: {len(failed)} of 30 item(s) failed, written with no events: "
        f"{named} (+{len(failed) - 3} more)"
    )


SMOOTHING_RANGES = {"--alpha": "finite and > 0", "--copy-boost": "finite and >= 1"}


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "nan"), ("--alpha", "inf"), ("--alpha", "0"), ("--alpha", "-1"),
    ("--copy-boost", "nan"), ("--copy-boost", "inf"), ("--copy-boost", "0.5"),
    ("--copy-boost", "-1"),
])
def test_smoothing_out_of_range_is_a_usage_error(capsys, tmp_path, flag, value):
    # rejected before the corpus is read: it does not exist
    with pytest.raises(SystemExit) as exc:
        main(["train", str(tmp_path / "corpus.jsonl"), "--out", str(tmp_path / "s.json"),
              flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be {SMOOTHING_RANGES[flag]}, got {float(value)}" in err


OVERFLOW = "alpha=1e+308 and copy_boost=4.0 are too large: the smoothed scores sum to inf"


def test_train_with_overflowing_smoothing_writes_no_artifact(capsys, tmp_path, schema_file):
    corpus = tmp_path / "corpus.jsonl"
    scorer = tmp_path / "scorer.json"
    run(capsys, "synth", schema_file, "--seed", "3", "--n", "50", "--out", str(corpus))
    code, out, err = run(capsys, "train", str(corpus), "--out", str(scorer), "--alpha", "1e308")
    assert (code, out) == (4, "")
    assert err == f"error: {OVERFLOW}\n"
    assert not scorer.exists()


def test_decode_with_overflowing_smoothing_is_a_data_error(capsys, tmp_path, schema_file):
    corpus = tmp_path / "corpus.jsonl"
    scorer = tmp_path / "scorer.json"
    preds = tmp_path / "preds.jsonl"
    run(capsys, "synth", schema_file, "--seed", "3", "--n", "50", "--out", str(corpus))
    run(capsys, "train", str(corpus), "--out", str(scorer))
    artifact = json.loads(scorer.read_text(encoding="utf-8"))
    artifact["alpha"] = 1e308
    scorer.write_text(json.dumps(artifact), encoding="utf-8")
    code, out, err = run(capsys, "decode", str(corpus), schema_file, str(scorer),
                         "--out", str(preds))
    assert (code, out) == (4, "")
    assert err == f"error: {OVERFLOW}\n"


@pytest.mark.parametrize("argv", [
    ("decode", "--beam", "-2"),
    ("decode", "--max-len", "3"),
    ("decode", "--max-span-len", "0"),
    ("fuzz", "--seeds", "-1"),
    ("fuzz", "--max-len", "3"),
    ("fuzz", "--max-span-len", "0"),
    ("synth", "--n", "-3"),
    ("synth", "--max-events", "-1"),
    ("synth", "--max-args", "-1"),
    ("train", "--n", "0"),
    ("train", "--sub-epochs", "-1"),
    ("train", "--full-epochs", "-2"),
])
def test_out_of_range_options_are_usage_errors(capsys, tmp_path, schema_file, argv):
    # rejected before any file is read, even for an empty inputs file
    command, *option = argv
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    files = [str(empty), schema_file, str(tmp_path / "no-scorer.json")]
    if command in ("fuzz", "synth"):
        files = [schema_file]
    elif command == "train":
        files = [str(empty), "--out", str(tmp_path / "scorer.json")]
    with pytest.raises(SystemExit) as exc:
        main([command, *files, *option])
    assert exc.value.code == 2
    assert f"argument {option[0]}: must be >= " in capsys.readouterr().err


def test_train_with_no_epochs_is_a_usage_error(capsys, tmp_path):
    # rejected before the corpus is read: it does not exist
    with pytest.raises(SystemExit) as exc:
        main(["train", str(tmp_path / "corpus.jsonl"), "--out", str(tmp_path / "s.json"),
              "--sub-epochs", "0", "--full-epochs", "0"])
    assert exc.value.code == 2
    assert "arguments --sub-epochs, --full-epochs: not both 0" in capsys.readouterr().err


def test_train_has_no_curriculum_flag(capsys, tmp_path):
    # the curriculum is what train does unless --direct is given
    with pytest.raises(SystemExit) as exc:
        main(["train", str(tmp_path / "corpus.jsonl"), "--out", str(tmp_path / "s.json"),
              "--curriculum"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --curriculum" in capsys.readouterr().err


def test_every_option_is_read_by_its_command():
    # an option whose value nothing reads is a setting that does nothing
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    unread = [
        (name, action.dest)
        for name, parser in commands.choices.items()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction) and action.dest not in read
    ]
    assert len(commands.choices) == 8
    assert unread == []


@pytest.mark.parametrize("value", ["0", "1", "1.5", "-0.2", "nan", "inf"])
def test_heldout_outside_zero_to_one_is_a_usage_error(capsys, tmp_path, value):
    # rejected before the corpus is read: it does not exist
    with pytest.raises(SystemExit) as exc:
        main(["train", str(tmp_path / "corpus.jsonl"), "--out", str(tmp_path / "s.json"),
              "--heldout", value])
    assert exc.value.code == 2
    assert f"argument --heldout: must be in (0, 1), got {float(value)}" in capsys.readouterr().err


def test_beam_with_no_constraints_is_a_usage_error(capsys, tmp_path, schema_file, gold_file):
    # rejected before any file is read: none of these files exist
    missing = [str(tmp_path / name) for name in ("in.jsonl", "schema.txt", "scorer.json")]
    with pytest.raises(SystemExit) as exc:
        main(["decode", *missing, "--beam", "1", "--no-constraints"])
    assert exc.value.code == 2
    assert "argument --beam: not allowed with --no-constraints" in capsys.readouterr().err
    # width 0 is greedy, which may run unconstrained
    scorer = tmp_path / "scorer.json"
    save_scorer(train_ngram([(TokenizedInput.from_tokens(["a"]), ("(", ")"))]), scorer)
    code, out, _ = run(capsys, "decode", gold_file, schema_file, str(scorer),
                       "--beam", "0", "--no-constraints")
    assert code == 0 and len(out.splitlines()) == 1


def test_smallest_in_range_options_are_accepted(capsys, tmp_path, schema_file):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    scorer = tmp_path / "scorer.json"
    save_scorer(train_ngram([(TokenizedInput.from_tokens(["a"]), ("(", ")"))]), scorer)
    code, out, _ = run(capsys, "decode", str(empty), schema_file, str(scorer),
                       "--beam", "0", "--max-len", "4", "--max-span-len", "1")
    assert (code, out) == (0, "")
    code, out, _ = run(capsys, "fuzz", schema_file, "--seeds", "0", "--max-len", "4",
                       "--max-span-len", "1")
    assert code == 0
    assert out.strip() == "decodes: 0, violations: 0, truncated: 0"
    code, out, _ = run(capsys, "synth", schema_file, "--n", "0")
    assert (code, out) == (0, "")
    code, out, _ = run(capsys, "synth", schema_file, "--n", "2", "--max-events", "0",
                       "--max-args", "0")
    assert code == 0 and len(out.splitlines()) == 2
