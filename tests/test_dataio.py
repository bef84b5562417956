import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evseq import (
    Argument,
    DataError,
    EventRecord,
    Example,
    Mention,
    generate_synthetic,
    read_dataset,
    write_dataset,
)
from evseq.dataio import dataset_line, scored_pairs
from evseq.span_index import TokenizedInput, token_strings

FIG_LINE = {
    "id": "s1",
    "text": "The man returned to Los Angeles from Mexico .",
    "events": [
        {
            "type": "Transport",
            "trigger": {"text": "returned", "start": 2},
            "args": [
                {"role": "Artifact", "text": "The man", "start": 0},
                {"role": "Origin", "text": "Mexico", "start": 7},
            ],
        }
    ],
}


def write_lines(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")


def test_read_documented_format(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [FIG_LINE])
    (example,) = read_dataset(path)
    assert example.id == "s1"
    assert example.inp.tokens[2] == "returned"
    (record,) = example.records
    assert record.type == "Transport"
    assert record.trigger.token_start == 2
    assert record.trigger.char_start == example.inp.char_spans[2][0]
    assert [a.role for a in record.args] == ["Artifact", "Origin"]
    assert record.args[0].mention.token_start == 0


def test_read_skips_blank_lines(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(FIG_LINE) + "\n\n   \n", encoding="utf-8")
    assert len(read_dataset(path)) == 1


def test_roundtrip_write_read(tmp_path, fig_schema):
    examples = generate_synthetic(fig_schema, seed=21, n_sentences=30)
    path = tmp_path / "synth.jsonl"
    write_dataset(examples, path)
    assert read_dataset(path) == examples


def test_from_tokens_refuses_a_token_its_text_does_not_read_back_as():
    # "U.S." reads back as "U . S .", which would put "left" at index 5,
    # not at the index 2 a record over these tokens names
    with pytest.raises(ValueError, match=r"^token 0 'U\.S\.' tokenizes to \('U', '\.'"):
        TokenizedInput.from_tokens(["U.S.", "troops", "left"])
    for tokens in ([""], ["a", "b c"], ["ok", "<eos>"], ["x-y"]):
        with pytest.raises(ValueError, match=rf"^token {len(tokens) - 1} "):
            TokenizedInput.from_tokens(tokens)


# whole tokens and random strings that may split, join or vanish
TOKENS = st.one_of(st.sampled_from(["a", "bb", ".", "("]), st.text(alphabet="ab.( ", max_size=3))


@given(st.lists(TOKENS, min_size=1, max_size=5))
def test_from_tokens_inputs_read_back_from_a_dataset(tmp_path_factory, tokens):
    try:
        inp = TokenizedInput.from_tokens(tokens)
    except ValueError:
        assert any(token_strings(t) != (t,) for t in tokens)
        return
    last = len(tokens) - 1
    record = EventRecord("EvA", Mention(tokens[last], last, inp.char_spans[last][0]))
    example = Example("t", inp, (record,))
    path = tmp_path_factory.mktemp("from_tokens") / "data.jsonl"
    write_dataset([example], path)
    assert read_dataset(path) == [example]


def test_write_is_byte_deterministic(tmp_path, fig_schema):
    examples = generate_synthetic(fig_schema, seed=22, n_sentences=10)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(examples, a)
    write_dataset(list(examples), b)
    assert a.read_bytes() == b.read_bytes()


def test_ungrounded_mentions_serialize_as_null(tmp_path):
    inp = TokenizedInput.from_text("some text here")
    example = Example(
        "p1",
        inp,
        (EventRecord("EvA", Mention("missing"), (Argument("R", Mention("gone")),)),),
    )
    obj = json.loads(dataset_line(example))
    assert obj["events"][0]["trigger"]["start"] is None
    path = tmp_path / "pred.jsonl"
    write_dataset([example], path)
    (back,) = read_dataset(path)
    assert not back.records[0].trigger.grounded
    assert not back.records[0].args[0].mention.grounded


def test_read_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "x"\n', encoding="utf-8")
    with pytest.raises(DataError) as exc:
        read_dataset(path)
    assert exc.value.location == f"{path}:1"
    assert "invalid JSON" in str(exc.value)


@pytest.mark.parametrize(
    "obj, fragment",
    [
        ([1, 2], "JSON object"),
        ({"id": "x", "text": "t"}, "missing field 'events'"),
        ({"text": "t", "events": []}, "missing field 'id'"),
        ({"id": "x", "text": "t", "events": [{}]}, "'type' and 'trigger'"),
        (
            {"id": "x", "text": "t", "events": [{"type": "A", "trigger": "t"}]},
            "object with a 'text' field",
        ),
        (
            {
                "id": "x",
                "text": "a b",
                "events": [{"type": "A", "trigger": {"text": ""}}],
            },
            "non-empty string",
        ),
        (
            {
                "id": "x",
                "text": "a b",
                "events": [
                    {"type": "A", "trigger": {"text": "a", "start": 0}, "args": [{}]}
                ],
            },
            "'role' field",
        ),
        ({"id": "x", "text": "a", "events": {}}, "events must be a list"),
        ({"id": "x", "text": "a", "events": "e"}, "events must be a list"),
        (
            {
                "id": "x",
                "text": "a",
                "events": [{"type": "A", "trigger": {"text": "a", "start": 0}, "args": 5}],
            },
            "args must be a list",
        ),
        (
            {
                "id": "x",
                "text": "a",
                "events": [{"type": "A", "trigger": {"text": "a", "start": 0}, "args": {}}],
            },
            "args must be a list",
        ),
        ({"id": "x", "text": 5, "events": []}, "text must be a string"),
        ({"id": "x", "text": None, "events": []}, "text must be a string"),
        (
            {
                "id": "x",
                "text": "a b",
                "events": [{"type": "A", "trigger": {"text": "b", "start": True}}],
            },
            "non-negative token index",
        ),
        (
            {
                "id": "x",
                "text": "a",
                "events": [{"type": 5, "trigger": {"text": "a", "start": 0}}],
            },
            "event type must be a string",
        ),
        (
            {
                "id": "x",
                "text": "a",
                "events": [
                    {
                        "type": "A",
                        "trigger": {"text": "a", "start": 0},
                        "args": [{"role": 5, "text": "a", "start": 0}],
                    }
                ],
            },
            "string 'role' field",
        ),
        ({"id": None, "text": "a", "events": []}, "id must be a string or an integer"),
        ({"id": 1.5, "text": "a", "events": []}, "id must be a string or an integer"),
        ({"id": True, "text": "a", "events": []}, "id must be a string or an integer"),
        ({"id": [], "text": "a", "events": []}, "id must be a string or an integer"),
        (
            {
                "id": "x",
                "text": "a",
                "events": [{"type": "A", "trigger": {"text": " ", "start": 3}}],
            },
            "does not match the input tokens at index 3",
        ),
    ],
)
def test_read_rejects_malformed_rows(tmp_path, obj, fragment):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        read_dataset(path)
    assert fragment in str(exc.value)
    assert exc.value.location == f"{path}:1"


def test_integer_ids_read_as_strings(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [{**FIG_LINE, "id": 7}])
    assert [ex.id for ex in read_dataset(path)] == ["7"]


def test_read_mentions_share_the_input_tokens(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [FIG_LINE])
    (example,) = read_dataset(path)
    (record,) = example.records
    for mention in (record.trigger, *(a.mention for a in record.args)):
        assert mention.tokens == TokenizedInput.from_text(mention.text).tokens
        start = mention.token_start
        assert all(tok is example.inp.tokens[start + k] for k, tok in enumerate(mention.tokens))
        plain = Mention(mention.text, start, mention.char_start)
        assert mention == plain and hash(mention) == hash(plain)
        assert repr(mention) == repr(plain)
    # a mention built from its text alone tokenizes into strings of its own
    assert Mention("returned").tokens[0] is not record.trigger.tokens[0]


SHARED_LINES = [
    {
        "id": "a",
        "text": "The Contractor returned from Mexico",
        "events": [
            {
                "type": "Transport",
                "trigger": {"text": "returned", "start": 2},
                "args": [{"role": "Artifact", "text": "The Contractor", "start": 0}],
            }
        ],
    },
    {
        "id": "b",
        "text": "Mexico returned The Contractor",
        "events": [
            {
                "type": "Transport",
                "trigger": {"text": "returned", "start": 1},
                "args": [{"role": "Artifact", "text": "The Contractor", "start": 2}],
            }
        ],
    },
]


def test_read_lines_of_one_file_share_tokens_and_labels(tmp_path):
    # multi-character strings: CPython keeps one object per 1-character string anyway
    path = tmp_path / "data.jsonl"
    write_lines(path, SHARED_LINES)
    first, second = read_dataset(path)
    for word in ("The", "Contractor", "returned", "Mexico"):
        i, j = first.inp.tokens.index(word), second.inp.tokens.index(word)
        assert first.inp.tokens[i] is second.inp.tokens[j]
    (rec1,), (rec2,) = first.records, second.records
    assert rec1.type == "Transport" and rec1.type is rec2.type
    assert rec1.args[0].role == "Artifact" and rec1.args[0].role is rec2.args[0].role
    # mention tokens still slice their own input
    for example, (record,) in ((first, first.records), (second, second.records)):
        for mention in (record.trigger, record.args[0].mention):
            start = mention.token_start
            assert all(
                tok is example.inp.tokens[start + k] for k, tok in enumerate(mention.tokens)
            )
    assert rec1.trigger.tokens[0] is rec2.trigger.tokens[0]
    # what TokenizedInput.from_text gives is unchanged: a fresh string per token
    assert TokenizedInput.from_text(first.inp.text).tokens == first.inp.tokens
    assert TokenizedInput.from_text(first.inp.text).tokens[1] is not first.inp.tokens[1]


def test_separate_reads_share_no_strings(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, SHARED_LINES)
    (first, _), (again, _) = read_dataset(path), read_dataset(path)
    assert first == again
    assert all(a is not b for a, b in zip(first.inp.tokens, again.inp.tokens))
    (rec1,), (rec2,) = first.records, again.records
    assert rec1.type is not rec2.type
    assert rec1.args[0].role is not rec2.args[0].role


def test_read_validates_offsets(tmp_path):
    row = {
        "id": "x",
        "text": "the man ran",
        "events": [{"type": "A", "trigger": {"text": "man", "start": 0}}],
    }
    path = tmp_path / "bad.jsonl"
    write_lines(path, [row])
    with pytest.raises(DataError) as exc:
        read_dataset(path)
    assert "does not match the input tokens at index 0" in str(exc.value)
    row["events"][0]["trigger"]["start"] = -1
    write_lines(path, [row])
    with pytest.raises(DataError):
        read_dataset(path)
    row["events"][0]["trigger"]["start"] = "1"
    write_lines(path, [row])
    with pytest.raises(DataError):
        read_dataset(path)


def test_read_rejects_an_ungrounded_mention_without_tokens(tmp_path):
    # grounded, such a mention already fails its offset check; ungrounded
    # it would read as a mention with no tokens that eval counts
    trigger_row = {
        "id": "x",
        "text": "a b",
        "events": [{"type": "Transport", "trigger": {"text": " ", "start": None}}],
    }
    arg_row = {
        "id": "y",
        "text": "a b",
        "events": [
            {
                "type": "Transport",
                "trigger": {"text": "a", "start": 0},
                "args": [{"role": "Origin", "text": "\t", "start": None}],
            }
        ],
    }
    path = tmp_path / "bad.jsonl"
    write_lines(path, [FIG_LINE, trigger_row])
    with pytest.raises(DataError) as exc:
        read_dataset(path)
    assert exc.value.location == f"{path}:2"
    assert str(exc.value) == f"{path}:2: trigger ' ' contains no tokens"
    write_lines(path, [arg_row])
    with pytest.raises(DataError) as exc:
        read_dataset(path)
    assert str(exc.value) == f"{path}:1: argument 'Origin' '\\t' contains no tokens"


def test_error_reports_correct_line_number(tmp_path):
    bad = dict(FIG_LINE)
    bad_events = json.loads(json.dumps(FIG_LINE["events"]))
    bad_events[0]["trigger"]["start"] = 5
    bad["events"] = bad_events
    path = tmp_path / "data.jsonl"
    write_lines(path, [FIG_LINE, bad])
    with pytest.raises(DataError) as exc:
        read_dataset(path)
    assert exc.value.location == f"{path}:2"


def test_scored_pairs_view(fig_schema):
    examples = generate_synthetic(fig_schema, seed=23, n_sentences=5)
    pairs = scored_pairs(examples)
    assert [sid for sid, _ in pairs] == [ex.id for ex in examples]
    assert all(recs == ex.records for (_, recs), ex in zip(pairs, examples))
    assert examples[0].pair == (examples[0].inp, examples[0].records)
