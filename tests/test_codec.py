import dataclasses
import gc
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evseq import (
    Argument,
    CodecError,
    DecodeResult,
    DecodeState,
    EventRecord,
    Example,
    Mention,
    TokenizedInput,
    build_span_trie,
    candidate_vocab,
    delinearize,
    linearize,
    parse_schema,
    step,
    strip_sentinels,
)
from evseq.codec import mention_tokens
from evseq.curriculum import substructure_units
from evseq.span_index import token_strings

from oracles import (
    erase_offsets,
    random_record_set,
    random_schema,
    reference_linearize,
    reference_substructure_units,
    reference_to_tree,
)


def test_mention_properties():
    m = Mention("Los Angeles", token_start=4)
    assert m.tokens == ("Los", "Angeles")
    assert m.token_end == 6
    assert m.grounded
    free = Mention("Los Angeles")
    assert free.token_end is None
    assert not free.grounded


def test_mention_tokens_are_computed_once(monkeypatch):
    import evseq.codec

    calls = []
    real = evseq.codec.token_strings
    monkeypatch.setattr(
        evseq.codec, "token_strings", lambda text: calls.append(text) or real(text)
    )
    m = Mention("Los Angeles", token_start=4)
    assert m.tokens == ("Los", "Angeles")
    assert (m.token_end, m.token_end, m.tokens) == (6, 6, ("Los", "Angeles"))
    assert calls == ["Los Angeles"]
    # tokens is a slot, not an instance dict entry
    assert not hasattr(m, "__dict__")
    # tokens stays out of equality and hashing
    fresh = Mention("Los Angeles", token_start=4)
    assert m == fresh and hash(m) == hash(fresh)
    assert m != Mention("Los Angeles") and len({m, fresh}) == 1


def _value_objects():
    inp = TokenizedInput.from_text("The man returned")
    arg = Argument("Artifact", Mention("The man", 0, 0))
    record = EventRecord("Transport", Mention("returned", 2, 8), (arg,))
    return [
        (arg, "role", "Agent"),
        (record, "type", "Arrest-Jail"),
        (Example("s1", inp, (record,)), "id", "s2"),
        (DecodeResult(("(", ")"), (-0.5, -0.25, 0.0)), "logprobs", (-1.0, 0.0, 0.0)),
    ]


@pytest.mark.parametrize("value, name, other", _value_objects())
def test_per_sentence_values_are_slotted(value, name, other):
    # no instance dict: a record list holds only its fields
    assert not hasattr(value, "__dict__")
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is type(value)
    changed = dataclasses.replace(value, **{name: other})
    assert getattr(changed, name) == other and changed != value
    assert dataclasses.replace(changed, **{name: getattr(value, name)}) == value


def test_mention_rejects_empty_text():
    with pytest.raises(CodecError):
        Mention("")


def test_mention_tokens_rejects_reserved():
    with pytest.raises(CodecError):
        mention_tokens(Mention("open ( paren"))
    with pytest.raises(CodecError):
        mention_tokens(Mention("   "))


def test_sentinel_wrapping():
    assert strip_sentinels(("<bos>", "(", ")", "<eos>")) == ("(", ")")
    with pytest.raises(CodecError):
        strip_sentinels(("(", ")"))
    with pytest.raises(CodecError):
        strip_sentinels(("<bos>",))


def test_linearize_worked_example(fig_records, fig_schema, fig_seq):
    assert linearize(fig_records, fig_schema) == fig_seq


def test_linearize_leaves_no_cyclic_garbage(fig_records, fig_schema, fig_seq):
    # the tree renders through a module-level function, not a closure
    # that refers to itself, so reference counting frees all of it
    linearize(fig_records, fig_schema)
    gc.collect()
    gc.disable()
    try:
        assert linearize(fig_records, fig_schema) == fig_seq
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_linearize_empty_records():
    assert linearize([]) == ("(", ")")


def test_linearize_single_event_no_args():
    records = [EventRecord("Attack", Mention("fire", 3))]
    schema = parse_schema("Attack: Target")
    assert linearize(records, schema) == ("(", "(", "Attack", "fire", ")", ")")


def test_linearize_splits_multi_token_labels(fig_schema):
    records = [
        EventRecord(
            "Arrest-Jail",
            Mention("capture", 1),
            (Argument("Person", Mention("him", 0)),),
        )
    ]
    seq = linearize(records, fig_schema)
    assert seq == ("(", "(", "Arrest", "Jail", "capture", "(", "Person", "him", ")", ")", ")")


def test_linearize_requires_token_offsets(fig_schema):
    with pytest.raises(CodecError) as exc:
        linearize([EventRecord("Transport", Mention("returned"))], fig_schema)
    assert "offset" in str(exc.value)
    with pytest.raises(CodecError):
        linearize(
            [
                EventRecord(
                    "Transport",
                    Mention("returned", 2),
                    (Argument("Origin", Mention("Mexico")),),
                )
            ],
            fig_schema,
        )


def test_linearize_orders_events_by_trigger_offset(fig_schema):
    late = EventRecord("Transport", Mention("returned", 9))
    early = EventRecord("Arrest-Jail", Mention("capture", 2))
    seq = linearize([late, early], fig_schema)
    assert seq.index("Arrest") < seq.index("Transport")


def test_linearize_orders_args_by_offset(fig_schema):
    record = EventRecord(
        "Transport",
        Mention("returned", 5),
        (
            Argument("Origin", Mention("Mexico", 8)),
            Argument("Artifact", Mention("The man", 0)),
        ),
    )
    seq = linearize([record], fig_schema)
    assert seq.index("Artifact") < seq.index("Origin")


def test_linearize_breaks_offset_ties_by_end_then_label():
    schema = parse_schema("Aa: R\nAb: R")
    # Same trigger start; the shorter span comes first.
    short = EventRecord("Ab", Mention("x", 0))
    long = EventRecord("Aa", Mention("x y", 0))
    seq = linearize([long, short], schema)
    assert seq.index("Ab") < seq.index("Aa")
    # Same start and end: lexicographic label order decides.
    a = EventRecord("Ab", Mention("x", 0))
    b = EventRecord("Aa", Mention("x", 0))
    seq = linearize([a, b], schema)
    assert seq.index("Aa") < seq.index("Ab")


def test_linearize_preserves_duplicate_arguments(fig_schema):
    dup = Argument("Person", Mention("The man", 0))
    record = EventRecord("Arrest-Jail", Mention("capture", 10), (dup, dup))
    seq = linearize([record], fig_schema)
    assert seq.count("Person") == 2
    parsed = delinearize(seq, fig_schema)
    assert len(parsed[0].args) == 2
    assert parsed[0].args[0] == parsed[0].args[1]


def test_linearize_validates_against_schema(fig_schema):
    with pytest.raises(CodecError):
        linearize([EventRecord("Bogus", Mention("x", 0))], fig_schema)
    with pytest.raises(CodecError):
        linearize(
            [
                EventRecord(
                    "Transport",
                    Mention("x", 0),
                    (Argument("Person", Mention("y", 1)),),
                )
            ],
            fig_schema,
        )


def test_linearize_names_a_bad_trigger_before_a_bad_argument():
    # a reserved token in both the trigger and its argument
    record = EventRecord(
        "Attack", Mention("a (", 0), (Argument("Target", Mention("b )", 2)),)
    )
    with pytest.raises(CodecError, match="'a \\('"):
        linearize([record])


def test_delinearize_worked_example(fig_seq, fig_schema, fig_records):
    parsed = delinearize(fig_seq, fig_schema)
    assert parsed == erase_offsets(fig_records)
    assert [r.type for r in parsed] == ["Transport", "Arrest-Jail"]
    assert parsed[1].args[2].mention.text == "bounty hunters"


def test_delinearize_mentions_keep_the_span_strings():
    schema = parse_schema("Transport: Artifact")
    words = ["".join(["re", "turned"]), "".join(["The", "Man"]), "".join(["Mex", "ico"])]
    seq = ("(", "(", "Transport", words[0], "(", "Artifact", words[1], words[2], ")", ")", ")")
    (record,) = delinearize(seq, schema)
    assert record.trigger.text == "returned"
    assert record.trigger.tokens[0] is words[0]
    (arg,) = record.args
    assert arg.mention.text == "TheMan Mexico"
    assert [tok is word for tok, word in zip(arg.mention.tokens, words[1:])] == [True, True]
    assert arg.mention.tokens == token_strings(arg.mention.text)


def test_delinearize_mention_that_tokenizes_differently_gets_its_text_tokens():
    # "don't" is one token of the sequence but three of its text
    schema = parse_schema("Transport: Artifact")
    (record,) = delinearize(("(", "(", "Transport", "don't", "go", ")", ")"), schema)
    assert record.trigger.text == "don't go"
    assert record.trigger.tokens == token_strings("don't go") == ("don", "'", "t", "go")
    assert record.trigger == Mention("don't go")


def test_delinearize_empty():
    schema = parse_schema("T: R")
    assert delinearize(("(", ")"), schema) == ()


def test_delinearize_unknown_role_position(fig_schema):
    seq = ("(", "(", "Transport", "returned", "(", "BogusRole", "The", "man", ")", ")", ")")
    with pytest.raises(CodecError) as exc:
        delinearize(seq, fig_schema)
    assert exc.value.position == 5
    assert "unknown role 'BogusRole' at position 5" in str(exc.value)


def test_delinearize_unknown_type_position(fig_schema):
    with pytest.raises(CodecError) as exc:
        delinearize(("(", "(", "Bogus", "x", ")", ")"), fig_schema)
    assert exc.value.position == 2
    assert "unknown event type" in str(exc.value)


@pytest.mark.parametrize(
    "seq, fragment",
    [
        ((), "unexpected end"),
        (("(",), "unexpected end"),
        (("(", "(", "Transport", "returned", ")"), "unexpected end"),
        ((")", "("), "expected '('"),
        (("(", ")", ")"), "trailing token"),
        (("(", "(", "Transport", ")", ")"), "empty trigger mention"),
        (("(", "(", "Transport", "<eos>", ")", ")"), "sentinel"),
        (("(", "(", "Transport", "x", "(", "Origin", ")", ")", ")"), "empty argument mention"),
    ],
)
def test_delinearize_malformed(seq, fragment, fig_schema):
    with pytest.raises(CodecError) as exc:
        delinearize(seq, fig_schema)
    assert fragment in str(exc.value)


def test_delinearize_nested_open_inside_mention(fig_schema):
    # An argument mention cannot contain a structure opener.
    seq = ("(", "(", "Transport", "x", "(", "Origin", "(", ")", ")", ")")
    with pytest.raises(CodecError) as exc:
        delinearize(seq, fig_schema)
    assert "unexpected '('" in str(exc.value)


def test_delinearize_takes_longest_label_match():
    schema = parse_schema("End: R\nEnd-Position: R")
    seq = ("(", "(", "End", "Position", "x", ")", ")")
    (record,) = delinearize(seq, schema)
    # Greedy: the two tokens read as the longer label, not as type "End"
    # with a mention starting "Position".  Mirrors the decoder's rule.
    assert record.type == "End-Position"
    assert record.trigger.text == "x"
    (short,) = delinearize(("(", "(", "End", "x", ")", ")"), schema)
    assert short.type == "End"


def test_roundtrip_fig(fig_records, fig_schema):
    seq = linearize(fig_records, fig_schema)
    assert delinearize(seq, fig_schema) == erase_offsets(fig_records)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_roundtrip_random(seed):
    rng = random.Random(seed)
    schema = random_schema(rng, max_types=6, max_roles=4)
    records = random_record_set(rng, schema)
    seq = linearize(records, schema)
    assert delinearize(seq, schema) == erase_offsets(records)


def test_to_tree_structure(fig_records, fig_schema):
    # the tree that the linearized form spells (see reference_linearize)
    tree = reference_to_tree(fig_records, fig_schema)
    assert tree.label is None and tree.span == ()
    assert [e.label for e in tree.children] == ["Transport", "Arrest-Jail"]
    transport = tree.children[0]
    assert transport.span == ("returned",)
    assert [a.label for a in transport.children] == [
        "Artifact",
        "Destination",
        "Origin",
    ]
    assert transport.children[1].span == ("Los", "Angeles")
    assert all(a.children == () for a in transport.children)


def test_to_tree_empty():
    assert reference_to_tree([]).children == ()
    assert linearize([]) == reference_linearize([]) == ("(", ")")


def test_tree_composition_equals_linearize(fig_records, fig_schema):
    assert reference_linearize(fig_records, fig_schema) == linearize(fig_records, fig_schema)


def test_tree_composition_equals_linearize_random():
    rng = random.Random(20260817)
    for _ in range(100):
        schema = random_schema(rng, max_types=6, max_roles=4)
        records = random_record_set(rng, schema)
        assert reference_linearize(records, schema) == linearize(records, schema)


def test_linearize_names_the_first_bad_role_in_span_order():
    # the roles are checked in the order they are rendered, not as given
    schema = parse_schema("Attack: Target")
    record = EventRecord(
        "Attack",
        Mention("fire", 3),
        (Argument("Zeta", Mention("x", 5)), Argument("Alpha", Mention("y", 0))),
    )
    with pytest.raises(CodecError, match="^role 'Alpha' not permitted for event type 'Attack'$"):
        linearize([record], schema)


def test_linearize_checks_offsets_record_by_record():
    # each trigger and then its arguments, before the next record
    records = [
        EventRecord("Attack", Mention("fire", 3), (Argument("Target", Mention("x")),)),
        EventRecord("Attack", Mention("shot")),
    ]
    with pytest.raises(CodecError, match="^mention 'x' is missing its token offset$"):
        linearize(records)
    with pytest.raises(CodecError, match="^trigger of Attack 'shot' is missing"):
        linearize(records[1:])


_CHECK_SCHEMA = parse_schema("Attack: Target, Place\nArrest-Jail: Person, Time-Within\nAa: R")
# known labels (two of them split into two tokens) and unknown ones
_LABELS = st.sampled_from(
    ("Attack", "Arrest-Jail", "Aa", "Target", "Place", "Person", "Time-Within", "R") * 3
    + ("Bogus", "Zz")
)
# plain and multi-token mention texts, now and then one with a reserved
# token or none at all
_TEXTS = st.sampled_from(("x", "y", "x y", "Los Angeles", "a b c") * 6 + ("(", "x )", "<eos>", " "))
# offsets that tie often, and now and then none
_STARTS = st.sampled_from((None,) + (0, 1, 2, 3) * 8)
_MENTIONS = st.builds(Mention, _TEXTS, _STARTS)
_RECORDS = st.lists(
    st.builds(
        EventRecord,
        _LABELS,
        _MENTIONS,
        st.lists(st.builds(Argument, _LABELS, _MENTIONS), max_size=4).map(tuple),
    ),
    max_size=4,
)


def _outcome(encode, *args):
    try:
        return encode(*args)
    except Exception as err:  # the type and message are compared
        return (type(err), str(err))


@settings(max_examples=400, deadline=None)
@given(records=_RECORDS, checked=st.booleans())
def test_linearize_and_to_tree_match_the_three_pass_reference(records, checked):
    schema = _CHECK_SCHEMA if checked else None
    assert _outcome(linearize, records, schema) == _outcome(reference_linearize, records, schema)
    assert _outcome(substructure_units, records) == _outcome(
        reference_substructure_units, records
    )


SOUP = ["(", ")", "Transport", "Arrest", "Jail", "Person", "returned", "<bos>", "x"]


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(st.sampled_from(SOUP), max_size=12))
def test_delinearize_is_total_over_token_soup(tokens, fig_schema):
    # Must either parse or raise a positioned CodecError, never anything else.
    try:
        records = delinearize(tuple(tokens), fig_schema)
    except CodecError as exc:
        assert exc.position is not None
        assert 0 <= exc.position <= len(tokens)
    else:
        for record in records:
            assert record.type in fig_schema
            for arg in record.args:
                assert arg.role in fig_schema.roles(record.type)


def test_the_parser_falls_back_to_a_label_the_decoder_would_go_on_with():
    # "End" is a token-prefix of "End-Position-Long"; "End Position" is
    # no label.  The parser reads the trigger "Position x" after "End",
    # and linearize writes that record back the same way ...
    schema = parse_schema("End: R\nEnd-Position-Long: R")
    seq = tuple("( ( End Position x ) )".split())
    (record,) = delinearize(seq, schema)
    assert (record.type, record.trigger.text, record.args) == ("End", "Position x", ())
    grounded = EventRecord("End", Mention("Position x", token_start=0))
    assert linearize([grounded], schema) == seq
    # ... but the decoder never emits it: "Position" goes on with the
    # label rather than start the trigger, and "End Position" must end
    # as "End Position Long"
    tries = schema.tries
    span_trie = build_span_trie(TokenizedInput.from_tokens(["Position", "x"]))
    state = DecodeState()
    for token in seq[:3]:
        state = step(state, token, tries, span_trie)
    assert candidate_vocab(state, tries, span_trie) == {"Position", "x"}
    state = step(state, "Position", tries, span_trie)
    assert state.partial_label == ("End", "Position") and state.partial_span == ()
    assert candidate_vocab(state, tries, span_trie) == {"Long"}
