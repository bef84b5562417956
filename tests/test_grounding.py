import pytest
from hypothesis import given
from hypothesis import strategies as st

from evseq import (
    Argument,
    EventRecord,
    Mention,
    TokenizedInput,
    delinearize,
    ground_arguments,
    ground_records,
    ground_triggers,
    linearize,
)

from oracles import erase_offsets


def record(type_, trigger, *args):
    return EventRecord(
        type_, Mention(trigger), tuple(Argument(r, Mention(m)) for r, m in args)
    )


def starts(records):
    return [r.trigger.token_start for r in records]


def test_triggers_advance_left_to_right():
    inp = TokenizedInput.from_text("he hit him then hit her")
    records = [record("Attack", "hit"), record("Attack", "hit")]
    grounded = ground_triggers(records, inp)
    assert starts(grounded) == [1, 4]


def test_trigger_cursor_skips_consumed_text():
    # Both records name the same single occurrence; only the first gets it.
    inp = TokenizedInput.from_text("one hit only")
    grounded = ground_triggers([record("A", "hit"), record("A", "hit")], inp)
    assert starts(grounded) == [1, None]


def test_failed_trigger_leaves_cursor_in_place():
    inp = TokenizedInput.from_text("alpha beta gamma")
    records = [
        record("A", "alpha"),
        record("A", "missing"),
        record("A", "beta"),
    ]
    grounded = ground_triggers(records, inp)
    assert starts(grounded) == [0, None, 1]


def test_trigger_multi_token_and_char_offsets():
    text = "the bounty hunters found him"
    inp = TokenizedInput.from_text(text)
    (grounded,) = ground_triggers([record("A", "bounty hunters")], inp)
    assert grounded.trigger.token_start == 1
    assert grounded.trigger.char_start == text.index("bounty")
    assert grounded.trigger.token_end == 3


def test_arguments_take_nearest_occurrence():
    inp = TokenizedInput.from_text("the man saw the man")
    rec = EventRecord(
        "Sight",
        Mention("saw", 2),
        (Argument("Agent", Mention("the man")),),
    )
    grounded = ground_arguments(rec, inp)
    # Occurrences start at 0 and 3; 3 is nearer to the trigger at 2.
    assert grounded.args[0].mention.token_start == 3


def test_argument_equidistant_tie_goes_earlier():
    inp = TokenizedInput.from_text("cat saw cat")
    rec = EventRecord("Sight", Mention("saw", 1), (Argument("Agent", Mention("cat")),))
    grounded = ground_arguments(rec, inp)
    assert grounded.args[0].mention.token_start == 0


def test_arguments_do_not_consume_each_other():
    # Unlike triggers, equal argument mentions may share one occurrence.
    inp = TokenizedInput.from_text("cat saw dog")
    rec = EventRecord(
        "Sight",
        Mention("saw", 1),
        (Argument("Agent", Mention("cat")), Argument("Patient", Mention("cat"))),
    )
    grounded = ground_arguments(rec, inp)
    assert [a.mention.token_start for a in grounded.args] == [0, 0]


def test_absent_argument_stays_ungrounded():
    inp = TokenizedInput.from_text("cat saw dog")
    rec = EventRecord("Sight", Mention("saw", 1), (Argument("A", Mention("bird")),))
    grounded = ground_arguments(rec, inp)
    assert grounded.args[0].mention.token_start is None
    assert not grounded.args[0].mention.grounded
    # the ungrounded mention keeps the tokens of the one it replaces
    assert grounded.args[0].mention.tokens is rec.args[0].mention.tokens


def test_ground_arguments_requires_grounded_trigger():
    inp = TokenizedInput.from_text("cat saw dog")
    rec = EventRecord("Sight", Mention("saw"), ())
    with pytest.raises(ValueError):
        ground_arguments(rec, inp)


def test_ground_records_worked_example(fig_input, fig_seq, fig_schema, fig_records):
    parsed = delinearize(fig_seq, fig_schema)
    grounded = ground_records(parsed, fig_input)
    assert starts(grounded) == [2, 10]
    transport, arrest = grounded
    assert [a.mention.token_start for a in transport.args] == [0, 4, 7]
    assert [a.mention.token_start for a in arrest.args] == [0, 11, 13]
    # Grounding the parse of the gold linearization recovers gold exactly,
    # up to the char offsets it also fills in.
    for got, want in zip(grounded, fig_records):
        assert got.type == want.type
        assert got.trigger.token_start == want.trigger.token_start
        for a_got, a_want in zip(got.args, want.args):
            assert (a_got.role, a_got.mention.token_start) == (
                a_want.role,
                a_want.mention.token_start,
            )


def test_ground_records_skips_args_of_unmatched_trigger():
    inp = TokenizedInput.from_text("cat saw dog")
    records = [record("Sight", "missing", ("Agent", "cat"))]
    (grounded,) = ground_records(records, inp)
    assert grounded.trigger.token_start is None
    assert grounded.args[0].mention.token_start is None
    # the ungrounded trigger keeps the tokens of the one it replaces
    assert grounded.trigger.tokens is records[0].trigger.tokens


def test_grounded_offsets_point_at_mention_tokens(fig_input, fig_seq, fig_schema):
    grounded = ground_records(delinearize(fig_seq, fig_schema), fig_input)
    for rec in grounded:
        for mention in [rec.trigger] + [a.mention for a in rec.args]:
            start = mention.token_start
            toks = mention.tokens
            assert fig_input.tokens[start : start + len(toks)] == toks
            assert fig_input.text[mention.char_start :].startswith(toks[0])


def test_ground_then_linearize_round_trips(fig_input, fig_seq, fig_schema):
    # Grounding restores enough structure to re-linearize to the same
    # sequence, closing the generate -> parse -> ground -> encode loop.
    parsed = delinearize(fig_seq, fig_schema)
    grounded = ground_records(parsed, fig_input)
    assert linearize(grounded, fig_schema) == fig_seq
    assert erase_offsets(grounded) == parsed


def test_grounded_mentions_share_the_input_tokens():
    inp = TokenizedInput.from_text("The man returned to Los Angeles from Mexico .")
    records = [record("Transport", "returned", ("Artifact", "The man"), ("Destination", "Los Angeles"))]
    (grounded,) = ground_records(records, inp)
    for mention in (grounded.trigger, *(a.mention for a in grounded.args)):
        assert mention.tokens == TokenizedInput.from_text(mention.text).tokens
        start = mention.token_start
        assert all(tok is inp.tokens[start + k] for k, tok in enumerate(mention.tokens))
        plain = Mention(mention.text, start, mention.char_start)
        assert mention == plain and hash(mention) == hash(plain)
        assert repr(mention) == repr(plain)
    # the ungrounded mention it replaced tokenized its text itself
    assert records[0].trigger.tokens[0] is not grounded.trigger.tokens[0]


MENTIONS = st.sampled_from(["a", "b", "a b", "b a", "c", "z"])


@given(
    st.lists(st.sampled_from("abc"), max_size=10),
    st.lists(st.tuples(MENTIONS, st.lists(MENTIONS, max_size=3)), max_size=4),
)
def test_ground_records_is_triggers_then_arguments(words, specs):
    # one pass per record gives what the two passes give, record for record
    inp = TokenizedInput.from_tokens(words)
    records = [record("E", trigger, *(("R", m) for m in args)) for trigger, args in specs]
    want = tuple(
        ground_arguments(r, inp) if r.trigger.grounded else r
        for r in ground_triggers(records, inp)
    )
    got = ground_records(records, inp)
    assert got == want
    assert [[a.mention.tokens for a in r.args] for r in got] == [
        [a.mention.tokens for a in r.args] for r in want
    ]
