import math
import random
import re
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evseq import (
    BOS,
    CLOSE,
    EOS,
    OPEN,
    CodecError,
    DecodeConfig,
    DecodeError,
    DecodeResult,
    DecodeState,
    Phase,
    RandomScorer,
    SchemaTries,
    TokenizedInput,
    TruncationError,
    UniformScorer,
    build_span_trie,
    candidate_vocab,
    constrained_decode,
    decode_batch,
    decoding_vocab,
    delinearize,
    oracle_scorer,
    parse_schema,
    sequence_nll,
    split_label,
    step,
    train_ngram,
    uniform_scorer,
)
import evseq.decoder

from oracles import (
    Undeclared,
    enumerate_language,
    is_span,
    random_schema,
    reference_beam,
    reference_greedy,
    reference_unconstrained,
)


def replay(tokens, schema, inp, max_span_len=16):
    tries = SchemaTries.from_schema(schema)
    span_trie = build_span_trie(inp, max_span_len)
    state = DecodeState()
    for token in tokens:
        state = step(state, token, tries, span_trie)
    return state, tries, span_trie


def candidates_after(tokens, schema, inp, max_span_len=16):
    state, tries, span_trie = replay(tokens, schema, inp, max_span_len)
    return candidate_vocab(state, tries, span_trie)


class EmptyScorer:
    def next_distribution(self, inp, prefix):
        return {}


class BadScorer:
    def __init__(self, value):
        self.value = value

    def next_distribution(self, inp, prefix):
        return {"(": self.value, ")": self.value}


# ---------------------------------------------------------------- candidates


def test_initial_candidates(tiny_schema):
    inp = TokenizedInput.from_tokens(["tok"])
    assert candidates_after([], tiny_schema, inp) == {OPEN}


def test_candidates_after_root_open(transfer_schema):
    inp = TokenizedInput.from_tokens(["cash"])
    assert candidates_after([OPEN], transfer_schema, inp) == {OPEN, CLOSE}


def test_candidates_no_spans_forbid_event_open(transfer_schema):
    empty = TokenizedInput.from_text("")
    assert candidates_after([OPEN], transfer_schema, empty) == {CLOSE}


def test_candidates_mid_type_label(transfer_schema):
    inp = TokenizedInput.from_tokens(["cash"])
    assert candidates_after([OPEN, OPEN], transfer_schema, inp) == {"Transfer"}
    assert candidates_after([OPEN, OPEN, "Transfer"], transfer_schema, inp) == {
        "Ownership",
        "Money",
    }


def test_candidates_completed_label_offers_span_roots():
    schema = parse_schema("End: Re\nEnd-Position: Re")
    inp = TokenizedInput.from_tokens(["x", "y"])
    # "End" completes a label but can also extend to "End-Position".
    assert candidates_after([OPEN, OPEN, "End"], schema, inp) == {
        "Position",
        "x",
        "y",
    }


def test_candidates_trigger_span(tiny_schema):
    inp = TokenizedInput.from_tokens(["a", "b"])
    assert candidates_after([OPEN, OPEN, "T"], tiny_schema, inp) == {"a", "b"}
    # No roles on T: the span may extend or the event close, never an
    # argument open.
    assert candidates_after([OPEN, OPEN, "T", "a"], tiny_schema, inp) == {"b", CLOSE}


def test_candidates_trigger_span_with_roles(fig_schema, fig_input):
    prefix = [OPEN, OPEN, "Transport", "returned"]
    cands = candidates_after(prefix, fig_schema, fig_input)
    assert OPEN in cands and CLOSE in cands
    assert "to" in cands  # "returned to" continues in the input


def test_candidates_after_await_end(tiny_schema):
    inp = TokenizedInput.from_tokens(["tok"])
    assert candidates_after([OPEN, CLOSE], tiny_schema, inp) == {EOS}


def test_candidates_arg_phases(fig_schema, fig_input):
    prefix = [OPEN, OPEN, "Transport", "returned", OPEN]
    cands = candidates_after(prefix, fig_schema, fig_input)
    assert cands == {"Artifact", "Origin", "Destination"}
    prefix += ["Origin", "Mexico"]
    assert candidates_after(prefix, fig_schema, fig_input) == {CLOSE, "following"}
    prefix += [CLOSE]
    assert candidates_after(prefix, fig_schema, fig_input) == {OPEN, CLOSE}


def test_candidates_raise_when_done(tiny_schema):
    inp = TokenizedInput.from_tokens(["tok"])
    state, tries, span_trie = replay([OPEN, CLOSE, EOS], tiny_schema, inp)
    assert state.done
    with pytest.raises(DecodeError):
        candidate_vocab(state, tries, span_trie)


def test_step_rejects_illegal_token(tiny_schema):
    inp = TokenizedInput.from_tokens(["tok"])
    with pytest.raises(DecodeError) as exc:
        replay([OPEN, "tok"], tiny_schema, inp)
    assert "not in the candidate vocabulary" in str(exc.value)


def test_step_rejects_reserved_input_token_as_mention(tiny_schema):
    inp = TokenizedInput.from_text("( x")
    assert candidates_after([OPEN, OPEN, "T"], tiny_schema, inp) == {"x"}
    with pytest.raises(DecodeError):
        replay([OPEN, OPEN, "T", OPEN], tiny_schema, inp)


def test_replay_worked_example_tracks_phases(fig_schema, fig_input, fig_seq):
    state, tries, span_trie = replay(fig_seq, fig_schema, fig_input)
    assert state.phase is Phase.AWAIT_END
    assert state.tokens == fig_seq
    assert state.depth == 0
    state = step(state, EOS, tries, span_trie)
    assert state.done
    # EOS is not part of the linearized body
    assert state.tokens == fig_seq


def test_replay_intermediate_state(fig_schema, fig_input):
    state, _, _ = replay([OPEN, OPEN, "Arrest"], fig_schema, fig_input)
    assert state.phase is Phase.IN_TYPE_LABEL
    assert state.partial_label == ("Arrest",)
    state, _, _ = replay([OPEN, OPEN, "Arrest", "Jail", "capture"], fig_schema, fig_input)
    assert state.phase is Phase.IN_TRIGGER_SPAN
    assert state.current_type == "Arrest-Jail"
    assert state.partial_span == ("capture",)
    assert state.depth == 2


# ---------------------------------------- language oracle for the automaton


def canonical_members(schema, inp, max_span_len, max_len):
    """Grammar language members that parse back; the decoder's language.

    The raw grammar can spell one structure two ways when a label prefixes
    another label; the parser and decoder both commit to the longest
    label, so surfaces only readable the short way drop out here.
    """
    members = set()
    for m in enumerate_language(schema, inp.tokens, max_span_len, max_len):
        try:
            delinearize(m, schema)
        except CodecError:
            continue
        members.add(m)
    return members


def assert_candidates_match_language(schema, inp, max_span_len, small_len, big_len):
    # Continuation sets come from a larger horizon than the prefixes
    # being checked, so the length cutoff cannot hide a legal token.
    big = canonical_members(schema, inp, max_span_len, big_len)
    assert big, "oracle language is empty; the instance is mis-specified"
    continuations: dict = {}
    for m in big:
        for i in range(len(m)):
            continuations.setdefault(m[:i], set()).add(m[i])
    tries = SchemaTries.from_schema(schema)
    span_trie = build_span_trie(inp, max_span_len)
    checked = 0
    for m in sorted(big):
        if len(m) > small_len:
            continue
        state = DecodeState()
        for i, token in enumerate(m):
            assert candidate_vocab(state, tries, span_trie) == frozenset(
                continuations[m[:i]]
            ), f"prefix {m[:i]}"
            state = step(state, token, tries, span_trie)
            checked += 1
        assert candidate_vocab(state, tries, span_trie) == {EOS}
        assert step(state, EOS, tries, span_trie).done
    assert checked > 0


def test_automaton_matches_language_single_type():
    schema = parse_schema("T:")
    inp = TokenizedInput.from_tokens(["tok"])
    assert_candidates_match_language(schema, inp, 4, small_len=14, big_len=22)


def test_automaton_matches_language_prefix_labels():
    schema = parse_schema("End: Re\nEnd-Position: Re")
    inp = TokenizedInput.from_tokens(["x", "y"])
    assert_candidates_match_language(schema, inp, 4, small_len=10, big_len=16)


def test_automaton_matches_language_label_span_collision():
    # The input itself contains the token "Position", which also extends
    # the type label "End".  Label continuation wins in both decoder and
    # parser; the oracle filter keeps exactly the surfaces that parse.
    schema = parse_schema("End: Re\nEnd-Position: Re")
    inp = TokenizedInput.from_tokens(["Position", "x"])
    assert_candidates_match_language(schema, inp, 4, small_len=10, big_len=16)


def test_decoder_and_parser_agree_on_greedy_labels():
    schema = parse_schema("End: Re\nEnd-Position: Re")
    inp = TokenizedInput.from_tokens(["Position", "x"])
    seq = (OPEN, OPEN, "End", "Position", "x", CLOSE, CLOSE)
    state, tries, span_trie = replay(seq, schema, inp)
    assert state.phase is Phase.AWAIT_END
    (record,) = delinearize(seq, schema)
    assert record.type == "End-Position"
    assert record.trigger.text == "x"
    # The short reading's surface is rejected by both sides.
    bad = (OPEN, OPEN, "End", "Position", CLOSE, CLOSE)
    with pytest.raises(DecodeError):
        replay(bad, schema, inp)
    with pytest.raises(CodecError):
        delinearize(bad, schema)


# ------------------------------------------------------------------ decoding


def assert_result_shape(result):
    assert len(result.logprobs) == len(result.tokens) + 1
    assert result.nll == -result.total_logprob


def test_oracle_replay_exact(fig_schema, fig_input, fig_seq):
    scorer = oracle_scorer(fig_seq)
    result = constrained_decode(scorer, fig_input, fig_schema)
    assert result.tokens == fig_seq
    assert result.nll == 0.0
    assert_result_shape(result)


def test_oracle_replay_with_noise(fig_schema, fig_input, fig_seq):
    scorer = oracle_scorer(fig_seq, epsilon=0.3)
    result = constrained_decode(scorer, fig_input, fig_schema)
    assert result.tokens == fig_seq
    expected = -(len(fig_seq) + 1) * math.log(0.7)
    assert result.nll == pytest.approx(expected, rel=1e-9)


def test_greedy_is_deterministic(fig_schema, fig_input, fig_seq):
    scorer = oracle_scorer(fig_seq, epsilon=0.2)
    first = constrained_decode(scorer, fig_input, fig_schema)
    second = constrained_decode(scorer, fig_input, fig_schema)
    assert first == second


def test_greedy_tie_breaks_lexicographically(tiny_schema):
    # On an empty input only "( )" is reachable; every step is forced.
    empty = TokenizedInput.from_text("")
    vocab = decoding_vocab(tiny_schema, empty)
    result = constrained_decode(uniform_scorer(vocab), empty, tiny_schema)
    assert result.tokens == (OPEN, CLOSE)
    assert_result_shape(result)


def test_greedy_uniform_truncates_on_open_tie(tiny_schema):
    # "(" ties with ")" and wins lexicographically, so greedy keeps
    # opening events until the budget runs out.  No silent auto-close.
    inp = TokenizedInput.from_tokens(["tok"])
    scorer = uniform_scorer(decoding_vocab(tiny_schema, inp))
    with pytest.raises(TruncationError):
        constrained_decode(
            scorer, inp, tiny_schema, DecodeConfig(max_length=24)
        )


def test_beam_uniform_completes_where_greedy_truncates(tiny_schema):
    inp = TokenizedInput.from_tokens(["tok"])
    scorer = uniform_scorer(decoding_vocab(tiny_schema, inp))
    config = DecodeConfig(mode="beam", beam_width=2, max_length=24)
    result = constrained_decode(scorer, inp, tiny_schema, config)
    assert result.tokens == (OPEN, CLOSE)
    assert_result_shape(result)


def test_beam_width_one_equals_greedy_on_oracle(fig_schema, fig_input, fig_seq):
    scorer = oracle_scorer(fig_seq, epsilon=0.1)
    greedy = constrained_decode(scorer, fig_input, fig_schema)
    beam = constrained_decode(
        scorer, fig_input, fig_schema, DecodeConfig(mode="beam", beam_width=1)
    )
    assert beam.tokens == greedy.tokens
    assert beam.total_logprob == pytest.approx(greedy.total_logprob, rel=1e-12)


def test_beam_recovers_target_at_low_noise(fig_schema, fig_input, fig_seq):
    scorer = oracle_scorer(fig_seq, epsilon=0.01)
    config = DecodeConfig(mode="beam", beam_width=4)
    result = constrained_decode(scorer, fig_input, fig_schema, config)
    assert result.tokens == fig_seq


def test_beam_has_no_length_normalization(fig_schema, fig_input, fig_seq):
    # At high noise the 38-step target accumulates less total probability
    # than bailing out with "( )"; scores are plain sums, so beam bails.
    scorer = oracle_scorer(fig_seq, epsilon=0.4)
    config = DecodeConfig(mode="beam", beam_width=4)
    result = constrained_decode(scorer, fig_input, fig_schema, config)
    assert result.tokens == (OPEN, CLOSE)
    per_step = math.log(1 - 0.4)
    assert result.total_logprob > (len(fig_seq) + 1) * per_step


def test_beam_truncation(tiny_schema):
    inp = TokenizedInput.from_tokens(["tok"])
    scorer = uniform_scorer(decoding_vocab(tiny_schema, inp))
    config = DecodeConfig(mode="beam", beam_width=1, max_length=24)
    with pytest.raises(TruncationError):
        constrained_decode(scorer, inp, tiny_schema, config)


def test_greedy_truncation_on_long_target(fig_schema, fig_input, fig_seq):
    scorer = oracle_scorer(fig_seq)
    with pytest.raises(TruncationError):
        constrained_decode(scorer, fig_input, fig_schema, DecodeConfig(max_length=8))


def test_decode_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(mode="sampled")
    with pytest.raises(ValueError):
        DecodeConfig(beam_width=0)
    with pytest.raises(ValueError):
        DecodeConfig(max_length=3)
    # there is no unconstrained beam search, and greedy is no stand-in for one
    with pytest.raises(ValueError, match=r"^beam search needs constraints"):
        DecodeConfig(mode="beam", beam_width=4, constrained=False)


@pytest.mark.parametrize("field", ["beam_width", "max_length"])
@pytest.mark.parametrize("value", [2.5, 12.0, True, "12", None])
def test_decode_config_rejects_a_width_or_length_that_is_not_an_int(field, value):
    # a float width never equals the beam's length, so beam would keep
    # every candidate
    with pytest.raises(ValueError, match=rf"^{field} must be an int, got {re.escape(repr(value))}$"):
        DecodeConfig(mode="beam", **{field: value})


@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("value", [2.5, 4.0, True, "4"])
def test_decode_rejects_a_span_cap_that_is_not_an_int(
    fig_schema, fig_input, fig_seq, constrained, value
):
    config = DecodeConfig(constrained=constrained)
    with pytest.raises(ValueError, match=rf"^max_span_len must be an int, got {re.escape(repr(value))}$"):
        constrained_decode(oracle_scorer(fig_seq), fig_input, fig_schema, config, max_span_len=value)


def test_unconstrained_matches_constrained_when_argmax_is_valid(
    fig_schema, fig_input, fig_seq
):
    scorer = oracle_scorer(fig_seq)
    constrained = constrained_decode(scorer, fig_input, fig_schema)
    free = constrained_decode(
        scorer, fig_input, fig_schema, DecodeConfig(constrained=False)
    )
    assert free.tokens == constrained.tokens
    assert free.total_logprob == pytest.approx(constrained.total_logprob, rel=1e-12)


def test_unconstrained_output_may_not_parse(fig_schema, fig_input):
    scorer = oracle_scorer((CLOSE,))
    free = constrained_decode(
        scorer, fig_input, fig_schema, DecodeConfig(constrained=False)
    )
    assert free.tokens == (CLOSE,)
    with pytest.raises(CodecError):
        delinearize(free.tokens, fig_schema)


def test_unconstrained_decode_builds_no_span_trie(monkeypatch, fig_schema, fig_input, fig_seq):
    def fail(*args):
        raise AssertionError("the unconstrained path built a span trie")

    monkeypatch.setattr(evseq.decoder, "build_span_trie", fail)
    free = constrained_decode(
        oracle_scorer(fig_seq), fig_input, fig_schema, DecodeConfig(constrained=False)
    )
    assert free.tokens == tuple(fig_seq)


@pytest.mark.parametrize("constrained", [True, False])
def test_decode_rejects_a_span_cap_below_one(fig_schema, fig_input, fig_seq, constrained):
    config = DecodeConfig(constrained=constrained)
    with pytest.raises(ValueError, match=r"^max_span_len must be >= 1, got 0$"):
        constrained_decode(oracle_scorer(fig_seq), fig_input, fig_schema, config, max_span_len=0)


def test_all_zero_distribution_still_respects_grammar(tiny_schema):
    empty = TokenizedInput.from_text("")
    result = constrained_decode(EmptyScorer(), empty, tiny_schema)
    assert result.tokens == (OPEN, CLOSE)
    assert math.isinf(result.nll)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
def test_bad_scorer_values_raise(tiny_schema, value):
    inp = TokenizedInput.from_tokens(["tok"])
    with pytest.raises(DecodeError):
        constrained_decode(BadScorer(value), inp, tiny_schema)


def test_decoded_mentions_are_input_spans(fig_schema, fig_input, fig_seq):
    scorer = oracle_scorer(fig_seq, epsilon=0.05)
    result = constrained_decode(scorer, fig_input, fig_schema)
    records = delinearize(result.tokens, fig_schema)
    trie = build_span_trie(fig_input)
    for record in records:
        assert is_span(trie, record.trigger.tokens)
        for arg in record.args:
            assert is_span(trie, arg.mention.tokens)


class DeadStartScorer:
    """Zero mass on the first token, then ")" over "(" at every step."""

    def next_distribution(self, inp, prefix):
        if len(prefix) == 1:
            return {}
        return {CLOSE: 0.6, OPEN: 0.4}


def test_beam_width_one_differs_from_greedy_after_zero_probability(tiny_schema):
    # After the -inf first step every width-1 beam candidate scores -inf,
    # so the tie goes to the smaller prefix and "(" keeps opening events;
    # greedy still compares the current step's probabilities and closes.
    inp = TokenizedInput.from_tokens(["tok"])
    greedy = constrained_decode(
        DeadStartScorer(), inp, tiny_schema, DecodeConfig(max_length=24)
    )
    assert greedy.tokens == (OPEN, CLOSE)
    assert greedy.logprobs[:2] == (float("-inf"), math.log(0.6))
    config = DecodeConfig(mode="beam", beam_width=1, max_length=24)
    with pytest.raises(TruncationError):
        constrained_decode(DeadStartScorer(), inp, tiny_schema, config)


# ------------------------------------------ beam against the reference search


PREFIX_SCHEMA = parse_schema(
    "End: Re\nEnd-Position: Re, Place\nTransfer-Money: Giver\nTransfer-Ownership: Buyer"
)


class GappyScorer:
    """A random scorer that drops its below-average tokens, so some legal
    continuations score -inf and others do not."""

    def __init__(self, vocab, seed):
        self.base = RandomScorer(vocab, seed)

    def next_distribution(self, inp, prefix):
        dist = self.base.next_distribution(inp, prefix)
        return {t: p for t, p in dist.items() if p * len(dist) > 1.0}


def test_beam_stops_when_live_ties_best_finished_at_minus_inf():
    # "( )" finishes at -inf while "( ( T x ..." is still live at -inf;
    # a live score equal to the best finished one cannot win, so the
    # search stops there, as the reference does.
    schema = parse_schema("T: R")
    inp = TokenizedInput.from_tokens(["x"])
    config = DecodeConfig(mode="beam", beam_width=3, max_length=20)
    got = constrained_decode(EmptyScorer(), inp, schema, config)
    assert got == reference_beam(EmptyScorer(), inp, schema, config)
    assert got.tokens == (OPEN, CLOSE)


class ForcedThenUniform:
    """"( ( Attack" for the first three steps, ")" after an "a", and
    uniform over ``vocab`` otherwise."""

    def __init__(self, vocab):
        self.uniform = UniformScorer(vocab)

    def next_distribution(self, inp, prefix):
        if len(prefix) <= 3:
            return {(OPEN, OPEN, "Attack")[len(prefix) - 1]: 1.0}
        if prefix[-1] == "a":
            return {CLOSE: 1.0}
        return self.uniform.next_distribution(inp, prefix)


def test_beam_keeps_a_smaller_token_that_ties_a_dropped_one():
    # The mention tokens m, n, z, a tie; with m and n kept, z ties the bar
    # and loses on token order, but a, met after it with the same
    # probability, sorts before the bar and must still be scored.
    schema = parse_schema("Attack: Target")
    inp = TokenizedInput.from_tokens(["m", "n", "z", "a"])
    scorer = ForcedThenUniform(decoding_vocab(schema, inp))
    config = DecodeConfig(mode="beam", beam_width=2, max_length=12)
    got = constrained_decode(scorer, inp, schema, config)
    assert got == reference_beam(scorer, inp, schema, config)
    assert got.tokens == (OPEN, OPEN, "Attack", "a", CLOSE, CLOSE)


class PrefixTable:
    """The distribution ``table`` lists for a prefix, ``rest`` for any
    other prefix."""

    def __init__(self, table, rest):
        self.table, self.rest = table, rest

    def next_distribution(self, inp, prefix):
        return self.table.get(tuple(prefix), self.rest)


def test_a_label_token_that_is_also_an_input_word_is_a_candidate_once():
    # After "( ( End", "Position" is both a label token (End-Position goes
    # on) and a mention token (End takes the input word).  Beam must keep
    # it once, as the label: kept twice, the two copies fill the beam and
    # push out "x", whose output scores best.
    schema = parse_schema("End:\nEnd-Position:")
    inp = TokenizedInput.from_tokens(["Position", "x"])
    scorer = PrefixTable(
        {
            (BOS,): {OPEN: 1.0},
            (BOS, OPEN): {OPEN: 0.9, CLOSE: 0.1},
            (BOS, OPEN, OPEN): {"End": 1.0},
            (BOS, OPEN, OPEN, "End"): {"Position": 0.5, "x": 0.4, CLOSE: 0.1},
        },
        {CLOSE: 0.9, EOS: 0.09, "Position": 0.005, "x": 0.005},
    )
    beam = DecodeConfig(mode="beam", beam_width=2, max_length=12)
    got = constrained_decode(scorer, inp, schema, beam)
    assert got == reference_beam(scorer, inp, schema, beam)
    assert got.tokens == (OPEN, OPEN, "End", "x", CLOSE, CLOSE)
    greedy = DecodeConfig(max_length=12)
    got = constrained_decode(scorer, inp, schema, greedy)
    assert got == reference_greedy(scorer, inp, schema, greedy)
    assert got.tokens == (OPEN, OPEN, "End", "Position", "Position", CLOSE, CLOSE)


def test_a_tie_met_out_of_sorted_order_below_the_span_root_is_still_kept():
    # The span "x" goes on with b, c, d, a, in the order they first follow
    # it, not sorted.  All four tie and the beam keeps two: b and c fill
    # it, d is dropped, and a, met after d with the same probability,
    # still sorts before c and takes its place.  A skip on the probability
    # alone would keep b and c, and b's output would win.
    schema = parse_schema("T:")
    inp = TokenizedInput.from_tokens(["x", "b", "x", "c", "x", "d", "x", "a"])
    scorer = PrefixTable(
        {
            (BOS,): {OPEN: 1.0},
            (BOS, OPEN): {OPEN: 1.0},
            (BOS, OPEN, OPEN): {"T": 1.0},
            (BOS, OPEN, OPEN, "T"): {"x": 1.0},
            (BOS, OPEN, OPEN, "T", "x"): dict.fromkeys("abcd", 0.25),
        },
        {CLOSE: 0.5, EOS: 0.5},
    )
    config = DecodeConfig(mode="beam", beam_width=2, max_length=12)
    got = constrained_decode(scorer, inp, schema, config)
    assert got == reference_beam(scorer, inp, schema, config)
    assert got.tokens == (OPEN, OPEN, "T", "x", "a", CLOSE, CLOSE)


def random_walk(rng, schema, inp, soft_len):
    """A random legal body: it closes only once past ``soft_len`` tokens."""
    tries = SchemaTries.from_schema(schema)
    span_trie = build_span_trie(inp)
    state = DecodeState()
    while True:
        cands = sorted(candidate_vocab(state, tries, span_trie))
        if cands == [EOS]:
            return state.tokens
        if len(state.tokens) < soft_len and len(cands) > 1:
            token = rng.choice([t for t in cands if t != CLOSE])
        elif CLOSE in cands:
            token = CLOSE
        else:
            token = rng.choice(cands)
        state = step(state, token, tries, span_trie)


class SpoiledScorer:
    """A random scorer that puts ``value`` on two random tokens at every
    step from the ``at``-th on."""

    def __init__(self, vocab, seed, value, at):
        self.base = RandomScorer(vocab, seed)
        self.seed, self.value, self.at = seed, value, at

    def next_distribution(self, inp, prefix):
        dist = self.base.next_distribution(inp, prefix)
        if len(prefix) >= self.at:
            rng = random.Random(f"{self.seed}:{len(prefix)}")
            dist.update(dict.fromkeys(rng.sample(sorted(dist), 2), self.value))
        return dist


class TiedScorer:
    """A random scorer rounded to a few levels, -0.0 among them, so most
    steps offer ties."""

    def __init__(self, vocab, seed):
        self.base = RandomScorer(vocab, seed)

    def next_distribution(self, inp, prefix):
        dist = self.base.next_distribution(inp, prefix)
        n = len(dist)
        return {t: -0.0 if p * n < 0.7 else round(p * n) / n for t, p in dist.items()}


def _outcome(decode):
    try:
        return decode()
    except DecodeError as err:
        return type(err).__name__, str(err)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    kind=st.sampled_from(
        ["random", "uniform", "empty", "gappy", "tied", "noisy-oracle", "ngram", "spoiled"]
    ),
    width=st.integers(min_value=1, max_value=5),
    max_length=st.integers(min_value=4, max_value=30),
)
def test_beam_equals_reference_search(seed, kind, width, max_length):
    rng = random.Random(seed)
    if rng.random() < 0.3:
        schema = PREFIX_SCHEMA
    else:
        schema = random_schema(rng, max_types=4, max_roles=3)
    # words and label tokens, so that mentions can collide with labels
    pool = ["x", "y", "z", *(t for name in schema.types for t in split_label(name))]
    # some inputs long enough that a tie group of the span trie's root is
    # wider than the beam
    length = rng.randint(8, 12) if rng.random() < 0.25 else rng.randint(0, 5)
    inp = TokenizedInput.from_tokens([rng.choice(pool) for _ in range(length)])
    vocab = decoding_vocab(schema, inp)
    scorer = {
        "random": lambda: RandomScorer(vocab, seed),
        "uniform": lambda: UniformScorer(vocab),
        "empty": EmptyScorer,  # zero mass everywhere: every score is -inf
        "gappy": lambda: GappyScorer(vocab, seed),
        # repeated values and -0.0: ties with the bar, equal probabilities
        "tied": lambda: TiedScorer(vocab, seed),
        # long targets, and uniform ties once a hypothesis leaves them
        "noisy-oracle": lambda: oracle_scorer(
            random_walk(rng, schema, inp, rng.randint(2, max_length)),
            rng.choice((0.05, 0.3, 0.6)),
            vocab,
        ),
        # a small alpha: smoothing ties the unseen tokens, and the
        # copy-boosted ones
        "ngram": lambda: train_ngram(
            [(inp, random_walk(rng, schema, inp, rng.randint(2, 12))) for _ in range(3)],
            n=rng.randint(1, 3), alpha=0.01, extra_vocab=vocab,
        ),
        # bad scores: the smallest bad legal token is named
        "spoiled": lambda: SpoiledScorer(
            vocab, seed, rng.choice((math.nan, math.inf, -math.inf, -0.5)), rng.randint(1, 4)
        ),
    }[kind]()
    config = DecodeConfig(mode="beam", beam_width=width, max_length=max_length)
    got = _outcome(lambda: constrained_decode(scorer, inp, schema, config))
    want = _outcome(lambda: reference_beam(scorer, inp, schema, config))
    assert got == want  # tokens and logprobs, floats compared with ==


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    kind=st.sampled_from(
        ["random", "uniform", "empty", "gappy", "tied", "noisy-oracle", "spoiled"]
    ),
    max_length=st.integers(min_value=4, max_value=30),
)
def test_greedy_equals_reference_greedy(seed, kind, max_length):
    rng = random.Random(seed)
    if rng.random() < 0.3:
        schema = PREFIX_SCHEMA
    else:
        schema = random_schema(rng, max_types=4, max_roles=3)
    pool = ["x", "y", "z", *(t for name in schema.types for t in split_label(name))]
    inp = TokenizedInput.from_tokens([rng.choice(pool) for _ in range(rng.randint(0, 5))])
    vocab = decoding_vocab(schema, inp)
    scorer = {
        "random": lambda: RandomScorer(vocab, seed),
        "uniform": lambda: UniformScorer(vocab),
        "empty": EmptyScorer,
        "gappy": lambda: GappyScorer(vocab, seed),
        "tied": lambda: TiedScorer(vocab, seed),
        "noisy-oracle": lambda: oracle_scorer(
            random_walk(rng, schema, inp, rng.randint(2, max_length)),
            rng.choice((0.05, 0.3, 0.6)),
            vocab,
        ),
        # bad scores: the smallest bad legal token is named
        "spoiled": lambda: SpoiledScorer(
            vocab, seed, rng.choice((math.nan, math.inf, -math.inf, -0.5)), rng.randint(1, 4)
        ),
    }[kind]()
    config = DecodeConfig(max_length=max_length)
    got = _outcome(lambda: constrained_decode(scorer, inp, schema, config))
    want = _outcome(lambda: reference_greedy(scorer, inp, schema, config))
    assert got == want  # tokens and logprobs, floats compared with ==


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    kind=st.sampled_from(["random", "uniform", "empty", "gappy", "tied", "ngram", "spoiled"]),
    max_length=st.integers(min_value=4, max_value=30),
)
def test_unconstrained_equals_reference_argmax(seed, kind, max_length):
    # the argmax, its tie rule, and the first bad score in the
    # distribution's order, as min() over the whole distribution has them
    rng = random.Random(seed)
    schema = random_schema(rng, max_types=4, max_roles=3)
    inp = TokenizedInput.from_tokens([rng.choice("xyz") for _ in range(rng.randint(0, 5))])
    vocab = decoding_vocab(schema, inp)
    scorer = {
        "random": lambda: RandomScorer(vocab, seed),
        "uniform": lambda: UniformScorer(vocab),
        "empty": EmptyScorer,
        "gappy": lambda: GappyScorer(vocab, seed),
        "tied": lambda: TiedScorer(vocab, seed),
        "ngram": lambda: train_ngram(
            [(inp, random_walk(rng, schema, inp, rng.randint(2, 12))) for _ in range(3)],
            n=rng.randint(1, 3), extra_vocab=vocab,
        ),
        "spoiled": lambda: SpoiledScorer(
            vocab, seed, rng.choice((math.nan, math.inf, -math.inf, -0.5)), rng.randint(1, 4)
        ),
    }[kind]()
    config = DecodeConfig(max_length=max_length, constrained=False)
    got = _outcome(lambda: constrained_decode(scorer, inp, schema, config))
    want = _outcome(lambda: reference_unconstrained(scorer, inp, config))
    assert got == want  # tokens and logprobs, floats compared with ==


class WindowScorer:
    """A random scorer that reads only the last ``size`` prefix tokens
    (the whole prefix while it is shorter), and declares so."""

    def __init__(self, vocab, seed, size):
        self.base = RandomScorer(vocab, seed)
        self.context_size = size

    def next_distribution(self, inp, prefix):
        size = self.context_size
        return self.base.next_distribution(inp, tuple(prefix)[-size:] if size else ())


def _result_or_message(decode):
    try:
        return decode()
    except TruncationError as err:
        return str(err)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    kind=st.sampled_from(["ngram", "window", "uniform"]),
    max_length=st.integers(min_value=4, max_value=60),
)
def test_greedy_with_a_declared_context_equals_the_full_search(seed, kind, max_length):
    # a decode that stops at a repeated step must be one that the search
    # without early stop truncates, with the same message
    rng = random.Random(seed)
    if rng.random() < 0.3:
        schema = PREFIX_SCHEMA
    else:
        schema = random_schema(rng, max_types=4, max_roles=3)
    pool = ["x", "y", "z", *(t for name in schema.types for t in split_label(name))]

    def sentence():
        return TokenizedInput.from_tokens([rng.choice(pool) for _ in range(rng.randint(0, 5))])

    # input tokens outside the pool are outside every vocabulary below
    inp = TokenizedInput.from_tokens(
        [rng.choice(pool + ["w", "novel"]) for _ in range(rng.randint(0, 5))]
    )
    if kind == "ngram":
        corpus = []
        for _ in range(rng.randint(1, 6)):
            one = sentence()
            corpus.append((one, random_walk(rng, schema, one, rng.randint(2, 20))))
        scorer = train_ngram(
            corpus,
            n=rng.randint(1, 4),
            alpha=rng.choice((0.1, 0.37, 1)),
            copy_boost=rng.choice((1.0, 4.0)),
            extra_vocab=schema.label_tokens if rng.random() < 0.5 else (),
        )
    elif kind == "window":
        scorer = WindowScorer(decoding_vocab(schema, inp), seed, rng.randint(0, 3))
    else:
        scorer = UniformScorer(decoding_vocab(schema, inp))
    config = DecodeConfig(max_length=max_length)
    got = _result_or_message(lambda: constrained_decode(scorer, inp, schema, config))
    want = _result_or_message(lambda: reference_greedy(scorer, inp, schema, config))
    assert got == want  # tokens and logprobs, floats compared with ==


@pytest.mark.parametrize("mode", ["greedy", "beam"])
@pytest.mark.parametrize("kind", ["random", "ngram"])
def test_a_decode_nll_is_the_scorer_side_nll(kind, mode):
    # the decoder's NLL of a finished output is exactly the scorer's NLL
    # of that output, so that the two can be compared to tell search
    # errors from model errors
    finished = 0
    for seed in range(40):
        rng = random.Random(seed)
        schema = PREFIX_SCHEMA if seed % 4 == 0 else random_schema(rng, max_types=4, max_roles=3)
        pool = ["x", "y", "z", *(t for name in schema.types for t in split_label(name))]

        def sentence():
            return TokenizedInput.from_tokens(
                [rng.choice(pool) for _ in range(rng.randint(0, 5))]
            )

        inp = sentence()
        if kind == "ngram":
            corpus = []
            for _ in range(rng.randint(1, 6)):
                one = sentence()
                corpus.append((one, random_walk(rng, schema, one, rng.randint(2, 20))))
            scorer = train_ngram(corpus, n=rng.randint(1, 4), extra_vocab=schema.label_tokens)
        else:
            scorer = RandomScorer(decoding_vocab(schema, inp), seed)
        config = DecodeConfig(mode=mode, beam_width=rng.randint(1, 4), max_length=40)
        try:
            result = constrained_decode(scorer, inp, schema, config)
        except TruncationError:
            continue
        finished += 1
        assert result.nll == sequence_nll(scorer, inp, result.tokens)
    assert finished >= 10


class CountingUniform(UniformScorer):
    calls = 0

    def next_distribution(self, inp, prefix):
        self.calls += 1
        return super().next_distribution(inp, prefix)


@pytest.mark.parametrize("max_length", [64, 512])
def test_a_looping_greedy_decode_stops_at_its_first_repeated_step(max_length):
    # "( ( Transfer Money Money ( Giver Money ) (" reaches the role label's
    # state, with no span node, a second time: the eleventh step repeats
    # the seventh.  Without a declared context the decode runs to
    # max_length, and so does an unconstrained one, which has no early stop.
    schema = parse_schema("Transfer-Money: Giver, Recipient\nTransfer-Ownership: Buyer")
    inp = TokenizedInput.from_tokens(["Money", "paid", "x"])
    vocab = decoding_vocab(schema, inp)
    for constrained, calls in ((True, 10), (False, max_length - 1)):
        config = DecodeConfig(max_length=max_length, constrained=constrained)
        declared, undeclared = CountingUniform(vocab), Undeclared(UniformScorer(vocab))
        messages = []
        for scorer in (declared, undeclared):
            with pytest.raises(TruncationError) as err:
                constrained_decode(scorer, inp, schema, config)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == f"no end sentinel within max_length={max_length} tokens"
        assert (declared.calls, undeclared.calls) == (calls, max_length - 1)


class LastTokenScorer:
    """A fixed distribution per last prefix token."""

    context_size = 1

    def __init__(self, rows):
        self.rows = rows

    def next_distribution(self, inp, prefix):
        return self.rows[prefix[-1]]


def test_a_step_at_another_span_node_is_no_repeat(tiny_schema):
    # the second "a" and the ")" after it are both chosen in the trigger's
    # grammar state after an "a", but at two nodes of the span trie
    rows = {
        BOS: {OPEN: 1.0},
        OPEN: {OPEN: 0.6, "T": 0.4},
        "T": {"a": 1.0},
        "a": {"a": 0.5, CLOSE: 0.3, "b": 0.2},
        CLOSE: {CLOSE: 0.7, OPEN: 0.2, EOS: 0.1},
    }
    inp = TokenizedInput.from_tokens(["a", "a", "b"])
    scorer = LastTokenScorer(rows)
    got = constrained_decode(scorer, inp, tiny_schema)
    assert got.tokens == (OPEN, OPEN, "T", "a", "a", CLOSE, CLOSE)
    assert got == reference_greedy(scorer, inp, tiny_schema, DecodeConfig())


@pytest.mark.parametrize("size", [True, False, -1, 1.0, 2.5, "2"])
@pytest.mark.parametrize("config", [
    DecodeConfig(),
    DecodeConfig(mode="beam", beam_width=2),
    DecodeConfig(constrained=False),
])
def test_a_context_size_that_is_no_count_is_a_typed_error(tiny_schema, size, config):
    inp = TokenizedInput.from_tokens(["tok"])
    scorer = WindowScorer(decoding_vocab(tiny_schema, inp), 0, size)
    with pytest.raises(ValueError, match=r"^WindowScorer\.context_size must be a non-negative int"):
        constrained_decode(scorer, inp, tiny_schema, config)
    scorer.context_size = None  # declares nothing: decodes or truncates
    _result_or_message(lambda: constrained_decode(scorer, inp, tiny_schema, config))


# ------------------------------------------------------------ scorer contract

THREE_TYPES = parse_schema("A: R\nB: R\nC: R")


class LateBadScorer:
    """Opens an event, then puts ``value`` on the ``bad`` type labels next
    to a good "A"."""

    def __init__(self, value, bad):
        self.value, self.bad = value, bad

    def next_distribution(self, inp, prefix):
        if len(prefix) < 3:
            return {OPEN: 1.0}
        return {"A": 0.9, "C": 0.1, **dict.fromkeys(self.bad, self.value)}


@pytest.mark.parametrize("mode", ["greedy", "beam"])
@pytest.mark.parametrize("value", [float("nan"), math.inf, -math.inf, -0.25])
@pytest.mark.parametrize("bad", [("B",), ("B", "C")])
def test_bad_value_on_a_later_non_chosen_token_names_it(mode, value, bad):
    inp = TokenizedInput.from_tokens(["x"])
    config = DecodeConfig(mode=mode, beam_width=2)
    state, tries, span_trie = replay((OPEN, OPEN), THREE_TYPES, inp)
    first_bad = min(set(bad) & candidate_vocab(state, tries, span_trie))
    with pytest.raises(DecodeError, match=f"for {first_bad!r}: "):
        constrained_decode(LateBadScorer(value, bad), inp, THREE_TYPES, config)


class MentionBadScorer:
    """Walks ``walk``, then puts ``value`` on the ``bad`` tokens next to
    a good ")" and a good "x"."""

    def __init__(self, walk, value, bad):
        self.walk, self.value, self.bad = walk, value, bad

    def next_distribution(self, inp, prefix):
        if len(prefix) <= len(self.walk):
            return {self.walk[len(prefix) - 1]: 1.0}
        return {CLOSE: 0.5, "x": 0.5, **dict.fromkeys(self.bad, self.value)}


@pytest.mark.parametrize("mode", ["greedy", "beam"])
@pytest.mark.parametrize("value", [float("nan"), -0.25])
@pytest.mark.parametrize("walk, bad", [
    # the span root: every input token is legal, no structure token is
    ((OPEN, OPEN, "A"), ("y", "z")),
    ((OPEN, OPEN, "A"), ("y", "w")),
    ((OPEN, OPEN, "A"), ("z", "w")),
    # inside the span "x": its next tokens, ")" and "(" are legal
    ((OPEN, OPEN, "A", "x"), ("y", "z")),
    ((OPEN, OPEN, "A", "x"), ("y", CLOSE)),
    ((OPEN, OPEN, "A", "x"), ("z", OPEN)),
])
def test_bad_value_at_a_mention_position_names_the_first_bad_token(mode, value, walk, bad):
    inp = TokenizedInput.from_tokens(["x", "y", "x", "z", "w"])
    config = DecodeConfig(mode=mode, beam_width=2)
    state, tries, span_trie = replay(walk, THREE_TYPES, inp)
    first_bad = min(set(bad) & candidate_vocab(state, tries, span_trie))
    with pytest.raises(DecodeError, match=f"for {re.escape(repr(first_bad))}: "):
        constrained_decode(MentionBadScorer(walk, value, bad), inp, THREE_TYPES, config)


class SecondStepScorer:
    """Forces "(", then returns ``second`` at the second step, then walks
    "T tok ) )" to the end."""

    def __init__(self, second):
        self.second = second

    def next_distribution(self, inp, prefix):
        if len(prefix) == 1:
            return {OPEN: 1.0}
        if len(prefix) == 2:
            return self.second
        return {CLOSE: 0.5, "T": 0.5, "tok": 0.5, EOS: 1.0}


@pytest.mark.parametrize("mode", ["greedy", "beam"])
def test_negative_zero_and_absent_tokens_are_probability_zero(tiny_schema, mode):
    inp = TokenizedInput.from_tokens(["tok"])
    config = DecodeConfig(mode=mode, beam_width=2, max_length=24)
    results = [
        constrained_decode(SecondStepScorer(second), inp, tiny_schema, config)
        for second in (
            {OPEN: 0.0, CLOSE: 0.0},
            {OPEN: -0.0},
            {OPEN: -0.0, CLOSE: 0.0},
            {OPEN: 0.0, CLOSE: -0.0},
            {},
        )
    ]
    assert all(r == results[0] for r in results)
    assert results[0].logprobs[1] == -math.inf


class ReadOnlyScorer:
    """Wraps every distribution in a read-only view."""

    def __init__(self, base):
        self.base = base

    def next_distribution(self, inp, prefix):
        return types.MappingProxyType(self.base.next_distribution(inp, prefix))


def test_decoding_never_writes_to_a_distribution(fig_schema, fig_input, fig_seq):
    vocab = decoding_vocab(fig_schema, fig_input)
    for base in (
        train_ngram([(fig_input, fig_seq)], n=3, extra_vocab=vocab),
        oracle_scorer(fig_seq, 0.1, vocab),
        UniformScorer(vocab),
        RandomScorer(vocab, 7),
    ):
        for config in (
            DecodeConfig(max_length=64),
            DecodeConfig(mode="beam", beam_width=4, max_length=64),
            DecodeConfig(max_length=64, constrained=False),
        ):
            got, want = (
                _outcome(lambda: constrained_decode(one, fig_input, fig_schema, config))
                for one in (ReadOnlyScorer(base), base)
            )
            assert got == want
        nll = sequence_nll(ReadOnlyScorer(base), fig_input, fig_seq)
        assert nll == sequence_nll(base, fig_input, fig_seq)


# --------------------------------------------------------------------- batch


def test_decode_batch_shared_scorer(tiny_schema):
    inputs = [TokenizedInput.from_text(""), TokenizedInput.from_text("")]
    scorer = uniform_scorer(decoding_vocab(tiny_schema))
    results = decode_batch(scorer, inputs, tiny_schema)
    assert [r.tokens for r in results] == [(OPEN, CLOSE), (OPEN, CLOSE)]


def test_decode_batch_per_item_scorers(fig_schema, fig_input, fig_seq):
    simple = (OPEN, CLOSE)
    scorers = [oracle_scorer(fig_seq), oracle_scorer(simple)]
    results = decode_batch(scorers, [fig_input, fig_input], fig_schema)
    assert results[0].tokens == fig_seq
    assert results[1].tokens == simple


def test_decode_batch_scorer_count_mismatch(fig_schema, fig_input):
    with pytest.raises(ValueError):
        decode_batch([oracle_scorer((OPEN, CLOSE))], [fig_input, fig_input], fig_schema)


def test_decode_batch_aggregates_errors(tiny_schema):
    inp = TokenizedInput.from_tokens(["tok"])
    ok = oracle_scorer((OPEN, CLOSE))
    stuck = uniform_scorer(decoding_vocab(tiny_schema, inp))
    first, second = decode_batch(
        [ok, stuck], [inp, inp], tiny_schema, DecodeConfig(max_length=16)
    )
    assert isinstance(first, DecodeResult)
    assert first.tokens == (OPEN, CLOSE)
    assert isinstance(second, TruncationError)
    assert str(second) == "no end sentinel within max_length=16 tokens"


def test_decode_batch_errors_keep_no_frames(tiny_schema):
    # a traceback would keep the failed search's frames, and all they hold, alive
    inp = TokenizedInput.from_tokens(["tok"])
    stuck = uniform_scorer(decoding_vocab(tiny_schema, inp))
    (error,) = decode_batch(stuck, [inp], tiny_schema, DecodeConfig(max_length=16))
    assert isinstance(error, TruncationError)
    assert error.__traceback__ is None


# ---------------------------------------------------------------------- nll


def test_sequence_nll_of_oracle_target(fig_input, fig_seq):
    assert sequence_nll(oracle_scorer(fig_seq), fig_input, fig_seq) == 0.0
    noisy = oracle_scorer(fig_seq, epsilon=0.25)
    expected = -(len(fig_seq) + 1) * math.log(0.75)
    assert sequence_nll(noisy, fig_input, fig_seq) == pytest.approx(expected, rel=1e-9)


def test_sequence_nll_uniform_closed_form(fig_input, fig_seq, fig_schema):
    vocab = decoding_vocab(fig_schema, fig_input)
    nll = sequence_nll(uniform_scorer(vocab), fig_input, fig_seq)
    assert nll == pytest.approx((len(fig_seq) + 1) * math.log(len(vocab)), rel=1e-9)


def test_sequence_nll_out_of_vocab_is_infinite(fig_input):
    scorer = uniform_scorer(["(", ")", "<eos>"])
    assert sequence_nll(scorer, fig_input, ("(", "mystery", ")")) == float("inf")


def test_sequence_nll_matches_decode_logprobs(fig_schema, fig_input, fig_seq):
    scorer = train_ngram([(fig_input, fig_seq)], n=3)
    result = constrained_decode(
        oracle_scorer(fig_seq), fig_input, fig_schema
    )
    nll = sequence_nll(scorer, fig_input, result.tokens)
    # Independent recomputation: walk the stream, multiply step
    # probabilities, compare in the probability domain.
    stream = (BOS, *result.tokens, EOS)
    product = 1.0
    for i in range(1, len(stream)):
        product *= scorer.next_distribution(fig_input, stream[:i])[stream[i]]
    assert math.exp(-nll) == pytest.approx(product, rel=1e-9)
