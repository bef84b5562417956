"""The compiled decoding automaton against the phase-ladder reference.

``candidate_vocab`` and ``step`` are views on the automaton that
``constrained_decode`` walks, so checking them against the reference
ladder in ``oracles`` checks the decoder's grammar.
"""

import gc
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evseq.decoder
from evseq import (
    CLOSE,
    EOS,
    OPEN,
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
    decoding_vocab,
    oracle_scorer,
    parse_schema,
    split_label,
    step,
)

from oracles import random_schema, reference_candidate_vocab, reference_step

SHARED_PREFIX_SCHEMA = parse_schema(
    "End: Re\nEnd-Position: Re, Place\nTransfer-Money: Giver, Recipient\n"
    "Transfer-Ownership: Buyer, Seller\nDie:"
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    max_span_len=st.integers(min_value=1, max_value=4),
    soft_len=st.integers(min_value=0, max_value=40),
)
def test_views_equal_the_reference_ladder_on_random_walks(seed, max_span_len, soft_len):
    rng = random.Random(seed)
    if rng.random() < 0.4:
        schema = SHARED_PREFIX_SCHEMA
    else:
        schema = random_schema(rng, max_types=4, max_roles=3)
    # words and label tokens, so that mentions can collide with labels
    names = [*schema.types, *(r for t in schema.types for r in schema.roles(t))]
    pool = ["x", "y", "(", *(t for name in names for t in split_label(name))]
    inp = TokenizedInput.from_tokens([rng.choice(pool) for _ in range(rng.randint(0, 6))])
    tries = SchemaTries.from_schema(schema)
    span_trie = build_span_trie(inp, max_span_len)
    state = ref = DecodeState()
    while not ref.done:
        legal = candidate_vocab(state, tries, span_trie)
        want = reference_candidate_vocab(ref, tries, span_trie)
        assert legal == want
        assert list(legal) == list(want)  # the order first-error messages follow
        cands = sorted(legal)
        if len(ref.tokens) >= soft_len and CLOSE in cands:
            token = CLOSE
        else:
            token = rng.choice(cands)
        state = step(state, token, tries, span_trie)
        ref = reference_step(ref, token, tries, span_trie)
        assert state == ref
    assert state.done
    with pytest.raises(DecodeError):
        candidate_vocab(state, tries, span_trie)
    with pytest.raises(DecodeError):
        reference_candidate_vocab(ref, tries, span_trie)


def test_views_accept_states_of_other_equal_tries_and_span_tries():
    inp = TokenizedInput.from_tokens(["Money", "paid", "x"])
    tries = SchemaTries.from_schema(SHARED_PREFIX_SCHEMA)
    span_trie = build_span_trie(inp)
    state = DecodeState()
    for token in (OPEN, OPEN, "Transfer", "Money", "paid", OPEN):
        state = step(state, token, tries, span_trie)
    # fresh objects: the state is located again from its tokens
    other = (SchemaTries.from_schema(SHARED_PREFIX_SCHEMA), build_span_trie(inp))
    assert candidate_vocab(state, *other) == candidate_vocab(state, tries, span_trie)
    assert candidate_vocab(state, *other) == {"Giver", "Recipient"}
    assert step(state, "Giver", *other) == step(state, "Giver", tries, span_trie)


@pytest.mark.parametrize(
    "state",
    [
        DecodeState(phase=Phase.AWAIT_EVENT, depth=1),  # tokens do not lead there
        DecodeState((OPEN,), 1, Phase.AWAIT_EVENT, ("x",)),  # a stray partial label
        DecodeState((OPEN,), 2, Phase.AWAIT_EVENT),  # a wrong depth
        DecodeState((OPEN, "x")),  # an illegal token
    ],
)
def test_views_reject_fields_that_disagree_with_the_tokens(state):
    tries = SchemaTries.from_schema(SHARED_PREFIX_SCHEMA)
    span_trie = build_span_trie(TokenizedInput.from_tokens(["x"]))
    with pytest.raises(DecodeError, match="is not a state its tokens lead to"):
        candidate_vocab(state, tries, span_trie)
    with pytest.raises(DecodeError, match="is not a state its tokens lead to"):
        step(state, OPEN, tries, span_trie)


@pytest.mark.parametrize("max_length", [64, 512])
def test_a_looping_greedy_decode_computes_its_transitions_once(monkeypatch, max_length):
    # Under a uniform scorer greedy takes the smallest legal token, and
    # "(" < ")" < letters: after the trigger it opens an argument, closes
    # it after one span token, and opens the next one, until max_length.
    schema = parse_schema("Transfer-Money: Giver, Recipient\nTransfer-Ownership: Buyer")
    inp = TokenizedInput.from_tokens(["Money", "paid", "x"])
    scorer = UniformScorer(decoding_vocab(schema, inp))
    computed = []
    advance = evseq.decoder._Grammar.advance

    def counting(self, state, token):
        computed.append((state.phase, token))
        return advance(self, state, token)

    monkeypatch.setattr(evseq.decoder._Grammar, "advance", counting)
    with pytest.raises(TruncationError):
        constrained_decode(scorer, inp, schema, DecodeConfig(max_length=max_length))
    # "( ( Transfer Money Money ( Giver Money )" takes seven grammar
    # transitions (a copied mention token steps to the state's span_next,
    # no transition), the next "(" an eighth (to a role-label state
    # already compiled); from there "Giver Money ) (" repeats, every
    # grammar step a lookup
    assert len(computed) == 8


def _transitions(grammar):
    return [(s.phase, s.current, dict(s.next), s.span_next) for s in grammar.states]


@pytest.mark.parametrize("config", [
    DecodeConfig(),
    DecodeConfig(mode="beam", beam_width=3),
])
def test_inputs_share_the_grammar_of_their_schema(config):
    # the grammar depends on the schema tries alone: a second input whose
    # decode takes the same grammar steps compiles no state and no
    # transition, and leaves the first decode's transitions as they were
    schema = parse_schema("Transfer-Money: Giver, Recipient\nTransfer-Ownership: Buyer")
    walks = [
        ("Money paid x", "( ( Transfer Money paid ( Giver x ) ) )"),
        ("Ownership was sold to y", "( ( Transfer Money sold ( Giver y ) ) )"),
    ]
    for i, (text, target) in enumerate(walks):
        inp = TokenizedInput.from_tokens(text.split())
        scorer = oracle_scorer(tuple(target.split()), 0.1, decoding_vocab(schema, inp))
        assert constrained_decode(scorer, inp, schema, config).tokens == tuple(target.split())
        if i == 0:
            grammar = evseq.decoder._grammar(schema.tries)
            compiled = _transitions(grammar)
    assert evseq.decoder._grammar(schema.tries) is grammar
    assert _transitions(grammar) == compiled


def test_threads_compiling_one_grammar_agree_with_a_single_thread():
    # decoders on several threads compile states of one fresh grammar at
    # once; a state's id must stay its index, or a transition would lead
    # to another state
    schema_text = "A-B: R, S\nA-C: R\nA: S, T-U\nD-E-F: R\nD:"
    rng = random.Random(5)
    inputs = [
        TokenizedInput.from_tokens([rng.choice(["x", "y", "A", "B", "T"]) for _ in range(5)])
        for _ in range(40)
    ]

    def decode_all(schema, out):
        for seed, inp in enumerate(inputs):
            scorer = RandomScorer(decoding_vocab(schema, inp), seed=seed)
            out.append(_decode_or_none(scorer, inp, schema))

    want: list = []
    decode_all(parse_schema(schema_text), want)
    schema = parse_schema(schema_text)
    outs: list[list] = [[] for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=decode_all, args=(schema, out)) for out in outs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(out == want for out in outs)
    grammar = evseq.decoder._grammar(schema.tries)
    assert sorted(grammar._ids.values()) == list(range(len(grammar.states)))


def _decode_or_none(scorer, inp, schema):
    try:
        return constrained_decode(scorer, inp, schema, DecodeConfig(max_length=40))
    except TruncationError:
        return None


@pytest.mark.parametrize("config", [
    DecodeConfig(max_length=64),  # truncates, as above
    DecodeConfig(mode="beam", beam_width=3, max_length=64),
])
def test_a_decode_leaves_no_cyclic_garbage(config):
    # transitions are state ids, not references between states, so the
    # event loop back to AWAIT_EVENT and the argument loop above make no
    # reference cycles and reference counting frees a decode's automaton
    # as soon as the decode ends
    schema = parse_schema("Transfer-Money: Giver, Recipient\nTransfer-Ownership: Buyer")
    inp = TokenizedInput.from_tokens(["Money", "paid", "x"])
    scorer = UniformScorer(decoding_vocab(schema, inp))
    gc.collect()
    gc.disable()
    try:
        try:
            constrained_decode(scorer, inp, schema, config)
        except TruncationError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_public_step_walk_leaves_no_cyclic_garbage():
    # a walk through step compiles an automaton that the states it returns
    # keep alive; its transitions are state ids, so dropping the last state
    # frees it by reference counting, with nothing for the collector to do
    schema = parse_schema("T: R")
    inp = TokenizedInput.from_tokens(["a", "b"])
    tries, span_trie = SchemaTries.from_schema(schema), build_span_trie(inp)
    walk = [OPEN, OPEN, "T", "a", "b", OPEN, "R", "a", CLOSE, CLOSE, OPEN, "T", "b", CLOSE]
    gc.collect()
    gc.disable()
    try:
        state = DecodeState()
        for token in (*walk, CLOSE, EOS):
            state = step(state, token, tries, span_trie)
        assert state.done and state.tokens == (*walk, CLOSE)
        del state
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_total_logprob_is_a_left_fold():
    # sum() of floats compensates its rounding from Python 3.12 on and
    # would give -1.0000000000000002e16; beam ranks by the left fold
    assert DecodeResult((), (-1e16, -1.0, -1.0)).total_logprob == -1e16
    assert DecodeResult((), ()).total_logprob == 0.0
