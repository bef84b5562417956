"""The compiled decoding automaton against the phase-ladder reference.

``candidate_vocab`` and ``step`` are views on the automaton that
``constrained_decode`` walks, so checking them against the reference
ladder in ``oracles`` checks the decoder's grammar.
"""

import gc
import pickle
import random
import sys
import threading
import weakref
from pathlib import Path

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

from oracles import Undeclared, random_schema, reference_candidate_vocab, reference_step

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



def test_a_stepped_state_is_a_plain_value():
    inp = TokenizedInput.from_tokens(["Money", "paid", "x"])
    tries = SchemaTries.from_schema(parse_schema("Transfer-Money: Giver, Recipient\nDie:"))
    span_trie = build_span_trie(inp)
    state = DecodeState()
    for token in (OPEN, OPEN, "Transfer", "Money", "paid"):
        state = step(state, token, tries, span_trie)
    plain = DecodeState(state.tokens, state.depth, state.phase, state.partial_label,
                        state.partial_span, state.current_type)
    # the pickle carries the six fields, not the tries or the span trie
    assert pickle.dumps(state) == pickle.dumps(plain)
    assert not hasattr(state, "__dict__")
    copy = pickle.loads(pickle.dumps(state))
    assert copy == state
    assert candidate_vocab(copy, tries, span_trie) == candidate_vocab(state, tries, span_trie)
    assert candidate_vocab(copy, tries, span_trie) == {"x", OPEN, CLOSE}


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


BENCHMARK_SCHEMA = Path(__file__).resolve().parents[1] / "benchmarks" / "schema.txt"


def _check_complete(grammar):
    """Every state holds a transition for each of its grammar tokens, and
    every state the grammar links to is one of its states."""
    ids = {id(state) for state in grammar.states}
    assert len(ids) == len(grammar.states)
    assert sorted(map(id, grammar._ids.values())) == sorted(ids)
    for state in grammar.states:
        assert set(state.next) == set(state.tokens or ())
        assert all(id(nxt) in ids for nxt in state.next.values())
        assert state.span_next is None or id(state.span_next) in ids


def test_a_built_grammar_holds_every_state_and_transition():
    schema = parse_schema(BENCHMARK_SCHEMA.read_text(encoding="utf-8"))
    grammar = evseq.decoder._grammar(schema.tries)
    _check_complete(grammar)
    assert len(grammar.states) == 45
    assert sum(len(state.next) for state in grammar.states) == 67


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_grammars_of_random_schemas_are_complete(seed):
    rng = random.Random(seed)
    if seed % 5 == 0:
        schema = SHARED_PREFIX_SCHEMA
    else:
        schema = random_schema(rng, max_types=4, max_roles=3)
    grammar = evseq.decoder._grammar(SchemaTries.from_schema(schema))
    _check_complete(grammar)
    # every state is reachable from the two starts
    reached = {grammar.start, grammar.start_empty}
    todo = list(reached)
    while todo:
        state = todo.pop()
        for nxt in [*state.next.values(), *([state.span_next] if state.span_next else [])]:
            if nxt not in reached:
                reached.add(nxt)
                todo.append(nxt)
    assert len(reached) == len(grammar.states)


@pytest.mark.parametrize("max_length", [64, 512])
def test_a_looping_greedy_decode_computes_no_transition(monkeypatch, max_length):
    # Under a uniform scorer greedy takes the smallest legal token, and
    # "(" < ")" < letters: after the trigger it opens an argument, closes
    # it after one span token, and opens the next one, until max_length:
    # the proxy declares no context_size, so greedy does not stop at the
    # first repeated step.  The grammar is complete once built, so every
    # step, greedy, beam or through step, is a lookup.
    schema = parse_schema("Transfer-Money: Giver, Recipient\nTransfer-Ownership: Buyer")
    inp = TokenizedInput.from_tokens(["Money", "paid", "x"])
    evseq.decoder._grammar(schema.tries)

    def forbidden(*args):
        raise AssertionError("a decode computed a grammar state or transition")

    monkeypatch.setattr(evseq.decoder._Grammar, "_transition", forbidden)
    monkeypatch.setattr(evseq.decoder._Grammar, "_compile", forbidden)
    scorer = Undeclared(UniformScorer(decoding_vocab(schema, inp)))
    with pytest.raises(TruncationError):
        constrained_decode(scorer, inp, schema, DecodeConfig(max_length=max_length))
    assert scorer.calls == max_length - 1
    target = tuple("( ( Transfer Money paid ( Giver x ) ) )".split())
    oracle = oracle_scorer(target, 0.1, decoding_vocab(schema, inp))
    beam = DecodeConfig("beam", 3, max_length)
    assert constrained_decode(oracle, inp, schema, beam).tokens == target
    state = DecodeState()
    for token in (OPEN, OPEN, "Transfer", "Money", "paid", OPEN, "Giver", "x", CLOSE):
        state = step(state, token, schema.tries, build_span_trie(inp))
    assert candidate_vocab(state, schema.tries, build_span_trie(inp)) == {OPEN, CLOSE}


def _snapshot(grammar):
    return [(s, s.phase, s.current, dict(s.next), s.span_next) for s in grammar.states]


def test_pickled_tries_leave_the_compiled_grammar_out():
    # the pickle of the benchmark schema's tries is 1,356 bytes either
    # way; with the grammar in it, it would be 5,466
    schema = parse_schema(BENCHMARK_SCHEMA.read_text(encoding="utf-8"))
    before = pickle.dumps(schema.tries)
    inp = TokenizedInput.from_tokens(["x", "y"])
    _decode_or_none(RandomScorer(decoding_vocab(schema, inp), seed=3), inp, schema)
    grammar = evseq.decoder._grammar(schema.tries)
    assert pickle.dumps(schema.tries) == before
    copy = pickle.loads(before)
    assert "_grammar" not in vars(copy)
    # the copy compiles a grammar of its own on first use
    span_trie = build_span_trie(inp)
    state = step(DecodeState(), OPEN, copy, span_trie)
    assert candidate_vocab(state, copy, span_trie) == candidate_vocab(
        state, schema.tries, span_trie
    )
    assert evseq.decoder._grammar(copy) is not grammar
    assert len(evseq.decoder._grammar(copy).states) == len(grammar.states)


@pytest.mark.parametrize("config", [
    DecodeConfig(),
    DecodeConfig(mode="beam", beam_width=3),
])
def test_inputs_share_the_grammar_of_their_schema(config):
    # the grammar depends on the schema tries alone and is complete once
    # built: no decode, greedy, beam, unconstrained or through step,
    # adds a state or changes a transition
    schema = parse_schema("Transfer-Money: Giver, Recipient\nTransfer-Ownership: Buyer")
    grammar = evseq.decoder._grammar(schema.tries)
    built = _snapshot(grammar)
    walks = [
        ("Money paid x", "( ( Transfer Money paid ( Giver x ) ) )"),
        ("Ownership was sold to y", "( ( Transfer Money sold ( Giver y ) ) )"),
    ]
    for text, target in walks:
        inp = TokenizedInput.from_tokens(text.split())
        target = tuple(target.split())
        scorer = oracle_scorer(target, 0.1, decoding_vocab(schema, inp))
        assert constrained_decode(scorer, inp, schema, config).tokens == target
        assert _snapshot(grammar) == built
        unconstrained = DecodeConfig(max_length=40, constrained=False)
        assert constrained_decode(scorer, inp, schema, unconstrained).tokens == target
        assert _snapshot(grammar) == built
        span_trie = build_span_trie(inp)
        state = DecodeState()
        for token in (*target, EOS):
            candidate_vocab(state, schema.tries, span_trie)
            state = step(state, token, schema.tries, span_trie)
        assert state.done
        assert _snapshot(grammar) == built
    assert evseq.decoder._grammar(schema.tries) is grammar


def test_threads_compiling_one_grammar_agree_with_a_single_thread():
    # decoders on several threads race to build the grammar of one fresh
    # schema through _grammar; one grammar is kept, the others are
    # dropped, and nothing writes to the kept one once it is built
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
        out.append(evseq.decoder._grammar(schema.tries))

    want: list = []
    decode_all(parse_schema(schema_text), want)
    want.pop()
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
    grammar = evseq.decoder._grammar(schema.tries)
    assert all(out.pop() is grammar for out in outs)
    assert all(out == want for out in outs)
    _check_complete(grammar)


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
    # the grammar's states link to each other in loops (the event loop
    # back to AWAIT_EVENT, the argument loop above), but the schema keeps
    # its grammar alive; what a decode builds itself (the span trie,
    # prefixes, beam hypotheses) makes no reference cycles, so reference
    # counting frees it as soon as the decode ends
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
    # a walk through step compiles the grammar of the tries, which keep
    # it; the states it returns are plain values that refer to no grammar
    # state, so dropping the last one leaves nothing for the collector
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


def test_a_dropped_schema_frees_its_grammar():
    # the grammar's states link to each other in loops, so once its schema
    # is dropped the cyclic collector frees it
    schema = parse_schema("Transfer-Money: Giver, Recipient\nTransfer-Ownership: Buyer")
    inp = TokenizedInput.from_tokens(["Money", "paid", "x"])
    _decode_or_none(UniformScorer(decoding_vocab(schema, inp)), inp, schema)
    grammar = weakref.ref(evseq.decoder._grammar(schema.tries))
    assert grammar() is not None
    del schema
    gc.collect()
    assert grammar() is None


def test_total_logprob_is_a_left_fold():
    # sum() of floats compensates its rounding from Python 3.12 on and
    # would give -1.0000000000000002e16; beam ranks by the left fold
    assert DecodeResult((), (-1e16, -1.0, -1.0)).total_logprob == -1e16
    assert DecodeResult((), ()).total_logprob == 0.0
