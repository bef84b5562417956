import hashlib
import json
import math
import random
import re
import struct
import sys
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evseq import (
    DecodeConfig,
    NgramScorer,
    OracleScorer,
    RandomScorer,
    TokenizedInput,
    TruncationError,
    UniformScorer,
    constrained_decode,
    decoding_vocab,
    generate_synthetic,
    linearize,
    load_scorer,
    oracle_scorer,
    parse_schema,
    save_scorer,
    train_ngram,
    uniform_scorer,
)

from evseq.scorers import _left_fold
from evseq.tokens import RESERVED_TOKENS
from oracles import (
    reference_eager_distribution,
    reference_next_distribution,
    reference_ngram_distribution,
)

EMPTY = TokenizedInput.from_text("")


def assert_is_distribution(dist, tol=1e-9):
    assert dist, "distribution is empty"
    assert all(p >= 0.0 for p in dist.values())
    assert sum(dist.values()) == pytest.approx(1.0, abs=tol)


def test_decoding_vocab(fig_schema, fig_input):
    vocab = decoding_vocab(fig_schema, fig_input)
    for token in ("(", ")", "<bos>", "<eos>", "Transport", "Arrest", "Jail",
                  "Artifact", "bounty", "."):
        assert token in vocab
    assert "Arrest-Jail" not in vocab  # labels enter split into word tokens
    without_input = decoding_vocab(fig_schema)
    assert "bounty" not in without_input


def test_decoding_vocab_builds_the_schema_part_once(fig_schema, fig_input):
    schema_part = decoding_vocab(fig_schema)
    assert schema_part == RESERVED_TOKENS | fig_schema.label_tokens
    assert decoding_vocab(fig_schema) is schema_part
    assert decoding_vocab(fig_schema, fig_input) == schema_part | set(fig_input.tokens)
    # a copy of the schema compares equal and keeps its own part
    copy = parse_schema("\n".join(f"{t}: {', '.join(fig_schema.roles(t))}" for t in fig_schema))
    assert copy == fig_schema and decoding_vocab(copy) == schema_part
    # the kept part is not a field: repr and equality do not see it
    assert "_reserved_and_label_tokens" not in repr(fig_schema)


def test_uniform_scorer():
    scorer = uniform_scorer(["b", "a", "a"])
    dist = scorer.next_distribution(EMPTY, ("<bos>",))
    assert dist == {"a": 0.5, "b": 0.5}
    assert_is_distribution(dist)
    with pytest.raises(ValueError):
        UniformScorer([])


def test_oracle_scorer_on_and_off_target():
    scorer = OracleScorer(("(", ")"), epsilon=0.2, vocab=["x", "y"])
    on = scorer.next_distribution(EMPTY, ("<bos>", "("))
    assert on[")"] == pytest.approx(0.8)
    others = {t: p for t, p in on.items() if t != ")"}
    assert set(others) == {"(", "<bos>", "<eos>", "x", "y"}
    assert all(p == pytest.approx(0.2 / 5) for p in others.values())
    assert_is_distribution(on)
    off = scorer.next_distribution(EMPTY, ("<bos>", "y"))
    assert all(p == pytest.approx(1 / 6) for p in off.values())
    past_end = scorer.next_distribution(EMPTY, ("<bos>", "(", ")", "<eos>", "x"))
    assert_is_distribution(past_end)


def fromkeys_oracle(scorer, prefix):
    """The oracle's distribution built from scratch with dict.fromkeys."""
    vocab, stream, eps = scorer.vocab, scorer.stream, scorer.epsilon
    i = len(prefix)
    if i < len(stream) and tuple(prefix) == stream[:i]:
        dist = dict.fromkeys(vocab, eps / (len(vocab) - 1))
        dist[stream[i]] = 1.0 - eps
        return dist
    return dict.fromkeys(vocab, 1.0 / len(vocab))


def test_oracle_distributions_equal_a_fromkeys_construction():
    scorer = OracleScorer(("(", "b", ")"), epsilon=0.1, vocab=["a", "b", "c"])
    stream = scorer.stream
    prefixes = [stream[:i] for i in range(1, len(stream))]
    off = [(*stream[:2], "a"), stream, (*stream, "a")]
    # the on-target path twice, as a second decode of the same input
    # would ask, with off-target calls in between
    for prefix in [*prefixes, *off, *prefixes, off[0]]:
        dist = scorer.next_distribution(EMPTY, prefix)
        assert list(dist.items()) == list(fromkeys_oracle(scorer, prefix).items())
        dist["a"] = -1.0  # callers own the dicts they get
        dist.clear()


def test_oracle_edge_prefixes_equal_a_fromkeys_construction():
    scorer = OracleScorer(("(", "b", ")"), epsilon=0.1, vocab=["a", "b", "c"])
    stream = scorer.stream
    for prefix in [
        (),  # the target is <bos>
        list(stream[:3]),  # a list reads as the tuple does
        (*stream, ")"),  # past the end of the stream
        (*stream, ")", "<eos>"),
        ("<bos>", "b", "b"),  # off the path, ending on the target's token
        ("<bos>", "(", "b", ")", ")"),
    ]:
        dist = scorer.next_distribution(EMPTY, prefix)
        assert list(dist.items()) == list(fromkeys_oracle(scorer, prefix).items()), prefix
    assert scorer.next_distribution(EMPTY, ())["<bos>"] == 0.9
    listed = scorer.next_distribution(EMPTY, list(stream[:3]))
    assert listed == scorer.next_distribution(EMPTY, stream[:3])
    assert listed[")"] == 0.9


class FromkeysOracle:
    """An oracle whose every distribution is built from scratch."""

    def __init__(self, scorer):
        self.scorer = scorer

    def next_distribution(self, inp, prefix):
        return fromkeys_oracle(self.scorer, prefix)


@pytest.mark.parametrize("epsilon", [0.01, 0.3])
def test_oracle_beam_decodes_equal_fromkeys_ones(fig_schema, epsilon):
    # wider beams leave the target path, where the kept uniform dict is copied
    went_off = False
    for ex in generate_synthetic(fig_schema, seed=7, n_sentences=12, max_events=2):
        target, vocab = linearize(ex.records), decoding_vocab(fig_schema, ex.inp)
        for width in range(1, 5):
            config = DecodeConfig(mode="beam", beam_width=width, max_length=256)
            scorer = OracleScorer(target, epsilon, vocab)
            got = constrained_decode(scorer, ex.inp, fig_schema, config)
            want = constrained_decode(FromkeysOracle(scorer), ex.inp, fig_schema, config)
            assert got == want  # tokens and logprobs, floats compared with ==
            went_off = went_off or scorer._uniform is not None
    assert went_off


def test_greedy_on_target_oracle_builds_no_uniform_dict(fig_schema):
    for ex in generate_synthetic(fig_schema, seed=7, n_sentences=12):
        target = linearize(ex.records)
        scorer = OracleScorer(target, 0.01, decoding_vocab(fig_schema, ex.inp))
        assert constrained_decode(scorer, ex.inp, fig_schema).tokens == target
        assert scorer._uniform is None
        scorer.next_distribution(ex.inp, ("<bos>", ")"))
        assert scorer._uniform is not None


def test_oracle_scorer_validates_epsilon():
    with pytest.raises(ValueError):
        OracleScorer(("(",), epsilon=1.0)
    with pytest.raises(ValueError):
        OracleScorer(("(",), epsilon=-0.1)


def test_random_scorer_is_deterministic():
    scorer_a = RandomScorer(["x", "y", "z"], seed=7)
    scorer_b = RandomScorer(["x", "y", "z"], seed=7)
    prefix = ("<bos>", "(")
    assert scorer_a.next_distribution(EMPTY, prefix) == scorer_b.next_distribution(
        EMPTY, prefix
    )
    assert_is_distribution(scorer_a.next_distribution(EMPTY, prefix))
    # Different prefixes and different seeds give different weights.
    assert scorer_a.next_distribution(EMPTY, prefix) != scorer_a.next_distribution(
        EMPTY, ("<bos>", ")")
    )
    assert scorer_a.next_distribution(EMPTY, prefix) != RandomScorer(
        ["x", "y", "z"], seed=8
    ).next_distribution(EMPTY, prefix)
    with pytest.raises(ValueError):
        RandomScorer([], seed=0)


# ------------------------------------------------------------------- n-gram


def one_item_corpus():
    return [(EMPTY, ("(", ")"))]


@pytest.mark.parametrize("alpha", [0.1, 0.5, 2.0])
def test_ngram_smoothed_bigram_closed_form(alpha):
    # Training stream <bos> ( ) <eos> has vocabulary size 4; after "(" the
    # only observed continuation is ")", so its smoothed probability is
    # (1 + a) / (1 + 4a) and each unseen token gets a / (1 + 4a).
    scorer = train_ngram(one_item_corpus(), n=2, alpha=alpha)
    dist = scorer.next_distribution(EMPTY, ("<bos>", "("))
    assert dist[")"] == pytest.approx((1 + alpha) / (1 + 4 * alpha), rel=1e-12)
    assert dist["("] == pytest.approx(alpha / (1 + 4 * alpha), rel=1e-12)
    assert_is_distribution(dist)


def test_ngram_count_tables():
    scorer = train_ngram(one_item_corpus(), n=2)
    assert scorer.counts[1] == {
        (): {"<bos>": 1, "(": 1, ")": 1, "<eos>": 1}
    }
    assert scorer.counts[2] == {
        ("<bos>",): {"(": 1},
        ("(",): {")": 1},
        (")",): {"<eos>": 1},
    }
    assert scorer.vocab == frozenset({"<bos>", "(", ")", "<eos>"})


def test_ngram_counts_accumulate_across_sequences():
    corpus = [(EMPTY, ("(", ")")), (EMPTY, ("(", "(", "T", "x", ")", ")"))]
    scorer = train_ngram(corpus, n=2)
    assert scorer.counts[1][()]["("] == 3
    assert scorer.counts[1][()][")"] == 3
    assert scorer.counts[1][()]["<bos>"] == 2
    assert scorer.counts[2][("(",)] == {")": 1, "(": 1, "T": 1}
    assert scorer.counts[2][(")",)] == {"<eos>": 2, ")": 1}


def test_ngram_backoff_equals_lower_order():
    corpus = [
        (EMPTY, ("(", "(", "T", "x", ")", ")")),
        (EMPTY, ("(", ")")),
    ]
    tri = train_ngram(corpus, n=3)
    bi = train_ngram(corpus, n=2)
    # ("zzz", "(") was never seen as a trigram context; the trigram model
    # must fall back to exactly the bigram distribution after "(".
    prefix = ("zzz", "(")
    assert tri.next_distribution(EMPTY, prefix) == bi.next_distribution(EMPTY, prefix)
    # And with no usable context at all, down to the unigram.
    uni = train_ngram(corpus, n=1)
    assert tri.next_distribution(EMPTY, ("zzz",)) == uni.next_distribution(
        EMPTY, ("zzz",)
    )


def test_ngram_uses_longest_seen_context():
    corpus = [
        (EMPTY, ("a", "b", "c")),
        (EMPTY, ("x", "b", "d")),
    ]
    scorer = train_ngram(corpus, n=3, alpha=0.1)
    after_ab = scorer.next_distribution(EMPTY, ("<bos>", "a", "b"))
    after_xb = scorer.next_distribution(EMPTY, ("<bos>", "x", "b"))
    # The bigram table after "b" mixes c and d, the trigram tables do not.
    assert after_ab["c"] > after_ab["d"]
    assert after_xb["d"] > after_xb["c"]


def test_ngram_copy_boost_scales_input_tokens():
    corpus = [(EMPTY, ("a", "b")), (EMPTY, ("a", "c"))]
    scorer = train_ngram(corpus, n=2, alpha=0.5, copy_boost=3.0)
    inp = TokenizedInput.from_tokens(["b"])
    dist = scorer.next_distribution(inp, ("<bos>", "a"))
    # b and c have equal counts after "a"; the boost triples b's score
    # before normalization, so the ratio is exactly the boost.
    assert dist["b"] / dist["c"] == pytest.approx(3.0, rel=1e-12)
    unboosted = train_ngram(corpus, n=2, alpha=0.5, copy_boost=1.0)
    flat = unboosted.next_distribution(inp, ("<bos>", "a"))
    assert flat["b"] == pytest.approx(flat["c"], rel=1e-12)


def test_ngram_extends_vocabulary_with_input_tokens():
    scorer = train_ngram(one_item_corpus(), n=2)
    inp = TokenizedInput.from_tokens(["novel", "words"])
    dist = scorer.next_distribution(inp, ("<bos>",))
    assert dist["novel"] > 0.0
    assert_is_distribution(dist)
    without = scorer.next_distribution(EMPTY, ("<bos>",))
    assert "novel" not in without


def test_ngram_input_cache_follows_token_set_value():
    # The per-input support is cached for the last token set seen; equal
    # sets from distinct inputs share it, and switching inputs rebuilds it.
    corpus = [(EMPTY, ("a", "b")), (EMPTY, ("a", "c"))]
    first = TokenizedInput.from_tokens(["b", "x"])
    same_set = TokenizedInput.from_tokens(["x", "b", "x"])
    other = TokenizedInput.from_tokens(["c"])
    scorer = train_ngram(corpus, n=2)
    for inp in (first, other, same_set, first, EMPTY, other):
        fresh = train_ngram(corpus, n=2)
        for prefix in (("<bos>",), ("<bos>", "a")):
            want = fresh.next_distribution(inp, prefix)
            assert scorer.next_distribution(inp, prefix) == want


MEMO_CORPUS = [(EMPTY, ("a", "b", "c")), (EMPTY, ("a", "c"))]
# the last two back off to the unigram table: "zzz" was never seen
MEMO_PREFIXES = [
    ("<bos>",),
    ("<bos>", "a"),
    ("<bos>", "a", "b"),
    ("<bos>", "zzz"),
    ("<bos>", "a", "zzz"),
]


def test_ngram_memo_equals_a_fresh_scorer_on_interleaved_inputs():
    first = TokenizedInput.from_tokens(["b", "x"])
    same_set = TokenizedInput.from_tokens(["x", "b", "x"])
    other = TokenizedInput.from_tokens(["c"])
    scorer = train_ngram(MEMO_CORPUS, n=3)
    for inp in (first, same_set, other, first, EMPTY, other, same_set):
        for prefix in MEMO_PREFIXES + MEMO_PREFIXES[::-1]:
            want = train_ngram(MEMO_CORPUS, n=3).next_distribution(inp, prefix)
            got = scorer.next_distribution(inp, prefix)
            assert got == want and list(got) == list(want)
        unigram = scorer.next_distribution(inp, ("<bos>", "zzz"))
        assert scorer.next_distribution(inp, ("<bos>", "a", "zzz")) is unigram


def test_ngram_repeat_query_returns_the_same_object():
    scorer = train_ngram(MEMO_CORPUS, n=3)
    inp = TokenizedInput.from_tokens(["b", "x"])
    dist = scorer.next_distribution(inp, ("<bos>", "a"))
    assert scorer.next_distribution(inp, ("<bos>", "a")) is dist
    same_set = TokenizedInput.from_tokens(["x", "b"])
    assert scorer.next_distribution(same_set, ("<bos>", "a")) is dist
    other = TokenizedInput.from_tokens(["c"])
    assert scorer.next_distribution(other, ("<bos>", "a")) is not dist


class FreshNgram:
    """Builds a new, empty-memo scorer from the same counts for every call."""

    def __init__(self, trained):
        self.trained = trained

    def next_distribution(self, inp, prefix):
        t = self.trained
        fresh = NgramScorer(t.order, t.counts, t.alpha, t.copy_boost, t.vocab)
        return fresh.next_distribution(inp, prefix)


def test_ngram_memo_decodes_like_fresh_scorers(fig_schema):
    examples = generate_synthetic(fig_schema, seed=5, n_sentences=60)
    pairs = [(ex.inp, linearize(ex.records)) for ex in examples]
    scorer = train_ngram(pairs[:40], n=3, extra_vocab=fig_schema.label_tokens)
    config = DecodeConfig(max_length=64)
    finished = 0
    for ex in examples[40:]:
        outcomes = []
        for one in (scorer, FreshNgram(scorer)):
            try:
                outcomes.append(constrained_decode(one, ex.inp, fig_schema, config))
            except TruncationError:
                outcomes.append("truncated")
        assert outcomes[0] == outcomes[1]  # tokens and logprobs, with ==
        finished += outcomes[0] != "truncated"
    assert finished > 0


@pytest.mark.parametrize("alpha, copy_boost", [(0.1, 4.0), (0.37, 2.5), (1e-3, 1.0)])
def test_ngram_distributions_equal_the_per_token_definition(fig_schema, alpha, copy_boost):
    examples = generate_synthetic(fig_schema, seed=11, n_sentences=40)
    pairs = [(ex.inp, linearize(ex.records)) for ex in examples]
    scorer = train_ngram(pairs[:30], n=3, alpha=alpha, copy_boost=copy_boost)
    for inp, target in pairs[30:] + pairs[:3]:
        stream = ("<bos>", *target, "zzz")  # "zzz" backs off to unigrams
        for i in range(1, len(stream) + 1):
            got = scorer.next_distribution(inp, stream[:i])
            want = reference_ngram_distribution(scorer, inp, stream[:i])
            assert list(got.items()) == list(want.items())  # floats with ==


# "zz" is counted after "a" but is in no vocabulary: it is in the support
# only for an input that holds it
MISS_COUNTS = {
    1: {(): {"(": 2, ")": 2, "<eos>": 1, "a": 3, "b": 1}},
    2: {("a",): {"b": 4, "zz": 5, "a": 1}, ("(",): {"a": 2}},
}


@pytest.mark.parametrize("tokens", [
    (),  # nothing copied
    ("b", "a"),  # inside the vocabulary, both counted and copied after "a"
    ("b", "novel"),  # "novel" outside the vocabulary
    ("zz", "novel"),  # counted after "a", copied, outside the vocabulary
    ("novel", "words", "("),
])
def test_ngram_miss_path_equals_the_dense_formula(tokens):
    inp = TokenizedInput.from_tokens(tokens)
    for extra in ((), ("Label",)):
        scorer = NgramScorer(2, MISS_COUNTS, 0.1, 4.0, extra)
        for prefix in (("<bos>",), ("<bos>", "a"), ("<bos>", "("), ("<bos>", "zz")):
            got = scorer.next_distribution(inp, prefix)
            want = reference_next_distribution(scorer, inp, prefix)
            assert list(got.items()) == list(want.items())  # floats with ==
            assert ("zz" in got) == ("zz" in tokens)


POOL = ["(", ")", "<eos>", "a", "b", "Cc"]
OUTSIDE = ["zz", "novel"]


def _tables(order):
    """Count tables of an order: its contexts over the pool and <bos>, its
    tokens over the pool and, above the unigrams, tokens outside it."""
    tokens = st.sampled_from(POOL + (OUTSIDE if order > 1 else []))
    table = st.dictionaries(tokens, st.integers(1, 50), min_size=1, max_size=6)
    context = st.tuples(*[st.sampled_from(["<bos>"] + POOL)] * (order - 1))
    return st.dictionaries(context, table, min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    order=st.integers(1, 4),
    alpha=st.sampled_from([0.1, 0.37, 1e-3, 1, 2.5]),
    copy_boost=st.sampled_from([1.0, 4.0, 2.5, 3]),
    extra=st.lists(st.sampled_from(["Label", "zz"]), max_size=2),
)
def test_ngram_distributions_equal_the_dense_formula(data, order, alpha, copy_boost, extra):
    counts = {k: data.draw(_tables(k)) for k in range(1, order + 1)}
    scorer = NgramScorer(order, counts, alpha, copy_boost, extra)
    words = st.sampled_from(POOL[3:] + OUTSIDE)
    for _ in range(4):  # several inputs on one scorer: its caches switch
        inp = TokenizedInput.from_tokens(data.draw(st.lists(words, max_size=5)))
        for _ in range(3):
            prefix = ("<bos>", *data.draw(st.lists(st.sampled_from(POOL + OUTSIDE), max_size=4)))
            got = scorer.next_distribution(inp, prefix)
            want = reference_next_distribution(scorer, inp, prefix)
            assert list(got.items()) == list(want.items())  # floats with ==


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    order=st.integers(1, 4),
    alpha=st.sampled_from([0.1, 1e-3, 2.5, 1, 3]),
    copy_boost=st.sampled_from([1, 1.0, 4.0, 2.5, 3]),
    extra=st.lists(st.sampled_from(["Label", "zz"]), max_size=2),
)
def test_ngram_plans_reused_across_inputs_equal_the_dense_formula(
    data, order, alpha, copy_boost, extra
):
    # Count tables are compiled once per scorer and shared by every input:
    # inputs inside the vocabulary, inputs with tokens outside it (some of
    # them counted by a table above the unigrams), repeated and alternating.
    counts = {k: data.draw(_tables(k)) for k in range(1, order + 1)}
    scorer = NgramScorer(order, counts, alpha, copy_boost, extra)
    words = sorted(scorer.vocab - {"<eos>"})  # "<eos>" reads as three tokens
    in_vocab = st.lists(st.sampled_from(words), max_size=5) if words else st.just([])
    with_oov = st.lists(st.sampled_from(POOL[3:] + OUTSIDE + ["oov"]), min_size=1, max_size=5)
    inputs = [
        TokenizedInput.from_tokens(data.draw(tokens))
        for tokens in (in_vocab, with_oov, in_vocab, with_oov)
    ]
    prefixes = st.lists(st.sampled_from(POOL + OUTSIDE), max_size=4)
    for _ in range(12):
        inp = inputs[data.draw(st.integers(0, len(inputs) - 1))]
        prefix = ("<bos>", *data.draw(prefixes))
        got = scorer.next_distribution(inp, prefix)
        want = reference_next_distribution(scorer, inp, prefix)
        assert list(got.items()) == list(want.items())  # floats with ==


ABSENT = ["never", "", "<pad>"]


def _hexes(values):
    return [p.hex() for p in values]


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    order=st.integers(1, 3),
    alpha=st.one_of(
        st.sampled_from([0.1, 1e-3, 1, 2.5]),
        st.floats(1e-9, 1e3, allow_nan=False, allow_infinity=False),
    ),
    copy_boost=st.one_of(
        st.sampled_from([1.0, 4.0, 3]), st.floats(1.0, 50.0, allow_nan=False)
    ),
    extra=st.lists(st.sampled_from(["Label", "zz"]), max_size=2),
)
def test_ngram_mapping_equals_the_eager_dict(data, order, alpha, copy_boost, extra):
    counts = {k: data.draw(_tables(k)) for k in range(1, order + 1)}
    scorer = NgramScorer(order, counts, alpha, copy_boost, extra)
    words = st.sampled_from(POOL[3:] + OUTSIDE + ["oov"])
    for _ in range(4):  # several inputs on one scorer: its caches switch
        inp = TokenizedInput.from_tokens(data.draw(st.lists(words, max_size=5)))
        seen = []
        for _ in range(3):
            prefix = ("<bos>", *data.draw(st.lists(st.sampled_from(POOL + OUTSIDE), max_size=4)))
            got = scorer.next_distribution(inp, prefix)
            want = reference_eager_distribution(scorer, inp, prefix)
            assert list(got) == list(want) and list(got.keys()) == list(want)
            assert len(got) == len(want)
            assert [(t, p.hex()) for t, p in got.items()] == [
                (t, p.hex()) for t, p in want.items()
            ]
            assert _hexes(got.values()) == _hexes(want.values())
            assert _hexes(got[t] for t in want) == _hexes(want.values())
            assert _hexes(got.get(t, -1.0) for t in want) == _hexes(want.values())
            assert got == want and dict(got) == want
            for token in ABSENT + (["zz"] if "zz" not in want else []):
                assert token not in got
                assert got.get(token) is None and got.get(token, 0.0) == 0.0
                with pytest.raises(KeyError):
                    got[token]
            with pytest.raises(TypeError):
                got["a"] = 1.0  # read-only
            seen.append((prefix, got))
        # the same input again: a prefix gets back the very object it got
        for prefix, got in seen:
            assert scorer.next_distribution(inp, prefix) is got


def test_ngram_overflowing_smoothing_is_a_typed_error():
    counts = {1: {(): {"a": 1, "b": 2}}}
    with pytest.raises(ValueError, match=r"^alpha=1e\+308 and copy_boost=4\.0 are too large"):
        NgramScorer(1, counts, 1e308).next_distribution(EMPTY, ("<bos>",))
    # boosted past the largest float by the input's copies alone
    copied = TokenizedInput.from_tokens(["a"])
    with pytest.raises(ValueError, match=r"^alpha=1e\+306 and copy_boost=1e\+300 "):
        NgramScorer(1, counts, 1e306, 1e300).next_distribution(copied, ("<bos>",))
    assert_is_distribution(NgramScorer(1, counts, 1e306, 1e300).next_distribution(EMPTY, ()))


def test_context_size_is_what_a_distribution_reads():
    assert [train_ngram(one_item_corpus(), n=n).context_size for n in (1, 2, 3)] == [0, 1, 2]
    assert uniform_scorer(["a"]).context_size == 0
    # these read the whole prefix and declare nothing
    assert not hasattr(oracle_scorer(("(", ")")), "context_size")
    assert not hasattr(RandomScorer(["a"], 0), "context_size")


def test_random_scorer_normalizes_by_a_left_fold():
    # the weights as the scorer draws them, divided by their sum taken
    # left to right; sum() compensates its rounding from Python 3.12 on
    scorer = RandomScorer([f"t{i}" for i in range(200)], seed=3)
    for prefix in (("<bos>",), ("<bos>", "("), ("<bos>", "(", "t7")):
        key = b"3\x00" + "\x1f".join(prefix).encode()
        rng = random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))
        weights = [rng.random() + 1e-6 for _ in scorer.vocab]
        total = 0.0
        for w in weights:
            total += w
        dist = scorer.next_distribution(EMPTY, prefix)
        assert list(dist.values()) == [w / total for w in weights]


FOLD_ITEMS = st.one_of(
    st.floats(),
    st.sampled_from([
        0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
        2.225073858507201e-308, sys.float_info.max, -sys.float_info.max, 1e308, -1e308,
    ]),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**53 + 1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**1024, -(2**1024)]),
)


def _fold_outcome(fold, values):
    try:
        return struct.pack("<d", fold(values))
    except ArithmeticError as err:  # a float + int beyond the float range
        return type(err)


@settings(max_examples=500, deadline=None)
@given(st.lists(FOLD_ITEMS, max_size=80))
def test_left_fold_is_reduce_bit_for_bit(values):
    # CPython before 3.12 folds with sum(): floats, bools and ints that fit
    # a C long are added in C, larger ints through float + int
    want = _fold_outcome(lambda v: reduce(add, v, 0.0), values)
    assert _fold_outcome(_left_fold, values) == want


def test_ngram_extra_vocab_gets_smoothing_mass():
    scorer = train_ngram(one_item_corpus(), n=2, extra_vocab=["Transport"])
    dist = scorer.next_distribution(EMPTY, ("<bos>",))
    assert dist["Transport"] > 0.0
    plain = train_ngram(one_item_corpus(), n=2)
    assert "Transport" not in plain.next_distribution(EMPTY, ("<bos>",))


def test_ngram_large_alpha_approaches_uniform():
    corpus = [(EMPTY, ("(", "(", "T", "x", ")", ")"))]
    scorer = train_ngram(corpus, n=2, alpha=1e9)
    dist = scorer.next_distribution(EMPTY, ("<bos>", "("))
    values = list(dist.values())
    assert max(values) - min(values) < 1e-9
    assert_is_distribution(dist)


def test_ngram_distributions_sum_to_one(fig_input, fig_seq):
    scorer = train_ngram([(fig_input, fig_seq)], n=3)
    stream = ("<bos>", *fig_seq)
    for i in range(1, len(stream) + 1):
        assert_is_distribution(scorer.next_distribution(fig_input, stream[:i]))


def test_ngram_parameter_validation():
    counts = {1: {(): {"x": 1}}}
    with pytest.raises(ValueError):
        NgramScorer(0, counts)
    with pytest.raises(ValueError):
        NgramScorer(1, counts, alpha=0.0)
    with pytest.raises(ValueError):
        NgramScorer(1, counts, copy_boost=0.5)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            NgramScorer(1, counts, alpha=alpha)
    for copy_boost in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="copy_boost must be finite and >= 1"):
            NgramScorer(1, counts, copy_boost=copy_boost)
    # ints too large for a float compare below inf but overflow in any sum
    for name in ("alpha", "copy_boost"):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got an int too large"):
            NgramScorer(1, counts, **{name: 10**400})
    # ints that a float holds are valid and kept as they are
    scorer = NgramScorer(1, counts, alpha=10**300, copy_boost=3)
    assert (scorer.alpha, scorer.copy_boost) == (10**300, 3)
    with pytest.raises(ValueError):
        train_ngram([])


def test_ngram_defaults():
    scorer = train_ngram(one_item_corpus())
    assert (scorer.order, scorer.alpha, scorer.copy_boost) == (3, 0.1, 4.0)


# -------------------------------------------------------------- persistence


def probe_prefixes(seq):
    stream = ("<bos>", *seq)
    return [stream[:i] for i in range(1, len(stream) + 1)]


def test_scorer_save_load_roundtrip(tmp_path, fig_input, fig_seq):
    scorer = train_ngram([(fig_input, fig_seq)], n=3, extra_vocab=["Extra"])
    path = tmp_path / "scorer.json"
    save_scorer(scorer, path)
    loaded = load_scorer(path)
    assert loaded.order == scorer.order
    assert loaded.alpha == scorer.alpha
    assert loaded.copy_boost == scorer.copy_boost
    assert loaded.vocab == scorer.vocab
    assert loaded.counts == scorer.counts
    for prefix in probe_prefixes(fig_seq):
        assert loaded.next_distribution(fig_input, prefix) == scorer.next_distribution(
            fig_input, prefix
        )


def test_scorer_serialization_is_byte_stable(tmp_path, fig_input, fig_seq):
    corpus = [(fig_input, fig_seq), (EMPTY, ("(", ")"))]
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_scorer(train_ngram(corpus, n=3), path_a)
    save_scorer(train_ngram(list(corpus), n=3), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_load_scorer_rejects_foreign_files(tmp_path):
    not_ours = tmp_path / "other.json"
    not_ours.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_scorer(not_ours)
    wrong_version = tmp_path / "future.json"
    save_scorer(train_ngram(one_item_corpus()), wrong_version)
    payload = wrong_version.read_text().replace('"version": 1', '"version": 99')
    wrong_version.write_text(payload)
    with pytest.raises(ValueError):
        load_scorer(wrong_version)
    for key, value in [
        ("counts", 5), ("counts", [[1, 5]]), ("counts", [[1, [[["a"], 3]]]]),
        ("counts", [[1, [[[], {"(": "q", ")": 1, "<eos>": 1}]]]]),
        ("counts", [[1, [[[], {"(": 0}]]]]), ("counts", [[1, [[[], {"(": True}]]]]),
        ("counts", [[1, [[[], [[5, 1]]]]]]), ("counts", [[2, [[[5], {"(": 1}]]]]),
        ("counts", [[2, [["(", {"(": 1}]]]]), ("counts", [["x", []]]),
        ("counts", [[5, []]]), ("counts", [[0, []]]), ("counts", [[True, []]]),
        ("order", "x"), ("order", True), ("order", 0), ("alpha", None),
        ("alpha", 0), ("copy_boost", "4"), ("copy_boost", 0.5), ("vocab", 5),
        ("vocab", [1]),
    ]:
        wrong_type = tmp_path / "wrong-type.json"
        save_scorer(train_ngram(one_item_corpus()), wrong_type)
        payload = json.loads(wrong_type.read_text())
        payload[key] = value
        wrong_type.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{wrong_type}: ")):
            load_scorer(wrong_type)
    # a hand-edited copy that repeats an order, a context or a token is
    # refused, not read as its last occurrence
    repeated = tmp_path / "repeated.json"
    save_scorer(train_ngram(one_item_corpus()), repeated)
    payload = json.loads(repeated.read_text())
    order_2 = payload["counts"][1]
    context, pairs = order_2[1][0]
    for counts, message in [
        ([*payload["counts"], order_2], "n-gram order 2 comes twice"),
        ([[2, [*order_2[1], [context, [["x", 1]]]]]], f"order-2 context {context!r} comes twice"),
        ([[2, [[context, [*pairs, [pairs[0][0], 7]]]]]],
         f"order-2 context {context!r} counts token {pairs[0][0]!r} twice"),
    ]:
        repeated.write_text(json.dumps({**payload, "counts": counts}))
        with pytest.raises(ValueError) as err:
            load_scorer(repeated)
        assert str(err.value) == f"{repeated}: malformed scorer artifact: {message}"
    # json.dumps writes no repeated key, so the object table is spliced in
    text = json.dumps({**payload, "counts": [[1, [[[], "TABLE"]]]]})
    repeated.write_text(text.replace('"TABLE"', '{"(": 1, "(": 5}'))
    with pytest.raises(ValueError) as err:
        load_scorer(repeated)
    assert str(err.value) == f"{repeated}: malformed scorer artifact: key '(' comes twice"
    # what json.load itself refuses is named with the file, once
    for text, reason in [
        ("{", "Expecting property name enclosed in double quotes"),
        ('{"format": ' + "9" * 5000 + "}", "Exceeds the limit (4300 digits)"),
    ]:
        repeated.write_text(text)
        with pytest.raises(ValueError) as err:
            load_scorer(repeated)
        assert str(err.value).startswith(f"{repeated}: malformed scorer artifact: {reason}")
    repeated.write_bytes(b'{"format": "\xff"}')
    with pytest.raises(ValueError) as err:
        load_scorer(repeated)
    assert str(err.value).startswith(
        f"{repeated}: malformed scorer artifact: 'utf-8' codec can't decode byte 0xff"
    )
    for key in ("counts", "order", "alpha", "copy_boost"):
        partial = tmp_path / f"no-{key}.json"
        save_scorer(train_ngram(one_item_corpus()), partial)
        payload = json.loads(partial.read_text())
        del payload[key]
        partial.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{partial}: scorer artifact has no {key}")):
            load_scorer(partial)


def test_load_scorer_refuses_a_string_that_utf8_cannot_encode(tmp_path):
    # json.dumps escapes every non-ASCII character, so "\ud800" is written
    # as its escape, which json.loads reads back as a lone surrogate
    path = tmp_path / "scorer.json"
    save_scorer(train_ngram(one_item_corpus(), n=2), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    order_2 = payload["counts"][1][1]
    for edited in [
        {**payload, "vocab": [*payload["vocab"], "\ud800"]},
        {**payload, "counts": [payload["counts"][0], [2, [*order_2, [["\ud800"], [["(", 1]]]]]]},
        {**payload, "counts": [[1, [[[], [["\ud800", 1]]]]]]},
    ]:
        path.write_text(json.dumps(edited), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_scorer(path)
        assert str(err.value) == (
            f"{path}: malformed scorer artifact: a string holds '\\ud800',"
            " which UTF-8 cannot encode"
        )
    # an escaped character that UTF-8 can encode, and a surrogate pair, load
    path.write_text(json.dumps({**payload, "vocab": ["\u00e9", "\U0001f600"]}), encoding="utf-8")
    assert {"\u00e9", "\U0001f600"} <= load_scorer(path).vocab


def test_oracle_factory_matches_class(fig_seq):
    a = oracle_scorer(fig_seq, epsilon=0.1)
    b = OracleScorer(fig_seq, epsilon=0.1)
    assert a.next_distribution(EMPTY, ("<bos>",)) == b.next_distribution(
        EMPTY, ("<bos>",)
    )
