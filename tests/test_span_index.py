import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evseq import (
    SpanTrie,
    TokenizedInput,
    build_span_trie,
    find_occurrences,
)
from evseq.span_index import token_strings
from evseq.tokens import RESERVED_TOKENS

from oracles import contiguous_subsequences, is_span, reference_span_trie, span_children

WORDS = st.sampled_from(["a", "b", "c", "dog", "ran", "7"])
# few words, so spans repeat, and two reserved tokens
REPEATING = st.sampled_from(["a", "b", "c", "(", ")"])


def ordered(node) -> list:
    """A trie as nested (token, subtree) lists, in child order."""
    return [(token, ordered(child)) for token, child in node.items()]


def reference_paths(node, path=()) -> list:
    """Every path of a nested-dict trie, depth-first in child order."""
    out = []
    for token, child in node.items():
        out.append(path + (token,))
        out.extend(reference_paths(child, path + (token,)))
    return out


def node_ids(node, seen=None) -> set[int]:
    """The ids of every node object reachable from ``node``."""
    seen = set() if seen is None else seen
    if id(node) not in seen:
        seen.add(id(node))
        for child in node.values():
            node_ids(child, seen)
    return seen


def test_tokenize_words_and_punctuation():
    inp = TokenizedInput.from_text("a,b")
    assert inp.tokens == ("a", ",", "b")
    assert inp.char_spans == ((0, 1), (1, 2), (2, 3))


def test_tokenize_keeps_offsets_into_original_text():
    text = "Los Angeles, CA"
    inp = TokenizedInput.from_text(text)
    assert inp.tokens == ("Los", "Angeles", ",", "CA")
    for token, (start, end) in zip(inp.tokens, inp.char_spans):
        assert text[start:end] == token


def test_tokenize_empty_and_whitespace():
    assert TokenizedInput.from_text("").tokens == ()
    assert TokenizedInput.from_text("   \n\t").tokens == ()


@given(st.text(alphabet="ab7_ ,.(\u00e9\n\t", max_size=12))
def test_token_strings_are_the_tokens_of_tokenize(text):
    assert token_strings(text) == TokenizedInput.from_text(text).tokens


def test_from_tokens_synthesizes_offsets():
    inp = TokenizedInput.from_tokens(["ab", "c"])
    assert inp.text == "ab c"
    assert inp.char_spans == ((0, 2), (3, 4))
    assert len(inp) == 2
    assert inp.token_set == frozenset({"ab", "c"})


def test_tokenized_input_validates_lengths():
    with pytest.raises(ValueError):
        TokenizedInput("x", ("x",), ())


@given(st.lists(WORDS, max_size=8))
def test_tokenize_is_idempotent_on_its_own_output(tokens):
    once = TokenizedInput.from_text(" ".join(tokens))
    twice = TokenizedInput.from_text(once.text if tokens else "")
    assert twice.tokens == once.tokens


def test_span_trie_repeated_token():
    trie = SpanTrie(("a", "b", "a"), max_span_len=2)
    assert set(trie.spans()) == {("a",), ("b",), ("a", "b"), ("b", "a")}
    assert is_span(trie, ("a", "b"))
    assert not is_span(trie, ("a", "a"))
    assert not is_span(trie, ())
    # Length cap: ("a", "b", "a") occurs contiguously but exceeds it.
    assert not is_span(trie, ("a", "b", "a"))


def test_span_trie_children_and_continuations():
    trie = SpanTrie(("a", "b", "a"), max_span_len=2)
    assert span_children(trie, ()) == frozenset({"a", "b"})
    assert span_children(trie, ("a",)) == frozenset({"b"})
    assert span_children(trie, ("a", "b")) == frozenset()
    with pytest.raises(KeyError):
        span_children(trie, ("z",))


def test_span_trie_excludes_reserved_tokens():
    trie = SpanTrie(("x", "(", "y"))
    assert set(trie.spans()) == {("x",), ("y",)}
    # The reserved token also breaks contiguity: no span crosses it.
    assert not is_span(trie, ("x", "y"))


def test_span_trie_empty_input():
    trie = SpanTrie(())
    assert trie.is_empty
    assert set(trie.spans()) == set()
    only_reserved = SpanTrie(("(", ")"))
    assert only_reserved.is_empty


def test_span_trie_rejects_bad_cap():
    with pytest.raises(ValueError):
        SpanTrie(("a",), max_span_len=0)


def test_build_span_trie_uses_input_tokens(fig_input):
    trie = build_span_trie(fig_input)
    assert is_span(trie, ("Los", "Angeles"))
    assert is_span(trie, ("bounty", "hunters"))
    assert not is_span(trie, ("Angeles", "Los"))


@given(st.lists(WORDS, max_size=10), st.integers(min_value=1, max_value=4))
def test_span_trie_matches_brute_force(tokens, max_span_len):
    trie = SpanTrie(tuple(tokens), max_span_len)
    expected = contiguous_subsequences(tokens, max_span_len)
    assert set(trie.spans()) == expected
    for span in expected:
        assert is_span(trie, span)


@given(st.lists(REPEATING, max_size=40), st.integers(min_value=1, max_value=20))
def test_span_children_and_is_span_match_brute_force(tokens, max_span_len):
    trie = SpanTrie(tokens, max_span_len)
    assert trie.is_empty == (not trie.root)
    spans = {
        span
        for span in contiguous_subsequences(tokens, max_span_len)
        if not RESERVED_TOKENS.intersection(span)
    }
    # every prefix of a span is a span, so each one is a key here
    followers = {span: set() for span in spans | {()}}
    for span in spans:
        followers[span[:-1]].add(span[-1])
    assert not is_span(trie, ())
    for prefix, after in followers.items():
        assert span_children(trie, prefix) == after
        for token in ("a", "b", "c", "(", ")"):
            longer = prefix + (token,)
            assert is_span(trie, longer) == (longer in spans)
            if longer not in spans:
                with pytest.raises(KeyError):
                    span_children(trie, longer)


def test_span_trie_matches_brute_force_large_random():
    rng = random.Random(7)
    for _ in range(25):
        tokens = [rng.choice("abcdefg") for _ in range(rng.randint(0, 30))]
        cap = rng.randint(1, 6)
        trie = SpanTrie(tuple(tokens), cap)
        assert set(trie.spans()) == contiguous_subsequences(tokens, cap)


@given(st.lists(REPEATING, max_size=40), st.integers(min_value=1, max_value=20))
def test_span_trie_paths_and_child_order_match_the_eager_loop(tokens, max_span_len):
    # nodes may be shared, but every path, and the order of every node's
    # children, is that of the trie with one dict per distinct span
    trie = SpanTrie(tokens, max_span_len)
    want = reference_span_trie(tokens, max_span_len)
    assert ordered(trie.root) == ordered(want)
    assert list(trie.spans()) == reference_paths(want)


@pytest.mark.parametrize("n", [0, 1, 5, 16])
def test_distinct_tokens_under_the_cap_build_one_node_per_suffix(n):
    # the root, and the suffix chain that every span shares (its last
    # node, the end of the input, included)
    tokens = [f"w{i}" for i in range(n)]
    trie = SpanTrie(tokens, max_span_len=16)
    assert len(node_ids(trie.root)) == n + 1
    assert len(list(trie.spans())) == n * (n + 1) // 2


def test_a_long_repeated_token_builds_without_deep_recursion():
    # one token repeated: the spans nest 1,200 deep, past the default
    # recursion limit of 1,000, and neither building nor walking them
    # recurses
    n = 1200
    trie = SpanTrie(["a"] * n, max_span_len=n)
    assert is_span(trie, ("a",) * n)
    assert not is_span(trie, ("a",) * (n + 1))
    spans = list(trie.spans())
    assert spans[0] == ("a",) and len(spans) == n and spans[-1] == ("a",) * n


@given(st.lists(REPEATING, max_size=12), st.lists(REPEATING, max_size=3))
def test_find_occurrences_matches_brute_force(haystack, needle):
    want = [
        i for i in range(len(haystack) - len(needle) + 1)
        if needle and haystack[i : i + len(needle)] == needle
    ]
    assert find_occurrences(haystack, needle) == want


def test_find_occurrences():
    tokens = "he hit him then hit her".split()
    assert find_occurrences(tokens, ["hit"]) == [1, 4]
    assert find_occurrences(tokens, ["hit", "him"]) == [1]
    assert find_occurrences(tokens, ["absent"]) == []
    assert find_occurrences(tokens, []) == []
    assert find_occurrences([], ["x"]) == []


def test_find_occurrences_overlapping():
    assert find_occurrences(["a", "a", "a"], ["a", "a"]) == [0, 1]
