"""Input tokenization and the trie of contiguous token spans.

The decoder may only emit mention text that appears verbatim in the
input sentence.  We index every contiguous token subsequence of the
input (up to a length cap) in a trie; walking it down from its root
token by token enumerates exactly the spans the input supports.  A
span that occurs once is followed by the rest of the input alone, so
its node is shared with the input's suffix chain, as in a DAWG (Blumer
et al. 1985): the trie is linear in the input's length unless tokens
repeat.  Nodes may thus be reached by several paths; they are read-only.

Tokens that collide with the reserved structure tokens never enter the
trie, so a stray "(" in the input text cannot be copied into a mention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .tokens import RESERVED_TOKENS

# Word characters group together; every other non-space character is its
# own token.  "Los Angeles, CA" -> ["Los", "Angeles", ",", "CA"]
_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

DEFAULT_MAX_SPAN_LEN = 16


@dataclass(frozen=True)
class TokenizedInput:
    """A sentence with its token sequence and per-token character spans."""

    text: str
    tokens: tuple[str, ...]
    char_spans: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.char_spans):
            raise ValueError("tokens and char_spans must have equal length")

    @classmethod
    def from_text(cls, text: str) -> "TokenizedInput":
        """Tokenize ``text`` into word and punctuation tokens with char offsets."""
        return _tokenize_shared(text, {})

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "TokenizedInput":
        """Build from a pre-tokenized sentence, joining with single spaces;
        ValueError for a token that ``from_text`` would not give back."""
        tokens = tuple(tokens)
        text = " ".join(tokens)
        if token_strings(text) != tokens:
            i = next(i for i, t in enumerate(tokens) if token_strings(t) != (t,))
            raise ValueError(f"token {i} {tokens[i]!r} tokenizes to {token_strings(tokens[i])!r}")
        spans = []
        offset = 0
        for token in tokens:
            spans.append((offset, offset + len(token)))
            offset += len(token) + 1
        return cls(text, tokens, tuple(spans))

    def __len__(self) -> int:
        return len(self.tokens)

    @cached_property
    def token_set(self) -> frozenset[str]:
        return frozenset(self.tokens)


def _tokenize_shared(text: str, strings: dict[str, str]) -> TokenizedInput:
    """``TokenizedInput.from_text(text)`` with each token taken from
    ``strings``: a token equal to one seen before is that earlier string
    object, and a new one is added, so the inputs that share ``strings``
    share their tokens."""
    tokens = []
    spans = []
    share = strings.setdefault
    for match in _TOKEN_RE.finditer(text):
        token = match.group()
        tokens.append(share(token, token))
        spans.append(match.span())
    return TokenizedInput(text, tuple(tokens), tuple(spans))


def token_strings(text: str) -> tuple[str, ...]:
    """``TokenizedInput.from_text(text).tokens``, without building the offsets."""
    return tuple(_TOKEN_RE.findall(text))


def check_max_span_len(max_span_len: int) -> None:
    """Raise ValueError unless spans of ``max_span_len`` tokens can be copied."""
    if not isinstance(max_span_len, int) or isinstance(max_span_len, bool):
        raise ValueError(f"max_span_len must be an int, got {max_span_len!r}")
    if max_span_len < 1:
        raise ValueError(f"max_span_len must be >= 1, got {max_span_len}")


class SpanTrie:
    """Trie over the contiguous token subsequences of one input sentence.

    Any non-empty path from the root is a span that occurs verbatim in
    the input, so there is no separate terminal marker: a span may
    always end once at least one token has been consumed.  Paths are
    capped at ``max_span_len`` tokens and never cross a reserved token.
    A node's children come in the order their spans first occur in the
    input.  Spans with the same continuations may share one node object
    (see the module docstring), so nodes are read-only and ``spans``
    walks paths, not nodes.  Callers walk the nodes down from ``root``;
    only this module builds them.
    """

    def __init__(self, tokens: Sequence[str], max_span_len: int = DEFAULT_MAX_SPAN_LEN):
        check_max_span_len(max_span_len)
        tokens = tuple(tokens)
        n = len(tokens)
        # reach[e]: how many tokens from e come before the next reserved
        # token or the end; chains[e]: the chain of those tokens, which is
        # the node of a span that occurs once, just before e, uncut by the cap
        reach = [0] * (n + 1)
        chains = [{}] * (n + 1)
        for e in range(n - 1, -1, -1):
            if tokens[e] not in RESERVED_TOKENS:
                reach[e] = reach[e + 1] + 1
                chains[e] = {tokens[e]: chains[e + 1]}
        leaf = chains[n]
        self._root: dict = {}
        # (node, where the input goes on after each occurrence of its
        # span, how many more tokens the cap lets it take); budget >= 1
        work = [(self._root, range(n), max_span_len)]
        while work:
            node, ends, budget = work.pop()
            groups: dict[str, list[int]] = {}
            for end in ends:
                if reach[end]:
                    groups.setdefault(tokens[end], []).append(end)
            for token, group in groups.items():
                end = group[0]
                if len(group) > 1:
                    node[token] = child = {}
                    if budget > 1:
                        work.append((child, [e + 1 for e in group], budget - 1))
                elif reach[end] <= budget:
                    node[token] = chains[end + 1]
                else:  # the cap cuts the chain: budget - 1 more tokens
                    child = leaf
                    for e in range(end + budget - 1, end, -1):
                        child = {tokens[e]: child}
                    node[token] = child

    @property
    def root(self) -> Mapping[str, Mapping]:
        """The root node, read-only.  A node maps each token that extends
        its span to the child node, so ``root[t1][t2]`` is the node of the
        span ``(t1, t2)``; iterating a node gives the tokens after it."""
        return self._root

    @property
    def is_empty(self) -> bool:
        """True when the input supports no spans at all."""
        return not self._root

    def spans(self) -> Iterator[tuple[str, ...]]:
        """Enumerate every distinct span in the trie, depth-first in child
        order: each path from the root once, however nodes are shared."""
        path: list[str] = []
        stack = [iter(self._root.items())]
        while stack:
            for token, child in stack[-1]:
                path.append(token)
                yield tuple(path)
                stack.append(iter(child.items()))
                break
            else:
                stack.pop()
                if stack:
                    path.pop()


def build_span_trie(
    inp: TokenizedInput, max_span_len: int = DEFAULT_MAX_SPAN_LEN
) -> SpanTrie:
    """Index every contiguous token subsequence of ``inp`` up to the cap."""
    return SpanTrie(inp.tokens, max_span_len)


def find_occurrences(
    haystack: Sequence[str], needle: Sequence[str]
) -> list[int]:
    """Start indices of every occurrence of ``needle`` in ``haystack``."""
    if not needle or len(needle) > len(haystack):
        return []
    haystack, needle = tuple(haystack), tuple(needle)
    first, width = needle[0], len(needle)
    last = len(haystack) - width + 1  # one past the last possible start
    out = []
    # compare slices only where the needle's first token occurs
    try:
        start = haystack.index(first, 0, last)
        while True:
            if haystack[start : start + width] == needle:
                out.append(start)
            start = haystack.index(first, start + 1, last)
    except ValueError:
        return out
