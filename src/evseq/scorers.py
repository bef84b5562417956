"""Next-token scorers: the probability models that drive decoding.

These are deliberately small, deterministic stand-ins for a learned
generator: a uniform baseline, an oracle that replays a known target, a
seeded random scorer for fuzzing, and a count-based n-gram model with
hard backoff, additive smoothing, and a copy boost for tokens of the
input sentence.  All of them satisfy the Scorer protocol of the decoder
module and return proper probability distributions.
"""

from __future__ import annotations

import json
import random
import sys
from collections.abc import ItemsView, Mapping
from functools import reduce
from itertools import repeat
from math import inf
from operator import add, truediv
from typing import Iterable, Sequence

from .schema import EventSchema
from .span_index import TokenizedInput
from .tokens import BOS, EOS


# The one left fold: ``values`` added left to right from 0.0, the same
# float on every interpreter.  CPython's ``sum()`` adds them in C in that
# order before 3.12; from 3.12 on it compensates its rounding (gh-100425),
# so there, and on other interpreters, the fold is ``reduce``.
if sys.implementation.name == "cpython" and sys.version_info < (3, 12):

    def _left_fold(values: Iterable[float]) -> float:
        return sum(values, 0.0)

else:

    def _left_fold(values: Iterable[float]) -> float:
        return reduce(add, values, 0.0)


def decoding_vocab(
    schema: EventSchema, inp: TokenizedInput | None = None
) -> frozenset[str]:
    """Every token decoding can involve: structure, sentinels, labels, input."""
    vocab = schema._reserved_and_label_tokens
    return vocab if inp is None else vocab.union(inp.tokens)


class UniformScorer:
    """Assigns 1/V to every vocabulary token, independent of context."""

    def __init__(self, vocab: Iterable[str]):
        self.vocab = tuple(sorted(set(vocab)))
        if not self.vocab:
            raise ValueError("uniform scorer needs a non-empty vocabulary")
        self._dist = {token: 1.0 / len(self.vocab) for token in self.vocab}

    @property
    def context_size(self) -> int:
        """0: the distribution reads no prefix token."""
        return 0

    def next_distribution(
        self, inp: TokenizedInput, prefix: Sequence[str]
    ) -> Mapping[str, float]:
        return self._dist


class OracleScorer:
    """Replays a known target sequence.

    While the prefix follows the target, the next target token gets
    probability 1−ε and the rest of the vocabulary shares ε evenly.
    Off the target path (or past its end) the distribution is uniform.
    Every call returns a new dict, keyed in vocabulary order, that the
    caller owns.  Off the target path it is a copy of one uniform dict,
    built on the first such call and kept for the scorer's lifetime; on
    the target path it is a copy of one ε/(V−1) dict, built on the
    first such call, with the target token's value replaced.  The call
    for the last target token takes the ε dict itself, so a decode that
    stays on the target path keeps no dict at all.
    """

    def __init__(
        self,
        target: Sequence[str],
        epsilon: float = 0.0,
        vocab: Iterable[str] | None = None,
    ):
        if not 0.0 <= epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
        self.stream = (BOS, *target, EOS)
        self.epsilon = epsilon
        tokens = set(vocab or ())
        tokens.update(self.stream)
        self.vocab = tuple(sorted(tokens))
        self._rest: dict[str, float] | None = None
        self._uniform: dict[str, float] | None = None

    def next_distribution(
        self, inp: TokenizedInput, prefix: Sequence[str]
    ) -> Mapping[str, float]:
        i = len(prefix)
        on_target = i < len(self.stream) and tuple(prefix) == self.stream[:i]
        if not on_target:
            uniform = self._uniform
            if uniform is None:
                uniform = self._uniform = dict.fromkeys(self.vocab, 1.0 / len(self.vocab))
            return uniform.copy()
        target_token = self.stream[i]
        rest = self._rest
        if rest is None:
            rest = dict.fromkeys(self.vocab, self.epsilon / (len(self.vocab) - 1))
        # the call for the last target token takes the ε dict itself, so
        # a scorer whose decode has finished holds no dict
        last = i == len(self.stream) - 1
        self._rest = None if last else rest
        dist = rest if last else rest.copy()
        dist[target_token] = 1.0 - self.epsilon
        return dist


def uniform_scorer(vocab: Iterable[str]) -> UniformScorer:
    return UniformScorer(vocab)


def oracle_scorer(
    target: Sequence[str], epsilon: float = 0.0, vocab: Iterable[str] | None = None
) -> OracleScorer:
    return OracleScorer(target, epsilon, vocab)


class RandomScorer:
    """Deterministic pseudo-random distributions for fuzzing.

    The weights depend only on (seed, prefix): the prefix is hashed with
    the seed into an RNG state, and they are normalized by their
    ``_left_fold``, so repeated runs and repeated queries agree exactly,
    across platforms and interpreter versions.
    """

    def __init__(self, vocab: Iterable[str], seed: int):
        self.vocab = tuple(sorted(set(vocab)))
        if not self.vocab:
            raise ValueError("random scorer needs a non-empty vocabulary")
        self.seed = seed

    def next_distribution(
        self, inp: TokenizedInput, prefix: Sequence[str]
    ) -> Mapping[str, float]:
        import hashlib  # here, so that importing evseq loads no OpenSSL

        key = f"{self.seed}".encode() + b"\x00" + "\x1f".join(prefix).encode()
        rng = random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))
        weights = [rng.random() + 1e-6 for _ in self.vocab]
        total = _left_fold(weights)
        return {token: w / total for token, w in zip(self.vocab, weights)}


Counts = dict[int, dict[tuple[str, ...], dict[str, int]]]
_FLOAT_MAX = sys.float_info.max
EMPTY_CORPUS = "cannot train an n-gram scorer on an empty corpus"


class _Distribution(Mapping):
    """A read-only distribution over ``support``: the probability of
    ``support[i]`` is ``scores[i] / total``, divided when it is read.

    Keys come in support order; ``get`` and ``[]`` find a token through
    ``index``, and ``items()`` divides in one pass."""

    __slots__ = ("_support", "_index", "_scores", "_total")

    def __init__(self, support: list, index: dict, scores: list, total: float):
        self._support = support
        self._index = index
        self._scores = scores
        self._total = total

    def __getitem__(self, token):
        return self._scores[self._index[token]] / self._total

    def get(self, token, default=None):
        i = self._index.get(token)
        return default if i is None else self._scores[i] / self._total

    def __iter__(self):
        return iter(self._support)

    def __len__(self):
        return len(self._support)

    def items(self):
        return _Items(self)

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.items())!r})"


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self):
        dist = self._mapping
        return zip(dist._support, map(truediv, dist._scores, repeat(dist._total)))


class NgramScorer:
    """Count-based n-gram model with hard backoff and additive smoothing.

    ``counts[k][context][token]`` is how often ``token`` followed the
    (k−1)-token ``context`` in training.  A query uses the longest
    context with any counts, backing off one order at a time down to the
    unigram table.  Scores are (count + α), multiplied by ``copy_boost``
    for tokens present in the current input sentence, then normalized
    over the training vocabulary extended with the input tokens.  A
    distribution thus reads the input and at most ``order - 1`` trailing
    prefix tokens, which ``context_size`` declares.  It is a read-only
    ``Mapping`` in sorted token order that keeps the scores and their
    sum and divides only the values that are read, so a constrained
    decode pays for its few legal tokens, not the whole support.  Each
    count table is compiled once for the scorer's lifetime, on the first
    query that uses it, into a plan of (position in the sorted vocab,
    count + α) pairs, so ``counts`` are read-only once the scorer is
    built.  For the input queried last, each backoff table's
    distribution is built once and then returned again as the same
    object.
    """

    def __init__(
        self,
        order: int,
        counts: Counts,
        alpha: float = 0.1,
        copy_boost: float = 4.0,
        extra_vocab: Iterable[str] = (),
    ):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        for name, value in (("alpha", alpha), ("copy_boost", copy_boost)):
            try:
                float(value)
            except OverflowError:  # a huge int: it compares below inf, but no sum takes it
                raise ValueError(
                    f"{name} must be finite, got an int too large for a float"
                ) from None
        if not 0.0 < alpha < inf:
            raise ValueError(f"alpha must be finite and > 0, got {alpha}")
        if not 1.0 <= copy_boost < inf:
            raise ValueError(f"copy_boost must be finite and >= 1, got {copy_boost}")
        self.order = order
        self.counts = counts
        self.alpha = alpha
        self.copy_boost = copy_boost
        # extra_vocab admits tokens never seen in training (smoothing
        # still gives them mass), e.g. label tokens of a schema
        self.vocab = frozenset(counts.get(1, {}).get((), {})) | frozenset(extra_vocab)
        # sorted vocab and its token -> position map, built on the first
        # query so that loading a scorer does no more work
        self._positions: tuple[list, dict] | None = None
        # id(table) -> (table, its pairs, its pairs outside the vocab) for
        # every table queried, the table kept so that its id cannot be
        # reused; equal (position, count + α) pairs of different tables
        # are one object, kept in _pairs
        self._plans: dict[int, tuple] = {}
        self._pairs: dict[tuple, tuple] = {}
        # (input token set, its support, its token -> index map, its base
        # scores, its multipliers, its position -> index list or None, its
        # memo) for the input decoded last; the memo maps id(table) to
        # (table, distribution)
        self._support_cache: tuple | None = None

    @property
    def context_size(self) -> int:
        """``order - 1``: the most trailing prefix tokens a distribution
        reads (the whole prefix while it is shorter)."""
        return self.order - 1

    def _table(self, prefix: Sequence[str]) -> Mapping[str, int]:
        k = min(self.order, len(prefix) + 1)
        while k > 1:
            context = tuple(prefix[len(prefix) - (k - 1) :])
            table = self.counts.get(k, {}).get(context)
            if table:
                return table
            k -= 1
        return self.counts.get(1, {}).get((), {})

    def _vocab_positions(self) -> tuple[list, dict]:
        positions = self._positions
        if positions is None:
            order = sorted(self.vocab)
            positions = self._positions = (order, {t: p for p, t in enumerate(order)})
        return positions

    def _plan(self, table: Mapping[str, int]) -> tuple:
        """``table`` compiled once for the scorer's lifetime: the table, a
        (position in the sorted vocab, count + α) pair per vocab token it
        counts, and a (token, count) pair per token outside the vocab,
        which only an input that holds the token can score."""
        plan = self._plans.get(id(table))
        if plan is None:
            position = self._vocab_positions()[1]
            shared = self._pairs
            pairs, outside = [], []
            for token, count in table.items():
                p = position.get(token)
                if p is None:
                    outside.append((token, count))
                else:
                    pair = (p, count + self.alpha)
                    pairs.append(shared.setdefault(pair, pair))
            plan = self._plans[id(table)] = (table, tuple(pairs), tuple(outside))
        return plan

    def _support(self, input_tokens: frozenset[str]) -> tuple:
        """The input token set, sorted ``vocab | input_tokens``, its token
        -> index map, the scores of a table that counts nothing (α, times
        ``copy_boost`` at the input's tokens), each index's multiplier
        (``copy_boost`` at the input's tokens, else 1.0), the index of
        each vocab position (None when the support is the vocab itself),
        and the memo of distributions for that input; kept for the last
        input token set seen, since a decode asks for one input many
        times in a row."""
        cached = self._support_cache
        if cached is None or (
            cached[0] is not input_tokens and cached[0] != input_tokens
        ):
            order, position = self._vocab_positions()
            if input_tokens <= self.vocab:
                support, index, remap = order, position, None
            else:
                support = sorted(self.vocab | input_tokens)
                index = {token: i for i, token in enumerate(support)}
                remap = [index[token] for token in order]
            # a float boost keeps an int α or count + α from growing into
            # an int that no float can hold: the product overflows to inf
            boost = float(self.copy_boost)
            base = [self.alpha] * len(support)
            mult = [1.0] * len(support)
            for token in input_tokens:
                i = index[token]
                base[i] *= boost
                mult[i] = boost
            cached = self._support_cache = (
                input_tokens, support, index, base, mult, remap, {}
            )
        return cached

    def next_distribution(
        self, inp: TokenizedInput, prefix: Sequence[str]
    ) -> Mapping[str, float]:
        """The distribution after ``prefix``; every prefix that backs off
        to the same table gets the same object, a read-only ``Mapping``.

        Each score is (count + α) × boost, and a token the table does not
        count scores 0 + α == α, so the scores start from the input's
        base scores and only the table's tokens are written, from its
        plan: count + α times the index's multiplier, where × 1.0 leaves
        count + α exact.  They are totalled by ``_left_fold``, and a value
        read is its score over the total.  Raises ValueError when
        ``alpha`` and ``copy_boost`` are so large that the total
        overflows.
        """
        table = self._table(prefix)
        _, support, index, base, mult, remap, memo = self._support(inp.token_set)
        hit = memo.get(id(table))
        if hit is not None:
            return hit[1]
        _, pairs, outside = self._plan(table)
        scores = base.copy()
        if remap is None:
            for i, value in pairs:
                scores[i] = value * mult[i]
        else:
            for p, value in pairs:
                i = remap[p]
                scores[i] = value * mult[i]
        alpha = self.alpha
        for token, count in outside:
            i = index.get(token)
            if i is not None:  # a count outside the support is ignored
                scores[i] = (count + alpha) * mult[i]
        total = _left_fold(scores)
        if not total < inf:
            raise ValueError(
                f"alpha={alpha!r} and copy_boost={self.copy_boost!r} are too large:"
                f" the smoothed scores sum to {total}"
            )
        dist = _Distribution(support, index, scores, total)
        memo[id(table)] = (table, dist)
        return dist


def count_ngrams(targets: Iterable[Sequence[str]], n: int) -> Counts:
    """Count n-grams of orders 1..n over sentinel-bracketed target sequences."""
    counts: Counts = {k: {} for k in range(1, n + 1)}
    for target in targets:
        stream = (BOS, *target, EOS)
        for k in range(1, n + 1):
            tables = counts[k]
            for i in range(k - 1, len(stream)):
                context = stream[i - k + 1 : i]
                table = tables.setdefault(context, {})
                table[stream[i]] = table.get(stream[i], 0) + 1
    return counts


def add_counts(total: Counts, counts: Counts, weight: int) -> None:
    """Add ``weight`` times ``counts`` into ``total``: what ``weight`` more
    passes over the targets behind ``counts`` would add."""
    for k, tables in counts.items():
        total_tables = total.setdefault(k, {})
        for context, table in tables.items():
            total_table = total_tables.setdefault(context, {})
            for token, c in table.items():
                total_table[token] = total_table.get(token, 0) + weight * c


def train_ngram(
    corpus: Iterable[tuple[TokenizedInput, Sequence[str]]],
    n: int = 3,
    alpha: float = 0.1,
    copy_boost: float = 4.0,
    extra_vocab: Iterable[str] = (),
) -> NgramScorer:
    """Count n-grams of orders 1..n over sentinel-bracketed target sequences.

    Corpus items pair an input sentence with its linearized target; the
    inputs are carried for interface symmetry but only targets are
    counted (input conditioning happens at query time via copy_boost).
    """
    targets = [target for _inp, target in corpus]
    if not targets:
        raise ValueError(EMPTY_CORPUS)
    return NgramScorer(n, count_ngrams(targets, n), alpha, copy_boost, extra_vocab)


NGRAM_FORMAT = "evseq-ngram"
NGRAM_VERSION = 1


def save_scorer(scorer: NgramScorer, path) -> None:
    """Write a trained n-gram scorer as a versioned JSON artifact.

    Contexts and tokens are sorted so identical scorers serialize
    byte-identically.
    """
    counts_blob = [
        [
            k,
            [
                [list(context), sorted(table.items())]
                for context, table in sorted(scorer.counts.get(k, {}).items())
            ],
        ]
        for k in range(1, scorer.order + 1)
    ]
    payload = {
        "format": NGRAM_FORMAT,
        "version": NGRAM_VERSION,
        "order": scorer.order,
        "alpha": scorer.alpha,
        "copy_boost": scorer.copy_boost,
        "vocab": sorted(scorer.vocab),
        "counts": counts_blob,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, ensure_ascii=False)
        handle.write("\n")


def load_scorer(path) -> NgramScorer:
    """Read back an artifact written by ``save_scorer``.  A JSON object
    that repeats a key, such as a hand-edited count table, is refused
    rather than read as the key's last value."""

    def unique_keys(pairs):
        table = dict(pairs)
        if len(table) != len(pairs):
            key = _first_repeat(key for key, _ in pairs)
            raise ValueError(f"key {key!r} comes twice")
        return table

    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle, object_pairs_hook=unique_keys)
        except RecursionError:
            raise ValueError(f"{path}: malformed scorer artifact: nested too deeply") from None
        except ValueError as err:  # not JSON, not UTF-8, an over-long integer, a repeated key
            raise ValueError(f"{path}: malformed scorer artifact: {err}") from None
    if not isinstance(payload, dict) or payload.get("format") != NGRAM_FORMAT:
        raise ValueError(f"{path}: not a scorer artifact")
    if payload.get("version") != NGRAM_VERSION:
        raise ValueError(
            f"{path}: unsupported artifact version {payload.get('version')!r}"
        )
    missing = [key for key in ("order", "counts", "alpha", "copy_boost") if key not in payload]
    if missing:
        raise ValueError(f"{path}: scorer artifact has no {', '.join(missing)}")
    for key, kinds in (("order", int), ("alpha", (int, float)), ("copy_boost", (int, float))):
        if not isinstance(payload[key], kinds) or isinstance(payload[key], bool):
            kind = type(payload[key]).__name__
            raise ValueError(f"{path}: scorer artifact field {key!r} is a {kind}")
    try:
        counts = _counts_from_blob(payload["counts"], payload["order"], payload["alpha"])
        vocab = payload.get("vocab", [])
        if not _is_strings(vocab):
            raise ValueError("vocab is not a list of strings")
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: malformed scorer artifact: {err}") from None
    try:
        return NgramScorer(
            payload["order"],
            counts,
            payload["alpha"],
            payload["copy_boost"],
            frozenset(vocab),
        )
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(t, str) for t in value)


def _first_repeat(keys):
    """The first of ``keys`` that equals an earlier one."""
    seen = set()
    for key in keys:
        if key in seen:
            return key
        seen.add(key)


def _counts_from_blob(blob, order: int, alpha) -> Counts:
    """The count tables of an artifact's ``counts`` list of ``[k, tables]``
    entries: each k in 1..order, each context a list of k−1 strings, each
    table a map from string tokens to positive integer counts whose score,
    count + ``alpha``, a float can hold.  An order, a context within an
    order, or a token within a table that comes twice is an error, not a
    silent overwrite."""
    # an int α is added exactly before the sum becomes a float; an α that
    # no float holds is NgramScorer's error
    limit = _FLOAT_MAX
    if type(alpha) is int and 0 < alpha <= _FLOAT_MAX:
        limit = int(_FLOAT_MAX) - alpha
    counts: Counts = {}
    for k, tables in blob:
        if not _is_int(k) or not 1 <= k <= order:
            raise ValueError(f"n-gram order {k!r} is not an integer in 1..{order}")
        if k in counts:
            raise ValueError(f"n-gram order {k} comes twice")
        counts[k] = by_context = {}
        for context, pairs in tables:
            if not _is_strings(context) or len(context) != k - 1:
                raise ValueError(f"order-{k} context {context!r} is not {k - 1} strings")
            key = tuple(context)
            if key in by_context:
                raise ValueError(f"order-{k} context {context!r} comes twice")
            table = dict(pairs)
            if len(table) != len(pairs):
                token = _first_repeat(token for token, _ in pairs)
                raise ValueError(f"order-{k} context {context!r} counts token {token!r} twice")
            # json gives no str or int subclass but bool, so these type
            # tests are isinstance tests that refuse bool
            for token, count in table.items():
                if type(token) is not str or type(count) is not int or count < 1:
                    raise ValueError(
                        f"count {token!r}: {count!r} is not a positive integer"
                        " for a string token"
                    )
                if count > limit:
                    raise ValueError(f"count {token!r} plus alpha is larger than a float can hold")
            by_context[key] = table
    return counts
