"""Next-token scorers: the probability models that drive decoding.

These are deliberately small, deterministic stand-ins for a learned
generator: a uniform baseline, an oracle that replays a known target, a
seeded random scorer for fuzzing, and a count-based n-gram model with
hard backoff, additive smoothing, and a copy boost for tokens of the
input sentence.  All of them satisfy the Scorer protocol of the decoder
module and return proper probability distributions.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import reduce
from operator import add
from typing import Iterable, Mapping, Sequence

from .schema import EventSchema
from .span_index import TokenizedInput
from .tokens import BOS, EOS, RESERVED_TOKENS


def decoding_vocab(
    schema: EventSchema, inp: TokenizedInput | None = None
) -> frozenset[str]:
    """Every token decoding can involve: structure, sentinels, labels, input."""
    vocab = RESERVED_TOKENS | schema.label_tokens
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
    Every call returns a new dict, keyed in vocabulary order; on the
    target path it is a copy of one ε/(V−1) dict, built on the first
    such call, with the target token's value replaced.
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
        self.vocab = tuple(sorted(set(vocab or ()) | set(self.stream)))
        self._rest: dict[str, float] | None = None

    def next_distribution(
        self, inp: TokenizedInput, prefix: Sequence[str]
    ) -> Mapping[str, float]:
        i = len(prefix)
        on_target = i < len(self.stream) and tuple(prefix) == self.stream[:i]
        if not on_target:
            return dict.fromkeys(self.vocab, 1.0 / len(self.vocab))
        target_token = self.stream[i]
        if len(self.vocab) == 1:
            return {target_token: 1.0}
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
    the seed into an RNG state, and they are normalized by their sum
    taken as a left fold on every supported Python (``sum()`` compensates
    its rounding from 3.12 on), so repeated runs and repeated queries
    agree exactly, across platforms and interpreter versions.
    """

    def __init__(self, vocab: Iterable[str], seed: int):
        self.vocab = tuple(sorted(set(vocab)))
        if not self.vocab:
            raise ValueError("random scorer needs a non-empty vocabulary")
        self.seed = seed

    def next_distribution(
        self, inp: TokenizedInput, prefix: Sequence[str]
    ) -> Mapping[str, float]:
        key = f"{self.seed}".encode() + b"\x00" + "\x1f".join(prefix).encode()
        rng = random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))
        weights = [rng.random() + 1e-6 for _ in self.vocab]
        total = reduce(add, weights, 0.0)
        return {token: w / total for token, w in zip(self.vocab, weights)}


Counts = dict[int, dict[tuple[str, ...], dict[str, int]]]
EMPTY_CORPUS = "cannot train an n-gram scorer on an empty corpus"


class NgramScorer:
    """Count-based n-gram model with hard backoff and additive smoothing.

    ``counts[k][context][token]`` is how often ``token`` followed the
    (k−1)-token ``context`` in training.  A query uses the longest
    context with any counts, backing off one order at a time down to the
    unigram table.  Scores are (count + α), multiplied by ``copy_boost``
    for tokens present in the current input sentence, then normalized
    over the training vocabulary extended with the input tokens.  A
    distribution thus reads the input and at most ``order - 1`` trailing
    prefix tokens, which ``context_size`` declares.  For the input
    queried last, each backoff table's distribution is built once and
    then returned again as the same dict.
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
        if alpha <= 0.0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        if copy_boost < 1.0:
            raise ValueError(f"copy_boost must be >= 1, got {copy_boost}")
        self.order = order
        self.counts = counts
        self.alpha = alpha
        self.copy_boost = copy_boost
        # extra_vocab admits tokens never seen in training (smoothing
        # still gives them mass), e.g. label tokens of a schema
        self.vocab = frozenset(counts.get(1, {}).get((), {})) | frozenset(extra_vocab)
        # (input token set, its support, its token -> index map, its input
        # tokens with their indices, its memo) for the input decoded last;
        # the memo maps id(table) to (table, normalized dict), the table
        # kept so that its id cannot be reused
        self._support_cache: tuple[frozenset[str], list, dict, list, dict] | None = None

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

    def _support(self, input_tokens: frozenset[str]) -> tuple[list, dict, list, dict]:
        """Sorted ``vocab | input_tokens``, its token -> index map, the
        input tokens with their indices, and the memo of distributions for
        that input; kept for the last input token set seen, since a decode
        asks for one input many times in a row."""
        cached = self._support_cache
        if cached is None or (
            cached[0] is not input_tokens and cached[0] != input_tokens
        ):
            support = sorted(self.vocab | input_tokens)
            index = {token: i for i, token in enumerate(support)}
            copied = [(index[token], token) for token in input_tokens]
            cached = self._support_cache = (input_tokens, support, index, copied, {})
        return cached[1:]

    def next_distribution(
        self, inp: TokenizedInput, prefix: Sequence[str]
    ) -> Mapping[str, float]:
        """The distribution after ``prefix``; every prefix that backs off
        to the same table gets the same dict object, so callers must not
        modify it.

        Each score is (count + α) × boost, and a token the table does not
        count scores 0 + α == α, so the scores start at α and only the
        table's tokens and the input's tokens are written.  They are
        summed left to right (not with sum(), which rounds differently
        from Python 3.12 on) and divided by the sum; every token neither
        counted nor copied gets α / total, the very float its own score
        over the total would give.
        """
        table = self._table(prefix)
        support, index, copied, memo = self._support(inp.token_set)
        hit = memo.get(id(table))
        if hit is not None:
            return hit[1]
        alpha = self.alpha
        scores = [alpha] * len(support)
        counted = []
        for token, count in table.items():
            i = index.get(token)
            if i is not None:  # a count outside the support is ignored
                scores[i] = count + alpha
                counted.append((i, token))
        boost = self.copy_boost
        for i, _ in copied:
            scores[i] *= boost
        total = reduce(add, scores, 0.0)
        dist = dict.fromkeys(support, alpha / total)
        for i, token in counted:
            dist[token] = scores[i] / total
        for i, token in copied:
            dist[token] = scores[i] / total
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
    """Read back an artifact written by ``save_scorer``."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
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
        counts = _counts_from_blob(payload["counts"], payload["order"])
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


def _counts_from_blob(blob, order: int) -> Counts:
    """The count tables of an artifact's ``counts`` list of ``[k, tables]``
    entries: each k in 1..order, each context a list of k−1 strings, each
    table a map from string tokens to positive integer counts."""
    counts: Counts = {}
    for k, tables in blob:
        if not _is_int(k) or not 1 <= k <= order:
            raise ValueError(f"n-gram order {k!r} is not an integer in 1..{order}")
        counts[k] = {}
        for context, table in tables:
            if not _is_strings(context) or len(context) != k - 1:
                raise ValueError(f"order-{k} context {context!r} is not {k - 1} strings")
            table = dict(table)
            for token, count in table.items():
                if not isinstance(token, str) or not _is_int(count) or count < 1:
                    raise ValueError(
                        f"count {token!r}: {count!r} is not a positive integer"
                        " for a string token"
                    )
            counts[k][tuple(context)] = table
    return counts
