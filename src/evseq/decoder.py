"""Grammar-constrained decoding over the parenthesized event format.

A pushdown automaton tracks where in the event grammar the generated
prefix sits.  At each step the legal next tokens are computed from the
automaton phase, the schema label tries, and the span trie of the input
sentence; the scorer's distribution is consulted only on those tokens,
so any scorer (even an adversarial one) yields a sequence that parses,
names only schema labels, and copies mentions verbatim from the input.

Candidate probabilities are the scorer's raw values: masking never
renormalizes, and scores accumulate in log domain.

The schema's label tries are compiled once per schema object
(``EventSchema.tries``) and shared by every sentence; only the span trie
is built per input.  Beam search scores before it advances: each live
hypothesis keeps a running score, every legal token is scored as that
score plus its log-probability, and the automaton is stepped only for
the ``beam_width`` survivors.  Greedy search is kept separate from beam
width 1 because the two break ties differently (see
``constrained_decode``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from math import inf, log
from typing import Mapping, Protocol, Sequence

from .schema import EventSchema, LabelTrie, SchemaTries
from .span_index import (
    DEFAULT_MAX_SPAN_LEN,
    SpanTrie,
    TokenizedInput,
    build_span_trie,
)
from .tokens import BOS, CLOSE, EOS, OPEN


class DecodeError(Exception):
    """A decoding step could not be carried out."""


class TruncationError(DecodeError):
    """max_length was reached before the end sentinel could be emitted."""


class Scorer(Protocol):
    """Next-token distribution provider conditioned on input and prefix.

    ``prefix`` always starts with the BOS sentinel.  The returned mapping
    assigns a probability to every token the scorer considers possible;
    absent tokens are treated as probability zero.  Distributions must
    be non-negative, finite, and sum to 1 within tolerance.  The mapping
    is read-only to the caller and may be shared between calls, so a
    scorer can return one memoized dict for many prefixes.
    """

    def next_distribution(
        self, inp: TokenizedInput, prefix: Sequence[str]
    ) -> Mapping[str, float]: ...


class Phase(Enum):
    AWAIT_ROOT = "await_root"
    AWAIT_EVENT = "await_event_open_or_root_close"
    IN_TYPE_LABEL = "in_type_label"
    IN_TRIGGER_SPAN = "in_trigger_span"
    AWAIT_ARG = "await_arg_open_or_event_close"
    IN_ROLE_LABEL = "in_role_label"
    IN_ARG_SPAN = "in_arg_span"
    AWAIT_END = "await_end"
    DONE = "done"


@dataclass(frozen=True)
class DecodeState:
    """Immutable automaton state after consuming a token prefix.

    ``tokens`` holds the emitted sequence without sentinels.  While a
    label or mention is being spelled out, ``partial_label`` or
    ``partial_span`` holds the tokens of the unfinished unit; both are
    always valid trie paths.
    """

    tokens: tuple[str, ...] = ()
    depth: int = 0
    phase: Phase = Phase.AWAIT_ROOT
    partial_label: tuple[str, ...] = ()
    partial_span: tuple[str, ...] = ()
    current_type: str | None = None

    @property
    def done(self) -> bool:
        return self.phase is Phase.DONE


@dataclass(frozen=True)
class DecodeConfig:
    mode: str = "greedy"
    beam_width: int = 1
    max_length: int = 128  # counts the sentinels: "( )" costs 4
    constrained: bool = True

    def __post_init__(self):
        if self.mode not in ("greedy", "beam"):
            raise ValueError(f"unknown decode mode {self.mode!r}")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_length < 4:
            raise ValueError("max_length must be >= 4 (shortest legal output)")


def candidate_vocab(
    state: DecodeState, tries: SchemaTries, span_trie: SpanTrie
) -> frozenset[str]:
    """Exactly the tokens legal after ``state``.

    Dead ends are pruned ahead of time: an event is only opened when the
    input supports at least one span, and arguments are only opened for
    event types that permit at least one role.
    """
    phase = state.phase
    if phase is Phase.DONE:
        raise DecodeError("generation has ended; no candidates remain")
    if phase is Phase.AWAIT_ROOT:
        return frozenset({OPEN})
    if phase is Phase.AWAIT_EVENT:
        cands = {CLOSE}
        if not span_trie.is_empty:
            cands.add(OPEN)
        return frozenset(cands)
    if phase is Phase.IN_TYPE_LABEL:
        node = tries.type_trie.node(state.partial_label)
        cands = set(node.children)
        if node.is_leaf:
            # label may end here; the trigger mention starts
            cands |= span_trie.children(())
        return frozenset(cands)
    if phase is Phase.IN_TRIGGER_SPAN:
        cands = set(span_trie.children(state.partial_span))
        if state.partial_span:
            cands.add(CLOSE)
            if not tries.role_tries[state.current_type].is_empty:
                cands.add(OPEN)
        return frozenset(cands)
    if phase is Phase.AWAIT_ARG:
        return frozenset({OPEN, CLOSE})
    if phase is Phase.IN_ROLE_LABEL:
        node = tries.role_tries[state.current_type].node(state.partial_label)
        cands = set(node.children)
        if node.is_leaf:
            cands |= span_trie.children(())
        return frozenset(cands)
    if phase is Phase.IN_ARG_SPAN:
        cands = set(span_trie.children(state.partial_span))
        if state.partial_span:
            cands.add(CLOSE)
        return frozenset(cands)
    assert phase is Phase.AWAIT_END
    return frozenset({EOS})


def step(
    state: DecodeState, token: str, tries: SchemaTries, span_trie: SpanTrie
) -> DecodeState:
    """Advance the automaton by one token; the token must be legal.

    Label commitment is greedy-longest: while the consumed tokens can
    still extend a longer label, the walk continues; the label is
    committed when a leaf with no children is reached or when a span
    token takes over.  This mirrors how ``delinearize`` reads sequences
    back, so decoder and parser always agree on label boundaries.
    """
    if token not in candidate_vocab(state, tries, span_trie):
        raise DecodeError(
            f"token {token!r} is not in the candidate vocabulary "
            f"(phase {state.phase.value}, depth {state.depth})"
        )
    return _advance(state, token, tries)


def _advance(state: DecodeState, token: str, tries: SchemaTries) -> DecodeState:
    """``step`` without the legality check, for tokens the decoder drew
    from ``candidate_vocab`` itself."""
    tokens = state.tokens + (token,)
    phase = state.phase
    label, span, current = state.partial_label, state.partial_span, state.current_type

    if phase is Phase.AWAIT_ROOT:
        return DecodeState(tokens, 1, Phase.AWAIT_EVENT, label, span, current)

    if phase is Phase.AWAIT_EVENT:
        if token == OPEN:
            return DecodeState(tokens, 2, Phase.IN_TYPE_LABEL, (), span, current)
        return DecodeState(tokens, 0, Phase.AWAIT_END, label, span, current)

    if phase is Phase.IN_TYPE_LABEL:
        return _label_step(state, token, tokens, tries.type_trie, Phase.IN_TRIGGER_SPAN)

    if phase is Phase.IN_TRIGGER_SPAN:
        if token == OPEN:
            return DecodeState(tokens, 3, Phase.IN_ROLE_LABEL, (), (), current)
        if token == CLOSE:
            return DecodeState(tokens, 1, Phase.AWAIT_EVENT, label, (), None)
        return DecodeState(tokens, state.depth, phase, label, span + (token,), current)

    if phase is Phase.AWAIT_ARG:
        if token == OPEN:
            return DecodeState(tokens, 3, Phase.IN_ROLE_LABEL, (), span, current)
        return DecodeState(tokens, 1, Phase.AWAIT_EVENT, label, span, None)

    if phase is Phase.IN_ROLE_LABEL:
        trie = tries.role_tries[current]
        return _label_step(state, token, tokens, trie, Phase.IN_ARG_SPAN)

    if phase is Phase.IN_ARG_SPAN:
        if token == CLOSE:
            return DecodeState(tokens, 2, Phase.AWAIT_ARG, label, (), current)
        return DecodeState(tokens, state.depth, phase, label, span + (token,), current)

    assert phase is Phase.AWAIT_END
    # the end sentinel is not part of the linearized body
    return DecodeState(state.tokens, state.depth, Phase.DONE, label, span, current)


def _label_step(
    state: DecodeState,
    token: str,
    tokens: tuple[str, ...],
    trie: LabelTrie,
    span_phase: Phase,
) -> DecodeState:
    node = trie.node(state.partial_label)
    child = node.children.get(token)
    in_type = state.phase is Phase.IN_TYPE_LABEL
    if child is not None:
        if child.is_leaf and not child.children:
            current = child.label if in_type else state.current_type
            return DecodeState(tokens, state.depth, span_phase, (), (), current)
        return DecodeState(
            tokens, state.depth, state.phase, state.partial_label + (token,),
            state.partial_span, state.current_type,
        )
    # token opens the mention; commit the label completed at this node
    current = node.label if in_type else state.current_type
    return DecodeState(tokens, state.depth, span_phase, (), (token,), current)


@dataclass(frozen=True)
class DecodeResult:
    """A finished decode: the linearized body plus per-step log-probabilities.

    ``logprobs`` has one entry per generated token, end sentinel
    included, so ``len(logprobs) == len(tokens) + 1``.
    """

    tokens: tuple[str, ...]
    logprobs: tuple[float, ...]

    @property
    def total_logprob(self) -> float:
        return sum(self.logprobs)

    @property
    def nll(self) -> float:
        return -self.total_logprob


def _checked_prob(dist: Mapping[str, float], token: str) -> float:
    p = dist.get(token, 0.0)
    if math.isnan(p) or math.isinf(p) or p < 0.0:
        raise DecodeError(f"scorer produced a non-finite or negative score for {token!r}: {p}")
    return p


def constrained_decode(
    scorer: Scorer,
    inp: TokenizedInput,
    schema: EventSchema,
    config: DecodeConfig | None = None,
    max_span_len: int = DEFAULT_MAX_SPAN_LEN,
) -> DecodeResult:
    """Decode one sequence for ``inp`` under grammar/schema/span constraints.

    Greedy mode takes the candidate most probable at the current step,
    breaking ties toward the lexicographically smallest token.  Beam mode
    keeps the ``beam_width`` prefixes with the highest total
    log-probability, ties going to the lexicographically smallest prefix,
    and compares finished hypotheses the same way, without length
    normalization; it scores every legal continuation first and advances
    the automaton only for the survivors.  The two differ even at width
    1: once a step has probability zero every beam score is -inf, so
    beam falls back to token order while greedy still follows the
    current step's probabilities.  The label tries come from
    ``schema.tries``, built once per schema object.  Raises
    TruncationError when ``max_length`` is hit before the end sentinel.
    """
    config = config or DecodeConfig()
    tries = schema.tries
    span_trie = build_span_trie(inp, max_span_len)
    if not config.constrained:
        return _greedy_unconstrained(scorer, inp, config)
    if config.mode == "greedy":
        return _greedy(scorer, inp, tries, span_trie, config)
    return _beam(scorer, inp, tries, span_trie, config)


def _greedy(
    scorer: Scorer,
    inp: TokenizedInput,
    tries: SchemaTries,
    span_trie: SpanTrie,
    config: DecodeConfig,
) -> DecodeResult:
    state = DecodeState()
    prefix: list[str] = [BOS]
    logprobs: list[float] = []
    while not state.done:
        if len(prefix) >= config.max_length:
            raise TruncationError(
                f"no end sentinel within max_length={config.max_length} tokens"
            )
        dist = scorer.next_distribution(inp, tuple(prefix))
        # the smallest (-p, token), checking every candidate in set order
        chosen, best = None, -1.0
        for token in candidate_vocab(state, tries, span_trie):
            p = dist.get(token, 0.0)
            if not 0.0 <= p < inf:  # also false for NaN
                _checked_prob(dist, token)  # raises, naming the token
            if p > best or (p == best and token < chosen):
                chosen, best = token, p
        logprobs.append(log(best) if best > 0.0 else -inf)
        state = _advance(state, chosen, tries)
        prefix.append(chosen)
    return DecodeResult(state.tokens, tuple(logprobs))


def _greedy_unconstrained(
    scorer: Scorer, inp: TokenizedInput, config: DecodeConfig
) -> DecodeResult:
    """Argmax decoding with no grammar mask; output may not parse."""
    prefix: list[str] = [BOS]
    logprobs: list[float] = []
    while True:
        if len(prefix) >= config.max_length:
            raise TruncationError(
                f"no end sentinel within max_length={config.max_length} tokens"
            )
        dist = scorer.next_distribution(inp, tuple(prefix))
        if not dist:
            raise DecodeError("scorer returned an empty distribution")
        chosen = min(dist, key=lambda t: (-_checked_prob(dist, t), t))
        p = _checked_prob(dist, chosen)
        logprobs.append(log(p) if p > 0.0 else -inf)
        prefix.append(chosen)
        if chosen == EOS:
            return DecodeResult(tuple(prefix[1:-1]), tuple(logprobs))


@dataclass(frozen=True)
class _Hyp:
    state: DecodeState
    prefix: tuple[str, ...]
    logprobs: tuple[float, ...] = ()
    # ((0.0 + lp1) + lp2) + ..., kept as the hypothesis grows
    score: float = 0.0


def _beam(
    scorer: Scorer,
    inp: TokenizedInput,
    tries: SchemaTries,
    span_trie: SpanTrie,
    config: DecodeConfig,
) -> DecodeResult:
    live = [_Hyp(DecodeState(), (BOS,))]
    completed: list[_Hyp] = []
    while live:
        if completed:
            best_done = max(h.score for h in completed)
            # per-step log-probs are <= 0, so live scores cannot recover
            if all(h.score <= best_done for h in live):
                break
        if len(live[0].prefix) >= config.max_length:
            break  # live prefixes share one length; none can finish
        # Score every legal continuation, advance only the survivors.  All
        # live prefixes have the same length, so (-score, prefix, token)
        # orders as (-score, prefix + (token,)) does; (prefix, token) is
        # unique, so the trailing fields never take part in a comparison.
        scored = []
        for i, hyp in enumerate(live):
            dist = scorer.next_distribution(inp, hyp.prefix)
            score, prefix = hyp.score, hyp.prefix
            for token in candidate_vocab(hyp.state, tries, span_trie):
                p = dist.get(token, 0.0)
                if not 0.0 <= p < inf:  # also false for NaN
                    _checked_prob(dist, token)  # raises, naming the token
                lp = log(p) if p > 0.0 else -inf
                scored.append((-(score + lp), prefix, token, i, lp))
        parents = live
        live = []
        for neg_score, prefix, token, i, lp in heapq.nsmallest(config.beam_width, scored):
            parent = parents[i]
            hyp = _Hyp(
                _advance(parent.state, token, tries),
                prefix + (token,),
                parent.logprobs + (lp,),
                -neg_score,
            )
            if hyp.state.done:
                completed.append(hyp)
            else:
                live.append(hyp)
    if not completed:
        raise TruncationError(
            f"no hypothesis finished within max_length={config.max_length} tokens"
        )
    best = min(completed, key=lambda h: (-h.score, h.prefix))
    return DecodeResult(best.state.tokens, best.logprobs)


def decode_batch(
    scorer: Scorer | Sequence[Scorer],
    inputs: Sequence[TokenizedInput],
    schema: EventSchema,
    config: DecodeConfig | None = None,
    max_span_len: int = DEFAULT_MAX_SPAN_LEN,
) -> list[DecodeResult]:
    """Decode several inputs, preserving order.

    ``scorer`` may be one shared scorer or one scorer per input.  Items
    are processed independently; if any fail, a BatchDecodeError carries
    every per-item error along with its input index.
    """
    if hasattr(scorer, "next_distribution"):
        scorers = [scorer] * len(inputs)
    else:
        scorers = list(scorer)
        if len(scorers) != len(inputs):
            raise ValueError(
                f"got {len(scorers)} scorers for {len(inputs)} inputs"
            )
    results: list[DecodeResult | None] = []
    errors: list[tuple[int, DecodeError]] = []
    for i, (one, inp) in enumerate(zip(scorers, inputs)):
        try:
            results.append(constrained_decode(one, inp, schema, config, max_span_len))
        except DecodeError as err:
            results.append(None)
            errors.append((i, err))
    if errors:
        raise BatchDecodeError(errors)
    return results


class BatchDecodeError(DecodeError):
    """One or more items of a batch failed; ``errors`` lists (index, error)."""

    def __init__(self, errors: list[tuple[int, DecodeError]]):
        self.errors = errors
        summary = "; ".join(f"item {i}: {err}" for i, err in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(f"{len(errors)} item(s) failed: {summary}{more}")


def sequence_nll(
    scorer: Scorer, inp: TokenizedInput, target: Sequence[str]
) -> float:
    """Negative log-likelihood of a linearized body under the scorer.

    The body is bracketed with sentinels internally; every token after
    BOS is scored, the end sentinel included.  A zero-probability target
    token makes the whole value +inf.
    """
    stream = (BOS, *target, EOS)
    total = 0.0
    for i in range(1, len(stream)):
        dist = scorer.next_distribution(inp, stream[:i])
        p = _checked_prob(dist, stream[i])
        if p == 0.0:
            return float("inf")
        total -= math.log(p)
    return total
