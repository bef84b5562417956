"""Grammar-constrained decoding over the parenthesized event format.

A pushdown automaton tracks where in the event grammar the generated
prefix sits.  Its legal next tokens come from the automaton phase, the
schema label tries, and the span trie of the input sentence; the
scorer's distribution is consulted only on those tokens, so any scorer
(even an adversarial one) yields a sequence that parses, names only
schema labels, and copies mentions verbatim from the input.

Candidate probabilities are the scorer's raw values: masking never
renormalizes, and scores accumulate in log domain.

The schema's label tries are compiled once per schema object
(``EventSchema.tries``) and shared by every sentence; only the span trie
is built per input.  Each decode then compiles the automaton lazily, a
state→allowed-token index in the manner of Willard & Louf (2023): the
automaton keeps its states in a list, and a state holds its phase, its
label-trie node or mention span, its legal tokens as a frozenset built
once, and a token→next-state-id table filled on first use, a state's id
being its index in that list.  Transitions are ids, not states, so
states never reference each other and a finished decode's automaton is
freed by reference counting alone.  States are interned on their phase,
label-trie node, mention span and event type, so a decode that comes
back to a grammar state (every new argument of one event type, say)
steps by one dict lookup.  Greedy and beam search walk these states and
keep only the emitted prefix themselves; ``DecodeState``,
``candidate_vocab`` and ``step`` are views on the same automaton.  Beam
search scores before it advances: each live hypothesis keeps a running
score, every legal token is scored as that score plus its
log-probability, and the automaton is stepped only for the
``beam_width`` survivors.  Greedy search is kept separate from beam
width 1 because the two break ties differently (see
``constrained_decode``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from math import inf, log
from operator import add
from typing import Mapping, Protocol, Sequence

from .schema import EventSchema, SchemaTries
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


# The phases as module globals for the automaton's compiler: reading an
# attribute of an Enum class runs Python code (about 150 ns a read on
# Python 3.11), reading a module global does not.
_AWAIT_ROOT, _AWAIT_EVENT, _IN_TYPE_LABEL, _IN_TRIGGER_SPAN, _AWAIT_ARG = (
    Phase.AWAIT_ROOT, Phase.AWAIT_EVENT, Phase.IN_TYPE_LABEL, Phase.IN_TRIGGER_SPAN,
    Phase.AWAIT_ARG,
)
_IN_ROLE_LABEL, _IN_ARG_SPAN, _AWAIT_END, _DONE = (
    Phase.IN_ROLE_LABEL, Phase.IN_ARG_SPAN, Phase.AWAIT_END, Phase.DONE,
)


@dataclass(frozen=True)
class DecodeState:
    """Immutable automaton state after consuming a token prefix.

    ``tokens`` holds the emitted sequence without sentinels.  While a
    label or mention is being spelled out, ``partial_label`` or
    ``partial_span`` holds the tokens of the unfinished unit; both are
    always valid trie paths.  States come from ``DecodeState()`` and
    ``step``; ``candidate_vocab`` and ``step`` reject one whose fields
    are not those its tokens lead to.
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


class _State:
    """One automaton state, interned per decode.

    It holds the ``DecodeState`` fields other than ``tokens``, the
    label-trie node while a label is spelled out, its legal next tokens,
    built once, and ``next``, the transitions taken so far: token to the
    next state's id in ``_Automaton.states``.
    """

    __slots__ = ("phase", "depth", "label", "span", "current", "node", "legal", "next")

    def __init__(self, phase, depth, label, span, current, node, legal):
        self.phase = phase
        self.depth = depth
        self.label = label
        self.span = span
        self.current = current
        self.node = node
        self.legal = legal  # None once generation has ended
        self.next: dict[str, int] = {}

    def as_view(self, tokens: tuple[str, ...]) -> DecodeState:
        return DecodeState(tokens, self.depth, self.phase, self.label, self.span, self.current)


class _Automaton:
    """The decoding grammar of one (schema tries, span trie) pair.

    States are compiled on first use into ``states``, a state's id being
    its index there.  They are interned on the identities of their phase
    and label-trie node, on their mention span and on their event type,
    which together fix the rest of a state; a decode that comes back to
    a grammar state reuses its legal set and transitions.  The grammar's
    rules are written here once: ``_legal`` for the legal tokens of a
    state and ``advance`` for its transitions.
    """

    def __init__(self, tries: SchemaTries, span_trie: SpanTrie):
        self.tries = tries
        self.span_trie = span_trie
        self.states: list[_State] = []
        self._ids: dict[tuple, int] = {}
        self.start = self.states[self._state(_AWAIT_ROOT, 0)]
        self.end = self.states[self._state(_DONE, 0)]

    def _state(self, phase, depth, node=None, current=None, label=(), span=()) -> int:
        """The id of a state, compiled if it is new."""
        # ids, not the Phase member: an Enum member hashes in Python code
        key = (id(phase), id(node), span, current)
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.states)
            legal = self._legal(phase, node, span, current)
            self.states.append(_State(phase, depth, label, span, current, node, legal))
        return i

    def _legal(self, phase, node, span, current) -> frozenset[str] | None:
        """The tokens legal in a state (see ``candidate_vocab``)."""
        if phase is _DONE:
            return None
        if phase is _AWAIT_ROOT:
            return frozenset({OPEN})
        if phase is _AWAIT_EVENT:
            cands = {CLOSE}
            if not self.span_trie.is_empty:
                cands.add(OPEN)
            return frozenset(cands)
        if phase is _IN_TYPE_LABEL or phase is _IN_ROLE_LABEL:
            cands = set(node.children)
            if node.is_leaf:
                # label may end here; the mention starts
                cands |= self.span_trie.children(())
            return frozenset(cands)
        if phase is _IN_TRIGGER_SPAN or phase is _IN_ARG_SPAN:
            cands = set(self.span_trie.children(span))
            if span:
                cands.add(CLOSE)
                if phase is _IN_TRIGGER_SPAN and not self.tries.role_tries[current].is_empty:
                    cands.add(OPEN)
            return frozenset(cands)
        if phase is _AWAIT_ARG:
            return frozenset({OPEN, CLOSE})
        assert phase is _AWAIT_END
        return frozenset({EOS})

    def advance(self, state: _State, token: str) -> _State:
        """The state after ``token``, which must be legal in ``state``
        (label commitment as described in ``step``); computed once, then
        kept in ``state.next`` by id."""
        phase, depth, current = state.phase, state.depth, state.current
        if phase is _IN_TYPE_LABEL or phase is _IN_ROLE_LABEL:
            in_type = phase is _IN_TYPE_LABEL
            span_phase = _IN_TRIGGER_SPAN if in_type else _IN_ARG_SPAN
            node = state.node
            child = node.children.get(token)
            if child is None:
                # token opens the mention; commit the label completed here
                if in_type:
                    current = node.label
                nxt = self._state(span_phase, depth, current=current, span=(token,))
            elif child.is_leaf and not child.children:
                if in_type:
                    current = child.label
                nxt = self._state(span_phase, depth, current=current)
            else:
                nxt = self._state(phase, depth, child, current, label=state.label + (token,))
        elif phase is _AWAIT_ROOT:
            nxt = self._state(_AWAIT_EVENT, 1)
        elif token == OPEN:
            if phase is _AWAIT_EVENT:  # an event
                nxt = self._state(_IN_TYPE_LABEL, 2, self.tries.type_trie.root)
            else:  # an argument, after the trigger or another argument
                nxt = self._state(_IN_ROLE_LABEL, 3, self.tries.role_tries[current].root, current)
        elif token == CLOSE:
            if phase is _AWAIT_EVENT:  # the root
                nxt = self._state(_AWAIT_END, 0)
            elif phase is _IN_ARG_SPAN:  # an argument
                nxt = self._state(_AWAIT_ARG, 2, None, current)
            else:  # an event, after its trigger or its last argument
                nxt = self._state(_AWAIT_EVENT, 1)
        elif phase is _AWAIT_END:
            nxt = self._state(_DONE, 0)
        else:  # the next token of a mention
            nxt = self._state(phase, depth, current=current, span=state.span + (token,))
        state.next[token] = nxt
        return self.states[nxt]


def _view(
    state: DecodeState, tries: SchemaTries, span_trie: SpanTrie
) -> tuple[_Automaton, _State]:
    """The automaton of ``tries`` and ``span_trie``, and its state that
    ``state`` is a view of.

    A ``DecodeState`` carries the pair outside its fields (so equality
    and repr ignore it), and a walk from ``DecodeState()`` through
    ``step`` compiles one automaton.  A state that carries no pair for
    this ``tries`` and ``span_trie`` is located by replaying its tokens
    on a new automaton, and rejected unless its fields are those of the
    state they reach.
    """
    bound = getattr(state, "_view", None)
    if bound is not None and bound[0].tries is tries and bound[0].span_trie is span_trie:
        return bound
    automaton = _Automaton(tries, span_trie)
    here = automaton.start
    # the end sentinel is not kept in tokens; advance interns the state
    # it reaches, so a transition the replay takes twice is computed twice
    # but leads to the same state
    for token in (state.tokens + (EOS,)) if state.done else state.tokens:
        if here.legal is None or token not in here.legal:
            raise DecodeError(f"{state!r} is not a state its tokens lead to")
        here = automaton.advance(here, token)
    if here.as_view(state.tokens) != state:
        raise DecodeError(f"{state!r} is not a state its tokens lead to")
    bound = (automaton, here)
    object.__setattr__(state, "_view", bound)
    return bound


def _legal(state: _State) -> frozenset[str]:
    if state.legal is None:
        raise DecodeError("generation has ended; no candidates remain")
    return state.legal


def candidate_vocab(
    state: DecodeState, tries: SchemaTries, span_trie: SpanTrie
) -> frozenset[str]:
    """Exactly the tokens legal after ``state``.

    Dead ends are pruned ahead of time: an event is only opened when the
    input supports at least one span, and arguments are only opened for
    event types that permit at least one role.
    """
    return _legal(_view(state, tries, span_trie)[1])


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
    automaton, here = _view(state, tries, span_trie)
    if token not in _legal(here):
        raise DecodeError(
            f"token {token!r} is not in the candidate vocabulary "
            f"(phase {state.phase.value}, depth {state.depth})"
        )
    nxt = here.next.get(token)
    here = automaton.states[nxt] if nxt is not None else automaton.advance(here, token)
    # the end sentinel is not part of the linearized body
    tokens = state.tokens if here is automaton.end else state.tokens + (token,)
    out = here.as_view(tokens)
    object.__setattr__(out, "_view", (automaton, here))
    return out


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
        # a left fold, as beam accumulates its scores; sum() compensates
        # its rounding from Python 3.12 on
        return reduce(add, self.logprobs, 0.0)

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
    span_trie = build_span_trie(inp, max_span_len)
    if not config.constrained:
        return _greedy_unconstrained(scorer, inp, config)
    automaton = _Automaton(schema.tries, span_trie)
    if config.mode == "greedy":
        return _greedy(scorer, inp, automaton, config)
    return _beam(scorer, inp, automaton, config)


def _greedy(
    scorer: Scorer, inp: TokenizedInput, automaton: _Automaton, config: DecodeConfig
) -> DecodeResult:
    state, end, states = automaton.start, automaton.end, automaton.states
    prefix: list[str] = [BOS]
    logprobs: list[float] = []
    while state is not end:
        if len(prefix) >= config.max_length:
            raise TruncationError(
                f"no end sentinel within max_length={config.max_length} tokens"
            )
        dist = scorer.next_distribution(inp, tuple(prefix))
        # the smallest (-p, token), checking every candidate in set order
        chosen, best = None, -1.0
        for token in state.legal:
            p = dist.get(token, 0.0)
            if not 0.0 <= p < inf:  # also false for NaN
                _checked_prob(dist, token)  # raises, naming the token
            if p > best or (p == best and token < chosen):
                chosen, best = token, p
        logprobs.append(log(best) if best > 0.0 else -inf)
        nxt = state.next.get(chosen)
        state = states[nxt] if nxt is not None else automaton.advance(state, chosen)
        prefix.append(chosen)
    # drop the sentinels
    return DecodeResult(tuple(prefix[1:-1]), tuple(logprobs))


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


class _Hyp:
    """A beam hypothesis; its log-probabilities are read back through
    ``parent`` links, so extending one copies no history."""

    __slots__ = ("state", "prefix", "score", "logprob", "parent")

    def __init__(self, state, prefix, score=0.0, logprob=0.0, parent=None):
        self.state = state
        self.prefix = prefix
        # ((0.0 + lp1) + lp2) + ..., kept as the hypothesis grows
        self.score = score
        self.logprob = logprob
        self.parent = parent

    def logprobs(self) -> tuple[float, ...]:
        out = []
        hyp = self
        while hyp.parent is not None:
            out.append(hyp.logprob)
            hyp = hyp.parent
        return tuple(reversed(out))


def _beam(
    scorer: Scorer, inp: TokenizedInput, automaton: _Automaton, config: DecodeConfig
) -> DecodeResult:
    end, states = automaton.end, automaton.states
    live = [_Hyp(automaton.start, (BOS,))]
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
            for token in hyp.state.legal:
                p = dist.get(token, 0.0)
                if not 0.0 <= p < inf:  # also false for NaN
                    _checked_prob(dist, token)  # raises, naming the token
                lp = log(p) if p > 0.0 else -inf
                scored.append((-(score + lp), prefix, token, i, lp))
        parents = live
        live = []
        for neg_score, prefix, token, i, lp in heapq.nsmallest(config.beam_width, scored):
            parent = parents[i]
            nxt = parent.state.next.get(token)
            state = states[nxt] if nxt is not None else automaton.advance(parent.state, token)
            hyp = _Hyp(state, prefix + (token,), -neg_score, lp, parent)
            if state is end:
                completed.append(hyp)
            else:
                live.append(hyp)
    if not completed:
        raise TruncationError(
            f"no hypothesis finished within max_length={config.max_length} tokens"
        )
    best = min(completed, key=lambda h: (-h.score, h.prefix))
    # drop the sentinels
    return DecodeResult(best.prefix[1:-1], best.logprobs())


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
