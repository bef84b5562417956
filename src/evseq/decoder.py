"""Grammar-constrained decoding over the parenthesized event format.

A pushdown automaton tracks where in the event grammar the generated
prefix sits.  Its legal next tokens come from the automaton phase, the
schema label tries, and the span trie of the input sentence; the
scorer's distribution is consulted only on those tokens, so any scorer
(even an adversarial one) yields a sequence that parses, names only
schema labels, and copies mentions verbatim from the input.

Candidate probabilities are the scorer's raw values: masking never
renormalizes, and scores accumulate in log domain.  A legal token whose
score is non-finite or negative stops the decode with a ``DecodeError``
that names the smallest such token in sorted order, so the message does
not depend on the order a search meets tokens in, nor on string hashing.

The decoding grammar depends on the schema alone, so it is compiled once
per ``SchemaTries`` object (``EventSchema.tries`` is one per schema) and
shared by every sentence, a state→allowed-token index in the manner of
Willard & Louf (2023).  It is compiled in full the first time a decode
needs it: every reachable state with all of its transitions; nothing
writes to it after that.  A state holds its phase, its label-trie node
and event type, its legal structure and label tokens as a frozenset, a
token→next-state table, and the state a copied mention token leads to.
The grammar is thus a graph of states, loops included, owned by the
tries; the cyclic collector frees it once its schema is dropped.  Mention
tokens are not in the grammar: they are the keys of a node of the
input's span trie, the only structure built per sentence.  A decode
position is therefore a pair, a grammar state and a span-trie node (None
where no mention token is legal); a grammar token steps to
``state.next[token]`` (and the span trie's root, if mention tokens may
follow), a mention token to ``state.span_next`` and the node's child.
Greedy and beam search walk these pairs and keep only the emitted prefix
and its log-probabilities themselves, one copy per hypothesis;
``DecodeState``, ``candidate_vocab`` and ``step`` are views on the same
pairs: a state holds nothing but its fields, and every call replays its
tokens to find its pair.  Each search scores a position's legal tokens
with one loop body, the grammar tokens first, then the node's mention
tokens.  A mention token equal to a label token comes round twice with
the same probability; the label goes on, as in ``step``.  Greedy needs
no check for it: the second copy ties the first and never beats it.
Beam search scores before it advances: each live hypothesis keeps a
running score, every legal token is scored as that score plus its
log-probability, and only the ``beam_width`` survivors are stepped.
While it scores, beam keeps the ``beam_width`` best candidates so far,
ordered as ``(-score, prefix, token)``, in one sorted list; once the
list is full, the key ``-score`` of its last entry is the bar.  A
candidate whose key exceeds the bar already has ``beam_width`` better
ones and is not kept; one that ties it is kept only if it sorts before
the last entry, which it then replaces.  So the last entry only falls.
Each hypothesis remembers the last candidate it did not keep: a later
one with the same probability has the same key and the same prefix, and
if its token is larger (or the remembered key exceeded the bar) it sorts
after a candidate that already lost, so it is dropped before its log is
taken.  A label token's second copy is dropped only once it beats the
bar, just before it would be kept; before that, the bar and the skip
treat it as they would the first copy.  This is threshold pruning
(Freitag & Al-Onaizan 2017) done exactly: every legal probability is
still read and checked first, so the survivors, their order, the scorer
calls and the error rule are those of a search that keeps every
candidate.
Greedy search is kept separate from beam width 1 because the two break
ties differently (see ``constrained_decode``).

A scorer may declare ``context_size``, the number of trailing prefix
tokens its distributions read besides the input.  Each greedy step is
then a deterministic function of the triple (grammar state, span-trie
node, last ``context_size`` tokens): the triple fixes the distribution,
hence the chosen token, hence the next triple.  The node is keyed by
``id``: the span trie may share one node between spans, but spans that
share a node share its whole subtree, so the mention has the same
future after either, and a repeat is found at the same step as by span
or earlier.  So once a triple repeats, the decode is in a cycle, and
since the end state stops the loop, no triple in the cycle is the end:
the decode could only run on to ``max_length``.  Greedy raises that
``TruncationError``, with the same message, at the first repeat.  Beam
search does not stop early: a hypothesis's accumulated score is part of
its state, and it never repeats, and unconstrained greedy decoding
always runs to ``max_length``.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from math import inf, log
from typing import Mapping, Protocol, Sequence

from .schema import EventSchema, SchemaTries
from .scorers import _left_fold
from .span_index import (
    DEFAULT_MAX_SPAN_LEN,
    SpanTrie,
    TokenizedInput,
    build_span_trie,
    check_max_span_len,
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
    scorer can return one memoized mapping for many prefixes.  Decoding
    reads it with ``get`` and, unconstrained, one pass over ``items()``.

    A scorer may also declare a read-only ``context_size``, a
    non-negative int: its distributions depend on the input and on at
    most that many trailing prefix tokens (the whole prefix while it is
    shorter), and on nothing else, so greedy decoding can stop at a
    repeated step (see the module docstring).  A scorer that reads the
    whole prefix declares nothing.
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


@dataclass(frozen=True, slots=True)
class DecodeState:
    """Immutable automaton state after consuming a token prefix.

    ``tokens`` holds the emitted sequence without sentinels.  While a
    label or mention is being spelled out, ``partial_label`` or
    ``partial_span`` holds the tokens of the unfinished unit; both are
    always valid trie paths.  A state holds these six fields only:
    ``candidate_vocab`` and ``step`` replay its tokens on every call, and
    reject it unless its fields are those the tokens lead to.
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
        for name in ("beam_width", "max_length"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_length < 4:
            raise ValueError("max_length must be >= 4 (shortest legal output)")
        if self.mode == "beam" and not self.constrained:
            raise ValueError("beam search needs constraints: unconstrained decoding is greedy only")


_DEPTH = {
    Phase.AWAIT_ROOT: 0, Phase.AWAIT_EVENT: 1, Phase.IN_TYPE_LABEL: 2, Phase.IN_TRIGGER_SPAN: 2,
    Phase.AWAIT_ARG: 2, Phase.IN_ROLE_LABEL: 3, Phase.IN_ARG_SPAN: 3, Phase.AWAIT_END: 0,
    Phase.DONE: 0,
}


class _State:
    """One grammar state, interned per ``SchemaTries``.

    It holds the ``DecodeState`` fields other than ``tokens`` and
    ``partial_span``, the label-trie node while a label is spelled out,
    ``tokens``, its legal grammar tokens (structure and label tokens),
    and ``next``, its grammar transitions: each of ``tokens`` to the next
    state.  A state that takes mention tokens from a span-trie node (a
    mention, or a label that may end here) has ``span_next``, the state a
    mention token leads to, which for a non-empty mention is the state
    itself; other states have None.
    """

    __slots__ = ("phase", "depth", "label", "current", "node", "empty", "tokens", "next",
                 "span_next")

    def __init__(self, phase, label, current, node, empty):
        self.phase = phase
        self.depth = _DEPTH[phase]
        self.label = label
        self.current = current
        self.node = node
        # at AWAIT_ROOT and AWAIT_EVENT: the input has no span
        self.empty = empty
        self.tokens: frozenset[str] | None = None  # None once generation has ended
        self.next: dict[str, _State] = {}
        self.span_next: _State | None = None

    def as_view(self, tokens: tuple[str, ...], span: tuple[str, ...]) -> DecodeState:
        return DecodeState(tokens, self.depth, self.phase, self.label, span, self.current)


class _Grammar:
    """The decoding grammar of one ``SchemaTries``, shared by every decode.

    A decode position is a pair: a grammar state, and the span-trie node
    of the mention copied so far (the span trie's root where a mention
    may start, None where no mention token is legal).  Only the states
    depend on the grammar, so the constructor compiles every state
    reachable from ``start`` and ``start_empty``, each with all its
    transitions; ``states`` lists them.  The grammar is a graph of
    states that link to each other, loops included (events, arguments,
    mentions that go on); the tries own it and nothing in it refers back
    to them, so once a schema is dropped the cyclic collector frees it.
    States are interned on their phase, the identity of their label-trie
    node, their event type and a flag: for a mention, whether it is
    still empty; at ``AWAIT_ROOT`` and ``AWAIT_EVENT``, whether the input
    has no span, which forbids opening an event.  Nothing writes to a
    grammar once it is built, so concurrent decoders may share it.  The
    grammar's rules are written here once: ``_compile`` for the grammar
    tokens of a state and ``_transition`` for its transitions.
    """

    def __init__(self, tries: SchemaTries):
        # the tries' parts, not the tries: the tries keep this grammar
        self.type_root = tries.type_trie.root
        self.role_tries = tries.role_tries
        self.states: list[_State] = []
        self._ids: dict[tuple, _State] = {}
        self.start = self._state(Phase.AWAIT_ROOT)
        self.start_empty = self._state(Phase.AWAIT_ROOT, empty=True)
        self.end = self._state(Phase.DONE)
        # the list grows as transitions reach new states; the loop walks those too
        for state in self.states:
            for token in state.tokens or ():
                state.next[token] = self._transition(state, token)

    def _state(self, phase, node=None, current=None, empty=False, label=()) -> _State:
        """A state, compiled if it is new."""
        key = (phase, id(node), current, empty)
        state = self._ids.get(key)
        if state is None:
            state = self._compile(key, phase, node, current, empty, label)
        return state

    def _compile(self, key, phase, node, current, empty, label) -> _State:
        """Intern a new state, then set its legal grammar tokens and its
        ``span_next``."""
        state = self._ids[key] = _State(phase, label, current, node, empty)
        self.states.append(state)
        if phase is Phase.DONE:
            return state
        if phase is Phase.AWAIT_ROOT:
            tokens = frozenset({OPEN})
        elif phase is Phase.AWAIT_EVENT:
            tokens = frozenset({CLOSE} if empty else {CLOSE, OPEN})
        elif phase is Phase.IN_TYPE_LABEL or phase is Phase.IN_ROLE_LABEL:
            tokens = frozenset(node.children)
            if node.is_leaf:
                # the label may end here; a mention token commits it
                if phase is Phase.IN_TYPE_LABEL:
                    state.span_next = self._state(Phase.IN_TRIGGER_SPAN, current=node.label)
                else:
                    state.span_next = self._state(Phase.IN_ARG_SPAN, current=current)
        elif phase is Phase.IN_TRIGGER_SPAN or phase is Phase.IN_ARG_SPAN:
            # a mention token leads to the non-empty mention: this state
            # itself once it is one, since interning comes first
            state.span_next = self._state(phase, current=current)
            if empty:
                tokens = frozenset()
            elif phase is Phase.IN_TRIGGER_SPAN and not self.role_tries[current].is_empty:
                tokens = frozenset({CLOSE, OPEN})
            else:
                tokens = frozenset({CLOSE})
        elif phase is Phase.AWAIT_ARG:
            tokens = frozenset({OPEN, CLOSE})
        else:
            assert phase is Phase.AWAIT_END
            tokens = frozenset({EOS})
        state.tokens = tokens
        return state

    def _transition(self, state: _State, token: str) -> _State:
        """The state after ``token``, one of ``state.tokens`` (label
        commitment as described in ``step``)."""
        phase, current = state.phase, state.current
        if phase is Phase.IN_TYPE_LABEL or phase is Phase.IN_ROLE_LABEL:
            child = state.node.children[token]
            if child.is_leaf and not child.children:
                if phase is Phase.IN_TYPE_LABEL:
                    return self._state(Phase.IN_TRIGGER_SPAN, current=child.label, empty=True)
                return self._state(Phase.IN_ARG_SPAN, current=current, empty=True)
            return self._state(phase, child, current, label=state.label + (token,))
        if phase is Phase.AWAIT_ROOT:
            return self._state(Phase.AWAIT_EVENT, empty=state.empty)
        if token == OPEN:
            if phase is Phase.AWAIT_EVENT:  # an event
                return self._state(Phase.IN_TYPE_LABEL, self.type_root)
            # an argument, after the trigger or another argument
            return self._state(Phase.IN_ROLE_LABEL, self.role_tries[current].root, current)
        if token == CLOSE:
            if phase is Phase.AWAIT_EVENT:  # the root
                return self._state(Phase.AWAIT_END)
            if phase is Phase.IN_ARG_SPAN:  # an argument
                return self._state(Phase.AWAIT_ARG, current=current)
            # an event, after its trigger or its last argument
            return self._state(Phase.AWAIT_EVENT)
        assert phase is Phase.AWAIT_END
        return self._state(Phase.DONE)


def _grammar(tries: SchemaTries) -> _Grammar:
    """The grammar of ``tries``, built on first use and kept on it."""
    # SchemaTries is frozen, so the grammar goes into its __dict__, where
    # repr, equality and pickling do not read it (two from_schema copies
    # compare unequal anyway: TrieNode has no __eq__); setdefault keeps one
    # if two threads race
    kept = vars(tries)
    grammar = kept.get("_grammar")
    if grammar is None:
        grammar = kept.setdefault("_grammar", _Grammar(tries))
    return grammar


def _legal(state: _State, node: Mapping | None) -> frozenset[str]:
    """The tokens legal at a position (see ``candidate_vocab``): the
    state's grammar tokens and the mention tokens of ``node``."""
    tokens = state.tokens
    if tokens is None:
        raise DecodeError("generation has ended; no candidates remain")
    return tokens if node is None else tokens.union(node)


def _move(root: Mapping, state: _State, node, span, token: str):
    """The position and mention span after ``token``, which must be legal:
    a grammar token first (a label goes on rather than end), else a
    mention token."""
    if token in state.tokens:
        state = state.next[token]
        return state, (root if state.span_next is not None else None), ()
    return state.span_next, node[token], span + (token,)


def _view(state: DecodeState, tries: SchemaTries, span_trie: SpanTrie):
    """The grammar of ``tries``, and the position that ``state`` is a view
    of: a grammar state and a node of ``span_trie`` (or None), found by
    replaying its tokens from the start on every call.  The state is
    rejected unless its fields are those of that position.
    """
    grammar = _grammar(tries)
    here = grammar.start_empty if span_trie.is_empty else grammar.start
    node, span = None, ()
    # the end sentinel is not kept in tokens
    for token in (state.tokens + (EOS,)) if state.done else state.tokens:
        if here.tokens is None or token not in here.tokens and not (node and token in node):
            raise DecodeError(f"{state!r} is not a state its tokens lead to")
        here, node, span = _move(span_trie.root, here, node, span, token)
    if here.as_view(state.tokens, span) != state:
        raise DecodeError(f"{state!r} is not a state its tokens lead to")
    return grammar, here, node


def candidate_vocab(
    state: DecodeState, tries: SchemaTries, span_trie: SpanTrie
) -> frozenset[str]:
    """Exactly the tokens legal after ``state``.

    Dead ends are pruned ahead of time: an event is only opened when the
    input supports at least one span, and arguments are only opened for
    event types that permit at least one role.
    """
    _, here, node = _view(state, tries, span_trie)
    return _legal(here, node)


def step(
    state: DecodeState, token: str, tries: SchemaTries, span_trie: SpanTrie
) -> DecodeState:
    """Advance the automaton by one token; the token must be legal.

    Label commitment is greedy-longest: a token that extends the label
    goes on with it, even where a mention token equal to it is legal
    too; the label is committed when a leaf with no children is reached
    or when a mention token takes over, which is legal only where the
    label is complete.  ``delinearize`` reads every sequence this emits
    back to the same labels, but it also reads some that this never
    emits: it falls back to the last complete label where its trie walk
    stops (see ``codec``).
    """
    grammar, here, node = _view(state, tries, span_trie)
    if token not in _legal(here, node):
        raise DecodeError(
            f"token {token!r} is not in the candidate vocabulary "
            f"(phase {state.phase.value}, depth {state.depth})"
        )
    here, node, span = _move(span_trie.root, here, node, state.partial_span, token)
    # the end sentinel is not part of the linearized body
    tokens = state.tokens if here is grammar.end else state.tokens + (token,)
    return here.as_view(tokens, span)


@dataclass(frozen=True, slots=True)
class DecodeResult:
    """A finished decode: the linearized body plus per-step log-probabilities.

    ``logprobs`` has one entry per generated token, end sentinel
    included, so ``len(logprobs) == len(tokens) + 1``.
    """

    tokens: tuple[str, ...]
    logprobs: tuple[float, ...]

    @property
    def total_logprob(self) -> float:
        # a left fold, as beam accumulates its scores
        return _left_fold(self.logprobs)

    @property
    def nll(self) -> float:
        return -self.total_logprob


def _bad_score(token: str, p: float) -> DecodeError:
    return DecodeError(f"scorer produced a non-finite or negative score for {token!r}: {p}")


def _checked_prob(dist: Mapping[str, float], token: str) -> float:
    p = dist.get(token, 0.0)
    if math.isnan(p) or math.isinf(p) or p < 0.0:
        raise _bad_score(token, p)
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
    only the survivors, keeping a sorted list of the ``beam_width`` best
    candidates so far and skipping, before its log, a candidate that
    ties one its hypothesis already dropped and has a larger token (see
    the module docstring; the result is the same).  Both scan a
    position's grammar tokens, then its mention tokens, in one loop; a
    mention token equal to a label token counts once, as the label,
    which beam checks only for a candidate it would keep.  The two differ
    even at width 1: once a step has probability zero every beam score
    is -inf, so beam falls back to token order while greedy still
    follows the current step's probabilities.  The grammar comes from
    ``schema.tries``, built once per schema object, and is compiled once
    for it; only the span trie of ``inp`` is built per call, and only
    for a constrained decode.
    Raises TruncationError when ``max_length`` is hit before the end
    sentinel, or, in constrained greedy mode, already at the first
    repeated step of a scorer that declares ``context_size``; DecodeError
    for a non-finite or negative score, naming the smallest legal token
    that has one (unconstrained: the first such token in the
    distribution's order); ValueError for a declared ``context_size``
    that is not a non-negative int.
    """
    config = config or DecodeConfig()
    context = _context_size(scorer)
    if not config.constrained:
        check_max_span_len(max_span_len)
        return _greedy_unconstrained(scorer, inp, config)
    span_trie = build_span_trie(inp, max_span_len)
    grammar = _grammar(schema.tries)
    if config.mode == "greedy":
        return _greedy(scorer, inp, grammar, span_trie, config, context)
    return _beam(scorer, inp, grammar, span_trie, config)


def _context_size(scorer: Scorer) -> int | None:
    """The scorer's declared ``context_size``, or None if it declares none."""
    size = getattr(scorer, "context_size", None)
    if size is not None and (not isinstance(size, int) or isinstance(size, bool) or size < 0):
        raise ValueError(
            f"{type(scorer).__name__}.context_size must be a non-negative int, got {size!r}"
        )
    return size


def _truncated(config: DecodeConfig) -> TruncationError:
    return TruncationError(f"no end sentinel within max_length={config.max_length} tokens")


def _raise_first_bad(dist: Mapping[str, float], state: _State, node) -> None:
    """Raise for the smallest legal token, in sorted order, whose score
    is non-finite or negative; the search loops call this once they have
    seen such a score, whatever order they met it in."""
    for token in sorted(_legal(state, node)):
        _checked_prob(dist, token)


def _greedy(
    scorer: Scorer, inp: TokenizedInput, grammar: _Grammar, span_trie: SpanTrie,
    config: DecodeConfig, context: int | None,
) -> DecodeResult:
    end, root = grammar.end, span_trie.root
    state = grammar.start_empty if span_trie.is_empty else grammar.start
    node = None
    prefix: list[str] = [BOS]
    logprobs: list[float] = []
    # (state, id(node), last `context` tokens) of every step taken so far
    seen = None if context is None else set()
    while state is not end:
        if len(prefix) >= config.max_length:
            raise _truncated(config)
        query = tuple(prefix)
        if seen is not None:
            key = (state, id(node), query[-context:] if context else ())
            if key in seen:  # a cycle that never reaches the end
                raise _truncated(config)
            seen.add(key)
        dist = scorer.next_distribution(inp, query)
        # the smallest (-p, token) over the grammar tokens, then the
        # mention tokens; a mention token equal to a label token ties it
        # and never beats it, so the label goes on, as in step
        tokens = state.tokens
        chosen, best = None, -1.0
        for token in chain(tokens, node) if node else tokens:
            p = dist.get(token, 0.0)
            if not 0.0 <= p < inf:  # also false for NaN
                _raise_first_bad(dist, state, node)
            if p > best or (p == best and token < chosen):
                chosen, best = token, p
        logprobs.append(log(best) if best > 0.0 else -inf)
        if chosen in tokens:
            state = state.next[chosen]
            node = root if state.span_next is not None else None
        else:
            state, node = state.span_next, node[chosen]
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
            raise _truncated(config)
        # the smallest (-p, token) in one pass over the items, raising for
        # the first bad score in the distribution's order
        chosen, best = None, -1.0
        for token, p in scorer.next_distribution(inp, tuple(prefix)).items():
            if not 0.0 <= p < inf:  # also false for NaN
                raise _bad_score(token, p)
            if p > best or (p == best and token < chosen):
                chosen, best = token, p
        if chosen is None:
            raise DecodeError("scorer returned an empty distribution")
        logprobs.append(log(best) if best > 0.0 else -inf)
        prefix.append(chosen)
        if chosen == EOS:
            return DecodeResult(tuple(prefix[1:-1]), tuple(logprobs))


def _beam(
    scorer: Scorer, inp: TokenizedInput, grammar: _Grammar, span_trie: SpanTrie,
    config: DecodeConfig,
) -> DecodeResult:
    end, root, width = grammar.end, span_trie.root, config.beam_width
    start = grammar.start_empty if span_trie.is_empty else grammar.start
    # a hypothesis is (-score, prefix, logprobs, state, node): its score is
    # ((0.0 + lp1) + lp2) + ..., kept as the prefix and logprobs grow
    live = [(-0.0, (BOS,), (), start, None)]
    completed = []
    while live:
        if completed:
            best_done = min(hyp[0] for hyp in completed)
            # per-step log-probs are <= 0, so live scores cannot recover
            if all(hyp[0] >= best_done for hyp in live):
                break
        if len(live[0][1]) >= config.max_length:
            break  # live prefixes share one length; none can finish
        # Score every legal continuation, advance only the survivors.  All
        # live prefixes have the same length, so (-score, prefix, token)
        # orders as (-score, prefix + (token,)) does; (prefix, token) is
        # unique, so the trailing fields never take part in a comparison.
        # `scored` holds the width smallest candidates so far, sorted, and
        # `bar` the key of its last once it is full (see the module
        # docstring).  A candidate not kept is remembered by its p and its
        # token ("" when its key exceeded the bar): a later one of this
        # hypothesis with the same p and a larger token sorts after it, so
        # it is skipped before its log.  The grammar tokens come first,
        # then the mention tokens.
        scored = []
        bar = inf
        for i, (neg_score, prefix, _, state, node) in enumerate(live):
            dist = scorer.next_distribution(inp, prefix)
            score, tokens = -neg_score, state.tokens
            dropped_p, dropped_token = -1.0, ""
            for source in (tokens, node) if node else (tokens,):
                for token in source:
                    p = dist.get(token, 0.0)
                    if not 0.0 <= p < inf:  # also false for NaN
                        _raise_first_bad(dist, state, node)
                    if p == dropped_p and token > dropped_token:
                        continue
                    lp = log(p) if p > 0.0 else -inf
                    key = -(score + lp)
                    if key > bar:
                        dropped_p, dropped_token = p, ""
                        continue
                    if source is node and token in tokens:
                        continue  # a label token's second copy: the label goes on
                    cand = (key, prefix, token, i, lp)
                    if len(scored) == width:
                        if not cand < scored[-1]:
                            dropped_p, dropped_token = p, token
                            continue
                        scored.pop()
                    insort(scored, cand)
                    if len(scored) == width:
                        bar = scored[-1][0]
        parents = live
        live = []
        for neg_score, prefix, token, i, lp in scored:
            _, _, logprobs, state, node = parents[i]
            if token in state.tokens:
                state = state.next[token]
                node = root if state.span_next is not None else None
            else:
                state, node = state.span_next, node[token]
            hyp = (neg_score, prefix + (token,), logprobs + (lp,), state, node)
            (completed if state is end else live).append(hyp)
    if not completed:
        raise TruncationError(
            f"no hypothesis finished within max_length={config.max_length} tokens"
        )
    # the best score, ties going to the smaller prefix
    _, prefix, logprobs, _, _ = min(completed, key=lambda hyp: hyp[:2])
    # drop the sentinels
    return DecodeResult(prefix[1:-1], logprobs)


def decode_batch(
    scorer: Scorer | Sequence[Scorer],
    inputs: Sequence[TokenizedInput],
    schema: EventSchema,
    config: DecodeConfig | None = None,
    max_span_len: int = DEFAULT_MAX_SPAN_LEN,
) -> list[DecodeResult | DecodeError]:
    """Decode several inputs, preserving order.

    ``scorer`` may be one shared scorer or one scorer per input.  Each
    entry is that input's DecodeResult or the DecodeError it raised, so
    one failed item never discards the others; ValueErrors propagate.
    """
    if hasattr(scorer, "next_distribution"):
        scorers = [scorer] * len(inputs)
    else:
        scorers = list(scorer)
        if len(scorers) != len(inputs):
            raise ValueError(f"got {len(scorers)} scorers for {len(inputs)} inputs")
    outcomes: list[DecodeResult | DecodeError] = []
    for one, inp in zip(scorers, inputs):
        try:
            outcomes.append(constrained_decode(one, inp, schema, config, max_span_len))
        except DecodeError as err:
            outcomes.append(err)
    return outcomes


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
