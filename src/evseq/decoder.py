"""Grammar-constrained decoding over the parenthesized event format.

A pushdown automaton tracks where in the event grammar the generated
prefix sits.  Its legal next tokens come from the automaton phase, the
schema label tries, and the span trie of the input sentence; the
scorer's distribution is consulted only on those tokens, so any scorer
(even an adversarial one) yields a sequence that parses, names only
schema labels, and copies mentions verbatim from the input.

Candidate probabilities are the scorer's raw values: masking never
renormalizes, and scores accumulate in log domain.

The decoding grammar depends on the schema alone, so it is compiled once
per ``SchemaTries`` object (``EventSchema.tries`` is one per schema) and
shared by every sentence, a state→allowed-token index in the manner of
Willard & Louf (2023).  Its states sit in a list, compiled on first use;
a state holds its phase, its label-trie node and event type, its legal
structure and label tokens as a frozenset built once, a token→next-state-id
table filled on first use, and the id of the state a copied mention token
leads to.  Transitions are ids, not states, so states never reference
each other.  Mention tokens are not in the grammar: they are the keys of
a node of the input's span trie, the only structure built per sentence.
A decode position is therefore a pair, a grammar state and a span-trie
node (None where no mention token is legal); a grammar token steps to
``state.next[token]`` (and the span trie's root, if mention tokens may
follow), a mention token to ``state.span_next`` and the node's child.  Greedy and beam search walk
these pairs and keep only the emitted prefix themselves;
``DecodeState``, ``candidate_vocab`` and ``step`` are views on the same
pairs.  Beam search scores before it advances: each live hypothesis keeps
a running score, every legal token is scored as that score plus its
log-probability, and only the ``beam_width`` survivors are stepped.
Greedy search is kept separate from beam width 1 because the two break
ties differently (see ``constrained_decode``).

A scorer may declare ``context_size``, the number of trailing prefix
tokens its distributions read besides the input.  Each greedy step is
then a deterministic function of the triple (grammar state, span-trie
node, last ``context_size`` tokens): the triple fixes the distribution,
hence the chosen token, hence the next triple.  So once a triple
repeats, the decode is in a cycle, and since the end state stops the
loop, no triple in the cycle is the end: the decode could only run on
to ``max_length``.  Greedy raises that ``TruncationError``, with the
same message, at the first repeat.  Beam search does not stop early: a
hypothesis's accumulated score is part of its state, and it never
repeats, and unconstrained greedy decoding always runs to
``max_length``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from math import inf, log
from operator import add
from threading import RLock
from typing import Mapping, Protocol, Sequence

from .schema import EventSchema, SchemaTries
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
    scorer can return one memoized dict for many prefixes.

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


_DEPTH = {
    _AWAIT_ROOT: 0, _AWAIT_EVENT: 1, _IN_TYPE_LABEL: 2, _IN_TRIGGER_SPAN: 2, _AWAIT_ARG: 2,
    _IN_ROLE_LABEL: 3, _IN_ARG_SPAN: 3, _AWAIT_END: 0, _DONE: 0,
}


class _State:
    """One grammar state, interned per ``SchemaTries``.

    It holds the ``DecodeState`` fields other than ``tokens`` and
    ``partial_span``, the label-trie node while a label is spelled out,
    ``tokens``, its legal grammar tokens (structure and label tokens,
    built once), and ``next``, the grammar transitions taken so far:
    token to the next state's id in ``_Grammar.states``.  A state that
    takes mention tokens from a span-trie node (a mention, or a label
    that may end here) has ``span_next``, the id of the state a mention
    token leads to; other states have None.
    """

    __slots__ = ("phase", "depth", "label", "current", "node", "empty", "tokens", "next",
                 "span_next")

    def __init__(self, phase, label, current, node, empty, tokens, span_next):
        self.phase = phase
        self.depth = _DEPTH[phase]
        self.label = label
        self.current = current
        self.node = node
        # at AWAIT_ROOT and AWAIT_EVENT: the input has no span
        self.empty = empty
        self.tokens = tokens  # None once generation has ended
        self.next: dict[str, int] = {}
        self.span_next = span_next

    def as_view(self, tokens: tuple[str, ...], span: tuple[str, ...]) -> DecodeState:
        return DecodeState(tokens, self.depth, self.phase, self.label, span, self.current)


class _Grammar:
    """The decoding grammar of one ``SchemaTries``, shared by every decode.

    A decode position is a pair: a grammar state, and the span-trie node
    of the mention copied so far (the span trie's root where a mention
    may start, None where no mention token is legal).  Only the states
    depend on the grammar, so they are compiled on first use into
    ``states``, a state's id being its index there, and kept for every
    later input.  They are interned on the identities of their phase and
    label-trie node, on their event type and on a flag: for a mention,
    whether it is still empty; at ``AWAIT_ROOT`` and ``AWAIT_EVENT``,
    whether the input has no span, which forbids opening an event.
    Compiling takes a lock, so concurrent decoders may share a grammar.
    The grammar's rules are written here once: ``_compile`` for the
    grammar tokens of a state and ``advance`` for its transitions.
    """

    def __init__(self, tries: SchemaTries):
        # the tries' parts, not the tries: the tries keep this grammar
        self.type_root = tries.type_trie.root
        self.role_tries = tries.role_tries
        self.states: list[_State] = []
        self._ids: dict[tuple, int] = {}
        self._lock = RLock()
        self.start = self.states[self._state(_AWAIT_ROOT)]
        self.start_empty = self.states[self._state(_AWAIT_ROOT, empty=True)]
        self.end = self.states[self._state(_DONE)]

    def _state(self, phase, node=None, current=None, empty=False, label=()) -> int:
        """The id of a state, compiled if it is new."""
        # ids, not the Phase member: an Enum member hashes in Python code
        key = (id(phase), id(node), current, empty)
        i = self._ids.get(key)
        if i is None:
            with self._lock:
                i = self._ids.get(key)
                if i is None:
                    i = self._compile(key, phase, node, current, empty, label)
        return i

    def _compile(self, key, phase, node, current, empty, label) -> int:
        """Append a new state; its legal tokens are the grammar part of
        ``_legal``, built with the same expressions."""
        span_next = None
        if phase is _DONE:
            tokens = None
        elif phase is _AWAIT_ROOT:
            tokens = frozenset({OPEN})
        elif phase is _AWAIT_EVENT:
            cands = {CLOSE}
            if not empty:
                cands.add(OPEN)
            tokens = frozenset(cands)
        elif phase is _IN_TYPE_LABEL or phase is _IN_ROLE_LABEL:
            tokens = frozenset(set(node.children))
            if node.is_leaf:
                # the label may end here; a mention token commits it
                if phase is _IN_TYPE_LABEL:
                    span_next = self._state(_IN_TRIGGER_SPAN, current=node.label)
                else:
                    span_next = self._state(_IN_ARG_SPAN, current=current)
        elif phase is _IN_TRIGGER_SPAN or phase is _IN_ARG_SPAN:
            if empty:
                tokens = frozenset()
                span_next = self._state(phase, current=current)
            else:
                cands = {CLOSE}
                if phase is _IN_TRIGGER_SPAN and not self.role_tries[current].is_empty:
                    cands.add(OPEN)
                tokens = frozenset(cands)
                span_next = len(self.states)  # this state: the mention goes on
        elif phase is _AWAIT_ARG:
            tokens = frozenset({OPEN, CLOSE})
        else:
            assert phase is _AWAIT_END
            tokens = frozenset({EOS})
        # published in _ids once it is in states: readers take no lock
        self.states.append(_State(phase, label, current, node, empty, tokens, span_next))
        i = self._ids[key] = len(self.states) - 1
        return i

    def advance(self, state: _State, token: str) -> _State:
        """The state after ``token``, one of ``state.tokens`` (label
        commitment as described in ``step``); computed once, then kept in
        ``state.next`` by id."""
        phase, current = state.phase, state.current
        if phase is _IN_TYPE_LABEL or phase is _IN_ROLE_LABEL:
            child = state.node.children[token]
            if child.is_leaf and not child.children:
                if phase is _IN_TYPE_LABEL:
                    nxt = self._state(_IN_TRIGGER_SPAN, current=child.label, empty=True)
                else:
                    nxt = self._state(_IN_ARG_SPAN, current=current, empty=True)
            else:
                nxt = self._state(phase, child, current, label=state.label + (token,))
        elif phase is _AWAIT_ROOT:
            nxt = self._state(_AWAIT_EVENT, empty=state.empty)
        elif token == OPEN:
            if phase is _AWAIT_EVENT:  # an event
                nxt = self._state(_IN_TYPE_LABEL, self.type_root)
            else:  # an argument, after the trigger or another argument
                nxt = self._state(_IN_ROLE_LABEL, self.role_tries[current].root, current)
        elif token == CLOSE:
            if phase is _AWAIT_EVENT:  # the root
                nxt = self._state(_AWAIT_END)
            elif phase is _IN_ARG_SPAN:  # an argument
                nxt = self._state(_AWAIT_ARG, current=current)
            else:  # an event, after its trigger or its last argument
                nxt = self._state(_AWAIT_EVENT)
        else:
            assert phase is _AWAIT_END
            nxt = self._state(_DONE)
        state.next[token] = nxt
        return self.states[nxt]


def _grammar(tries: SchemaTries) -> _Grammar:
    """The grammar of ``tries``, compiled on first use and kept on it."""
    # SchemaTries is frozen, so the grammar goes into its __dict__ (equality
    # and repr read the fields only); setdefault keeps one if two threads race
    kept = vars(tries)
    grammar = kept.get("_grammar")
    if grammar is None:
        grammar = kept.setdefault("_grammar", _Grammar(tries))
    return grammar


def _legal(state: _State, node: Mapping | None) -> frozenset[str]:
    """The tokens legal at a position (see ``candidate_vocab``).  Each set
    is built with the expressions of the phase-by-phase reference in
    ``tests/oracles.py``, so iteration orders agree too: the first-bad-value
    error of the search loops follows this order."""
    tokens = state.tokens
    if tokens is None:
        raise DecodeError("generation has ended; no candidates remain")
    if node is None:
        return tokens
    if state.node is not None:  # a label that may end here
        cands = set(state.node.children)
        cands |= frozenset(node)
    else:  # a mention
        cands = set(frozenset(node))
        for token in (CLOSE, OPEN):
            if token in tokens:
                cands.add(token)
    return frozenset(cands)


def _move(grammar: _Grammar, root: Mapping, state: _State, node, span, token: str):
    """The position and mention span after ``token``, which must be legal:
    a grammar token first (a label goes on rather than end), else a
    mention token."""
    if token in state.tokens:
        nxt = state.next.get(token)
        state = grammar.states[nxt] if nxt is not None else grammar.advance(state, token)
        return state, (root if state.span_next is not None else None), ()
    return grammar.states[state.span_next], node[token], span + (token,)


def _view(state: DecodeState, tries: SchemaTries, span_trie: SpanTrie):
    """The grammar of ``tries``, and the position that ``state`` is a view
    of: a grammar state and a node of ``span_trie`` (or None).

    A ``DecodeState`` carries its position outside its fields (so
    equality and repr ignore it), bound to ``tries`` and ``span_trie``.
    A state that carries none for these objects is located by replaying
    its tokens from the start, and rejected unless its fields are those
    of the position they reach.
    """
    grammar = _grammar(tries)
    bound = getattr(state, "_view", None)
    if bound is not None and bound[0] is tries and bound[1] is span_trie:
        return grammar, bound[2], bound[3]
    here = grammar.start_empty if span_trie.is_empty else grammar.start
    node, span = None, ()
    # the end sentinel is not kept in tokens
    for token in (state.tokens + (EOS,)) if state.done else state.tokens:
        if here.tokens is None or token not in here.tokens and not (node and token in node):
            raise DecodeError(f"{state!r} is not a state its tokens lead to")
        here, node, span = _move(grammar, span_trie.root, here, node, span, token)
    if here.as_view(state.tokens, span) != state:
        raise DecodeError(f"{state!r} is not a state its tokens lead to")
    object.__setattr__(state, "_view", (tries, span_trie, here, node))
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

    Label commitment is greedy-longest: while the consumed tokens can
    still extend a longer label, the walk continues; the label is
    committed when a leaf with no children is reached or when a span
    token takes over.  This mirrors how ``delinearize`` reads sequences
    back, so decoder and parser always agree on label boundaries.
    """
    grammar, here, node = _view(state, tries, span_trie)
    # a grammar token (``_legal`` raises once generation has ended) or a
    # mention token, checked without building the legal set
    if token not in _legal(here, None) and not (node and token in node):
        raise DecodeError(
            f"token {token!r} is not in the candidate vocabulary "
            f"(phase {state.phase.value}, depth {state.depth})"
        )
    here, node, span = _move(grammar, span_trie.root, here, node, state.partial_span, token)
    # the end sentinel is not part of the linearized body
    tokens = state.tokens if here is grammar.end else state.tokens + (token,)
    out = here.as_view(tokens, span)
    object.__setattr__(out, "_view", (tries, span_trie, here, node))
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
    only the survivors.  The two differ even at width 1: once a step has
    probability zero every beam score is -inf, so beam falls back to
    token order while greedy still follows the current step's
    probabilities.  The grammar comes from ``schema.tries``, built once
    per schema object, and is compiled once for it; only the span trie
    of ``inp`` is built per call, and only for a constrained decode.
    Raises TruncationError when ``max_length`` is hit before the end
    sentinel, or, in constrained greedy mode, already at the first
    repeated step of a scorer that declares ``context_size``; ValueError
    for a declared ``context_size`` that is not a non-negative int.
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
    """Raise for the first token, in ``candidate_vocab`` order, whose
    score is non-finite or negative; the search loops call this once
    they have seen such a score."""
    for token in _legal(state, node):
        _checked_prob(dist, token)


def _greedy(
    scorer: Scorer, inp: TokenizedInput, grammar: _Grammar, span_trie: SpanTrie,
    config: DecodeConfig, context: int | None,
) -> DecodeResult:
    states, end, root = grammar.states, grammar.end, span_trie.root
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
        # mention tokens; a mention token equal to a label token never
        # beats it, so the label goes on, as in step
        chosen, best, copied = None, -1.0, False
        for token in state.tokens:
            p = dist.get(token, 0.0)
            if not 0.0 <= p < inf:  # also false for NaN
                _raise_first_bad(dist, state, node)
            if p > best or (p == best and token < chosen):
                chosen, best = token, p
        if node:
            for token in node:
                p = dist.get(token, 0.0)
                if not 0.0 <= p < inf:
                    _raise_first_bad(dist, state, node)
                if p > best or (p == best and token < chosen):
                    chosen, best, copied = token, p, True
        logprobs.append(log(best) if best > 0.0 else -inf)
        if copied:
            state, node = states[state.span_next], node[chosen]
        else:
            nxt = state.next.get(chosen)
            state = states[nxt] if nxt is not None else grammar.advance(state, chosen)
            node = root if state.span_next is not None else None
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
    """A beam hypothesis at a decode position (grammar state and span
    node); its log-probabilities are read back through ``parent`` links,
    so extending one copies no history."""

    __slots__ = ("state", "node", "prefix", "score", "logprob", "parent")

    def __init__(self, state, node, prefix, score=0.0, logprob=0.0, parent=None):
        self.state = state
        self.node = node
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
    scorer: Scorer, inp: TokenizedInput, grammar: _Grammar, span_trie: SpanTrie,
    config: DecodeConfig,
) -> DecodeResult:
    states, end, root = grammar.states, grammar.end, span_trie.root
    start = grammar.start_empty if span_trie.is_empty else grammar.start
    live = [_Hyp(start, None, (BOS,))]
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
            score, prefix, state, node = hyp.score, hyp.prefix, hyp.state, hyp.node
            tokens = state.tokens
            for token in tokens:
                p = dist.get(token, 0.0)
                if not 0.0 <= p < inf:  # also false for NaN
                    _raise_first_bad(dist, state, node)
                lp = log(p) if p > 0.0 else -inf
                scored.append((-(score + lp), prefix, token, i, lp))
            if node:
                for token in node:
                    if token in tokens:
                        continue  # a label token, scored above: the label goes on
                    p = dist.get(token, 0.0)
                    if not 0.0 <= p < inf:
                        _raise_first_bad(dist, state, node)
                    lp = log(p) if p > 0.0 else -inf
                    scored.append((-(score + lp), prefix, token, i, lp))
        parents = live
        live = []
        for neg_score, prefix, token, i, lp in heapq.nsmallest(config.beam_width, scored):
            parent = parents[i]
            state = parent.state
            if token in state.tokens:
                nxt = state.next.get(token)
                state = states[nxt] if nxt is not None else grammar.advance(state, token)
                node = root if state.span_next is not None else None
            else:
                state, node = states[state.span_next], parent.node[token]
            hyp = _Hyp(state, node, prefix + (token,), -neg_score, lp, parent)
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
