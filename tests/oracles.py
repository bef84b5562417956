"""Independent reference implementations and random generators for tests.

Everything here deliberately avoids the library's own algorithms: spans
are enumerated by brute force, one-to-one matching is exhaustive search,
and the grammar language of tiny instances is expanded from the format
definition directly.  Where a library result is checked against one of
these, both sides were written separately on purpose.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add, truediv
from typing import Sequence

from evseq import (
    BOS,
    CLOSE,
    EOS,
    OPEN,
    Argument,
    DecodeConfig,
    DecodeError,
    DecodeResult,
    DecodeState,
    EventRecord,
    EventSchema,
    Mention,
    Phase,
    SchemaTries,
    SpanTrie,
    TokenizedInput,
    TruncationError,
    build_span_trie,
    candidate_vocab,
    step,
)


def contiguous_subsequences(tokens: Sequence[str], max_len: int) -> set[tuple[str, ...]]:
    """Every contiguous subsequence of length 1..max_len, by brute force."""
    out = set()
    for i in range(len(tokens)):
        for j in range(i + 1, min(i + max_len, len(tokens)) + 1):
            out.add(tuple(tokens[i:j]))
    return out


def max_one_to_one_matches(gold: list[tuple], pred: list[tuple]) -> int:
    """Size of the best one-to-one equality matching, by exhaustive search.

    Branches once per distinct gold key (equal gold items are
    interchangeable) and prunes branches that cannot beat the best found.
    """
    used = [False] * len(gold)
    best = 0

    def rec(i: int, count: int) -> None:
        nonlocal best
        best = max(best, count)
        if i == len(pred) or count + (len(pred) - i) <= best:
            return
        rec(i + 1, count)
        seen = set()
        for j, g in enumerate(gold):
            if used[j] or g != pred[i] or g in seen:
                continue
            seen.add(g)
            used[j] = True
            rec(i + 1, count + 1)
            used[j] = False

    rec(0, 0)
    return best


def _label_tokens(name: str) -> tuple[str, ...]:
    return tuple(name.replace("-", " ").split())


def enumerate_language(
    schema: EventSchema,
    input_tokens: Sequence[str],
    max_span_len: int,
    max_len: int,
) -> set[tuple[str, ...]]:
    """All valid linearized bodies up to max_len tokens, from first principles.

    Expands the format definition directly: a root wrapping zero or more
    events, each event an open, type label tokens, a trigger span, zero
    or more (role, span) arguments, and a close.  Spans range over the
    contiguous subsequences of the input.  Only practical for tiny
    schemas and inputs.
    """
    spans = sorted(contiguous_subsequences(input_tokens, max_span_len))

    def args_star(event_type: str, budget: int):
        yield ()
        for role in schema.roles(event_type):
            role_toks = _label_tokens(role)
            for span in spans:
                arg = ("(",) + role_toks + span + (")",)
                if len(arg) > budget:
                    continue
                for rest in args_star(event_type, budget - len(arg)):
                    yield arg + rest

    def one_event(budget: int):
        for event_type in schema.types:
            type_toks = _label_tokens(event_type)
            for span in spans:
                head = ("(",) + type_toks + span
                room = budget - len(head) - 1
                if room < 0:
                    continue
                for args in args_star(event_type, room):
                    yield head + args + (")",)

    def events_star(budget: int):
        yield ()
        for event in one_event(budget):
            for rest in events_star(budget - len(event)):
                yield event + rest

    return {("(",) + body + (")",) for body in events_star(max_len - 2)}


_SYLLABLES = [c + v for c in "BCDFGHJKLMNPRSTVWZ" for v in "aeou"]
_WORDS = [
    c + v + t
    for c in "bdfgklmnprstvz"
    for v in "aeiou"
    for t in ("m", "r", "sh")
]


def _fresh_label(rng: random.Random, labels: set, prefixes: set) -> str:
    """A label whose token tuple neither prefixes nor extends an existing one."""
    while True:
        arity = 1 if rng.random() < 0.6 else rng.randint(2, 3)
        toks = tuple(
            rng.choice(_SYLLABLES) + str(rng.randint(0, 9)) for _ in range(arity)
        )
        if toks in labels or toks in prefixes:
            continue
        if any(toks[:i] in labels for i in range(1, len(toks))):
            continue
        labels.add(toks)
        prefixes.update(toks[:i] for i in range(1, len(toks)))
        return "-".join(toks)


def random_schema(
    rng: random.Random,
    max_types: int = 40,
    max_roles: int = 8,
) -> EventSchema:
    """Random schema with prefix-free label tries (types, and roles per type)."""
    type_labels: set = set()
    type_prefixes: set = set()
    event_types = {}
    for _ in range(rng.randint(1, max_types)):
        type_name = _fresh_label(rng, type_labels, type_prefixes)
        role_labels: set = set()
        role_prefixes: set = set()
        roles = tuple(
            _fresh_label(rng, role_labels, role_prefixes)
            for _ in range(rng.randint(0, max_roles))
        )
        event_types[type_name] = roles
    return EventSchema(event_types)


def random_mention_text(rng: random.Random, max_tokens: int = 2) -> str:
    return " ".join(
        rng.choice(_WORDS) for _ in range(rng.randint(1, max_tokens))
    )


def random_record_set(
    rng: random.Random,
    schema: EventSchema,
    max_records: int = 5,
    max_args: int = 4,
) -> list[EventRecord]:
    """Schema-valid records with offsets, already in canonical sibling order.

    Trigger offsets strictly increase across records and argument offsets
    strictly increase within a record, so the list order is exactly the
    order linearization would choose.  Roles may repeat within a record.
    """
    records = []
    cursor = 0
    for _ in range(rng.randint(0, max_records)):
        event_type = rng.choice(schema.types)
        cursor += rng.randint(1, 3)
        trigger_text = random_mention_text(rng)
        trigger = Mention(trigger_text, cursor)
        cursor += len(trigger_text.split())
        roles = schema.roles(event_type)
        args = []
        arg_cursor = rng.randint(0, 3)
        if roles:
            for _ in range(rng.randint(0, max_args)):
                text = random_mention_text(rng)
                args.append(Argument(rng.choice(roles), Mention(text, arg_cursor)))
                arg_cursor += len(text.split()) + rng.randint(1, 2)
        records.append(EventRecord(event_type, trigger, tuple(args)))
    return records


def erase_offsets(records: Sequence[EventRecord]) -> tuple[EventRecord, ...]:
    return tuple(
        EventRecord(
            r.type,
            Mention(r.trigger.text),
            tuple(Argument(a.role, Mention(a.mention.text)) for a in r.args),
        )
        for r in records
    )


def random_eval_records(
    rng: random.Random, max_records: int = 6
) -> list[EventRecord]:
    """Grounded records over a tiny key space, to force matching collisions."""
    records = []
    for _ in range(rng.randint(0, max_records)):
        event_type = rng.choice(("EvA", "EvB"))
        start = rng.randint(0, 5)
        trigger = Mention(" ".join(["w"] * rng.randint(1, 2)), start)
        args = []
        for _ in range(rng.randint(0, 2)):
            a_start = rng.randint(0, 5)
            mention = Mention(" ".join(["v"] * rng.randint(1, 2)), a_start)
            args.append(Argument(rng.choice(("RoleX", "RoleY")), mention))
        records.append(EventRecord(event_type, trigger, tuple(args)))
    return records


@dataclass(frozen=True)
class _Hyp:
    state: DecodeState
    prefix: tuple[str, ...]
    logprobs: tuple[float, ...] = ()

    @property
    def score(self) -> float:
        # left to right, as sum() adds floats before Python 3.12
        total = 0.0
        for lp in self.logprobs:
            total += lp
        return total


def _checked_prob(dist, token: str) -> float:
    p = dist.get(token, 0.0)
    if math.isnan(p) or math.isinf(p) or p < 0.0:
        raise DecodeError(f"scorer produced a non-finite or negative score for {token!r}: {p}")
    return p


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else float("-inf")


def reference_beam(
    scorer, inp: TokenizedInput, schema: EventSchema, config: DecodeConfig
) -> DecodeResult:
    """Expand-everything beam search, the specification of beam mode.

    Every legal continuation of every live hypothesis becomes a full
    hypothesis (a stepped automaton state and a re-summed score); all of
    them are sorted by (-score, prefix) and the first ``beam_width`` are
    kept.  Finished hypotheses stop the search once no live one scores
    above the best of them.  The automaton itself (``candidate_vocab``,
    ``step``) is the library's; only the search is independent.
    """
    tries = SchemaTries.from_schema(schema)
    span_trie = build_span_trie(inp)
    live = [_Hyp(DecodeState(), (BOS,))]
    completed: list[_Hyp] = []
    while live:
        if completed:
            best_done = max(h.score for h in completed)
            if all(h.score <= best_done for h in live):
                break
        expansions: list[_Hyp] = []
        for hyp in live:
            if len(hyp.prefix) >= config.max_length:
                continue
            dist = scorer.next_distribution(inp, hyp.prefix)
            for token in candidate_vocab(hyp.state, tries, span_trie):
                lp = _log(_checked_prob(dist, token))
                expansions.append(
                    _Hyp(
                        step(hyp.state, token, tries, span_trie),
                        hyp.prefix + (token,),
                        hyp.logprobs + (lp,),
                    )
                )
        expansions.sort(key=lambda h: (-h.score, h.prefix))
        live = []
        for hyp in expansions[: config.beam_width]:
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


def reference_greedy(
    scorer, inp: TokenizedInput, schema: EventSchema, config: DecodeConfig
) -> DecodeResult:
    """Greedy search as specified: at every step the legal token with the
    smallest (-probability, token), every candidate checked in set order
    before one is chosen.  Raises TruncationError at ``max_length``.
    """
    tries = SchemaTries.from_schema(schema)
    span_trie = build_span_trie(inp)
    state = DecodeState()
    prefix = [BOS]
    logprobs: list[float] = []
    while not state.done:
        if len(prefix) >= config.max_length:
            raise TruncationError(
                f"no end sentinel within max_length={config.max_length} tokens"
            )
        dist = scorer.next_distribution(inp, tuple(prefix))
        cands = candidate_vocab(state, tries, span_trie)
        chosen = min(cands, key=lambda t: (-_checked_prob(dist, t), t))
        logprobs.append(_log(_checked_prob(dist, chosen)))
        state = step(state, chosen, tries, span_trie)
        prefix.append(chosen)
    return DecodeResult(state.tokens, tuple(logprobs))


def reference_candidate_vocab(
    state: DecodeState, tries: SchemaTries, span_trie: SpanTrie
) -> frozenset[str]:
    """The legal-token rules written as a ladder over the phases,
    recomputed from the trie roots at every call.

    Each set is built with the same expressions, in the same order, as
    the library's compiled automaton, so iteration orders agree too.
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


def reference_step(
    state: DecodeState, token: str, tries: SchemaTries, span_trie: SpanTrie
) -> DecodeState:
    """One automaton step written as a ladder over the phases, copying
    the token prefix into every new state; labels commit greedy-longest."""
    if token not in reference_candidate_vocab(state, tries, span_trie):
        raise DecodeError(f"token {token!r} is not in the candidate vocabulary")
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
        return _reference_label_step(state, token, tokens, tries.type_trie, Phase.IN_TRIGGER_SPAN)
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
        return _reference_label_step(state, token, tokens, trie, Phase.IN_ARG_SPAN)
    if phase is Phase.IN_ARG_SPAN:
        if token == CLOSE:
            return DecodeState(tokens, 2, Phase.AWAIT_ARG, label, (), current)
        return DecodeState(tokens, state.depth, phase, label, span + (token,), current)
    assert phase is Phase.AWAIT_END
    # the end sentinel is not part of the linearized body
    return DecodeState(state.tokens, state.depth, Phase.DONE, label, span, current)


def _reference_label_step(state, token, tokens, trie, span_phase) -> DecodeState:
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


class Undeclared:
    """Forwards to a scorer, counting the calls, and declares no
    ``context_size``, so a greedy decode runs without early stop."""

    def __init__(self, base):
        self.base = base
        self.calls = 0

    def next_distribution(self, inp, prefix):
        self.calls += 1
        return self.base.next_distribution(inp, prefix)


def _ngram_table(scorer, prefix: Sequence[str]) -> dict:
    """The longest context's count table with any counts, backing off to
    the unigram table."""
    for k in range(min(scorer.order, len(prefix) + 1), 1, -1):
        found = scorer.counts.get(k, {}).get(tuple(prefix[len(prefix) - (k - 1):]))
        if found:
            return found
    return scorer.counts.get(1, {}).get((), {})


def reference_ngram_distribution(scorer, inp: TokenizedInput, prefix: Sequence[str]) -> dict:
    """An n-gram distribution by its definition, one token at a time.

    The longest context with counts is used, backing off to the unigram
    table; over sorted ``vocab | input tokens`` each score is
    (count + alpha), times ``copy_boost`` for input tokens, and the
    scores are divided by their sum taken left to right.
    """
    table = _ngram_table(scorer, prefix)
    scores = {}
    total = 0.0
    for token in sorted(scorer.vocab | set(inp.tokens)):
        s = table.get(token, 0) + scorer.alpha
        if token in inp.tokens:
            s *= scorer.copy_boost
        scores[token] = s
        total += s
    return {token: s / total for token, s in scores.items()}


def reference_next_distribution(scorer, inp: TokenizedInput, prefix: Sequence[str]) -> dict:
    """An n-gram distribution by the dense formula: the table looked up
    for every token of sorted ``vocab | input tokens``, alpha added to
    every count, the input's tokens boosted, the scores summed by a left
    fold and each divided by the sum, all over the whole support."""
    table = _ngram_table(scorer, prefix)
    support = sorted(scorer.vocab | inp.token_set)
    scores = list(map(add, map(table.get, support, repeat(0)), repeat(scorer.alpha)))
    for i, token in enumerate(support):
        if token in inp.token_set:
            scores[i] *= scorer.copy_boost
    total = reduce(add, scores, 0.0)
    return dict(zip(support, map(truediv, scores, repeat(total))))
