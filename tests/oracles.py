"""Independent reference implementations and random generators for tests.

Everything here deliberately avoids the library's own algorithms: spans
are enumerated by brute force, one-to-one matching is exhaustive search,
the tries are queried only by walking down from their roots, and the
grammar language of tiny instances is expanded from the format
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
    CodecError,
    DecodeConfig,
    DecodeError,
    DecodeResult,
    DecodeState,
    EventRecord,
    EventSchema,
    LabelTrie,
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
from evseq.tokens import RESERVED_TOKENS


def contiguous_subsequences(tokens: Sequence[str], max_len: int) -> set[tuple[str, ...]]:
    """Every contiguous subsequence of length 1..max_len, by brute force."""
    out = set()
    for i in range(len(tokens)):
        for j in range(i + 1, min(i + max_len, len(tokens)) + 1):
            out.add(tuple(tokens[i:j]))
    return out


def reference_span_trie(tokens: Sequence[str], max_span_len: int) -> dict:
    """The span trie as nested dicts, one per distinct span, built by the
    eager loop ``SpanTrie`` once used: every start, every length up to
    the cap, stopping at a reserved token."""
    root: dict = {}
    for start in range(len(tokens)):
        node = root
        for token in tokens[start : start + max_span_len]:
            if token in RESERVED_TOKENS:
                break
            node = node.setdefault(token, {})
    return root


def _span_node(trie: SpanTrie, prefix: Sequence[str]) -> dict:
    node = trie.root
    for i, token in enumerate(prefix):
        if token not in node:
            raise KeyError(f"{list(prefix[: i + 1])!r} is not a span prefix of the input")
        node = node[token]
    return node


def span_children(trie: SpanTrie, prefix: Sequence[str]) -> frozenset[str]:
    """Tokens that can extend ``prefix`` while staying a span, read by
    walking down from ``trie.root``; KeyError when ``prefix`` is not a path."""
    return frozenset(_span_node(trie, prefix))


def is_span(trie: SpanTrie, tokens: Sequence[str]) -> bool:
    """True when ``tokens`` is a non-empty path down from ``trie.root``."""
    try:
        _span_node(trie, tokens)
    except KeyError:
        return False
    return bool(tokens)


def label_node(trie: LabelTrie, prefix: Sequence[str]):
    """The node of ``trie`` reached by ``prefix``; KeyError if no such path."""
    node = trie.root
    for i, token in enumerate(prefix):
        if token not in node.children:
            raise KeyError(f"prefix {list(prefix[: i + 1])!r} is not a path in the trie")
        node = node.children[token]
    return node


def label_paths(trie: LabelTrie) -> list[tuple[tuple[str, ...], str]]:
    """Every (token path, label) pair of the nodes that complete a label,
    depth-first in child order, each node before its children."""
    out = []
    stack = [((), trie.root)]
    while stack:
        path, node = stack.pop()
        if node.label is not None:
            out.append((path, node.label))
        for token, child in reversed(node.children.items()):
            stack.append((path + (token,), child))
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


def ground_arguments(record: EventRecord, inp: TokenizedInput) -> EventRecord:
    """The nearest rule alone, by scanning every start: each argument at
    the occurrence whose start is nearest its grounded trigger's, the
    earlier of two as near; an argument with no occurrence stays
    ungrounded and keeps its tokens."""
    anchor = record.trigger.token_start
    if anchor is None:
        raise ValueError(f"trigger {record.trigger.text!r} must be grounded before its arguments")
    args = []
    for arg in record.args:
        tokens = arg.mention.tokens
        n = len(tokens)
        starts = [s for s in range(len(inp.tokens) - n + 1) if inp.tokens[s : s + n] == tokens]
        if starts:
            start = min(starts, key=lambda s: (abs(s - anchor), s))
            span = inp.tokens[start : start + n]
            mention = Mention(arg.mention.text, start, inp.char_spans[start][0], span)
        else:
            mention = Mention(arg.mention.text, tokens=tokens)
        args.append(Argument(arg.role, mention))
    return EventRecord(record.type, record.trigger, tuple(args))


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


def _reference_offset(mention: Mention, what: str) -> int:
    if mention.token_start is None:
        raise CodecError(f"{what} {mention.text!r} is missing its token offset")
    return mention.token_start


def _reference_sort_key(mention: Mention, name: str) -> tuple:
    return (_reference_offset(mention, "mention"), mention.token_end, name)


def _reference_mention_tokens(mention: Mention) -> tuple[str, ...]:
    if not mention.tokens:
        raise CodecError(f"mention text {mention.text!r} contains no tokens")
    for tok in mention.tokens:
        if tok in RESERVED_TOKENS:
            raise CodecError(f"mention text {mention.text!r} contains reserved token {tok!r}")
    return mention.tokens


@dataclass(frozen=True)
class TreeNode:
    """Labeled tree form: a label, its mention tokens, and child nodes.
    The root carries no label and no span; its children are event nodes
    whose children are argument nodes."""

    label: str | None
    span: tuple[str, ...]
    children: tuple["TreeNode", ...] = ()


def reference_to_tree(
    records: Sequence[EventRecord], schema: EventSchema | None = None
) -> TreeNode:
    """The labeled tree built in three passes: each record's trigger
    offset is checked and the record rebuilt with its arguments sorted;
    the rebuilt records are sorted; then each is checked against the
    schema (so a bad role is named in sorted argument order) and turned
    into nodes.  Siblings sort by (start, end, label name)."""
    rebuilt = []
    for record in records:
        _reference_offset(record.trigger, f"trigger of {record.type}")
        args = sorted(record.args, key=lambda a: _reference_sort_key(a.mention, a.role))
        rebuilt.append(EventRecord(record.type, record.trigger, tuple(args)))
    rebuilt.sort(key=lambda r: _reference_sort_key(r.trigger, r.type))
    events = []
    for record in rebuilt:
        if schema is not None:
            if record.type not in schema:
                raise CodecError(f"unknown event type {record.type!r}")
            for arg in record.args:
                if arg.role not in schema.roles(record.type):
                    raise CodecError(
                        f"role {arg.role!r} not permitted for event type {record.type!r}"
                    )
        trigger = _reference_mention_tokens(record.trigger)
        args = tuple(
            TreeNode(arg.role, _reference_mention_tokens(arg.mention)) for arg in record.args
        )
        events.append(TreeNode(record.type, trigger, args))
    return TreeNode(None, (), tuple(events))


def _reference_render(node: TreeNode, out: list[str]) -> None:
    out.append(OPEN)
    if node.label is not None:
        out.extend(_label_tokens(node.label))
    out.extend(node.span)
    for child in node.children:
        _reference_render(child, out)
    out.append(CLOSE)


def reference_linearize(
    records: Sequence[EventRecord], schema: EventSchema | None = None
) -> tuple[str, ...]:
    """``reference_to_tree`` rendered depth-first."""
    out: list[str] = []
    _reference_render(reference_to_tree(records, schema), out)
    return tuple(out)


def reference_substructure_units(
    records: Sequence[EventRecord],
) -> list[tuple[str, tuple[str, ...]]]:
    """(label, span) of each event node of ``reference_to_tree``, then of its arguments."""
    units = []
    for event in reference_to_tree(records).children:
        units.append((event.label, event.span))
        units.extend((arg.label, arg.span) for arg in event.children)
    return units


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
    above the best of them.  Each live hypothesis, in order, checks its
    candidates' scores in sorted order as it expands them, so a bad score
    names the first such hypothesis's smallest bad token.
    The automaton itself (``candidate_vocab``, ``step``) is the
    library's; only the search is independent.
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
            for token in sorted(candidate_vocab(hyp.state, tries, span_trie)):
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
    smallest (-probability, token), every candidate's score checked in
    sorted order before one is chosen, so a bad score names the smallest
    bad token.  Raises TruncationError at ``max_length``.
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
        cands = sorted(candidate_vocab(state, tries, span_trie))
        chosen = min(cands, key=lambda t: (-_checked_prob(dist, t), t))
        logprobs.append(_log(_checked_prob(dist, chosen)))
        state = step(state, chosen, tries, span_trie)
        prefix.append(chosen)
    return DecodeResult(state.tokens, tuple(logprobs))


def reference_candidate_vocab(
    state: DecodeState, tries: SchemaTries, span_trie: SpanTrie
) -> frozenset[str]:
    """The legal-token rules written as a ladder over the phases,
    recomputed from the trie roots at every call."""
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
        node = label_node(tries.type_trie, state.partial_label)
        cands = set(node.children)
        if node.is_leaf:
            cands |= span_children(span_trie, ())
        return frozenset(cands)
    if phase is Phase.IN_TRIGGER_SPAN:
        cands = set(span_children(span_trie, state.partial_span))
        if state.partial_span:
            cands.add(CLOSE)
            if not tries.role_tries[state.current_type].is_empty:
                cands.add(OPEN)
        return frozenset(cands)
    if phase is Phase.AWAIT_ARG:
        return frozenset({OPEN, CLOSE})
    if phase is Phase.IN_ROLE_LABEL:
        node = label_node(tries.role_tries[state.current_type], state.partial_label)
        cands = set(node.children)
        if node.is_leaf:
            cands |= span_children(span_trie, ())
        return frozenset(cands)
    if phase is Phase.IN_ARG_SPAN:
        cands = set(span_children(span_trie, state.partial_span))
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
    node = label_node(trie, state.partial_label)
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


def reference_eager_distribution(scorer, inp: TokenizedInput, prefix: Sequence[str]) -> dict:
    """An n-gram distribution built as a whole dict, every value divided
    up front: α / total for the tokens neither counted nor copied, then
    each counted and each copied token's own score over the total."""
    table = _ngram_table(scorer, prefix)
    support = sorted(scorer.vocab | inp.token_set)
    index = {token: i for i, token in enumerate(support)}
    alpha = scorer.alpha
    scores = [alpha] * len(support)
    counted = []
    for token, count in table.items():
        i = index.get(token)
        if i is not None:
            scores[i] = count + alpha
            counted.append((i, token))
    copied = [(index[token], token) for token in inp.token_set]
    for i, _ in copied:
        scores[i] *= scorer.copy_boost
    total = reduce(add, scores, 0.0)
    dist = dict.fromkeys(support, alpha / total)
    for i, token in counted + copied:
        dist[token] = scores[i] / total
    return dist


def reference_unconstrained(scorer, inp: TokenizedInput, config: DecodeConfig) -> DecodeResult:
    """Unconstrained greedy by its definition: at each step the smallest
    (-probability, token) over the whole distribution, every value
    checked in the distribution's order.  Raises TruncationError at
    ``max_length``."""
    prefix = [BOS]
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
        logprobs.append(_log(_checked_prob(dist, chosen)))
        prefix.append(chosen)
        if chosen == EOS:
            return DecodeResult(tuple(prefix[1:-1]), tuple(logprobs))
