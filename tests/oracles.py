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
from typing import Sequence

from evseq import (
    BOS,
    Argument,
    DecodeConfig,
    DecodeError,
    DecodeResult,
    DecodeState,
    EventRecord,
    EventSchema,
    Mention,
    SchemaTries,
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
