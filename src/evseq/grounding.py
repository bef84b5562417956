"""Assign source-text offsets to generated mention strings.

Decoding emits mention text, not positions, so predictions must be
grounded before they can be scored against gold offsets.  Triggers are
matched one by one: a cursor sweeps left to right and each trigger takes
the next occurrence of its token sequence at or after the end of the
previous assignment (a failed match leaves the cursor where it was).
Arguments then take the occurrence nearest their event's trigger,
measured between start token indices, with ties going to the earlier
occurrence.

A mention with no matching occurrence stays ungrounded
(``token_start=None``); that is a flag for the caller, never an error.
"""

from __future__ import annotations

from typing import Iterable

from .codec import Argument, EventRecord, Mention
from .span_index import TokenizedInput, find_occurrences


def _grounded_mention(mention: Mention, inp: TokenizedInput, start: int) -> Mention:
    tokens = inp.tokens[start : start + len(mention.tokens)]
    return Mention(mention.text, start, inp.char_spans[start][0], tokens)


def _ground_trigger(
    trigger: Mention, inp: TokenizedInput, cursor: int
) -> tuple[Mention, int]:
    """The cursor rule: ``trigger`` at its first occurrence at or after
    ``cursor``, and the cursor after it (unmoved on a failed match)."""
    for start in find_occurrences(inp.tokens, trigger.tokens):
        if start >= cursor:
            return _grounded_mention(trigger, inp, start), start + len(trigger.tokens)
    return Mention(trigger.text, tokens=trigger.tokens), cursor


def _ground_args(
    args: tuple[Argument, ...], inp: TokenizedInput, anchor: int
) -> tuple[Argument, ...]:
    """The nearest rule: each argument at the occurrence whose start is
    nearest ``anchor``; ``min`` keeps the earlier of two as near."""
    out = []
    for arg in args:
        occs = find_occurrences(inp.tokens, arg.mention.tokens)
        if occs:
            start = min(occs, key=lambda s: abs(s - anchor))
            mention = _grounded_mention(arg.mention, inp, start)
        else:
            mention = Mention(arg.mention.text, tokens=arg.mention.tokens)
        out.append(Argument(arg.role, mention))
    return tuple(out)


def ground_triggers(
    records: Iterable[EventRecord], inp: TokenizedInput
) -> tuple[EventRecord, ...]:
    """Ground every record's trigger with the left-to-right cursor rule."""
    cursor = 0
    out = []
    for record in records:
        trigger, cursor = _ground_trigger(record.trigger, inp, cursor)
        out.append(EventRecord(record.type, trigger, record.args))
    return tuple(out)


def ground_arguments(record: EventRecord, inp: TokenizedInput) -> EventRecord:
    """Ground a record's arguments relative to its already-grounded trigger."""
    anchor = record.trigger.token_start
    if anchor is None:
        raise ValueError(
            f"trigger {record.trigger.text!r} must be grounded before its arguments"
        )
    return EventRecord(record.type, record.trigger, _ground_args(record.args, inp, anchor))


def ground_records(
    records: Iterable[EventRecord], inp: TokenizedInput
) -> tuple[EventRecord, ...]:
    """Full grounding pass, one record at a time: its trigger, then its
    arguments.

    Records whose trigger found no match keep all their mentions
    ungrounded; their arguments have no anchor to measure from.
    """
    cursor = 0
    out = []
    for record in records:
        trigger, cursor = _ground_trigger(record.trigger, inp, cursor)
        args = record.args
        if trigger.grounded:
            args = _ground_args(args, inp, trigger.token_start)
        out.append(EventRecord(record.type, trigger, args))
    return tuple(out)
