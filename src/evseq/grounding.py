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


def ground_triggers(
    records: Iterable[EventRecord], inp: TokenizedInput
) -> tuple[EventRecord, ...]:
    """Ground every record's trigger with the left-to-right cursor rule."""
    cursor = 0
    out = []
    for record in records:
        toks = record.trigger.tokens
        occs = [i for i in find_occurrences(inp.tokens, toks) if i >= cursor]
        if occs:
            trigger = _grounded_mention(record.trigger, inp, occs[0])
            cursor = occs[0] + len(toks)
        else:
            trigger = Mention(record.trigger.text, tokens=record.trigger.tokens)
        out.append(EventRecord(record.type, trigger, record.args))
    return tuple(out)


def ground_arguments(record: EventRecord, inp: TokenizedInput) -> EventRecord:
    """Ground a record's arguments relative to its already-grounded trigger."""
    anchor = record.trigger.token_start
    if anchor is None:
        raise ValueError(
            f"trigger {record.trigger.text!r} must be grounded before its arguments"
        )
    args = []
    for arg in record.args:
        occs = find_occurrences(inp.tokens, arg.mention.tokens)
        if occs:
            start = min(occs, key=lambda s: (abs(s - anchor), s))
            mention = _grounded_mention(arg.mention, inp, start)
        else:
            mention = Mention(arg.mention.text, tokens=arg.mention.tokens)
        args.append(Argument(arg.role, mention))
    return EventRecord(record.type, record.trigger, tuple(args))


def ground_records(
    records: Iterable[EventRecord], inp: TokenizedInput
) -> tuple[EventRecord, ...]:
    """Full grounding pass: triggers first, then arguments per record.

    Records whose trigger found no match keep all their mentions
    ungrounded; their arguments have no anchor to measure from.
    """
    out = []
    for record in ground_triggers(records, inp):
        if record.trigger.grounded:
            record = ground_arguments(record, inp)
        out.append(record)
    return tuple(out)
