"""Event records and their linearized parenthesized form.

An extraction result is a list of event records; each record names an
event type, a trigger mention and a list of role-labelled argument
mentions.  The linearized form wraps the whole list in one pair of
parentheses and each event and argument in its own pair:

    ( ( Transport returned ( Artifact The man ) ( Origin Mexico ) ) )

Multi-token labels contribute one token per word part, as the schema's
``split_label`` splits them, so the event type "Arrest-Jail" appears as
the two tokens "Arrest Jail".  An empty record list linearizes to
"( )".  Sibling order is span appearance order: events sort by trigger
offset, arguments within an event by argument offset, which is why
linearization requires grounded mentions.  The sequence is the event
structure itself, rendered straight from the ordered records.

``delinearize`` inverts ``linearize`` on well-formed sequences, up to
the offsets (a surface parse cannot know them).  When a label is a
token-prefix of another label the boundary between label and mention is
ambiguous.  The parser walks the label trie as far as the tokens go and
takes the last complete label on that walk, so with the types ``End``
and ``End-Position-Long`` it reads ``( ( End Position x ) )`` as ``End``
with the trigger "Position x", and ``linearize`` round-trips that
record.  The constrained decoder never emits that sequence: a token
that extends the label goes on with it, so after ``( ( End Position``
only ``Long`` is legal (see ``decoder.step``).  Every sequence the
decoder emits parses back to the labels it spelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from .schema import EventSchema, LabelTrie, split_label
from .span_index import token_strings
from .tokens import BOS, CLOSE, EOS, OPEN, RESERVED_TOKENS, SENTINEL_TOKENS


class CodecError(ValueError):
    """Malformed records or token sequence; ``position`` indexes the input."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} at position {position}"
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class Mention:
    """A surface text span, optionally anchored in the source sentence.

    ``token_start`` is the index of the mention's first token in the
    tokenized source; ``char_start`` the character offset of that token.
    Both are None while the mention is ungrounded.  ``tokens`` is the
    token form of ``text``: a caller that already holds it (a slice of
    the input it grounded the mention in, or the tokens of the mention
    it replaces, or a parsed span that tokenizes back to itself) passes
    it in, and must pass exactly ``token_strings(text)``, equal in value;
    its strings are then shared with the caller's, not copied.
    Otherwise it is computed here.  Equality, hashing and repr see only
    the three fields above.
    """

    text: str
    token_start: int | None = None
    char_start: int | None = None
    tokens: tuple[str, ...] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.text:
            raise CodecError("mention text must be non-empty")
        if self.tokens is None:
            object.__setattr__(self, "tokens", token_strings(self.text))

    @property
    def token_end(self) -> int | None:
        """Exclusive end token index, when grounded."""
        if self.token_start is None:
            return None
        return self.token_start + len(self.tokens)

    @property
    def grounded(self) -> bool:
        return self.token_start is not None


@dataclass(frozen=True, slots=True)
class Argument:
    role: str
    mention: Mention


@dataclass(frozen=True, slots=True)
class EventRecord:
    type: str
    trigger: Mention
    args: tuple[Argument, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


def mention_tokens(mention: Mention) -> tuple[str, ...]:
    """Token form of a mention; rejects empty and reserved-token mentions."""
    text, toks = mention.text, mention.tokens
    if not toks:
        raise CodecError(f"mention text {text!r} contains no tokens")
    for tok in toks:
        if tok in RESERVED_TOKENS:
            raise CodecError(f"mention text {text!r} contains reserved token {tok!r}")
    return toks


def strip_sentinels(tokens: Sequence[str]) -> tuple[str, ...]:
    """Drop a leading BOS and trailing EOS; both must be present."""
    if len(tokens) < 2 or tokens[0] != BOS or tokens[-1] != EOS:
        raise CodecError(f"sequence is not bracketed by {BOS} and {EOS}")
    return tuple(tokens[1:-1])


def _missing_offset(mention: Mention, what: str) -> CodecError:
    return CodecError(f"{what} {mention.text!r} is missing its token offset")


def _arg_key(arg: Argument) -> tuple:
    # appearance order; ties by span end, then by role name
    mention = arg.mention
    start = mention.token_start
    if start is None:
        raise _missing_offset(mention, "mention")
    return (start, start + len(mention.tokens), arg.role)


def _ordered(
    records: Iterable[EventRecord],
) -> list[tuple[tuple, list[Argument], EventRecord]]:
    """(sort key, arguments in span order, record) per record, in trigger order.

    Offsets are checked in the records' own order: each trigger, then
    its arguments.  Both sorts are stable, so full ties keep input order.
    """
    ordered = []
    for record in records:
        trigger = record.trigger
        start = trigger.token_start
        if start is None:
            raise _missing_offset(trigger, f"trigger of {record.type}")
        key = (start, start + len(trigger.tokens), record.type)
        ordered.append((key, sorted(record.args, key=_arg_key), record))
    ordered.sort(key=itemgetter(0))
    return ordered


def _check_against_schema(
    event_type: str, args: Sequence[Argument], schema: EventSchema | None
) -> None:
    # args in span order, so a bad role is named in the order it is rendered
    if schema is None:
        return
    if event_type not in schema:
        raise CodecError(f"unknown event type {event_type!r}")
    allowed = schema.roles(event_type)
    for arg in args:
        if arg.role not in allowed:
            raise CodecError(
                f"role {arg.role!r} not permitted for event type {event_type!r}"
            )


def linearize(
    records: Iterable[EventRecord], schema: EventSchema | None = None
) -> tuple[str, ...]:
    """Encode ``records`` as one balanced parenthesized token sequence.

    Every mention must carry a token offset: siblings are emitted in
    span appearance order (ties broken by span end, then label name).
    Types and roles are validated when a schema is supplied.
    """
    out = [OPEN]
    for _, args, record in _ordered(records):
        _check_against_schema(record.type, args, schema)
        out.append(OPEN)
        out.extend(split_label(record.type))
        out.extend(mention_tokens(record.trigger))
        for arg in args:
            out.append(OPEN)
            out.extend(split_label(arg.role))
            out.extend(mention_tokens(arg.mention))
            out.append(CLOSE)
        out.append(CLOSE)
    out.append(CLOSE)
    return tuple(out)


class _Parser:
    """Cursor-based parser over one linearized token sequence."""

    def __init__(self, tokens: Sequence[str], schema: EventSchema):
        self.tokens = tuple(tokens)
        self.schema = schema
        self.type_trie = schema.tries.type_trie
        self.role_tries = schema.tries.role_tries
        self.pos = 0

    def fail(self, message: str, position: int | None = None) -> CodecError:
        return CodecError(message, self.pos if position is None else position)

    def peek(self) -> str:
        if self.pos >= len(self.tokens):
            raise CodecError("unexpected end of sequence", len(self.tokens))
        return self.tokens[self.pos]

    def expect(self, token: str) -> None:
        got = self.peek()
        if got != token:
            raise self.fail(f"expected {token!r}, found {got!r}")
        self.pos += 1

    def parse(self) -> tuple[EventRecord, ...]:
        self.expect(OPEN)
        records = []
        while self.peek() != CLOSE:
            records.append(self.parse_event())
        self.pos += 1  # root CLOSE
        if self.pos != len(self.tokens):
            raise self.fail(f"trailing token {self.tokens[self.pos]!r} after root close")
        return tuple(records)

    def parse_event(self) -> EventRecord:
        self.expect(OPEN)
        event_type = self.match_label(self.type_trie, "event type")
        trigger = self.parse_span("trigger", stop={OPEN, CLOSE})
        args = []
        while self.peek() == OPEN:
            self.pos += 1
            role = self.match_label(self.role_tries[event_type], "role")
            span = self.parse_span("argument", stop={CLOSE})
            self.expect(CLOSE)
            args.append(Argument(role, _parsed_mention(span)))
        self.expect(CLOSE)
        return EventRecord(event_type, _parsed_mention(trigger), tuple(args))

    def match_label(self, trie: LabelTrie, kind: str) -> str:
        """Consume the longest label the trie matches from the cursor."""
        start = self.pos
        node = trie.root
        best: str | None = None
        best_end = start
        i = start
        while i < len(self.tokens) and self.tokens[i] in node.children:
            node = node.children[self.tokens[i]]
            i += 1
            if node.label is not None:
                best = node.label
                best_end = i
        if best is None:
            found = self.tokens[start] if start < len(self.tokens) else "<end>"
            raise self.fail(f"unknown {kind} {found!r}", start)
        self.pos = best_end
        return best

    def parse_span(self, kind: str, stop: set[str]) -> tuple[str, ...]:
        span: list[str] = []
        while True:
            token = self.peek()
            if token in stop:
                break
            if token in SENTINEL_TOKENS:
                raise self.fail(f"sentinel {token!r} inside {kind} mention")
            if token == OPEN:
                raise self.fail(f"unexpected {OPEN!r} inside {kind} mention")
            span.append(token)
            self.pos += 1
        if not span:
            raise self.fail(f"empty {kind} mention")
        return tuple(span)


def _parsed_mention(span: tuple[str, ...]) -> Mention:
    """The mention a parsed span spells: its tokens joined by spaces.
    When that text tokenizes back to ``span`` the mention keeps the
    span's own strings as its tokens, else the text's tokens."""
    text = " ".join(span)
    tokens = token_strings(text)
    return Mention(text, tokens=span if tokens == span else tokens)


def delinearize(tokens: Sequence[str], schema: EventSchema) -> tuple[EventRecord, ...]:
    """Parse a linearized sequence back into event records.

    Total over arbitrary token sequences: either the records come back
    or a CodecError pinpoints the first offending token position.  The
    sequence must not include sentinels (see ``strip_sentinels``).
    Mention offsets are unknown at this level, so every mention comes
    back with ``token_start=None``.  A mention's text is its span's
    tokens joined by single spaces; when that text tokenizes back to the
    span (always, for a span the decoder copied from a tokenized input)
    the mention's ``tokens`` are the span's own string objects, shared
    with the sequence, else ``token_strings(text)``.
    """
    return _Parser(tokens, schema).parse()
