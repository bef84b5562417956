"""Line-delimited dataset files: one sentence and its event records per line.

Each line is a JSON object:

    {"id": "s1", "text": "...", "events": [
        {"type": "Transport",
         "trigger": {"text": "returned", "start": 2},
         "args": [{"role": "Artifact", "text": "The man", "start": 0}]}]}

``id`` is a string or an integer, read as its decimal string.  ``start``
is a token index into the tokenization of ``text``; null marks
an ungrounded mention (predictions may contain those, gold should not);
its text must still hold at least one token.
Offsets are validated on read: the tokens at ``start`` must equal the
mention's own tokens, and that slice of the input's tokens is passed to
the mention as its ``tokens``, so it shares the input's strings.  Within
one ``read_dataset`` call every token, event type and role name is one
string object per distinct value, the first one read: equal tokens of
different lines are the same object, and so are equal labels.  A
separate call shares nothing with it.  Files are UTF-8, one object per
line, and are written deterministically so identical data produces
identical bytes.  A string that UTF-8 cannot encode, a lone surrogate
that a ``\\ud800`` escape spells, is refused at its line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .codec import Argument, EventRecord, Mention
from .span_index import TokenizedInput, _tokenize_shared, token_strings

# json.dumps(obj, ensure_ascii=False) builds a new encoder per call; one
# encoder with the same settings writes the same bytes
_ENCODER = json.JSONEncoder(ensure_ascii=False)


class DataError(ValueError):
    """Malformed dataset content; carries a ``location`` such as file:line."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


@dataclass(frozen=True, slots=True)
class Example:
    """One dataset row: a sentence with its (possibly empty) record list."""

    id: str
    inp: TokenizedInput
    records: tuple[EventRecord, ...]

    @property
    def pair(self) -> tuple[TokenizedInput, tuple[EventRecord, ...]]:
        return (self.inp, self.records)


def _mention_from_obj(
    obj, inp: TokenizedInput, what: str, location: str
) -> Mention:
    if not isinstance(obj, dict) or "text" not in obj:
        raise DataError(f"{what} must be an object with a 'text' field", location)
    text = obj["text"]
    start = obj.get("start")
    if not isinstance(text, str) or not text:
        raise DataError(f"{what} text must be a non-empty string", location)
    if start is None:
        mention = Mention(text)
        if not mention.tokens:
            raise DataError(f"{what} {text!r} contains no tokens", location)
        return mention
    if not isinstance(start, int) or isinstance(start, bool) or start < 0:
        raise DataError(f"{what} start must be a non-negative token index", location)
    toks = token_strings(text)
    span = inp.tokens[start : start + len(toks)]
    if not toks or span != toks:
        raise DataError(
            f"{what} {text!r} does not match the input tokens at index {start}",
            location,
        )
    return Mention(text, start, inp.char_spans[start][0], span)


def _example_from_obj(obj, location: str, strings: dict[str, str]) -> Example:
    if not isinstance(obj, dict):
        raise DataError("each line must be a JSON object", location)
    for field in ("id", "text", "events"):
        if field not in obj:
            raise DataError(f"missing field {field!r}", location)
    sent_id = obj["id"]
    if not isinstance(sent_id, (str, int)) or isinstance(sent_id, bool):
        raise DataError("id must be a string or an integer", location)
    if not isinstance(obj["text"], str):
        raise DataError("text must be a string", location)
    if not isinstance(obj["events"], list):
        raise DataError("events must be a list", location)
    inp = _tokenize_shared(obj["text"], strings)
    share = strings.setdefault
    records = []
    for event in obj["events"]:
        if not isinstance(event, dict) or "type" not in event or "trigger" not in event:
            raise DataError("event must have 'type' and 'trigger' fields", location)
        event_type = event["type"]
        if not isinstance(event_type, str):
            raise DataError("event type must be a string", location)
        trigger = _mention_from_obj(event["trigger"], inp, "trigger", location)
        if not isinstance(event.get("args", []), list):
            raise DataError("args must be a list", location)
        args = []
        for arg in event.get("args", ()):
            if not isinstance(arg, dict) or not isinstance(arg.get("role"), str):
                raise DataError("argument must have a string 'role' field", location)
            role = arg["role"]
            mention = _mention_from_obj(arg, inp, f"argument {role!r}", location)
            args.append(Argument(share(role, role), mention))
        records.append(EventRecord(share(event_type, event_type), trigger, tuple(args)))
    return Example(str(sent_id), inp, tuple(records))


def read_dataset(path) -> list[Example]:
    examples = []
    strings: dict[str, str] = {}  # each distinct token and label, first seen
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            location = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataError(f"invalid JSON: {err}", location) from None
            except RecursionError:
                raise DataError("invalid JSON: nested too deeply", location) from None
            except ValueError:  # an integer longer than int() may read
                raise DataError("invalid JSON: an integer has too many digits", location) from None
            if "\\u" in line:  # only a \u escape can spell a lone surrogate
                _check_encodable(obj, location)
            examples.append(_example_from_obj(obj, location, strings))
    return examples


def _check_encodable(obj, location: str) -> None:
    """DataError unless every string of ``obj`` can be written as UTF-8."""
    try:
        _ENCODER.encode(obj).encode("utf-8")
    except UnicodeEncodeError as err:
        bad = err.object[err.start : err.end]
        raise DataError(f"a string holds {bad!r}, which UTF-8 cannot encode", location) from None


def _mention_to_obj(mention: Mention) -> dict:
    return {"text": mention.text, "start": mention.token_start}


def dataset_line(example: Example) -> str:
    """The line that writes ``example`` to a dataset file, without its newline."""
    return _ENCODER.encode({
        "id": example.id,
        "text": example.inp.text,
        "events": [
            {
                "type": record.type,
                "trigger": _mention_to_obj(record.trigger),
                "args": [
                    {"role": arg.role, **_mention_to_obj(arg.mention)}
                    for arg in record.args
                ],
            }
            for record in example.records
        ],
    })


def write_dataset(examples: Iterable[Example], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for example in examples:
            handle.write(dataset_line(example))
            handle.write("\n")


def scored_pairs(
    examples: Sequence[Example],
) -> list[tuple[str, tuple[EventRecord, ...]]]:
    """The (sentence id, records) view the evaluator consumes."""
    return [(example.id, example.records) for example in examples]
