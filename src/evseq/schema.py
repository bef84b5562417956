"""Event schemas and tries over multi-token label names.

A schema maps each event-type name to the argument roles it permits.
Label names are split into word tokens by ``split_label`` (hyphens and
whitespace are separators); that split is the only one the decoder,
the parser, ``linearize`` and the curriculum use.  The resulting token
sequences are indexed in tries so that a decoder can walk label names
one token at a time.  Schemas and tries are immutable after
construction and safe to share across concurrent decoders.  Each schema
object computes two things once and keeps them: ``EventSchema.tries``,
the tries the decoder and the parser walk, and
``EventSchema.label_tokens``, the set of word tokens of all its names.
``load_schema`` reads its UTF-8 file through ``evseq.files``: a byte
that is not UTF-8 is that module's ``DataError`` at its line, not a
``SchemaError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Iterator, Mapping

from .files import read_text
from .tokens import RESERVED_TOKENS

_NAME_RE = re.compile(r"[A-Za-z0-9-]+\Z")


class SchemaError(ValueError):
    """Invalid schema content; carries a ``location`` such as ``file:line``."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


@lru_cache(maxsize=4096)
def split_label(label: str) -> tuple[str, ...]:
    """Split a label name into word tokens at hyphens and whitespace.

    Memoized: a schema has few labels, and ``linearize`` splits each
    one again for every record.  The result is an immutable tuple.

    >>> split_label("Transfer-Ownership")
    ('Transfer', 'Ownership')
    """
    return tuple(part for part in re.split(r"[-\s]+", label) if part)


def _check_name(name: str, kind: str, location: str | None = None) -> None:
    if not name:
        raise SchemaError(f"empty {kind} name", location)
    if not _NAME_RE.match(name):
        raise SchemaError(
            f"invalid {kind} name {name!r}: only letters, digits and hyphen allowed",
            location,
        )
    if not split_label(name):
        raise SchemaError(f"{kind} name {name!r} contains no word tokens", location)


@dataclass(frozen=True)
class EventSchema:
    """Ordered mapping from event-type names to their permitted role names.

    Declaration order is preserved and defines iteration order everywhere.
    """

    event_types: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        if not self.event_types:
            raise SchemaError("empty schema: at least one event type required")
        normalized: dict[str, tuple[str, ...]] = {}
        for type_name, roles in self.event_types.items():
            _check_name(type_name, "event type")
            if isinstance(roles, str):
                raise SchemaError(f"roles of event type {type_name!r} must be a list, not a string")
            seen: set[str] = set()
            for role in roles:
                _check_name(role, "role")
                if role in seen:
                    raise SchemaError(
                        f"duplicate role {role!r} in event type {type_name!r}"
                    )
                seen.add(role)
            normalized[type_name] = tuple(roles)
        object.__setattr__(self, "event_types", normalized)

    @property
    def types(self) -> tuple[str, ...]:
        return tuple(self.event_types)

    def roles(self, event_type: str) -> tuple[str, ...]:
        try:
            return self.event_types[event_type]
        except KeyError:
            raise SchemaError(f"unknown event type {event_type!r}") from None

    def __contains__(self, event_type: str) -> bool:
        return event_type in self.event_types

    def __iter__(self) -> Iterator[str]:
        return iter(self.event_types)

    @cached_property
    def tries(self) -> "SchemaTries":
        """The schema's label tries, built on first use and then shared."""
        return SchemaTries.from_schema(self)

    @cached_property
    def label_tokens(self) -> frozenset[str]:
        """Word tokens of every type and role name, computed on first use."""
        names = [*self.event_types, *chain.from_iterable(self.event_types.values())]
        return frozenset(token for name in names for token in split_label(name))

    @cached_property
    def _reserved_and_label_tokens(self) -> frozenset[str]:
        """The reserved structure tokens and ``label_tokens``: the tokens a
        decode can emit whatever its input, computed on first use."""
        return RESERVED_TOKENS | self.label_tokens


def parse_schema(text: str, source_name: str = "<schema>") -> EventSchema:
    """Parse the line-oriented schema document format.

    One event type per line: ``TypeName: Role1, Role2``.  The role list
    may be empty.  Lines starting with ``#`` and blank lines are ignored.
    """
    event_types: dict[str, tuple[str, ...]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        location = f"{source_name}:{lineno}"
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ":" not in stripped:
            raise SchemaError(
                f"malformed line {stripped!r}: expected 'TypeName: Role1, Role2, ...'",
                location,
            )
        name_part, _, roles_part = stripped.partition(":")
        type_name = name_part.strip()
        _check_name(type_name, "event type", location)
        if type_name in event_types:
            raise SchemaError(f"duplicate event type {type_name!r}", location)
        roles: list[str] = []
        roles_part = roles_part.strip()
        if roles_part:
            for raw_role in roles_part.split(","):
                role = raw_role.strip()
                _check_name(role, "role", location)
                if role in roles:
                    raise SchemaError(
                        f"duplicate role {role!r} in event type {type_name!r}",
                        location,
                    )
                roles.append(role)
        event_types[type_name] = tuple(roles)
    if not event_types:
        raise SchemaError("empty schema: no event types declared", source_name)
    return EventSchema(event_types)


def load_schema(path) -> EventSchema:
    """Read and validate a schema document from the UTF-8 file ``path``;
    bytes that are not UTF-8 are a ``DataError`` at their line."""
    return parse_schema(read_text(path), source_name=str(path))


class TrieNode:
    """One trie node: its children by token, and the label it completes."""

    __slots__ = ("children", "label")

    def __init__(self):
        self.children: dict[str, TrieNode] = {}
        self.label: str | None = None

    @property
    def is_leaf(self) -> bool:
        return self.label is not None


@dataclass(frozen=True)
class LabelTrie:
    """Immutable trie whose root-to-leaf paths spell label token sequences.

    A node may be both a leaf and an inner node when one label is a
    strict token-prefix of another; the shorter label keeps its explicit
    leaf marker and both continuations remain reachable from ``root``.
    """

    root: TrieNode = field(default_factory=TrieNode)

    @classmethod
    def build(cls, labels: Iterable[str]) -> "LabelTrie":
        root = TrieNode()
        for label in labels:
            tokens = split_label(label)
            if not tokens:
                raise SchemaError(f"label {label!r} tokenizes to zero tokens")
            node = root
            for token in tokens:
                node = node.children.setdefault(token, TrieNode())
            if node.label is not None and node.label != label:
                raise SchemaError(
                    f"labels {node.label!r} and {label!r} tokenize identically"
                )
            node.label = label
        return cls(root)

    @property
    def is_empty(self) -> bool:
        return not self.root.children


@dataclass(frozen=True)
class SchemaTries:
    """The label tries a decoder walks: one for types, one per type for roles.

    The decoder compiles its whole grammar from these tries on first use
    and keeps it on this object outside the fields (see ``decoder``); a
    pickled copy leaves it out and compiles its own when it is used.
    """

    type_trie: LabelTrie
    role_tries: Mapping[str, LabelTrie]

    def __getstate__(self) -> dict:
        state = vars(self).copy()
        state.pop("_grammar", None)
        return state

    @classmethod
    def from_schema(cls, schema: EventSchema) -> "SchemaTries":
        """Build fresh tries; ``schema.tries`` is the cached copy.

        A type with zero roles gets a root-only role trie.
        """
        return cls(
            LabelTrie.build(schema.types),
            {t: LabelTrie.build(schema.roles(t)) for t in schema.types},
        )
