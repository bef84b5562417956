import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evseq import (
    EventSchema,
    LabelTrie,
    SchemaError,
    SchemaTries,
    parse_schema,
    split_label,
)

from oracles import label_node, label_paths, random_schema


def test_split_label_hyphen():
    assert split_label("Transfer-Ownership") == ("Transfer", "Ownership")


def test_split_label_single_token():
    assert split_label("Attack") == ("Attack",)


def test_split_label_whitespace_and_mixed():
    assert split_label("Start Position") == ("Start", "Position")
    assert split_label("End-Org Merge") == ("End", "Org", "Merge")


def test_parse_schema_basic():
    schema = parse_schema(
        """
        # comment line
        Transport: Artifact, Origin, Destination

        Arrest-Jail: Person, Agent, Time
        Demonstrate:
        """
    )
    assert schema.types == ("Transport", "Arrest-Jail", "Demonstrate")
    assert schema.roles("Transport") == ("Artifact", "Origin", "Destination")
    assert schema.roles("Demonstrate") == ()
    assert "Arrest-Jail" in schema
    assert list(schema) == list(schema.types)


def test_parse_schema_preserves_declaration_order():
    schema = parse_schema("Zeta: R\nAlpha: R\nMid: R\n")
    assert schema.types == ("Zeta", "Alpha", "Mid")


def test_parse_schema_errors_carry_line_numbers():
    with pytest.raises(SchemaError) as exc:
        parse_schema("Transport: Artifact\nnot a schema line\n", source_name="s.txt")
    assert exc.value.location == "s.txt:2"
    assert "malformed" in str(exc.value)


@pytest.mark.parametrize(
    "text",
    [
        "Trans port: Role",  # space inside a type name
        "Type!: Role",
        "Type: Ro!le",
        "Type: Role, Role",
        "Type: Role\nType: Other",
        ": Role",
        "",
        "   \n# only comments\n",
    ],
)
def test_parse_schema_rejects(text):
    with pytest.raises(SchemaError):
        parse_schema(text)


def test_event_schema_rejects_bad_constructions():
    with pytest.raises(SchemaError):
        EventSchema({})
    with pytest.raises(SchemaError):
        EventSchema({"Ok": ("R", "R")})
    with pytest.raises(SchemaError):
        EventSchema({"Bad Name": ()})
    with pytest.raises(SchemaError):
        EventSchema({"Ok": ()}).roles("Missing")
    # a str is iterable, so it would otherwise be read as one role per letter
    with pytest.raises(SchemaError, match=r"^roles of event type 'Attack' must be a list"):
        EventSchema({"Attack": "Target"})


def test_label_trie_paths_round_trip():
    labels = ["Transfer-Ownership", "Transfer-Money", "Attack"]
    trie = LabelTrie.build(labels)
    assert dict(label_paths(trie)) == {
        ("Transfer", "Ownership"): "Transfer-Ownership",
        ("Transfer", "Money"): "Transfer-Money",
        ("Attack",): "Attack",
    }


def test_label_trie_children_and_leaf_flags():
    trie = LabelTrie.build(["Transfer-Ownership", "Transfer-Money", "Attack"])

    def children(prefix):
        return frozenset(
            (token, child.is_leaf)
            for token, child in label_node(trie, prefix).children.items()
        )

    assert children(()) == frozenset([("Transfer", False), ("Attack", True)])
    assert children(("Transfer",)) == frozenset([("Ownership", True), ("Money", True)])
    with pytest.raises(KeyError):
        label_node(trie, ("Bogus",))


def test_label_trie_prefix_label_keeps_both():
    # "End" is a strict token-prefix of "End-Position": the node is both
    # a leaf and an inner node.
    trie = LabelTrie.build(["End", "End-Position"])
    node = label_node(trie, ("End",))
    assert node.label == "End"
    assert set(node.children) == {"Position"}
    assert dict(label_paths(trie)) == {
        ("End",): "End",
        ("End", "Position"): "End-Position",
    }


def test_label_trie_identical_tokenization_collides():
    with pytest.raises(SchemaError) as exc:
        LabelTrie.build(["End-Position", "End Position"])
    assert "tokenize identically" in str(exc.value)


def test_label_trie_empty():
    assert LabelTrie.build([]).is_empty
    assert not LabelTrie.build(["A"]).is_empty


def test_build_tries_from_schema(fig_schema):
    tries = SchemaTries.from_schema(fig_schema)
    assert sorted(label for _, label in label_paths(tries.type_trie)) == [
        "Arrest-Jail",
        "Transport",
    ]
    role_tries = tries.role_tries
    assert set(role_tries) == {"Transport", "Arrest-Jail"}
    assert dict(label_paths(role_tries["Arrest-Jail"])) == {
        ("Person",): "Person",
        ("Agent",): "Agent",
        ("Time",): "Time",
    }
    empty = SchemaTries.from_schema(EventSchema({"NoArgs": ()})).role_tries["NoArgs"]
    assert empty.is_empty


def test_schema_tries_are_built_once_per_schema(fig_schema):
    schema = EventSchema(dict(fig_schema.event_types))
    tries = schema.tries
    assert schema.tries is tries
    fresh = SchemaTries.from_schema(schema)
    assert dict(label_paths(tries.type_trie)) == dict(label_paths(fresh.type_trie))
    assert {t: dict(label_paths(trie)) for t, trie in tries.role_tries.items()} == {
        t: dict(label_paths(trie)) for t, trie in fresh.role_tries.items()
    }
    # the cache is per object and leaves equality alone
    other = EventSchema(dict(fig_schema.event_types))
    assert other == schema and other.tries is not tries


@given(st.integers(min_value=0, max_value=10_000))
def test_random_schema_tries_enumerate_all_labels(seed):
    rng = random.Random(seed)
    schema = random_schema(rng, max_types=8, max_roles=4)
    tries = SchemaTries.from_schema(schema)
    assert sorted(label for _, label in label_paths(tries.type_trie)) == sorted(schema.types)
    for event_type in schema.types:
        role_trie = tries.role_tries[event_type]
        assert sorted(label for _, label in label_paths(role_trie)) == sorted(
            schema.roles(event_type)
        )
        for path, label in label_paths(role_trie):
            assert path == split_label(label)
    names = list(schema.types) + [r for t in schema.types for r in schema.roles(t)]
    label_tokens = schema.label_tokens
    assert label_tokens == {tok for name in names for tok in split_label(name)}
    assert schema.label_tokens is label_tokens


@given(st.integers(min_value=0, max_value=10_000))
def test_label_paths_and_nodes_match_the_schema_labels(seed):
    schema = random_schema(random.Random(seed), max_types=8, max_roles=4)
    tries = SchemaTries.from_schema(schema)
    tries_and_labels = [(tries.type_trie, schema.types)] + [
        (tries.role_tries[t], schema.roles(t)) for t in schema.types
    ]
    for trie, labels in tries_and_labels:
        want = {split_label(label): label for label in labels}
        paths = label_paths(trie)
        assert len(paths) == len(labels) and dict(paths) == want
        prefixes = {path[:i] for path in want for i in range(len(path) + 1)}
        for prefix in prefixes:
            node = label_node(trie, prefix)
            assert node.label == want.get(prefix)
            assert set(node.children) == {
                path[len(prefix)] for path in prefixes
                if len(path) == len(prefix) + 1 and path[:-1] == prefix
            }
        with pytest.raises(KeyError):
            label_node(trie, ("no such token",))
