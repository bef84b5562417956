import math

import pytest

from evseq import (
    curriculum_train,
    delinearize,
    extract_substructures,
    find_occurrences,
    generate_synthetic,
    ground_records,
    linearize,
    read_dataset,
    save_scorer,
    train_ngram,
    write_dataset,
)
from evseq.curriculum import (
    DEFAULT_WORDS,
    _label_vocab,
    dataset_stats,
    split_corpus,
    substructure_units,
)

FIG_UNITS = [
    ("Transport", ("returned",)),
    ("Artifact", ("The", "man")),
    ("Destination", ("Los", "Angeles")),
    ("Origin", ("Mexico",)),
    ("Arrest-Jail", ("capture",)),
    ("Person", ("The", "man")),
    ("Time", ("Tuesday",)),
    ("Agent", ("bounty", "hunters")),
]


def test_substructure_units_worked_example(fig_records):
    assert substructure_units(fig_records) == FIG_UNITS


def test_substructure_units_follow_record_order(fig_records):
    # Trigger first, then that record's arguments, then the next record;
    # argument spans are not globally re-sorted across records ("The man"
    # at token 0 stays behind the Arrest-Jail trigger it belongs to).
    labels = [label for label, _ in substructure_units(fig_records)]
    assert labels.index("Person") > labels.index("Arrest-Jail")
    assert labels.index("Arrest-Jail") > labels.index("Origin")


def test_extract_substructures_concatenated(fig_input, fig_records):
    pairs = extract_substructures(fig_input, fig_records, mode="concatenated")
    assert len(pairs) == 1
    inp, target = pairs[0]
    assert inp is fig_input
    expected = (
        "( ( Transport returned ) ( Artifact The man ) "
        "( Destination Los Angeles ) ( Origin Mexico ) ( Arrest Jail capture ) "
        "( Person The man ) ( Time Tuesday ) ( Agent bounty hunters ) )"
    ).split()
    assert list(target) == expected


def test_extract_substructures_per_unit(fig_input, fig_records):
    pairs = extract_substructures(fig_input, fig_records, mode="per_unit")
    assert len(pairs) == 8
    targets = [target for _, target in pairs]
    assert targets[0] == ("(", "(", "Transport", "returned", ")", ")")
    assert targets[4] == ("(", "(", "Arrest", "Jail", "capture", ")", ")")
    for target in targets:
        assert target[0] == "(" and target[-1] == ")"
        depth = 0
        for token in target:
            depth += {"(": 1, ")": -1}.get(token, 0)
            assert depth in (0, 1, 2)
        assert depth == 0


def test_extract_substructures_empty_sentence(fig_input):
    assert extract_substructures(fig_input, [], mode="concatenated") == [
        (fig_input, ("(", ")"))
    ]
    assert extract_substructures(fig_input, [], mode="per_unit") == []


def test_extract_substructures_rejects_unknown_mode(fig_input):
    with pytest.raises(ValueError):
        extract_substructures(fig_input, [], mode="shuffled")


# ----------------------------------------------------------------- synthetic


def test_generate_synthetic_is_deterministic(fig_schema):
    a = generate_synthetic(fig_schema, seed=11, n_sentences=25)
    b = generate_synthetic(fig_schema, seed=11, n_sentences=25)
    assert a == b
    c = generate_synthetic(fig_schema, seed=12, n_sentences=25)
    assert a != c


def test_generate_synthetic_mentions_occur_exactly_once(fig_schema):
    for ex in generate_synthetic(fig_schema, seed=5, n_sentences=40):
        for record in ex.records:
            mentions = [record.trigger] + [a.mention for a in record.args]
            for mention in mentions:
                occs = find_occurrences(ex.inp.tokens, mention.tokens)
                assert occs == [mention.token_start]


def test_generate_synthetic_records_are_schema_valid_and_ordered(fig_schema):
    for ex in generate_synthetic(fig_schema, seed=7, n_sentences=40):
        trigger_starts = [r.trigger.token_start for r in ex.records]
        assert trigger_starts == sorted(trigger_starts)
        for record in ex.records:
            assert record.type in fig_schema
            allowed = fig_schema.roles(record.type)
            arg_starts = [a.mention.token_start for a in record.args]
            assert arg_starts == sorted(arg_starts)
            roles = [a.role for a in record.args]
            assert len(set(roles)) == len(roles)  # sampled without replacement
            for arg in record.args:
                assert arg.role in allowed


def test_generate_synthetic_grounding_recovers_planted_offsets(fig_schema):
    # The loop the generator is built for: linearize, parse, re-ground,
    # compare offsets against the planted ones.
    for ex in generate_synthetic(fig_schema, seed=13, n_sentences=30):
        seq = linearize(ex.records, fig_schema)
        grounded = ground_records(delinearize(seq, fig_schema), ex.inp)
        assert len(grounded) == len(ex.records)
        for got, want in zip(grounded, ex.records):
            assert got.type == want.type
            assert got.trigger == want.trigger
            assert got.args == want.args


def test_generate_synthetic_zero_events(fig_schema):
    examples = generate_synthetic(fig_schema, seed=2, n_sentences=10, max_events=0)
    assert all(ex.records == () for ex in examples)
    assert all(linearize(ex.records) == ("(", ")") for ex in examples)
    assert all(len(ex.inp) >= 1 for ex in examples)


def test_generate_synthetic_excludes_label_words():
    from evseq import parse_schema

    schema = parse_schema("alder: basil")  # collides with filler vocabulary
    for ex in generate_synthetic(schema, seed=1, n_sentences=15):
        assert "alder" not in ex.inp.tokens
        assert "basil" not in ex.inp.tokens


def test_generate_synthetic_skips_repeated_and_split_words(fig_schema, tmp_path):
    # the tokenizer splits "well-known", "don't" and "x.y", so their
    # offsets would not read back; a repeated word would occur twice
    words = [*DEFAULT_WORDS[:12], "well-known", "don't", "x.y", "(", ""]
    examples = generate_synthetic(fig_schema, vocab=words * 3, seed=4, n_sentences=200)
    assert examples == generate_synthetic(fig_schema, vocab=DEFAULT_WORDS[:12], seed=4,
                                          n_sentences=200)
    path = tmp_path / "synth.jsonl"
    write_dataset(examples, path)
    readback = read_dataset(path)
    assert readback == examples
    for ex in readback:
        seq = linearize(ex.records, fig_schema)
        assert ground_records(delinearize(seq, fig_schema), ex.inp) == ex.records


def test_generate_synthetic_needs_enough_words(fig_schema):
    with pytest.raises(ValueError):
        generate_synthetic(fig_schema, vocab=DEFAULT_WORDS[:8])


def test_dataset_stats(fig_schema):
    examples = generate_synthetic(fig_schema, seed=4, n_sentences=30)
    stats = dataset_stats(examples)
    assert stats["sentences"] == 30
    assert stats["events"] == sum(len(ex.records) for ex in examples)
    assert stats["arguments"] == sum(
        len(r.args) for ex in examples for r in ex.records
    )
    assert 0 < stats["sentences_with_events"] <= 30
    assert stats["event_types"] <= 2


# ------------------------------------------------------------------ training


def synthetic_pairs(schema, seed=0, n=24):
    return [ex.pair for ex in generate_synthetic(schema, seed=seed, n_sentences=n)]


def test_split_corpus_partitions(fig_schema):
    pairs = synthetic_pairs(fig_schema)
    train, heldout = split_corpus(pairs, heldout_fraction=0.25, seed=3)
    assert len(train) + len(heldout) == len(pairs)
    assert len(heldout) == round(0.25 * len(pairs))
    again_train, again_heldout = split_corpus(pairs, heldout_fraction=0.25, seed=3)
    assert (train, heldout) == (again_train, again_heldout)
    ids = lambda part: {id(inp) for inp, _ in part}
    assert ids(train) | ids(heldout) == ids(pairs)
    assert not ids(train) & ids(heldout)


def test_split_corpus_always_leaves_both_sides_non_empty(fig_schema):
    pairs = synthetic_pairs(fig_schema, n=3)
    train, heldout = split_corpus(pairs, heldout_fraction=0.01)
    assert len(heldout) == 1 and len(train) == 2
    train, heldout = split_corpus(pairs, heldout_fraction=0.99)
    assert len(heldout) == 2 and len(train) == 1


def test_split_corpus_validation(fig_schema):
    with pytest.raises(ValueError):
        split_corpus(synthetic_pairs(fig_schema, n=1) )
    with pytest.raises(ValueError):
        split_corpus(synthetic_pairs(fig_schema), heldout_fraction=0.0)


def scaled(counts, factor):
    return {
        k: {
            ctx: {tok: c * factor for tok, c in table.items()}
            for ctx, table in tables.items()
        }
        for k, tables in counts.items()
    }


def merged(a, b):
    out = {}
    for k in set(a) | set(b):
        out[k] = {}
        for src in (a.get(k, {}), b.get(k, {})):
            for ctx, table in src.items():
                dst = out[k].setdefault(ctx, {})
                for tok, c in table.items():
                    dst[tok] = dst.get(tok, 0) + c
    return out


@pytest.mark.parametrize(
    "sub_epochs, full_epochs, mode, with_events",
    [
        (5, 30, "concatenated", True),
        (2, 7, "per_unit", True),
        (0, 30, "concatenated", True),
        (-2, 3, "concatenated", True),
        (4, 0, "per_unit", True),
        (3, -1, "concatenated", True),
        (0, 0, "concatenated", True),
        (5, 30, "per_unit", False),
        (5, 0, "per_unit", False),
    ],
    ids=[
        "default",
        "per_unit",
        "sub_epochs_0",
        "sub_epochs_negative",
        "full_epochs_0",
        "full_epochs_negative",
        "both_epochs_0",
        "per_unit_no_events",
        "per_unit_no_events_full_epochs_0",
    ],
)
def test_curriculum_counts_are_weighted_sums(
    fig_schema, tmp_path, sub_epochs, full_epochs, mode, with_events
):
    pairs = synthetic_pairs(fig_schema)
    if not with_events:
        pairs = [(inp, ()) for inp, _ in pairs]
    train, _ = split_corpus(pairs, heldout_fraction=0.2, seed=0)
    full = [(inp, linearize(records)) for inp, records in train]
    subs = []
    for inp, records in train:
        subs.extend(extract_substructures(inp, records, mode))
    # the training list the epochs stand for: each target repeated
    replicated = subs * sub_epochs + full * full_epochs

    def run():
        return curriculum_train(
            pairs, sub_epochs=sub_epochs, full_epochs=full_epochs, seed=0, mode=mode
        )

    if not replicated:
        with pytest.raises(ValueError, match="empty corpus"):
            train_ngram(replicated)
        with pytest.raises(ValueError, match="empty corpus"):
            run()
        return
    result = run()
    expected = train_ngram(replicated, extra_vocab=_label_vocab(pairs))
    assert result.scorer_curriculum.counts == expected.counts
    save_scorer(result.scorer_curriculum, tmp_path / "weighted.json")
    save_scorer(expected, tmp_path / "replicated.json")
    assert (tmp_path / "weighted.json").read_bytes() == (
        tmp_path / "replicated.json"
    ).read_bytes()
    if sub_epochs > 0 and full_epochs > 0 and subs:
        sub_counts = train_ngram(subs).counts
        full_counts = train_ngram(full).counts
        assert result.scorer_curriculum.counts == merged(
            scaled(sub_counts, sub_epochs), scaled(full_counts, full_epochs)
        )


def test_direct_scorer_is_exactly_one_pass(fig_schema):
    pairs = synthetic_pairs(fig_schema)
    result = curriculum_train(pairs, seed=0)
    train, _ = split_corpus(pairs, heldout_fraction=0.2, seed=0)
    full = [(inp, linearize(records)) for inp, records in train]
    direct = result.scorer_direct
    assert direct.counts == train_ngram(full).counts
    assert direct.order == 3
    assert (direct.alpha, direct.copy_boost) == (0.1, 4.0)


def test_curriculum_heldout_nlls_are_finite(fig_schema):
    result = curriculum_train(synthetic_pairs(fig_schema), seed=1)
    assert math.isfinite(result.heldout_nll_curriculum)
    assert math.isfinite(result.heldout_nll_direct)
    assert result.heldout_nll_curriculum > 0
    assert result.heldout_nll_direct > 0
    assert result.n_train + result.n_heldout == 24
    text = result.format_text()
    assert "held-out NLL (curriculum)" in text
    assert "held-out NLL (direct)" in text


def test_curriculum_per_unit_mode_trains(fig_schema):
    result = curriculum_train(synthetic_pairs(fig_schema), mode="per_unit", seed=1)
    assert math.isfinite(result.heldout_nll_curriculum)


def test_curriculum_scorers_share_label_vocabulary(fig_schema):
    # Held-out sentences can contain label tokens absent from the train
    # split; both scorers must still assign them probability mass.
    result = curriculum_train(synthetic_pairs(fig_schema), seed=1)
    for token in ("Transport", "Arrest", "Jail", "Person", "Agent", "Time"):
        assert token in result.scorer_direct.vocab
        assert token in result.scorer_curriculum.vocab
