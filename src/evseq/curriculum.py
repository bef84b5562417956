"""Substructure curriculum construction and synthetic training corpora.

A substructure unit is one flat "( label span )" fragment: the event
type with its trigger words, or a role with its argument words.  Easy
targets made of such units are trained first, the full nested structures
second.  For the count-based scorer an epoch count is a pass weight:
the curriculum's table is sub_epochs times the substructure counts plus
full_epochs times the full-target counts, the same table as counting
each target that many times.

The synthetic generator plants mentions into filler sentences so that
every mention occurs exactly once per sentence and triggers appear in
record order; grounding therefore reconstructs the planted offsets
exactly, which makes end-to-end pipeline tests deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from math import fsum
from typing import Iterable, Sequence

from .codec import Argument, EventRecord, Mention, _ordered, linearize, mention_tokens
from .dataio import Example
from .decoder import sequence_nll
from .schema import EventSchema, split_label
from .scorers import (
    EMPTY_CORPUS,
    Counts,
    NgramScorer,
    add_counts,
    count_ngrams,
    train_ngram,
)
from .span_index import TokenizedInput, token_strings
from .tokens import CLOSE, OPEN

Pair = tuple[TokenizedInput, Sequence[EventRecord]]
TargetPair = tuple[TokenizedInput, tuple[str, ...]]


def substructure_units(
    records: Sequence[EventRecord],
) -> list[tuple[str, tuple[str, ...]]]:
    """(label, span tokens) units in record order: each trigger, then its args.

    Records follow trigger appearance order and arguments follow span
    appearance order within their record, matching the linearized form.
    """
    units = []
    for _, args, record in _ordered(records):
        units.append((record.type, mention_tokens(record.trigger)))
        for arg in args:
            units.append((arg.role, mention_tokens(arg.mention)))
    return units


def extract_substructures(
    inp: TokenizedInput,
    records: Sequence[EventRecord],
    mode: str = "concatenated",
) -> list[TargetPair]:
    """Build flat substructure training pairs for one sentence.

    concatenated: one pair whose target wraps all units in a single
    root, "( ( Transport returned ) ( Artifact The man ) ... )"; a
    sentence with no events yields the target "( )".
    per_unit: one root-wrapped pair per unit.
    """
    if mode not in ("concatenated", "per_unit"):
        raise ValueError(f"unknown substructure mode {mode!r}")
    units = [
        (OPEN, *split_label(label), *span, CLOSE)
        for label, span in substructure_units(records)
    ]
    if mode == "per_unit":
        return [(inp, (OPEN, *unit, CLOSE)) for unit in units]
    return [(inp, (OPEN, *chain.from_iterable(units), CLOSE))]


DEFAULT_WORDS = (
    "alder", "basil", "cedar", "dahlia", "elm", "fennel", "garnet", "hazel",
    "iris", "jasper", "kelp", "laurel", "maple", "nettle", "olive", "poplar",
    "quartz", "rowan", "sage", "tulip", "umber", "violet", "willow", "yarrow",
    "anchor", "bridge", "canal", "dock", "engine", "ferry", "glacier", "harbor",
    "island", "jetty", "keel", "lagoon", "meadow", "north", "orchard", "plaza",
    "quarry", "river", "summit", "tunnel", "upland", "valley", "wharf", "zenith",
)


def generate_synthetic(
    schema: EventSchema,
    vocab: Sequence[str] = DEFAULT_WORDS,
    seed: int = 0,
    n_sentences: int = 100,
    max_events: int = 3,
    max_args: int = 3,
) -> list[Example]:
    """Plant schema-valid events into filler sentences, deterministically.

    Each word of ``vocab`` is used once, and only if the tokenizer reads
    it back as that one token and it is no schema label token.  Mention
    words are drawn without replacement within a sentence and filler
    words only from the leftovers, so every mention's token sequence
    occurs exactly once.  Event count per sentence is uniform on
    0..max_events, so a fraction of sentences carry no events.
    """
    excluded = schema._reserved_and_label_tokens
    words = [
        w for w in dict.fromkeys(vocab) if w not in excluded and token_strings(w) == (w,)
    ]
    if len(words) < 12:
        raise ValueError(
            f"need at least 12 usable filler words, got {len(words)} after removing "
            "repeats, schema label tokens and words the tokenizer splits"
        )
    rng = random.Random(seed)
    examples = []
    for i in range(n_sentences):
        pool = list(words)
        rng.shuffle(pool)
        planned = []  # (event_type, trigger tokens, [(role, arg tokens)])
        for _ in range(rng.randint(0, max_events)):
            event_type = rng.choice(schema.types)
            roles = schema.roles(event_type)
            n_args = rng.randint(0, min(max_args, len(roles)))
            # keep a few words back so filler positions stay fillable
            if len(pool) < 2 + 2 * n_args + 4:
                break
            trigger = [pool.pop() for _ in range(rng.randint(1, 2))]
            args = [
                (role, [pool.pop() for _ in range(rng.randint(1, 2))])
                for role in rng.sample(roles, n_args)
            ]
            planned.append((event_type, trigger, args))

        spans = []  # (event index, arg index or None, tokens)
        for ei, (_, trigger, args) in enumerate(planned):
            spans.append((ei, None, trigger))
            for ai, (_, toks) in enumerate(args):
                spans.append((ei, ai, toks))
        rng.shuffle(spans)
        sentence: list[str] = []
        starts: dict[tuple[int, int | None], int] = {}
        for ei, ai, toks in spans:
            for _ in range(rng.randint(0, 2)):
                sentence.append(rng.choice(pool))
            starts[(ei, ai)] = len(sentence)
            sentence.extend(toks)
        for _ in range(rng.randint(0, 2)):
            sentence.append(rng.choice(pool))
        if not sentence:
            sentence = [rng.choice(pool) for _ in range(rng.randint(1, 3))]

        inp = TokenizedInput.from_tokens(sentence)

        def mention(toks: list[str], start: int) -> Mention:
            return Mention(" ".join(toks), start, inp.char_spans[start][0])

        records = []
        for ei, (event_type, trigger, args) in enumerate(planned):
            arguments = tuple(
                Argument(role, mention(toks, starts[(ei, ai)]))
                for ai, (role, toks) in enumerate(args)
            )
            arguments = tuple(
                sorted(arguments, key=lambda a: (a.mention.token_start, a.role))
            )
            records.append(
                EventRecord(event_type, mention(trigger, starts[(ei, None)]), arguments)
            )
        records.sort(key=lambda r: (r.trigger.token_start, r.type))
        examples.append(Example(f"synth-{seed}-{i:04d}", inp, tuple(records)))
    return examples


def dataset_stats(examples: Sequence[Example]) -> dict:
    """Corpus shape summary: sentence, event, and argument totals."""
    n_events = sum(len(ex.records) for ex in examples)
    n_args = sum(len(r.args) for ex in examples for r in ex.records)
    return {
        "sentences": len(examples),
        "sentences_with_events": sum(1 for ex in examples if ex.records),
        "events": n_events,
        "arguments": n_args,
        "event_types": len({r.type for ex in examples for r in ex.records}),
    }


def split_corpus(
    pairs: Sequence[Pair], heldout_fraction: float = 0.2, seed: int = 0
) -> tuple[list[Pair], list[Pair]]:
    """Deterministic shuffle split into (train, heldout); both non-empty."""
    items = list(pairs)
    if len(items) < 2:
        raise ValueError("need at least 2 sentences to split off a held-out set")
    if not 0.0 < heldout_fraction < 1.0:
        raise ValueError("heldout_fraction must be in (0, 1)")
    order = list(range(len(items)))
    random.Random(seed).shuffle(order)
    n_held = min(max(1, round(heldout_fraction * len(items))), len(items) - 1)
    held_idx = set(order[:n_held])
    train = [items[i] for i in range(len(items)) if i not in held_idx]
    heldout = [items[i] for i in range(len(items)) if i in held_idx]
    return train, heldout


@dataclass(frozen=True)
class CurriculumResult:
    """Both training regimes plus their held-out NLLs, side by side."""

    scorer_curriculum: NgramScorer
    scorer_direct: NgramScorer
    heldout_nll_curriculum: float
    heldout_nll_direct: float
    n_train: int
    n_heldout: int

    def format_text(self) -> str:
        return (
            f"train sentences:    {self.n_train}\n"
            f"held-out sentences: {self.n_heldout}\n"
            f"held-out NLL (curriculum): {self.heldout_nll_curriculum:.4f}\n"
            f"held-out NLL (direct):     {self.heldout_nll_direct:.4f}"
        )


def _label_vocab(pairs: Iterable[Pair]) -> set[str]:
    vocab: set[str] = set()
    for _, records in pairs:
        for record in records:
            vocab.update(split_label(record.type))
            for arg in record.args:
                vocab.update(split_label(arg.role))
    return vocab


def _mean(values: list[float]) -> float:
    # what statistics.fmean computes (3.10-3.13), without importing
    # statistics and, through it, decimal
    return fsum(values) / len(values)


def curriculum_train(
    corpus: Sequence[Pair],
    n: int = 3,
    alpha: float = 0.1,
    copy_boost: float = 4.0,
    sub_epochs: int = 5,
    full_epochs: int = 30,
    heldout_fraction: float = 0.2,
    seed: int = 0,
    mode: str = "concatenated",
) -> CurriculumResult:
    """Train curriculum and direct regimes, score both on held-out NLL.

    The curriculum scorer counts substructure targets ``sub_epochs``
    times and full targets ``full_epochs`` times; the direct scorer is
    exactly one pass over full targets, and its counts are the full
    targets' share of the curriculum table.  For a count model an epoch
    count is a count weight (one ≤ 0 adds nothing), and under add-α
    smoothing w passes at α give the distribution of one pass at α/w:
    at the defaults the curriculum scorer (30 full passes) is smoothed
    about 30 times more weakly than the direct one.  Label tokens from
    the whole corpus are folded into the vocabulary so held-out NLLs
    stay finite under smoothing.
    """
    train, heldout = split_corpus(corpus, heldout_fraction, seed)
    extra_vocab = _label_vocab(corpus)
    full = [(inp, linearize(records)) for inp, records in train]
    subs: list[TargetPair] = []
    for inp, records in train:
        subs.extend(extract_substructures(inp, records, mode))
    # the counts of subs * sub_epochs + full * full_epochs, without
    # building that list; an epoch count <= 0 adds no key at all
    if not ((sub_epochs > 0 and subs) or (full_epochs > 0 and full)):
        raise ValueError(EMPTY_CORPUS)
    scorer_direct = train_ngram(full, n, alpha, copy_boost, extra_vocab)
    counts: Counts = {}
    if sub_epochs > 0:
        add_counts(counts, count_ngrams((t for _, t in subs), n), sub_epochs)
    if full_epochs > 0:
        add_counts(counts, scorer_direct.counts, full_epochs)
    scorer_curriculum = NgramScorer(n, counts, alpha, copy_boost, extra_vocab)
    heldout_targets = [(inp, linearize(records)) for inp, records in heldout]
    nll_curriculum = _mean(
        [sequence_nll(scorer_curriculum, inp, target) for inp, target in heldout_targets]
    )
    nll_direct = _mean(
        [sequence_nll(scorer_direct, inp, target) for inp, target in heldout_targets]
    )
    return CurriculumResult(
        scorer_curriculum,
        scorer_direct,
        nll_curriculum,
        nll_direct,
        len(train),
        len(heldout),
    )
