"""Trigger and argument identification/classification scoring.

Four micro-averaged metrics over a corpus of (gold, predicted) record
lists aligned by sentence id:

  Trig-I  trigger token span matches
  Trig-C  Trig-I and the event type matches
  Arg-I   argument token span and the containing event type match
  Arg-C   Arg-I and the role matches

Matching is one-to-one between items with equal keys, so a sentence
matches min(gold, predicted) occurrences of every key: the size of the
multiset intersection of its gold and predicted keys.  Every key starts
with its sentence's position in the corpus, so one intersection over
the whole corpus gives the sum of the per-sentence ones.  Keys are
compared by equality only, so no one-to-one matching can do better (an
item can only pair with an item of its own key, and each key pairs at
most min(gold, predicted) times); the test suite verifies this against
an exhaustive matcher.

Gold mentions must be grounded.  Ungrounded predictions are kept and
simply never match, which charges them to precision.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .codec import EventRecord


def safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass(frozen=True)
class MetricCounts:
    gold: int = 0
    predicted: int = 0
    matched: int = 0

    def __post_init__(self):
        if self.matched > min(self.gold, self.predicted):
            raise ValueError("matched count exceeds gold or predicted count")

    @property
    def precision(self) -> float:
        return safe_div(self.matched, self.predicted)

    @property
    def recall(self) -> float:
        return safe_div(self.matched, self.gold)

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return safe_div(2 * p * r, p + r)


METRIC_NAMES = ("trig_i", "trig_c", "arg_i", "arg_c")
_METRIC_LABELS = {
    "trig_i": "Trig-I",
    "trig_c": "Trig-C",
    "arg_i": "Arg-I",
    "arg_c": "Arg-C",
}


@dataclass(frozen=True)
class EvalReport:
    trig_i: MetricCounts
    trig_c: MetricCounts
    arg_i: MetricCounts
    arg_c: MetricCounts

    def counts(self, metric: str) -> MetricCounts:
        if metric not in METRIC_NAMES:
            raise KeyError(f"unknown metric {metric!r}")
        return getattr(self, metric)

    def as_dict(self) -> dict:
        out = {}
        for metric in METRIC_NAMES:
            c = self.counts(metric)
            out[metric] = {
                "gold": c.gold,
                "predicted": c.predicted,
                "matched": c.matched,
                "precision": c.precision,
                "recall": c.recall,
                "f1": c.f1,
            }
        return out

    def format_text(self) -> str:
        lines = []
        for metric in METRIC_NAMES:
            c = self.counts(metric)
            lines.append(
                f"{_METRIC_LABELS[metric]:7s} P={c.precision:.4f} R={c.recall:.4f} "
                f"F1={c.f1:.4f}  (gold {c.gold}, predicted {c.predicted}, "
                f"matched {c.matched})"
            )
        return "\n".join(lines)


def _collect_items(
    records: Sequence[EventRecord], position: int, items: tuple[list, ...]
) -> None:
    """Append each record's keys to ``items``, its trig_i, trig_c, arg_i
    and arg_c lists; every key starts with ``position``, the sentence's
    index in the corpus, so keys of different sentences never match."""
    trig_i, trig_c, arg_i, arg_c = items
    for record in records:
        trigger = record.trigger
        key = (position, trigger.token_start, trigger.token_end)
        trig_i.append(key)
        trig_c.append(key + (record.type,))
        for arg in record.args:
            key = (position, arg.mention.token_start, arg.mention.token_end, record.type)
            arg_i.append(key)
            arg_c.append(key + (arg.role,))


def _match_count(gold_items: list[tuple], pred_items: list[tuple]) -> int:
    """Size of a one-to-one matching: min(gold, predicted) per key, summed."""
    return sum((Counter(gold_items) & Counter(pred_items)).values())


def _require_grounded(records: Sequence[EventRecord], sent_id: str) -> None:
    for record in records:
        if not record.trigger.grounded:
            raise ValueError(
                f"gold trigger {record.trigger.text!r} in sentence {sent_id!r} "
                "has no offsets"
            )
        for arg in record.args:
            if not arg.mention.grounded:
                raise ValueError(
                    f"gold argument {arg.mention.text!r} in sentence {sent_id!r} "
                    "has no offsets"
                )


SentencePair = tuple[str, Sequence[EventRecord]]


def evaluate(
    gold: Iterable[SentencePair], predicted: Iterable[SentencePair]
) -> EvalReport:
    """Score predictions against gold; both are (sentence_id, records) pairs.

    The two sequences must be aligned: same length, same ids in the same
    order.  Gold records must carry offsets; ungrounded predicted
    mentions count as unmatched predictions.  Sentences are validated
    one by one, in order, while their keys are collected; each metric
    then takes one multiset intersection over the whole corpus.
    """
    gold = list(gold)
    predicted = list(predicted)
    if len(gold) != len(predicted):
        raise ValueError(
            f"gold has {len(gold)} sentences but predictions have {len(predicted)}"
        )
    gold_items = tuple([] for _ in METRIC_NAMES)
    pred_items = tuple([] for _ in METRIC_NAMES)
    for position, ((gold_id, gold_records), (pred_id, pred_records)) in enumerate(
        zip(gold, predicted)
    ):
        if gold_id != pred_id:
            raise ValueError(
                f"sentence id mismatch: gold {gold_id!r} vs predicted {pred_id!r}"
            )
        _require_grounded(gold_records, gold_id)
        _collect_items(gold_records, position, gold_items)
        _collect_items(pred_records, position, pred_items)
    return EvalReport(*(
        MetricCounts(len(g), len(p), _match_count(g, p))
        for g, p in zip(gold_items, pred_items)
    ))
