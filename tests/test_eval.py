import random

import pytest

from evseq import Argument, EventRecord, Mention, MetricCounts, evaluate
from evseq.evaluation import METRIC_NAMES

from oracles import max_one_to_one_matches, random_eval_records


def rec(type_, start, length=1, *args):
    trigger = Mention(" ".join(["w"] * length), start)
    return EventRecord(
        type_,
        trigger,
        tuple(
            Argument(role, Mention(" ".join(["v"] * alen), astart))
            for role, astart, alen in args
        ),
    )


def test_metric_counts_arithmetic():
    c = MetricCounts(gold=4, predicted=2, matched=2)
    assert c.precision == 1.0
    assert c.recall == 0.5
    assert c.f1 == pytest.approx(2 / 3)


def test_metric_counts_empty_is_zero_not_nan():
    zero = MetricCounts()
    assert (zero.precision, zero.recall, zero.f1) == (0.0, 0.0, 0.0)


def test_metric_counts_validate():
    with pytest.raises(ValueError):
        MetricCounts(gold=1, predicted=0, matched=1)


TOY_GOLD = [
    ("s1", [rec("EvA", 0, 1, ("RoleX", 2, 1))]),
    ("s2", [rec("EvA", 1, 1, ("RoleX", 3, 1))]),
    ("s3", [rec("EvA", 2, 1, ("RoleX", 4, 1))]),
]
# s1 exact, s2 wrong role, s3 wrong event type.
TOY_PRED = [
    ("s1", [rec("EvA", 0, 1, ("RoleX", 2, 1))]),
    ("s2", [rec("EvA", 1, 1, ("RoleY", 3, 1))]),
    ("s3", [rec("EvB", 2, 1, ("RoleX", 4, 1))]),
]


def test_toy_corpus_frozen_metrics():
    report = evaluate(TOY_GOLD, TOY_PRED)
    assert report.trig_i == MetricCounts(3, 3, 3)
    assert report.trig_c == MetricCounts(3, 3, 2)
    assert report.arg_i == MetricCounts(3, 3, 2)
    assert report.arg_c == MetricCounts(3, 3, 1)
    assert report.trig_i.f1 == 1.0
    assert report.trig_c.f1 == pytest.approx(2 / 3)
    assert report.arg_i.f1 == pytest.approx(2 / 3)
    assert report.arg_c.f1 == pytest.approx(1 / 3)


def test_wrong_type_breaks_argument_identification():
    # Arg-I keys include the containing event type on purpose: the same
    # span under the wrong event does not identify the argument.
    gold = [("s", [rec("EvA", 0, 1, ("RoleX", 2, 1))])]
    pred = [("s", [rec("EvB", 0, 1, ("RoleX", 2, 1))])]
    report = evaluate(gold, pred)
    assert report.trig_i.matched == 1
    assert report.arg_i.matched == 0


def test_swapping_gold_and_predictions_swaps_precision_recall():
    forward = evaluate(TOY_GOLD, TOY_PRED)
    backward = evaluate(TOY_PRED, TOY_GOLD)
    for metric in METRIC_NAMES:
        f, b = forward.counts(metric), backward.counts(metric)
        assert f.matched == b.matched
        assert f.precision == b.recall
        assert f.recall == b.precision
        assert f.f1 == pytest.approx(b.f1)


def test_equal_keys_in_different_sentences_never_match():
    gold = [("s0", [rec("EvA", 0, 1, ("RoleX", 2, 1))]), ("s1", [])]
    pred = [("s0", []), ("s1", [rec("EvA", 0, 1, ("RoleX", 2, 1))])]
    report = evaluate(gold, pred)
    for metric in METRIC_NAMES:
        assert report.counts(metric) == MetricCounts(1, 1, 0)


def test_errors_are_raised_at_the_first_bad_sentence():
    ungrounded = [EventRecord("EvA", Mention("w"))]
    gold = [("s0", [rec("EvA", 0)]), ("s1", ungrounded), ("s2", [])]
    with pytest.raises(ValueError, match="in sentence 's1' has no offsets"):
        evaluate(gold, [("s0", []), ("s1", []), ("other", [])])
    gold = [("s0", [rec("EvA", 0)]), ("s1", []), ("s2", ungrounded)]
    with pytest.raises(ValueError, match="gold 's1' vs predicted 'other'"):
        evaluate(gold, [("s0", []), ("other", []), ("s2", [])])


def test_trigger_span_length_matters():
    gold = [("s", [rec("EvA", 0, 2)])]
    pred = [("s", [rec("EvA", 0, 1)])]
    assert evaluate(gold, pred).trig_i.matched == 0


def test_duplicate_keys_match_min_count():
    gold = [("s", [rec("EvA", 0), rec("EvA", 0)])]
    one = [("s", [rec("EvA", 0)])]
    three = [("s", [rec("EvA", 0), rec("EvA", 0), rec("EvA", 0)])]
    assert evaluate(gold, one).trig_c == MetricCounts(2, 1, 1)
    assert evaluate(gold, three).trig_c == MetricCounts(2, 3, 2)


def test_ungrounded_prediction_counts_against_precision():
    gold = [("s", [rec("EvA", 0)])]
    pred = [("s", [EventRecord("EvA", Mention("w"))])]
    report = evaluate(gold, pred)
    assert report.trig_i == MetricCounts(1, 1, 0)
    assert report.trig_i.f1 == 0.0


def test_ungrounded_gold_is_an_error():
    gold = [("s", [EventRecord("EvA", Mention("w"))])]
    with pytest.raises(ValueError):
        evaluate(gold, [("s", [])])
    arg_gold = [("s", [EventRecord("EvA", Mention("w", 0), (Argument("R", Mention("v")),))])]
    with pytest.raises(ValueError):
        evaluate(arg_gold, [("s", [])])


def test_empty_corpora_and_empty_sentences():
    report = evaluate([], [])
    assert report.trig_i == MetricCounts(0, 0, 0)
    report = evaluate([("s", [])], [("s", [])])
    assert report.as_dict()["arg_c"]["f1"] == 0.0
    # Missing predictions: zero precision denominators stay safe.
    report = evaluate([("s", [rec("EvA", 0)])], [("s", [])])
    assert report.trig_i == MetricCounts(1, 0, 0)
    assert report.trig_i.f1 == 0.0


def test_alignment_errors():
    with pytest.raises(ValueError):
        evaluate([("a", [])], [])
    with pytest.raises(ValueError):
        evaluate([("a", [])], [("b", [])])


def test_report_accessors():
    report = evaluate(TOY_GOLD, TOY_PRED)
    with pytest.raises(KeyError):
        report.counts("accuracy")
    d = report.as_dict()
    assert set(d) == set(METRIC_NAMES)
    assert d["trig_c"]["matched"] == 2
    text = report.format_text()
    assert "Trig-I" in text and "Arg-C" in text
    assert "P=1.0000 R=1.0000 F1=1.0000" in text


# ------------------------------------------------- against exhaustive search


def items_for_metric(records, metric):
    # Test-local key extraction, written against the metric definitions
    # rather than the implementation.
    out = []
    for r in records:
        t_span = (r.trigger.token_start, r.trigger.token_end)
        if metric == "trig_i":
            out.append(t_span)
        elif metric == "trig_c":
            out.append(t_span + (r.type,))
        else:
            for a in r.args:
                a_span = (a.mention.token_start, a.mention.token_end, r.type)
                out.append(a_span if metric == "arg_i" else a_span + (a.role,))
    return out


def test_greedy_matching_equals_exhaustive_on_random_pairs():
    rng = random.Random(99)
    for _ in range(60):
        gold = random_eval_records(rng)
        pred = random_eval_records(rng)
        report = evaluate([("s", gold)], [("s", pred)])
        for metric in METRIC_NAMES:
            g_items = items_for_metric(gold, metric)
            p_items = items_for_metric(pred, metric)
            counts = report.counts(metric)
            assert counts.gold == len(g_items)
            assert counts.predicted == len(p_items)
            assert counts.matched == max_one_to_one_matches(g_items, p_items)


def test_adding_a_perfect_sentence_never_lowers_f1():
    rng = random.Random(5)
    for _ in range(30):
        gold = [("a", random_eval_records(rng))]
        pred = [("a", random_eval_records(rng))]
        extra = random_eval_records(rng)
        before = evaluate(gold, pred)
        after = evaluate(gold + [("b", extra)], pred + [("b", extra)])
        for metric in METRIC_NAMES:
            assert after.counts(metric).f1 >= before.counts(metric).f1 - 1e-12
