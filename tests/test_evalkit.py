import json
import math

import numpy as np
import pytest

from simrec import evalkit
from simrec.evalkit import PRF, aggregate_folds, prf_from_counts
from simrec.heads import Span


class TestCounts:
    def test_hand_computed_oracle(self):
        prf = prf_from_counts(tp=8, fp=2, fn=2)
        assert prf.precision == 0.8
        assert prf.recall == 0.8
        np.testing.assert_allclose(prf.f1, 0.8)
        assert not prf.degenerate

    def test_zero_counts_are_degenerate_not_an_error(self):
        prf = prf_from_counts(0, 0, 0)
        assert prf.precision == 0.0 and prf.recall == 0.0 and prf.f1 == 0.0
        assert prf.degenerate

    def test_no_predictions_but_gold_present(self):
        prf = prf_from_counts(0, 0, 5)
        assert prf.recall == 0.0 and prf.f1 == 0.0
        assert not prf.degenerate

    def test_asymmetric_counts(self):
        prf = prf_from_counts(tp=3, fp=1, fn=2)
        assert prf.precision == 0.75
        assert prf.recall == 0.6
        np.testing.assert_allclose(prf.f1, 2 * 0.75 * 0.6 / (0.75 + 0.6))


class TestClassification:
    def test_simile_is_the_positive_class(self):
        preds = ["simile", "simile", "literal", "literal"]
        golds = ["simile", "literal", "simile", "literal"]
        prf = evalkit.score_classification(preds, golds)
        assert (prf.tp, prf.fp, prf.fn) == (1, 1, 1)

    def test_all_literal_predictions_have_zero_recall(self):
        preds = ["literal"] * 4
        golds = ["simile", "simile", "literal", "literal"]
        prf = evalkit.score_classification(preds, golds)
        assert prf.recall == 0.0 and prf.tp == 0 and prf.fn == 2

    def test_perfect_predictions(self):
        golds = ["simile", "literal", "simile"]
        prf = evalkit.score_classification(list(golds), golds)
        assert prf.precision == prf.recall == prf.f1 == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="predictions"):
            evalkit.score_classification(["simile"], ["simile", "literal"])


class TestExtraction:
    def test_half_recall_oracle(self):
        # One sentence: predict one of two gold spans, nothing spurious.
        gold = [[Span(2, 3, "tenor"), Span(5, 6, "vehicle")]]
        pred = [[Span(2, 3, "tenor")]]
        prf = evalkit.score_extraction(pred, gold)
        assert prf.precision == 1.0
        assert prf.recall == 0.5
        np.testing.assert_allclose(prf.f1, 2 / 3)

    def test_off_by_one_counts_both_ways(self):
        gold = [[Span(2, 3, "tenor")]]
        pred = [[Span(2, 4, "tenor")]]
        prf = evalkit.score_extraction(pred, gold)
        assert (prf.tp, prf.fp, prf.fn) == (0, 1, 1)
        assert prf.f1 == 0.0

    def test_role_must_match(self):
        gold = [[Span(2, 3, "tenor")]]
        pred = [[Span(2, 3, "vehicle")]]
        prf = evalkit.score_extraction(pred, gold)
        assert (prf.tp, prf.fp, prf.fn) == (0, 1, 1)

    def test_spans_do_not_cross_sentences(self):
        gold = [[Span(1, 1, "tenor")], []]
        pred = [[], [Span(1, 1, "tenor")]]
        prf = evalkit.score_extraction(pred, gold)
        assert (prf.tp, prf.fp, prf.fn) == (0, 1, 1)

    def test_micro_average_pools_counts(self):
        gold = [[Span(1, 2, "tenor")], [Span(3, 3, "vehicle")], []]
        pred = [[Span(1, 2, "tenor")], [], [Span(9, 9, "tenor")]]
        prf = evalkit.score_extraction(pred, gold)
        assert (prf.tp, prf.fp, prf.fn) == (1, 1, 1)

    def test_order_within_sentence_irrelevant(self):
        a = [Span(1, 2, "tenor"), Span(4, 5, "vehicle")]
        b = list(reversed(a))
        prf = evalkit.score_extraction([a], [b])
        assert prf.f1 == 1.0

    def test_identical_sets_perfect(self):
        spans = [[Span(2, 2, "tenor"), Span(6, 6, "vehicle")], []]
        prf = evalkit.score_extraction(spans, [list(s) for s in spans])
        assert prf.precision == prf.recall == prf.f1 == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sentences"):
            evalkit.score_extraction([[]], [[], []])


class TestFoldAggregation:
    def test_mean_and_population_std(self):
        folds = [prf_from_counts(8, 2, 2), prf_from_counts(10, 0, 0)]
        agg = aggregate_folds(folds)
        np.testing.assert_allclose(agg["f1"]["mean"], 0.9)
        np.testing.assert_allclose(agg["f1"]["std"], 0.1)
        np.testing.assert_allclose(agg["precision"]["mean"], 0.9)

    def test_identical_folds_have_zero_spread(self):
        folds = [prf_from_counts(3, 1, 1)] * 4
        agg = aggregate_folds(folds)
        for stats in agg.values():
            assert stats["std"] == 0.0

    def test_single_fold_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            aggregate_folds([prf_from_counts(1, 0, 0)])

    def test_three_fold_hand_check(self):
        f1s = [0.6, 0.9, 0.9]
        folds = [
            PRF(0, 0, 0, precision=0, recall=0, f1=v, degenerate=False) for v in f1s
        ]
        agg = aggregate_folds(folds)
        mean = sum(f1s) / 3
        std = math.sqrt(sum((v - mean) ** 2 for v in f1s) / 3)
        np.testing.assert_allclose(agg["f1"]["mean"], mean)
        np.testing.assert_allclose(agg["f1"]["std"], std)


class TestReports:
    def test_json_report_round_trips(self):
        sections = {
            "classification": prf_from_counts(4, 1, 2),
            "extraction": prf_from_counts(0, 0, 0),
        }
        parsed = json.loads(json.dumps(evalkit.report_record(sections)))
        assert parsed["classification"]["tp"] == 4
        assert parsed["extraction"]["degenerate"] is True

    def test_table_flags_degenerate_rows(self):
        sections = {
            "classification": prf_from_counts(4, 1, 2),
            "extraction": prf_from_counts(0, 0, 0),
        }
        text = evalkit.render_report(sections)
        lines = text.splitlines()
        assert len(lines) == 3
        assert "degenerate" in lines[2] and "degenerate" not in lines[1]

    def test_table_alignment(self):
        sections = {"a": prf_from_counts(1, 0, 0), "longer_name": prf_from_counts(2, 0, 0)}
        lines = evalkit.render_report(sections).splitlines()
        assert all(len(line) >= len("longer_name") for line in lines)

    def test_fold_report_lists_all_metrics(self):
        agg = aggregate_folds([prf_from_counts(8, 2, 2), prf_from_counts(10, 0, 0)])
        text = evalkit.render_fold_report(agg)
        for metric in ("precision", "recall", "f1"):
            assert metric in text
