"""Precision/recall/F1 scoring for both subtasks, plus fold aggregation."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .heads import Span


@dataclass(frozen=True)
class PRF:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    degenerate: bool  # no predictions and no gold anywhere


def prf_from_counts(tp: int, fp: int, fn: int) -> PRF:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall > 0 else 0.0
    return PRF(
        tp=tp,
        fp=fp,
        fn=fn,
        precision=precision,
        recall=recall,
        f1=f1,
        degenerate=(tp + fp + fn == 0),
    )


def score_classification(preds: list[str], golds: list[str]) -> PRF:
    """Sentence-level scoring with 'simile' as the positive class."""
    if len(preds) != len(golds):
        raise ValueError(f"got {len(preds)} predictions for {len(golds)} gold labels")
    tp = fp = fn = 0
    for p, g in zip(preds, golds):
        if p == "simile" and g == "simile":
            tp += 1
        elif p == "simile":
            fp += 1
        elif g == "simile":
            fn += 1
    return prf_from_counts(tp, fp, fn)


def score_extraction(
    pred_spans: list[list[Span]], gold_spans: list[list[Span]]
) -> PRF:
    """Micro-averaged exact-match span scoring.

    A predicted span counts as a true positive only when the same
    (start, end, role) triple appears in the gold spans of the same
    sentence. No partial credit for overlaps.
    """
    if len(pred_spans) != len(gold_spans):
        raise ValueError(
            f"got spans for {len(pred_spans)} sentences, gold has {len(gold_spans)}"
        )
    tp = fp = fn = 0
    for pred, gold in zip(pred_spans, gold_spans):
        pset = set(pred)
        gset = set(gold)
        tp += len(pset & gset)
        fp += len(pset - gset)
        fn += len(gset - pset)
    return prf_from_counts(tp, fp, fn)


def aggregate_folds(folds: list[PRF]) -> dict[str, dict[str, float]]:
    """Mean and population standard deviation per metric across folds."""
    if len(folds) < 2:
        raise ValueError(f"fold aggregation needs at least 2 folds, got {len(folds)}")
    out: dict[str, dict[str, float]] = {}
    for metric in ("precision", "recall", "f1"):
        values = [getattr(f, metric) for f in folds]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        out[metric] = {"mean": mean, "std": math.sqrt(var)}
    return out


def report_record(sections: dict[str, PRF]) -> dict:
    return {name: asdict(prf) for name, prf in sections.items()}


def render_report(sections: dict[str, PRF]) -> str:
    """Aligned plain-text table, one row per scored section."""
    width = max((len(name) for name in sections), default=4)
    width = max(width, len("task"))
    lines = [
        f"{'task':<{width}}  {'P':>7}  {'R':>7}  {'F1':>7}  {'tp':>5}  {'fp':>5}  {'fn':>5}"
    ]
    for name, prf in sections.items():
        flag = "  (degenerate)" if prf.degenerate else ""
        lines.append(
            f"{name:<{width}}  {prf.precision:>7.4f}  {prf.recall:>7.4f}  "
            f"{prf.f1:>7.4f}  {prf.tp:>5}  {prf.fp:>5}  {prf.fn:>5}{flag}"
        )
    return "\n".join(lines)


def render_fold_report(agg: dict[str, dict[str, float]]) -> str:
    lines = [f"{'metric':<9}  {'mean':>8}  {'std':>8}"]
    for metric, stats in agg.items():
        lines.append(f"{metric:<9}  {stats['mean']:>8.4f}  {stats['std']:>8.4f}")
    return "\n".join(lines)
