"""Stratified k-fold splitting and classification metrics.

All metric functions are pure and permutation-invariant over samples.
Conventions:
- P/R/F1 ratios with a 0/0 numerator report 0 and flag the class.
- One-vs-rest ROC-AUC uses the rank statistic with midranks for ties;
  classes lacking positives or negatives are excluded from the macro
  average and flagged.
- Average precision follows the score-sorted sweep sum((R_i - R_{i-1}) P_i);
  a class with no positives has no AP (None, not zero).
- Calibration bins top-class confidence into equal-width bins on [0, 1];
  ECE is the count-weighted mean |accuracy - confidence| gap.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.stats

__all__ = [
    "FoldAssignment",
    "ConfusionMatrix",
    "ClassificationMetrics",
    "stratified_kfold",
    "confusion",
    "classification_metrics",
    "roc_auc_ovr",
    "average_precision",
    "calibration_bins",
    "CalibrationReport",
]

log = logging.getLogger(__name__)


@dataclass
class FoldAssignment:
    fold_of: np.ndarray  # per-sample fold index in [0, k)
    k: int
    seed: int

    def val_positions(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)


def stratified_kfold(labels, k: int, seed: int) -> FoldAssignment:
    """Deal each class's shuffled samples round-robin across folds.

    Per-class fold counts differ by at most one. The dealing start offset
    is drawn per class so no single fold systematically collects the
    remainders. Deterministic given the seed.
    """
    labels = np.asarray(labels, dtype=int)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > labels.size:
        raise ValueError(f"k={k} exceeds the sample count {labels.size}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.size, dtype=int)
    for cls in np.unique(labels):
        positions = np.flatnonzero(labels == cls)
        if positions.size < k:
            log.warning(
                "class %d has %d samples (< k=%d); some folds get none",
                cls,
                positions.size,
                k,
            )
        rng.shuffle(positions)
        offset = int(rng.integers(k))
        fold_of[positions] = (np.arange(positions.size) + offset) % k
    return FoldAssignment(fold_of=fold_of, k=k, seed=seed)


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # rows = true class, columns = predicted
    normalized: np.ndarray  # row-stochastic; all-zero rows stay zero
    zero_rows: list = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]


def confusion(y_true, y_pred, n_classes: int | None = None) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have equal length")
    if n_classes is None:
        n_classes = int(max(y_true.max(), y_pred.max())) + 1
    if np.any(y_true < 0) or np.any(y_true >= n_classes) or np.any(y_pred < 0) or np.any(
        y_pred >= n_classes
    ):
        raise ValueError("labels out of range")
    counts = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(counts, (y_true, y_pred), 1)
    row_sums = counts.sum(axis=1)
    normalized = np.zeros((n_classes, n_classes))
    nonzero = row_sums > 0
    normalized[nonzero] = counts[nonzero] / row_sums[nonzero, None]
    zero_rows = [int(i) for i in np.flatnonzero(~nonzero)]
    return ConfusionMatrix(counts=counts, normalized=normalized, zero_rows=zero_rows)


@dataclass
class ClassificationMetrics:
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    zero_division_flags: list = field(default_factory=list)  # (class, metric)


def classification_metrics(cm: ConfusionMatrix) -> ClassificationMetrics:
    counts = cm.counts
    tp = np.diag(counts).astype(float)
    support = counts.sum(axis=1).astype(float)
    predicted = counts.sum(axis=0).astype(float)
    total = counts.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")

    flags = []
    precision = np.zeros_like(tp)
    recall = np.zeros_like(tp)
    f1 = np.zeros_like(tp)
    for c in range(cm.n_classes):
        if predicted[c] > 0:
            precision[c] = tp[c] / predicted[c]
        else:
            flags.append((c, "precision"))
        if support[c] > 0:
            recall[c] = tp[c] / support[c]
        else:
            flags.append((c, "recall"))
        if precision[c] + recall[c] > 0:
            f1[c] = 2 * precision[c] * recall[c] / (precision[c] + recall[c])
        else:
            flags.append((c, "f1"))

    weight = support / total
    return ClassificationMetrics(
        precision=precision,
        recall=recall,
        f1=f1,
        support=support.astype(int),
        accuracy=float(tp.sum() / total),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        weighted_precision=float((weight * precision).sum()),
        weighted_recall=float((weight * recall).sum()),
        weighted_f1=float((weight * f1).sum()),
        zero_division_flags=flags,
    )


def roc_auc_ovr(y_true, probs):
    """Per-class one-vs-rest AUC via midranks, plus the macro average.

    Returns ``(per_class, macro)`` where ``per_class[c]`` is None for
    classes without both positives and negatives; such classes are
    excluded from the macro mean.
    """
    y_true = np.asarray(y_true, dtype=int)
    probs = np.asarray(probs, dtype=float)
    n, n_classes = probs.shape
    per_class: list = [None] * n_classes
    defined = []
    for c in range(n_classes):
        pos = y_true == c
        n_pos = int(pos.sum())
        n_neg = n - n_pos
        if n_pos == 0 or n_neg == 0:
            continue
        ranks = scipy.stats.rankdata(probs[:, c])  # midranks for ties
        auc = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        per_class[c] = float(auc)
        defined.append(auc)
    macro = float(np.mean(defined)) if defined else None
    return per_class, macro


def average_precision(y_true, probs):
    """Per-class one-vs-rest AP; None for classes with no positives."""
    y_true = np.asarray(y_true, dtype=int)
    probs = np.asarray(probs, dtype=float)
    n, n_classes = probs.shape
    per_class: list = [None] * n_classes
    for c in range(n_classes):
        positives = (y_true == c).astype(float)
        n_pos = positives.sum()
        if n_pos == 0:
            continue
        order = np.argsort(-probs[:, c], kind="stable")
        hits = positives[order]
        tp = np.cumsum(hits)
        prec = tp / np.arange(1, n + 1)
        rec = tp / n_pos
        prev_rec = np.concatenate([[0.0], rec[:-1]])
        per_class[c] = float(((rec - prev_rec) * prec).sum())
    return per_class


@dataclass
class CalibrationReport:
    bin_confidence: np.ndarray  # mean top-class confidence per bin (0 when empty)
    bin_accuracy: np.ndarray
    bin_count: np.ndarray
    ece: float


def calibration_bins(y_true, probs, n_bins: int) -> CalibrationReport:
    y_true = np.asarray(y_true, dtype=int)
    probs = np.asarray(probs, dtype=float)
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    confidence = probs.max(axis=1)
    predicted = probs.argmax(axis=1)
    correct = (predicted == y_true).astype(float)
    bins = np.minimum((confidence * n_bins).astype(int), n_bins - 1)

    bin_conf = np.zeros(n_bins)
    bin_acc = np.zeros(n_bins)
    bin_count = np.zeros(n_bins, dtype=int)
    for b in range(n_bins):
        mask = bins == b
        bin_count[b] = int(mask.sum())
        if bin_count[b] > 0:
            bin_conf[b] = confidence[mask].mean()
            bin_acc[b] = correct[mask].mean()
    total = len(y_true)
    ece = float(
        sum(
            bin_count[b] / total * abs(bin_acc[b] - bin_conf[b])
            for b in range(n_bins)
            if bin_count[b] > 0
        )
    )
    return CalibrationReport(
        bin_confidence=bin_conf, bin_accuracy=bin_acc, bin_count=bin_count, ece=ece
    )
