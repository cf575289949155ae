"""Accuracy, pairwise accuracy, and confusion-matrix measurement."""

from __future__ import annotations

import numpy as np

from . import core
from .core import BinaryPrediction, LabeledBatch, Posterior, triu_index


def argmax_predict(p: Posterior) -> int:
    """Index of the maximum entry; ties go to the lowest index."""
    return int(np.argmax(p.probs))


def _counts(predictions: list, labels: LabeledBatch, cover: bool) -> np.ndarray:
    """Counts, entry (true, predicted), of predictions with unique, labelled sample_ids
    (every labelled one with ``cover``) and classes that are integers in [0, c)."""
    truth = labels.labels_by_id()
    ids, preds = [sid for sid, _ in predictions], [pred for _, pred in predictions]
    core.require(core.unique_ids(ids))
    if not truth.keys() >= set(ids) or (cover and len(ids) != len(truth)):
        raise ValueError("prediction sample_ids do not match label sample_ids")
    core.require(core.class_range(ids, preds, labels.c, "prediction"))
    counts = np.zeros((labels.c, labels.c), dtype=np.int64)
    np.add.at(counts, (np.array([truth[s] for s in ids], np.intp), np.array(preds, np.intp)), 1)
    return counts


def _share(counts: np.ndarray, predictions: list) -> float:
    """The trace of ``counts`` over the number of predictions."""
    if not predictions:
        raise ValueError("empty prediction list")
    return int(np.trace(counts)) / len(predictions)


def accuracy(predictions: list[tuple[str, int]], labels: LabeledBatch) -> float:
    """Fraction of correct predictions, matched to labels by sample_id."""
    return _share(_counts(predictions, labels, cover=True), predictions)


def pairwise_accuracy(
    binary_preds: list[tuple[str, BinaryPrediction]], labels: LabeledBatch
) -> float:
    """Fraction of samples where the higher-probability class matches the label.

    Every label must be one of the prediction's two classes; a tie at 0.5
    counts as predicting class_a.
    """
    winners = [(sid, bp.class_a if bp.prob_a >= 0.5 else bp.class_b) for sid, bp in binary_preds]
    share, truth = _share(_counts(winners, labels, cover=False), winners), labels.labels_by_id()
    for sid, bp in binary_preds:
        if truth[sid] not in (bp.class_a, bp.class_b):
            why = f"has label {truth[sid]}, not in pair ({bp.class_a},{bp.class_b})"
            raise ValueError(f"sample {sid!r} {why}")
    return share


def confusion_matrix(predictions: list[tuple[str, int]], labels: LabeledBatch) -> np.ndarray:
    """Count matrix with entry (true, predicted); rows sum to per-class support."""
    return _counts(predictions, labels, cover=True)


def worst_confused_pair(confusion: np.ndarray) -> tuple[int, int] | None:
    """Unordered pair with the most combined off-diagonal errors.

    Ties resolve to the lexicographically smaller pair; returns ``None`` when
    the matrix is diagonal (no confusion at all).
    """
    rows, cols = triu_index(len(confusion))
    errors = (confusion + confusion.T)[rows, cols]
    if not np.any(errors > 0):
        return None
    k = int(np.argmax(errors))  # the first maximum: pairs are in lexicographic order
    return int(rows[k]), int(cols[k])
