"""Accuracy, pairwise accuracy, and confusion-matrix measurement."""

from __future__ import annotations

import numpy as np

from . import core
from .core import BinaryPrediction, LabeledBatch, Posterior, triu_index


def argmax_predict(p: Posterior) -> int:
    """Index of the maximum entry; ties go to the lowest index."""
    return int(np.argmax(p.probs))


def _labels_of(predictions: list, labels: LabeledBatch, cover: bool) -> list[int]:
    """The label of each prediction's sample: sample_ids are unique and
    labelled, and with ``cover`` every labelled sample is predicted."""
    truth = labels.labels_by_id()
    ids = [sid for sid, _ in predictions]
    core.require(core.unique_ids(ids))
    if not truth.keys() >= set(ids) or (cover and len(ids) != len(truth)):
        raise ValueError("prediction sample_ids do not match label sample_ids")
    return [truth[sid] for sid in ids]


def accuracy(predictions: list[tuple[str, int]], labels: LabeledBatch) -> float:
    """Fraction of correct predictions, matched to labels by sample_id."""
    truth = _labels_of(predictions, labels, cover=True)
    if not predictions:
        raise ValueError("empty prediction list")
    correct = sum(1 for (_, pred), label in zip(predictions, truth) if pred == label)
    return correct / len(predictions)


def pairwise_accuracy(
    binary_preds: list[tuple[str, BinaryPrediction]], labels: LabeledBatch
) -> float:
    """Fraction of samples where the higher-probability class matches the label.

    Every label must be one of the prediction's two classes; a tie at 0.5
    counts as predicting class_a.
    """
    truth = _labels_of(binary_preds, labels, cover=False)
    if not binary_preds:
        raise ValueError("empty prediction list")
    correct = 0
    for (sid, bp), label in zip(binary_preds, truth):
        if label not in (bp.class_a, bp.class_b):
            raise ValueError(
                f"sample {sid!r} has label {label}, not in pair ({bp.class_a},{bp.class_b})"
            )
        correct += (bp.class_a if bp.prob_a >= 0.5 else bp.class_b) == label
    return correct / len(binary_preds)


def confusion_matrix(predictions: list[tuple[str, int]], labels: LabeledBatch) -> np.ndarray:
    """Count matrix with entry (true, predicted); rows sum to per-class support."""
    truth = _labels_of(predictions, labels, cover=True)
    ids, preds = [sid for sid, _ in predictions], np.array([pred for _, pred in predictions])
    core.require(core.class_range(ids, preds, labels.c, "prediction"))
    counts = np.zeros((labels.c, labels.c), dtype=np.int64)
    for (_, pred), label in zip(predictions, truth):
        counts[label, pred] += 1
    return counts


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
