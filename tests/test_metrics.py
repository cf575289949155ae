import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmkit import (
    BinaryPrediction,
    LabeledBatch,
    Posterior,
    accuracy,
    argmax_predict,
    confusion_matrix,
    iia_restrict,
    pairwise_accuracy,
    worst_confused_pair,
)
from oracles import (
    accuracy_ref,
    confusion_matrix_ref,
    pairwise_accuracy_ref,
    worst_confused_pair_ref,
)

# confusion counts of a 10-class baseline classifier used as a fixed fixture
BASELINE_CONFUSION = np.array(
    [
        [881, 2, 12, 9, 6, 2, 86, 0, 2, 0],
        [3, 987, 1, 4, 1, 0, 3, 0, 1, 0],
        [24, 2, 872, 6, 45, 1, 49, 0, 1, 0],
        [22, 6, 8, 896, 21, 0, 46, 0, 0, 1],
        [3, 0, 30, 22, 886, 0, 58, 0, 1, 0],
        [0, 0, 0, 0, 0, 987, 0, 8, 0, 5],
        [91, 0, 43, 21, 58, 0, 781, 0, 6, 0],
        [0, 0, 0, 0, 0, 10, 0, 977, 0, 13],
        [3, 0, 1, 5, 1, 2, 4, 3, 980, 1],
        [0, 0, 0, 0, 1, 6, 0, 37, 1, 955],
    ],
    dtype=np.int64,
)


class TestArgmaxPredict:
    def test_basic(self):
        assert argmax_predict(Posterior([0.2, 0.3, 0.5])) == 2

    def test_tie_breaks_low(self):
        assert argmax_predict(Posterior([0.5, 0.5])) == 0

    def test_one_hot(self):
        assert argmax_predict(Posterior([0.0, 0.0, 1.0])) == 2


class TestAccuracy:
    def _batch(self):
        return LabeledBatch(samples=(("a", 0), ("b", 1), ("c", 2), ("d", 0)), c=3)

    def test_all_correct(self):
        preds = [("a", 0), ("b", 1), ("c", 2), ("d", 0)]
        assert accuracy(preds, self._batch()) == 1.0

    def test_all_wrong(self):
        preds = [("a", 1), ("b", 2), ("c", 0), ("d", 1)]
        assert accuracy(preds, self._batch()) == 0.0

    def test_three_of_four(self):
        preds = [("a", 0), ("b", 1), ("c", 2), ("d", 1)]
        assert accuracy(preds, self._batch()) == 0.75

    def test_id_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([("a", 0), ("x", 1), ("c", 2), ("d", 0)], self._batch())


class TestPairwiseAccuracy:
    def test_correct_prediction(self):
        batch = LabeledBatch(samples=(("a", 0),), c=7)
        preds = [("a", BinaryPrediction(class_a=0, class_b=6, prob_a=0.9))]
        assert pairwise_accuracy(preds, batch) == 1.0

    def test_tie_counts_as_class_a(self):
        batch = LabeledBatch(samples=(("a", 0), ("b", 6)), c=7)
        preds = [
            ("a", BinaryPrediction(class_a=0, class_b=6, prob_a=0.5)),
            ("b", BinaryPrediction(class_a=0, class_b=6, prob_a=0.5)),
        ]
        assert pairwise_accuracy(preds, batch) == 0.5

    def test_mixed_batch(self):
        samples = tuple((f"s{k}", 0 if k < 5 else 1) for k in range(10))
        batch = LabeledBatch(samples=samples, c=2)
        # first 7 predicted correctly, last 3 wrong
        preds = []
        for k in range(10):
            label = 0 if k < 5 else 1
            correct = k < 7
            pa = 0.8 if (label == 0) == correct else 0.2
            preds.append((f"s{k}", BinaryPrediction(class_a=0, class_b=1, prob_a=pa)))
        assert pairwise_accuracy(preds, batch) == 0.7

    def test_foreign_label(self):
        batch = LabeledBatch(samples=(("a", 2),), c=3)
        preds = [("a", BinaryPrediction(class_a=0, class_b=1, prob_a=0.9))]
        with pytest.raises(ValueError):
            pairwise_accuracy(preds, batch)

    def test_matches_restricted_multiclass(self):
        # when the overall argmax lands inside the pair, the pair restriction
        # predicts the same class, so the two accuracies agree
        posteriors = {
            "a": Posterior([0.6, 0.3, 0.1]),
            "b": Posterior([0.2, 0.7, 0.1]),
            "c": Posterior([0.45, 0.5, 0.05]),
        }
        batch = LabeledBatch(samples=(("a", 0), ("b", 1), ("c", 0)), c=3)
        preds = [(sid, argmax_predict(p)) for sid, p in posteriors.items()]
        binary = [(sid, iia_restrict(p, 0, 1)) for sid, p in posteriors.items()]
        assert pairwise_accuracy(binary, batch) == accuracy(preds, batch)


class TestConfusionMatrix:
    def test_perfect_is_diagonal(self):
        batch = LabeledBatch(samples=(("a", 0), ("b", 1), ("c", 1)), c=2)
        counts = confusion_matrix([("a", 0), ("b", 1), ("c", 1)], batch)
        np.testing.assert_array_equal(counts, [[1, 0], [0, 2]])

    def test_single_error_entry(self):
        batch = LabeledBatch(samples=(("a", 0),), c=7)
        counts = confusion_matrix([("a", 6)], batch)
        assert counts[0, 6] == 1 and counts.sum() == 1

    def test_row_sums_equal_support(self):
        rng = np.random.default_rng(1)
        samples = tuple((f"s{k}", int(rng.integers(0, 4))) for k in range(100))
        batch = LabeledBatch(samples=samples, c=4)
        preds = [(sid, int(rng.integers(0, 4))) for sid, _ in samples]
        counts = confusion_matrix(preds, batch)
        support = np.bincount([l for _, l in samples], minlength=4)
        np.testing.assert_array_equal(counts.sum(axis=1), support)

    def test_accuracy_equals_trace_over_total(self):
        rng = np.random.default_rng(2)
        samples = tuple((f"s{k}", int(rng.integers(0, 3))) for k in range(60))
        batch = LabeledBatch(samples=samples, c=3)
        preds = [(sid, int(rng.integers(0, 3))) for sid, _ in samples]
        counts = confusion_matrix(preds, batch)
        assert accuracy(preds, batch) == np.trace(counts) / counts.sum()

    def test_whole_float_and_bool_predictions_count_once(self):
        # 1.0 names class 1, as it does in a label; True counts as 1, not as a row mask
        batch = LabeledBatch(samples=(("a", 0), ("b", 1)), c=2)
        for one in (1.0, np.float64(1.0), True):
            counts = confusion_matrix([("a", 0), ("b", one)], batch)
            np.testing.assert_array_equal(counts, [[1, 0], [0, 1]])


class TestWorstConfusedPair:
    def test_baseline_fixture(self):
        pair = worst_confused_pair(BASELINE_CONFUSION)
        assert pair == (0, 6)
        assert BASELINE_CONFUSION[0, 6] + BASELINE_CONFUSION[6, 0] == 177

    def test_diagonal_gives_none(self):
        assert worst_confused_pair(np.diag([5, 5, 5])) is None

    def test_tie_breaks_lexicographic(self):
        counts = np.array([[0, 3, 0], [3, 0, 3], [0, 3, 0]])
        assert worst_confused_pair(counts) == (0, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from(["counts", "ties", "diagonal"]),
    )
    def test_equals_pairwise_scan(self, c, seed, kind):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 1000, size=(c, c), dtype=np.int64)
        if kind == "diagonal":
            counts = np.diag(np.diag(counts))
        elif kind == "ties" and c > 2:
            # two pairs share the most errors, split differently between them
            top = int((counts + counts.T).max()) + 1
            rows, cols = np.triu_indices(c, k=1)
            for n, k in enumerate(rng.choice(rows.size, size=2, replace=False)):
                i, j = rows[k], cols[k]
                counts[i, j], counts[j, i] = (top, 0) if n else (top - 1, 1)
        assert worst_confused_pair(counts) == worst_confused_pair_ref(counts)


@st.composite
def _metric_inputs(draw):
    """A labelled batch, its class predictions (ints, np.int64s and whole floats) and
    binary predictions for a subset of its samples, with ties at prob_a = 0.5."""
    c = draw(st.integers(min_value=2, max_value=12))
    labels = draw(st.lists(st.integers(min_value=0, max_value=c - 1), min_size=1, max_size=30))
    ids = [f"s{k}" for k in range(len(labels))]
    batch = LabeledBatch(samples=tuple(zip(ids, labels)), c=c)
    kinds, ints = st.sampled_from([int, np.int64, float]), st.sampled_from([int, np.int64])
    size = len(ids)
    classes = draw(st.lists(st.tuples(kinds, st.integers(min_value=0, max_value=c - 1)),
                            min_size=size, max_size=size))
    order = draw(st.permutations(range(size)))
    preds = [(ids[k], kind(cls)) for k, (kind, cls) in zip(order, classes)]
    binary = []
    for k in order[: draw(st.integers(min_value=1, max_value=size))]:
        other = draw(st.integers(min_value=0, max_value=c - 2))
        pair = (labels[k], other + (other >= labels[k]))
        if draw(st.booleans()):
            pair = pair[::-1]
        a, b = (draw(ints)(cls) for cls in pair)
        prob = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0))
        binary.append((ids[k], BinaryPrediction(a, b, prob)))
    return batch, preds, binary


@settings(max_examples=300, deadline=None)
@given(_metric_inputs())
def test_metrics_equal_counting_loops(inputs):
    batch, preds, binary = inputs
    for metric, ref, given_preds in [
        (accuracy, accuracy_ref, preds),
        (pairwise_accuracy, pairwise_accuracy_ref, binary),
    ]:
        share, expected = metric(given_preds, batch), ref(given_preds, batch)
        assert (type(share), share.hex()) == (float, expected.hex())
    counts = confusion_matrix(preds, batch)
    # the loop indexes with each prediction, so it is given them as ints
    expected = confusion_matrix_ref([(sid, int(pred)) for sid, pred in preds], batch)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, expected)
