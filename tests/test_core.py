import numpy as np
import pytest

from plmkit import (
    BinaryPrediction,
    CouplingConfig,
    InvalidDistributionError,
    LabeledBatch,
    PairwiseLikelihoodMatrix,
    Posterior,
    ShapeError,
    ThetaMatrix,
    validate_pairwise,
)
from plmkit.core import from_upper, posterior_violations, triu_index


class TestPosterior:
    def test_valid(self):
        p = Posterior([0.2, 0.3, 0.5])
        assert p.c == 3

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidDistributionError):
            Posterior([0.2, 0.3, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(InvalidDistributionError):
            Posterior([-0.1, 0.6, 0.5])

    def test_rejects_scalar(self):
        with pytest.raises(ShapeError):
            Posterior([1.0])

    def test_sum_tolerance_is_tight(self):
        Posterior([0.5, 0.5 + 9e-10])
        with pytest.raises(InvalidDistributionError):
            Posterior([0.5, 0.5 + 2e-9])

    def test_immutable(self):
        p = Posterior([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.9


class TestValidatePairwise:
    def test_valid_matrix(self):
        m = PairwiseLikelihoodMatrix(
            [[0.0, 0.4, 0.2], [0.6, 0.0, 0.7], [0.8, 0.3, 0.0]]
        )
        assert validate_pairwise(m) == []

    def test_symmetry_violation(self):
        m = PairwiseLikelihoodMatrix(
            [[0.0, 0.4, 0.2], [0.7, 0.0, 0.7], [0.8, 0.3, 0.0]]
        )
        violations = validate_pairwise(m)
        assert len(violations) == 1
        assert "(0,1)" in violations[0]

    def test_nonzero_diagonal(self):
        m = PairwiseLikelihoodMatrix(
            [[0.1, 0.4, 0.2], [0.6, 0.0, 0.7], [0.8, 0.3, 0.0]]
        )
        violations = validate_pairwise(m)
        assert any("diagonal" in v for v in violations)

    def test_out_of_range(self):
        m = PairwiseLikelihoodMatrix(
            [[0.0, 1.4, 0.2], [-0.4, 0.0, 0.7], [0.8, 0.3, 0.0]]
        )
        assert any("outside [0, 1]" in v for v in validate_pairwise(m))

    def test_full_message_list(self):
        m = np.full((4, 4), 0.5)
        np.fill_diagonal(m, 0.0)
        m[2, 2] = 0.25
        m[1, 2] = 1.25
        m[3, 0] = 0.25
        assert validate_pairwise(PairwiseLikelihoodMatrix(m)) == [
            "diagonal entry (2,2) is 0.25, expected exactly 0",
            "entry (1,2) = 1.25 outside [0, 1]",
            "complement violation at (0,3): r_ij + r_ji = 0.75, expected 1",
            "complement violation at (1,2): r_ij + r_ji = 1.75, expected 1",
        ]

    def test_nonsquare_is_structural(self):
        with pytest.raises(ShapeError):
            PairwiseLikelihoodMatrix([[0.0, 0.4, 0.2], [0.6, 0.0, 0.7]])

    def test_never_mutates(self):
        arr = [[0.0, 0.4], [0.7, 0.0]]
        m = PairwiseLikelihoodMatrix(arr)
        before = m.entries.copy()
        validate_pairwise(m)
        assert np.array_equal(m.entries, before)


class TestPosteriorViolations:
    def test_rows_match_the_constructor(self):
        probs = np.array(
            [[0.5, 0.5], [np.nan, 1.0], [-0.25, 1.25], [0.5, 0.6], [0.25, 0.75]]
        )
        found = posterior_violations(probs)
        assert sorted(found) == [1, 2, 3]
        for row, message in found.items():
            with pytest.raises(InvalidDistributionError) as exc:
                Posterior(probs[row])
            assert str(exc.value) == message
        assert found[3] == "posterior sums to 1.1, outside tolerance 1e-09"


class TestTriangle:
    @pytest.mark.parametrize("c", [0, 1, 2, 5])
    def test_cached_read_only_row_major(self, c):
        rows, cols = triu_index(c)
        assert triu_index(c)[0] is rows
        expected = np.triu_indices(c, k=1)
        assert np.array_equal(rows, expected[0]) and np.array_equal(cols, expected[1])
        with pytest.raises(ValueError):
            rows[...] = 0

    def test_from_upper_exact_complements(self):
        upper = np.array([[0.1, 0.2, 0.3], [1.0, 0.0, 5e-324]])
        m = from_upper(upper, 3)
        assert m.shape == (2, 3, 3)
        assert np.array_equal(m[1], [[0.0, 1.0, 0.0], [0.0, 0.0, 5e-324], [1.0, 1.0, 0.0]])
        assert np.all(m + np.swapaxes(m, 1, 2) == 1.0 - np.eye(3))


class TestThetaMatrix:
    def test_antisymmetric_ok(self):
        ThetaMatrix([[0.0, 1.2], [-1.2, 0.0]])

    def test_rejects_nonantisymmetric(self):
        with pytest.raises(ShapeError):
            ThetaMatrix([[0.0, 1.2], [-1.1, 0.0]])


class TestCouplingConfig:
    def test_defaults(self):
        cfg = CouplingConfig()
        assert cfg.tau == 1e-3 and cfg.rho == 1e-3

    @pytest.mark.parametrize("tau", [0.0, 0.5, -0.1, 0.7])
    def test_tau_bounds(self, tau):
        with pytest.raises(ValueError):
            CouplingConfig(tau=tau)

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_rho_bounds(self, rho):
        with pytest.raises(ValueError):
            CouplingConfig(rho=rho)


class TestLabeledBatch:
    def test_basic(self):
        b = LabeledBatch(samples=(("a", 0), ("b", 2)), c=3)
        assert len(b) == 2

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            LabeledBatch(samples=(("a", 0), ("a", 1)), c=3)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            LabeledBatch(samples=(("a", 3),), c=3)


class TestBinaryPrediction:
    def test_complement(self):
        bp = BinaryPrediction(class_a=0, class_b=6, prob_a=0.7)
        assert bp.prob_b == pytest.approx(0.3)

    def test_same_classes_rejected(self):
        with pytest.raises(ValueError):
            BinaryPrediction(class_a=1, class_b=1, prob_a=0.5)

    def test_prob_range(self):
        with pytest.raises(ValueError):
            BinaryPrediction(class_a=0, class_b=1, prob_a=1.2)
