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
