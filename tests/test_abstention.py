import itertools
import math

import numpy as np
import pytest

from plmkit import (
    Abstain,
    CouplingConfig,
    Method,
    PairwiseLikelihoodMatrix,
    Posterior,
    SingularityError,
    Stabilization,
    abstaining_predict,
    calibrate_threshold,
    couple,
    couple_wlw,
    delta2_value,
    distance_bc,
    distance_wlw,
    perturb_manifold,
    sureness,
    theta_map,
)
from oracles import random_offmanifold, random_posterior

OFF_MANIFOLD = PairwiseLikelihoodMatrix(
    [[0.0, 0.6, 0.6], [0.4, 0.0, 0.6], [0.4, 0.4, 0.0]]
)
UNIFORM3 = PairwiseLikelihoodMatrix(np.full((3, 3), 0.5) - 0.5 * np.eye(3))

# pinned residual of the least-squares projection reference on the fixture
BC_RESIDUAL = 0.23409538931324936
# pinned objective value at the grid + projected-gradient reference minimizer
WLW_RESIDUAL = 0.0027221172022684299


class TestDistances:
    def test_zero_on_manifold(self):
        m = theta_map(Posterior([0.2, 0.3, 0.5]))
        assert distance_wlw(m) <= 1e-12
        assert distance_bc(m) <= 1e-12

    def test_zero_on_uniform(self):
        assert distance_wlw(UNIFORM3) <= 1e-12
        assert distance_bc(UNIFORM3) <= 1e-12

    def test_pinned_off_manifold(self):
        assert distance_wlw(OFF_MANIFOLD) == pytest.approx(WLW_RESIDUAL, abs=1e-8)
        assert distance_bc(OFF_MANIFOLD) == pytest.approx(BC_RESIDUAL, abs=1e-7)

    def test_wlw_distance_equals_delta2_at_minimizer(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = Posterior(random_posterior(rng, 4))
            m = perturb_manifold(p, 1.0, seed=int(rng.integers(1 << 30)))
            assert distance_wlw(m) == delta2_value(m, couple_wlw(m))

    def test_zero_on_random_manifold_points(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            m = theta_map(Posterior(random_posterior(rng, 5)))
            assert distance_wlw(m) <= 1e-12
            assert distance_bc(m) <= 1e-12

    def test_bc_needs_stabilization_at_boundary(self):
        m = PairwiseLikelihoodMatrix(
            [[0.0, 1.0, 0.6], [0.0, 0.0, 0.6], [0.4, 0.4, 0.0]]
        )
        # the clip built into distance_bc absorbs the boundary entry
        assert distance_bc(m) > 0.0


class TestMonotoneSeparation:
    def test_median_bc_distance_grows_with_noise(self):
        rng = np.random.default_rng(41)
        posteriors = [Posterior(random_posterior(rng, 5)) for _ in range(200)]
        medians = []
        for scale in (0.0, 0.5, 1.0, 2.0):
            ds = [
                distance_bc(perturb_manifold(p, scale, seed=k))
                for k, p in enumerate(posteriors)
            ]
            medians.append(float(np.median(ds)))
        assert medians == sorted(medians)
        assert all(a < b for a, b in zip(medians, medians[1:]))


class TestCalibrateThreshold:
    def test_degenerate_zeros(self):
        assert calibrate_threshold([0.0] * 50, 0.5) == 0.0

    def test_nearest_rank(self):
        # nearest-rank rule on 1..100 at the 0.95 quantile picks rank 95
        distances = [float(k) for k in range(1, 101)]
        assert calibrate_threshold(distances, 0.95) == 95.0

    def test_quantile_must_be_open_interval(self):
        with pytest.raises(ValueError):
            calibrate_threshold([1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            calibrate_threshold([1.0, 2.0], 0.0)

    def test_empty_input(self):
        for empty in ([], np.zeros(0)):
            with pytest.raises(ValueError, match="need at least one in-distribution distance"):
                calibrate_threshold(empty, 0.5)

    def test_array_as_list(self):
        # read_distance_stack gives an array; the rank picks the same float
        distances = np.random.default_rng(8).random(37)
        for q in (0.1, 0.5, 0.95):
            got = calibrate_threshold(distances, q)
            assert type(got) is float and got == calibrate_threshold(distances.tolist(), q)

    # NaN has no rank: accepting it would make the answer depend on the order
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_rejects_bad_distance_in_any_order(self, bad):
        for order in itertools.permutations([bad, 0.2, 0.1]):
            with pytest.raises(ValueError, match=r"is not finite and non-negative$"):
                calibrate_threshold(list(order), 0.5)


    @pytest.mark.parametrize("n", [10, 20, 50, 200])
    def test_held_out_pass_rate(self, n):
        # a fresh exchangeable, continuous distance passes with probability
        # ceil(qn) / (n + 1); the band is 4 binomial standard errors of the
        # trial count, which a correct rule leaves with probability 6e-5
        q, trials = 0.95, 20000
        rng = np.random.default_rng([41, n])
        draws = rng.random((trials, n + 1))
        thresholds = np.array([calibrate_threshold(row.tolist(), q) for row in draws[:, :n]])
        rate = np.mean(draws[:, n] <= thresholds)
        expected = math.ceil(q * n) / (n + 1)
        assert abs(rate - expected) <= 4.0 * math.sqrt(expected * (1.0 - expected) / trials)


class TestAbstainingPredict:
    def test_on_manifold_predicts(self):
        m = theta_map(Posterior([0.2, 0.3, 0.5]))
        out = abstaining_predict(m, CouplingConfig(method=Method.BAYES_COVARIANT), 0.1)
        assert isinstance(out, Posterior)
        np.testing.assert_allclose(out.probs, [0.2, 0.3, 0.5], atol=1e-7)

    def test_above_threshold_abstains(self):
        out = abstaining_predict(
            OFF_MANIFOLD, CouplingConfig(method=Method.BAYES_COVARIANT), 0.1
        )
        assert isinstance(out, Abstain)
        assert out.distance == pytest.approx(BC_RESIDUAL, abs=1e-7)

    def test_infinite_threshold_rejected(self):
        with pytest.raises(ValueError):
            abstaining_predict(OFF_MANIFOLD, CouplingConfig(), float("inf"))

    @pytest.mark.parametrize("stabilization", list(Stabilization))
    @pytest.mark.parametrize("method", list(Method))
    def test_single_coupling_matches_separate_calls(self, method, stabilization):
        rng = np.random.default_rng(43)
        config = CouplingConfig(method=method, stabilization=stabilization)
        mats = [PairwiseLikelihoodMatrix(random_offmanifold(rng, 5)) for _ in range(40)]
        threshold = float(np.median([sureness(m, config) for m in mats]))
        kinds = set()
        for m in mats:
            out = abstaining_predict(m, config, threshold)
            kinds.add(type(out))
            if isinstance(out, Abstain):
                assert out.distance == sureness(m, config)
            else:
                assert out == couple(m, config)
        assert kinds == {Abstain, Posterior}
