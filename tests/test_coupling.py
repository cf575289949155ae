import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmkit import (
    CouplingConfig,
    EmptyResultError,
    Method,
    NumericalFailureError,
    PairwiseLikelihoodMatrix,
    PlmError,
    Posterior,
    ShapeError,
    SingularityError,
    Stabilization,
    couple,
    couple_bc,
    couple_stack,
    couple_wlw,
    delta2_value,
    extend_posterior,
    iia_restrict,
    reconstruct_from_column,
    stabilize_clip,
    stabilize_drop,
    theta_map,
    theta_of,
    validate_pairwise,
)
from plmkit.coupling import _solve_augmented, _wlw_quadratic
from oracles import quadratic_form, random_offmanifold, random_posterior

OFF_MANIFOLD = PairwiseLikelihoodMatrix(
    [[0.0, 0.6, 0.6], [0.4, 0.0, 0.6], [0.4, 0.4, 0.0]]
)

# pinned from the simplex-grid + projected-gradient reference minimizer
WLW_PSTAR = np.array([0.4310018903591683, 0.31758034026465026, 0.25141776937618149])
# pinned from the generic least-squares projection reference
BC_PSTAR = np.array([0.42634290893600174, 0.32536053338043963, 0.24829655768355868])


class TestIiaRestrict:
    def test_basic(self):
        bp = iia_restrict(Posterior([0.2, 0.3, 0.5]), 0, 1)
        assert bp.prob_a == pytest.approx(0.4)

    def test_uniform_gives_half(self):
        p = Posterior(np.full(5, 0.2))
        assert iia_restrict(p, 1, 4).prob_a == pytest.approx(0.5)

    def test_zero_denominator(self):
        with pytest.raises(SingularityError):
            iia_restrict(Posterior([1.0, 0.0, 0.0]), 1, 2)

    def test_same_index_rejected(self):
        with pytest.raises(ValueError):
            iia_restrict(Posterior([0.5, 0.5]), 1, 1)


class TestThetaMap:
    def test_values(self):
        m = theta_map(Posterior([0.2, 0.3, 0.5])).entries
        assert m[0, 1] == pytest.approx(0.4)
        assert m[0, 2] == pytest.approx(0.2 / 0.7)
        assert m[1, 2] == pytest.approx(0.3 / 0.8)
        assert m[1, 0] == pytest.approx(0.6)

    def test_uniform(self):
        m = theta_map(Posterior(np.full(4, 0.25))).entries
        off = ~np.eye(4, dtype=bool)
        assert np.allclose(m[off], 0.5)

    def test_binary(self):
        m = theta_map(Posterior([0.9, 0.1])).entries
        assert m[0, 1] == pytest.approx(0.9)
        assert m[1, 0] == pytest.approx(0.1)

    def test_zero_entry_singular(self):
        with pytest.raises(SingularityError):
            theta_map(Posterior([0.0, 1.0]))

    def test_output_valid(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = Posterior(random_posterior(rng, 6))
            assert validate_pairwise(theta_map(p)) == []


class TestReconstructFromColumn:
    def test_round_trip_every_column(self):
        p = Posterior([0.2, 0.3, 0.5])
        m = theta_map(p)
        for j in range(3):
            np.testing.assert_allclose(
                reconstruct_from_column(m, j).probs, p.probs, atol=1e-9
            )

    def test_all_half_gives_uniform(self):
        m = PairwiseLikelihoodMatrix(np.full((3, 3), 0.5) - 0.5 * np.eye(3))
        np.testing.assert_allclose(
            reconstruct_from_column(m, 0).probs, np.full(3, 1 / 3), atol=1e-12
        )

    def test_off_manifold_columns_disagree(self):
        # hand-computed ratio reconstructions of the fixed off-manifold matrix
        p0 = reconstruct_from_column(OFF_MANIFOLD, 0).probs
        p1 = reconstruct_from_column(OFF_MANIFOLD, 1).probs
        np.testing.assert_allclose(p0, [3 / 7, 2 / 7, 2 / 7], atol=1e-12)
        np.testing.assert_allclose(
            p1, np.array([1.5, 1.0, 2 / 3]) / (1.5 + 1.0 + 2 / 3), atol=1e-12
        )
        assert np.max(np.abs(p0 - p1)) > 1e-3

    def test_boundary_entry_singular(self):
        m = PairwiseLikelihoodMatrix(
            [[0.0, 1.0, 0.6], [0.0, 0.0, 0.6], [0.4, 0.4, 0.0]]
        )
        with pytest.raises(SingularityError):
            reconstruct_from_column(m, 1)


class TestCoupleWlw:
    def test_regularity(self):
        p = Posterior([0.2, 0.3, 0.5])
        np.testing.assert_allclose(couple_wlw(theta_map(p)).probs, p.probs, atol=1e-7)

    def test_uniform(self):
        m = PairwiseLikelihoodMatrix(np.full((4, 4), 0.5) - 0.5 * np.eye(4))
        np.testing.assert_allclose(couple_wlw(m).probs, np.full(4, 0.25), atol=1e-9)

    def test_off_manifold_pinned(self):
        np.testing.assert_allclose(couple_wlw(OFF_MANIFOLD).probs, WLW_PSTAR, atol=1e-4)

    def test_tolerates_exact_boundary_entries(self):
        m = PairwiseLikelihoodMatrix(
            [[0.0, 1.0, 0.8], [0.0, 0.0, 0.6], [0.2, 0.4, 0.0]]
        )
        p = couple_wlw(m)
        assert p.probs.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("c", [2, 3, 5, 10, 40])
    def test_closed_form_quadratic_matches_loop(self, c):
        m = random_offmanifold(np.random.default_rng(c), c)
        ref = quadratic_form(m)
        assert np.max(np.abs(_wlw_quadratic(m) - ref)) <= 1e-12 * np.max(np.abs(ref))

    # Wu, Lin & Weng (2004): the non-negativity constraints are redundant, so the
    # direct solve alone must stay on the simplex, boundary entries included.
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(min_value=2, max_value=12))
    def test_direct_solve_stays_on_simplex(self, data, c):
        entry = st.one_of(
            st.sampled_from([0.0, 1.0, 1e-300, 1e-12, 1e-9, 1.0 - 1e-9, 1.0 - 1e-12]),
            st.floats(min_value=0.0, max_value=1.0),
        )
        upper = data.draw(st.lists(entry, min_size=c * (c - 1) // 2, max_size=c * (c - 1) // 2))
        m = np.zeros((c, c))
        iu = np.triu_indices(c, k=1)
        m[iu] = upper
        m[(iu[1], iu[0])] = 1.0 - m[iu]
        matrix = PairwiseLikelihoodMatrix(m)
        tau = data.draw(st.sampled_from([None, 1e-6, 1e-3, 0.1]))
        if tau is not None:
            matrix = stabilize_clip(matrix, tau)
        p = couple_wlw(matrix).probs
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) <= 1e-9


class TestCoupleBc:
    def test_regularity(self):
        p = Posterior([0.2, 0.3, 0.5])
        np.testing.assert_allclose(couple_bc(theta_map(p)).probs, p.probs, atol=1e-7)

    def test_uniform(self):
        m = PairwiseLikelihoodMatrix(np.full((4, 4), 0.5) - 0.5 * np.eye(4))
        np.testing.assert_allclose(couple_bc(m).probs, np.full(4, 0.25), atol=1e-12)

    def test_off_manifold_pinned(self):
        np.testing.assert_allclose(couple_bc(OFF_MANIFOLD).probs, BC_PSTAR, atol=1e-7)

    def test_boundary_entry_singular(self):
        m = PairwiseLikelihoodMatrix(
            [[0.0, 1.0, 0.8], [0.0, 0.0, 0.6], [0.2, 0.4, 0.0]]
        )
        with pytest.raises(SingularityError):
            couple_bc(m)


class TestDelta2:
    def test_zero_on_manifold(self):
        p = Posterior([0.2, 0.3, 0.5])
        assert delta2_value(theta_map(p), p) <= 1e-12

    def test_zero_at_uniform(self):
        m = PairwiseLikelihoodMatrix(np.full((3, 3), 0.5) - 0.5 * np.eye(3))
        assert delta2_value(m, Posterior(np.full(3, 1 / 3))) <= 1e-12

    def test_positive_off_manifold(self):
        # direct summation: 6 ordered terms of (0.6/3 - 0.4/3)^2
        expected = 6 * ((0.6 - 0.4) / 3) ** 2
        got = delta2_value(OFF_MANIFOLD, Posterior(np.full(3, 1 / 3)))
        assert got == pytest.approx(expected)

    def test_mixed_c_rejected(self):
        with pytest.raises(ShapeError):
            delta2_value(OFF_MANIFOLD, Posterior([0.5, 0.5]))


class TestStabilizeClip:
    def test_clamps_low(self):
        m = PairwiseLikelihoodMatrix(
            [[0.0, 0.0005, 0.3], [0.9995, 0.0, 0.6], [0.7, 0.4, 0.0]]
        )
        out = stabilize_clip(m, 1e-3).entries
        assert out[0, 1] == pytest.approx(0.001)
        assert out[1, 0] == pytest.approx(0.999)

    def test_identity_on_interior(self):
        m = theta_map(Posterior([0.2, 0.3, 0.5]))
        out = stabilize_clip(m, 1e-3)
        np.testing.assert_array_equal(out.entries, m.entries)

    def test_clamps_high(self):
        m = PairwiseLikelihoodMatrix(
            [[0.0, 1.0, 0.3], [0.0, 0.0, 0.6], [0.7, 0.4, 0.0]]
        )
        out = stabilize_clip(m, 0.01).entries
        assert out[0, 1] == pytest.approx(0.99)
        assert out[1, 0] == pytest.approx(0.01)

    def test_output_valid(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = PairwiseLikelihoodMatrix(random_offmanifold(rng, 5))
            assert validate_pairwise(stabilize_clip(m, 1e-3)) == []


class TestStabilizeDrop:
    def test_drops_weak_class(self):
        m = PairwiseLikelihoodMatrix(
            [[0.0, 0.4, 1 - 1e-5], [0.6, 0.0, 0.7], [1e-5, 0.3, 0.0]]
        )
        reduced, survivors = stabilize_drop(m, 1e-3)
        assert survivors == [0, 1]
        np.testing.assert_allclose(
            reduced.entries, [[0.0, 0.4], [0.6, 0.0]], atol=1e-12
        )
        assert validate_pairwise(reduced) == []

    def test_identity_when_all_survive(self):
        m = theta_map(Posterior([0.2, 0.3, 0.5]))
        reduced, survivors = stabilize_drop(m, 1e-3)
        assert survivors == [0, 1, 2]
        np.testing.assert_array_equal(reduced.entries, m.entries)

    def test_extend_with_zero(self):
        p = extend_posterior(Posterior([0.7, 0.3]), [0, 1], 3)
        np.testing.assert_allclose(p.probs, [0.7, 0.3, 0.0])

    def test_all_dropped(self):
        eps = 1e-6
        m = PairwiseLikelihoodMatrix(
            [[0.0, eps, eps], [1 - eps, 0.0, eps], [1 - eps, 1 - eps, 0.0]]
        )
        # class 0 loses to 1 and 2, class 1 loses to 2; only class 2 survives
        reduced, survivors = stabilize_drop(m, 1e-3)
        assert reduced is None and survivors == [2]

    def test_everything_below_rho(self):
        m = PairwiseLikelihoodMatrix(np.full((2, 2), 1e-9) - 1e-9 * np.eye(2))
        with pytest.raises(EmptyResultError):
            stabilize_drop(m, 1e-3)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_round_trip_random(self, c, seed):
        rng = np.random.default_rng(seed)
        p = Posterior(random_posterior(rng, c))
        m = theta_map(p)
        np.testing.assert_allclose(couple_wlw(m).probs, p.probs, atol=1e-7)
        np.testing.assert_allclose(couple_bc(m).probs, p.probs, atol=1e-7)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = int(rng.integers(3, 6))
            m = random_offmanifold(rng, c)
            sigma = rng.permutation(c)
            permuted = PairwiseLikelihoodMatrix(m[np.ix_(sigma, sigma)])
            orig = PairwiseLikelihoodMatrix(m)
            for fn in (couple_wlw, couple_bc):
                np.testing.assert_allclose(
                    fn(permuted).probs, fn(orig).probs[sigma], atol=1e-9
                )

    def test_outputs_are_valid_posteriors(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = PairwiseLikelihoodMatrix(random_offmanifold(rng, 4))
            for fn in (couple_wlw, couple_bc):
                p = fn(m).probs
                assert np.all(p >= 0)
                assert abs(p.sum() - 1.0) <= 1e-9

    def test_theta_antisymmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = PairwiseLikelihoodMatrix(random_offmanifold(rng, 5))
            th = theta_of(m).entries
            assert np.max(np.abs(th + th.T)) <= 1e-9

    def test_column_agreement_iff_on_manifold(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            on = rng.random() < 0.5
            if on:
                m = theta_map(Posterior(random_posterior(rng, 4)))
            else:
                m = PairwiseLikelihoodMatrix(random_offmanifold(rng, 4))
            cols = [reconstruct_from_column(m, j).probs for j in range(4)]
            spread = max(
                np.max(np.abs(a - b)) for a in cols for b in cols
            )
            d2 = delta2_value(m, reconstruct_from_column(m, 0))
            if spread <= 1e-9:
                assert d2 < 1e-12
            else:
                assert d2 >= 1e-12


CONFIGS = [
    CouplingConfig(method=method, stabilization=stabilization)
    for method in Method
    for stabilization in Stabilization
]


def _stack_row(data, c):
    """One matrix: interior, boundary (0/1) and drop-triggering entries, and
    sometimes a broken complement."""
    entry = st.one_of(
        st.sampled_from([0.0, 1.0, 1e-5, 1.0 - 1e-5, 0.5]),
        st.floats(min_value=0.0, max_value=1.0),
    )
    upper = data.draw(st.lists(entry, min_size=c * (c - 1) // 2, max_size=c * (c - 1) // 2))
    m = np.zeros((c, c))
    iu = np.triu_indices(c, k=1)
    m[iu] = upper
    m[(iu[1], iu[0])] = 1.0 - m[iu]
    if data.draw(st.booleans()):
        k = data.draw(st.integers(min_value=0, max_value=iu[0].size - 1))
        m[iu[1][k], iu[0][k]] = (m[iu[1][k], iu[0][k]] + 0.25) % 1.0
    return m


class TestCoupleStack:
    # every row of a stack is coupled exactly as it would be alone: same
    # posterior and residual bit for bit, same error type and text
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=6))
    def test_rows_equal_single_calls(self, data, c, n):
        stack = np.array([_stack_row(data, c) for _ in range(n)])
        for config in CONFIGS:
            coupled = couple_stack(stack, config)
            for k in range(n):
                alone = couple_stack(stack[k : k + 1], config)
                np.testing.assert_array_equal(coupled.probs[k], alone.probs[0])
                np.testing.assert_array_equal(coupled.residual[k], alone.residual[0])
                try:
                    expected = couple(PairwiseLikelihoodMatrix(stack[k]), config)
                except PlmError as exc:
                    got = coupled.errors[k]
                    assert type(got) is type(exc) and str(got) == str(exc)
                    assert np.all(np.isnan(coupled.probs[k]))
                else:
                    assert coupled.errors[k] is None
                    np.testing.assert_array_equal(coupled.probs[k], expected.probs)

    def test_bad_row_is_isolated(self):
        good = theta_map(Posterior([0.2, 0.3, 0.5])).entries
        broken = good.copy()
        broken[1, 0] = 0.9
        coupled = couple_stack(np.array([good, broken, good]), CouplingConfig())
        assert coupled.errors[0] is None and coupled.errors[2] is None
        assert "complement violation at (0,1)" in str(coupled.errors[1])
        np.testing.assert_allclose(coupled.probs[[0, 2]], [[0.2, 0.3, 0.5]] * 2, atol=1e-9)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_empty_stack(self, config):
        coupled = couple_stack(np.zeros((0, 4, 4)), config)
        assert coupled.probs.shape == (0, 4) and coupled.errors == ()

    def test_non_finite_stack_rejected(self):
        stack = np.full((2, 3, 3), 0.5) - 0.5 * np.eye(3)
        stack[1, 0, 1] = np.nan
        with pytest.raises(ShapeError):
            couple_stack(stack, CouplingConfig())

    def test_singular_system_fails_its_row_only(self):
        aug = np.ones((2, 3, 3))
        aug[:, 2, 2] = 0.0
        aug[0, :2, :2] = 0.0  # Q = 0: the first two rows coincide
        aug[1, :2, :2] = np.eye(2)
        errors = {}
        sol = _solve_augmented(aug, errors)
        assert list(errors) == [0] and isinstance(errors[0], NumericalFailureError)
        assert "singular" in str(errors[0])
        np.testing.assert_allclose(sol[1, :2], [0.5, 0.5])
