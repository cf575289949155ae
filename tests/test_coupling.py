import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmkit import (
    CouplingConfig,
    EmptyResultError,
    InvalidDistributionError,
    Method,
    NumericalFailureError,
    PairwiseLikelihoodMatrix,
    PlmError,
    Posterior,
    ShapeError,
    SingularityError,
    Stabilization,
    abstaining_predict,
    couple,
    couple_bc,
    couple_stack,
    couple_wlw,
    delta2_value,
    iia_restrict,
    reconstruct_from_column,
    stabilize_clip,
    stabilize_drop,
    sureness_stack,
    theta_map,
    validate_pairwise,
)
from plmkit import core, coupling
from plmkit.core import SYM_TOL, from_upper, pairwise_violations, posterior_violations
from plmkit.coupling import _clip_stack, _solve_augmented, _wlw_system, theta_map_stack
from oracles import clip_stack_ref, quadratic_form, random_offmanifold, random_posterior

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
        # a pair with one zero entry restricts to exact 0 and 1; only a pair
        # without mass is singular
        m = theta_map(Posterior([0.0, 1.0])).entries
        assert m[0, 1] == 0.0 and m[1, 0] == 1.0
        with pytest.raises(SingularityError, match=r"^p_0 \+ p_1 = 0: pair restriction undefined$"):
            theta_map(Posterior([0.0, 0.0, 1.0]))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 8).flatmap(
            lambda c: st.lists(
                st.lists(st.just(0.0) | st.floats(1e-300, 1.0), min_size=c, max_size=c),
                min_size=1,
                max_size=4,
            )
        )
    )
    def test_one_pair_rule(self, weights):
        # theta_map_stack and iia_restrict agree entry for entry where every
        # pair has mass, and raise the same error for the first pair without
        w = np.array(weights)
        w[~w.any(axis=1)] = 1.0
        probs = w / w.sum(axis=1, keepdims=True)
        c = probs.shape[1]
        rows, cols = np.triu_indices(c, k=1)
        errors = []
        for row in probs:
            p = Posterior(row)
            empty = [(i, j) for i, j in zip(rows, cols) if row[i] + row[j] == 0.0]
            if not empty:
                m = theta_map_stack(row[None])[0]
                for i, j in zip(*np.nonzero(~np.eye(c, dtype=bool))):
                    assert m[i, j] == iia_restrict(p, i, j).prob_a
                continue
            i, j = empty[0]
            message = f"p_{i} + p_{j} = 0: pair restriction undefined"
            errors.append(message)
            calls = (
                lambda: theta_map_stack(row[None]),
                lambda: iia_restrict(p, i, j),
                lambda: iia_restrict(p, j, i),
            )
            for call in calls:
                with pytest.raises(SingularityError) as exc:
                    call()
                assert str(exc.value) == message
        # the whole stack raises its first row's error, or restricts row by row
        if errors:
            with pytest.raises(SingularityError) as exc:
                theta_map_stack(probs)
            assert str(exc.value) == errors[0]
        else:
            by_row = np.concatenate([theta_map_stack(row[None]) for row in probs])
            assert np.array_equal(theta_map_stack(probs), by_row)
        # given a dict, each such row gets its error and NaN entries instead,
        # and every other row restricts as it does alone
        found = {}
        stack = theta_map_stack(probs, found)
        assert [str(found[k]) for k in sorted(found)] == errors
        assert all(type(error) is SingularityError for error in found.values())
        for k, row in enumerate(probs):
            if k in found:
                assert np.isnan(stack[k][~np.eye(c, dtype=bool)]).all()
            else:
                assert stack[k].tobytes() == theta_map_stack(row[None])[0].tobytes()

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
        aug = _wlw_system(m[None])[0]
        assert np.max(np.abs(aug[:c, :c] - ref)) <= 1e-12 * np.max(np.abs(ref))
        border = np.append(np.ones(c), 0.0)
        assert np.array_equal(aug[c], border) and np.array_equal(aug[:, c], border)

    # Wu, Lin & Weng (2004): the non-negativity constraints are redundant, so the
    # direct solve alone must stay on the simplex, boundary entries included.
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(min_value=2, max_value=12))
    def test_direct_solve_stays_on_simplex(self, data, c):
        entry = st.one_of(
            st.sampled_from([0.0, 1.0, 1e-310, 1e-300, 1e-12, 1e-9, 1.0 - 1e-9, 1.0 - 1e-12]),
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

    # 1 / x overflows for x <= 1 / DBL_MAX: such an entry's log-odds is infinite
    # as computed, so it is singular like a 0; the next double up is not
    def test_subnormal_entry_singular(self):
        floor = 1.0 / np.finfo(float).max
        for low in (5e-324, 1e-310, floor):
            m = PairwiseLikelihoodMatrix([[0.0, low, 0.5], [1.0 - 1e-10, 0.0, 0.5], [0.5, 0.5, 0.0]])
            with pytest.raises(SingularityError):
                couple_bc(m)
        above = np.nextafter(floor, 1.0)
        m = PairwiseLikelihoodMatrix([[0.0, above, 0.5], [1.0 - 1e-10, 0.0, 0.5], [0.5, 0.5, 0.0]])
        assert couple_bc(m).probs[1] == pytest.approx(1.0)


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

    # whole-matrix clipping against the upper-triangle fancy-index reference,
    # bit for bit, broken complements and stacks already inside included
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([1e-6, 1e-3, 0.1]),
    )
    def test_matches_fancy_index_reference(self, seed, c, n, tau):
        rng = np.random.default_rng(seed)
        inside = rng.random() < 0.3  # every entry already in [tau, 1 - tau]
        stack = rng.uniform(tau, 1.0 - tau, (n, c, c)) if inside else rng.random((n, c, c))
        edge = rng.random(stack.shape) < 0.5
        edges = [tau, 1.0 - tau, 0.5] if inside else [0.0, 1.0, tau, 1.0 - tau, tau / 2, 0.5]
        stack[edge] = rng.choice(edges, size=edge.sum())
        iu = np.triu_indices(c, k=1)
        if inside:  # the clip turns a -0.0 diagonal into +0.0
            stack[:, range(c), range(c)] = rng.choice([0.0, -0.0], size=(n, c))
        for k in np.flatnonzero(rng.random(n) < 0.5):  # the others keep broken complements
            stack[k, iu[1], iu[0]] = 1.0 - stack[k][iu]
        expected = clip_stack_ref(stack, tau)
        got = _clip_stack(stack, tau)
        assert got.tobytes() == expected.tobytes()
        single = stabilize_clip(PairwiseLikelihoodMatrix(stack[0]), tau).entries
        assert single.tobytes() == expected[0].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.one_of(st.sampled_from([1e-6, 1e-3, 0.1]), st.floats(min_value=1e-9, max_value=0.49)),
    )
    def test_every_entry_in_band(self, seed, c, n, tau):
        """Every off-diagonal entry of the clip lies in [tau, 1 - tau], also where
        an unmoved upper entry's complement is off by up to SYM_TOL."""
        rng = np.random.default_rng(seed)
        upper = rng.random((n, c * (c - 1) // 2))
        edge = rng.random(upper.shape) < 0.5
        upper[edge] = rng.choice([0.0, 1.0, tau, 1.0 - tau, 0.5], size=edge.sum())
        off = rng.uniform(-SYM_TOL, SYM_TOL, upper.shape)
        stack = from_upper(upper, c)
        iu = np.triu_indices(c, k=1)
        stack[:, iu[1], iu[0]] = np.clip(1.0 - upper + off, 0.0, 1.0)
        got = _clip_stack(stack, tau)
        single = stabilize_clip(PairwiseLikelihoodMatrix(stack[0]), tau).entries
        assert single.tobytes() == got[0].tobytes()
        entries = got[:, ~np.eye(c, dtype=bool)]
        # a moved entry's complement, 1 - fl(1 - tau), can lie one rounding below tau
        assert entries.min() >= min(tau, 1.0 - (1.0 - tau))
        assert entries.max() <= 1.0 - tau

    @pytest.mark.parametrize("tau, low", [(0.1, 0.09999999999999998), (1e-3, 0.0010000000000000009)])
    def test_complement_of_a_clipped_entry(self, tau, low):
        """The documented rounding: the complement of an entry clipped to
        fl(1 - tau) is 1 - fl(1 - tau), one rounding below tau at tau = 0.1."""
        upper = 1.0 - tau / 2  # 0.95 at tau = 0.1
        got = stabilize_clip(PairwiseLikelihoodMatrix([[0.0, upper], [1.0 - upper, 0.0]]), tau).entries
        assert got[0, 1] == 1.0 - tau and got[1, 0] == 1.0 - (1.0 - tau) == low
        assert (low < tau) == (tau == 0.1)


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


# entries outside [0, 1], by a little and by a lot
_OUTSIDE = [-1e-12, 1.0 + 1e-12, -0.25, 1.25]


def _stack_row(data, c):
    """One matrix: interior, boundary (0/1) and drop-triggering entries, and
    sometimes a broken complement, often that of an entry a stabilizer clips
    or drops, or an entry outside [0, 1]."""
    entry = st.one_of(
        st.sampled_from([0.0, 1.0, 1e-310, 1e-5, 1.0 - 1e-5, 0.5]),
        st.floats(min_value=0.0, max_value=1.0),
    )
    upper = data.draw(st.lists(entry, min_size=c * (c - 1) // 2, max_size=c * (c - 1) // 2))
    m = np.zeros((c, c))
    iu = np.triu_indices(c, k=1)
    m[iu] = upper
    m[(iu[1], iu[0])] = 1.0 - m[iu]
    if data.draw(st.booleans()):
        edge = [k for k, u in enumerate(upper) if not 1e-3 <= u <= 1.0 - 1e-3]
        pool = edge if edge and data.draw(st.booleans()) else range(iu[0].size)
        k = data.draw(st.sampled_from(pool))
        m[iu[1][k], iu[0][k]] = (m[iu[1][k], iu[0][k]] + 0.25) % 1.0
    if data.draw(st.integers(min_value=0, max_value=3)) == 0:
        i, j = data.draw(st.tuples(*[st.integers(min_value=0, max_value=c - 1)] * 2))
        m[i, j if i != j else (j + 1) % c] = data.draw(st.sampled_from(_OUTSIDE))
    return m


def _seeded_row(rng, c):
    """One matrix on or off the manifold, with boundary entries and sometimes
    a broken complement, for any c."""
    rows, cols = np.triu_indices(c, k=1)
    p = np.maximum(rng.dirichlet(np.full(c, rng.choice([0.1, 1.0, 10.0]))), 1e-300)
    upper = p[rows] / (p[rows] + p[cols])
    if rng.random() < 0.5:
        upper = np.where(rng.random(upper.size) < 0.5, rng.random(upper.size), upper)
    edge = rng.random(upper.size) < 0.1
    upper[edge] = rng.choice(
        [0.0, 1.0, 5e-324, 1e-310, 1e-300, 1e-5, 1.0 - 1e-5, 1.0 - 1e-12, 0.5], size=edge.sum()
    )
    m = from_upper(upper[None], c)[0]
    if rng.random() < 0.1:
        # a subnormal entry whose complement is inside the tolerance but not 1
        k = rng.integers(upper.size)
        m[rows[k], cols[k]], m[cols[k], rows[k]] = rng.choice([5e-324, 1e-310]), 1.0 - 1e-10
    if rng.random() < 0.2:
        # often the complement of an entry that a stabilizer clips or drops
        clipped = np.flatnonzero((upper < 1e-3) | (upper > 1.0 - 1e-3))
        k = rng.choice(clipped) if clipped.size and rng.random() < 0.5 else rng.integers(upper.size)
        m[cols[k], rows[k]] = (m[cols[k], rows[k]] + 0.25) % 1.0
    if rng.random() < 0.1:
        k = rng.integers(upper.size)
        m[rows[k], cols[k]] = rng.choice(_OUTSIDE)
    return m


class TestCoupleStack:
    # the invariant that lets CoupledStack.posterior skip re-validation: every
    # row without an error is on the simplex, and couple() returns that row
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=4),
    )
    def test_rows_without_error_are_posteriors(self, seed, c, n):
        rng = np.random.default_rng(seed)
        stack = np.array([_seeded_row(rng, c) for _ in range(n)])
        for config in CONFIGS:
            coupled = couple_stack(stack, config)
            ok = [k for k in range(n) if coupled.errors[k] is None]
            assert posterior_violations(coupled.probs[ok]) == {}
            for k in ok:
                got = couple(PairwiseLikelihoodMatrix(stack[k]), config)
                assert got == Posterior(coupled.probs[k]) and not got.probs.flags.writeable

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

    # validation sees the raw stack before any stabilizer: under every
    # configuration, the rows that fail as invalid are exactly the rows that
    # pairwise_violations flags, with its messages
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=6),
    )
    def test_invalid_rows_are_the_raw_violations(self, seed, c, n):
        rng = np.random.default_rng(seed)
        stack = np.array([_seeded_row(rng, c) for _ in range(n)])
        expected = {k: "; ".join(v) for k, v in pairwise_violations(stack).items()}
        for config in CONFIGS:
            errors = couple_stack(stack, config).errors
            got = {k: str(e) for k, e in enumerate(errors) if type(e) is InvalidDistributionError}
            assert got == expected

    # the broken complement is that of the entry a clip moves and a drop
    # removes, so a stabilizer run first would hide it
    @pytest.mark.parametrize("config", CONFIGS)
    def test_stabilizer_never_validates(self, config):
        m = PairwiseLikelihoodMatrix([[0.0, 0.0005, 0.5], [0.3, 0.0, 0.5], [0.5, 0.5, 0.0]])
        message = "complement violation at (0,1): r_ij + r_ji = 0.3005, expected 1"
        assert validate_pairwise(m) == [message]
        for call in (couple, lambda m, config: abstaining_predict(m, config, 1.0)):
            with pytest.raises(InvalidDistributionError) as exc:
                call(m, config)
            assert str(exc.value) == message

    # one validation per call, of the raw stack: none after the clip and none
    # per survivor group, whose reduced matrices are valid when the rows are
    @pytest.mark.parametrize("config", CONFIGS)
    def test_validated_once(self, config, monkeypatch):
        calls = []

        def counted(stack):
            calls.append(stack.copy())
            return real(stack)

        real = core.pairwise_violations
        monkeypatch.setattr(core, "pairwise_violations", counted)
        monkeypatch.setattr(coupling, "pairwise_violations", counted)
        stack = np.array([
            theta_map(Posterior([0.2, 0.3, 0.5])).entries,
            [[0.0, 1e-5, 0.4], [1.0 - 1e-5, 0.0, 0.5], [0.6, 0.5, 0.0]],  # drops class 0
            [[0.0, 0.5, 1.0 - 1e-5], [0.5, 0.0, 0.6], [1e-5, 0.4, 0.0]],  # drops class 2
            [[0.0, 1e-5, 1e-5], [1.0 - 1e-5, 0.0, 0.5], [1.0 - 1e-5, 0.5, 0.0]],  # drops class 0 too
            [[0.0, 0.0005, 0.5], [0.3, 0.0, 0.5], [0.5, 0.5, 0.0]],  # invalid
        ])  # fmt: skip
        assert len(np.unique(coupling._survivors(stack[:4], config.rho), axis=0)) == 3
        coupled = couple_stack(stack, config)
        errors = coupled.errors
        assert len(calls) == 1 and calls[0].tobytes() == stack.tobytes()
        assert errors[:4] == (None,) * 4 and type(errors[4]) is InvalidDistributionError
        # the config spelled with its members' values is the same config, and
        # couples bit for bit alike
        spelled = CouplingConfig(config.method.value, config.stabilization.value)
        assert spelled == config
        again = couple_stack(stack, spelled)
        assert again.probs.tobytes() == coupled.probs.tobytes()
        assert again.residual.tobytes() == coupled.residual.tobytes()
        assert [(type(e), str(e)) for e in again.errors] == [(type(e), str(e)) for e in errors]

    # Wu, Lin & Weng (2004): the direct solve of a valid matrix stays on the
    # simplex, so no valid stack fails WLW, nor BC as its distance clips it
    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=8))
    def test_every_valid_stack_couples(self, data, c, n):
        entry = st.one_of(
            st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 1e-16, 1.0 - 1e-16, 0.5]),
            st.floats(min_value=0.0, max_value=1.0),
        )
        size = c * (c - 1) // 2
        upper = data.draw(st.lists(entry, min_size=n * size, max_size=n * size))
        stack = from_upper(np.reshape(upper, (n, size)), c)
        for coupled in (
            couple_stack(stack, CouplingConfig()),
            sureness_stack(stack, CouplingConfig(method="bc")),
        ):
            assert coupled.errors == (None,) * n
            assert posterior_violations(coupled.probs) == {}

    # class dropping couples each row in the reduced form stabilize_drop gives,
    # and a single survivor is its 1 x 1 coupling: one-hot, residual +0.0
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=6))
    def test_drop_rows_couple_their_reduced_matrix(self, data, c, n):
        entry = st.one_of(
            st.sampled_from([0.0, 1.0, 1e-5, 5e-4, 1.0 - 1e-5, 0.5]),
            st.floats(min_value=0.0, max_value=1.0),
        )
        size = c * (c - 1) // 2
        upper = data.draw(st.lists(entry, min_size=n * size, max_size=n * size))
        stack = from_upper(np.reshape(upper, (n, size)), c)
        rho = data.draw(st.sampled_from([1e-3, 0.05, 0.3]))
        for method in Method:
            config = CouplingConfig(method, Stabilization.DROP_CLASSES, rho=rho)
            coupled = couple_stack(stack, config)
            for k in range(n):
                got = (coupled.probs[k].tobytes(), coupled.residual[k].tobytes())
                try:
                    reduced, survivors = stabilize_drop(PairwiseLikelihoodMatrix(stack[k]), rho)
                except EmptyResultError as exc:
                    error = coupled.errors[k]
                    assert type(error) is EmptyResultError and str(error) == str(exc)
                    continue
                expected = np.zeros(c)
                if reduced is None:
                    expected[survivors] = 1.0
                    assert coupled.errors[k] is None
                    assert got == (expected.tobytes(), np.float64(0.0).tobytes())
                    continue
                alone = couple_stack(reduced.entries[None], CouplingConfig(method))
                if coupled.errors[k] is not None:
                    error, same = coupled.errors[k], alone.errors[0]
                    assert type(error) is type(same) and str(error) == str(same)
                    continue
                expected[survivors] = alone.probs[0]
                assert got == (expected.tobytes(), alone.residual[0].tobytes())

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

    # the whole call fails before any stabilizer runs: a clip would turn +inf
    # into 1 - tau, and class dropping would drop a class over -inf
    @pytest.mark.parametrize(
        "value, stabilization",
        [
            (np.nan, Stabilization.NONE),
            (np.inf, Stabilization.CLIP),
            (-np.inf, Stabilization.DROP_CLASSES),
            (np.nan, Stabilization.CLIP),
        ],
        ids=["nan-none", "inf-clip", "-inf-drop", "nan-clip"],
    )
    def test_non_finite_stack_rejected(self, value, stabilization):
        stack = np.full((2, 3, 3), 0.5) - 0.5 * np.eye(3)
        stack[1, 0, 1] = value
        with pytest.raises(ShapeError) as exc:
            couple_stack(stack, CouplingConfig(stabilization=stabilization))
        assert str(exc.value) == "pairwise matrix contains non-finite entries"

    # valid rows the fused 0/1 test must not pass: a 1 whose mirror 1e-10 is
    # not 0 needs the max test, not the zero count.  With tau = 1e-12 the clip
    # moves the lower 0 to tau although its mirror 1 - 1e-12 is unchanged, so
    # no clipped row is singular and that row couples
    @pytest.mark.parametrize(
        "trap, stabilization, error",
        [
            ([[0.0, 1.0 - 1e-12, 0.5], [0.0, 0.0, 0.5], [0.5, 0.5, 0.0]], Stabilization.CLIP, type(None)),
            ([[0.0, 1.0, 0.5], [1e-10, 0.0, 0.5], [0.5, 0.5, 0.0]], Stabilization.NONE, SingularityError),
            ([[0.0, 1e-310, 0.5], [1.0 - 1e-10, 0.0, 0.5], [0.5, 0.5, 0.0]], Stabilization.NONE, SingularityError),
        ],
        ids=["tiny-tau-clip", "one-beside-nonzero", "subnormal-beside-complement"],
    )  # fmt: skip
    def test_valid_singular_row_found(self, trap, stabilization, error):
        trap = np.array(trap)
        good = theta_map(Posterior([0.2, 0.3, 0.5])).entries
        config = CouplingConfig(
            method=Method.BAYES_COVARIANT, stabilization=stabilization, tau=1e-12
        )
        assert validate_pairwise(PairwiseLikelihoodMatrix(trap)) == []
        for stack in (trap[None], np.array([good, trap])):
            coupled = couple_stack(stack, config)
            assert type(coupled.errors[-1]) is error
            assert coupled.errors[:-1] == (None,) * (len(stack) - 1)

    # a non-finite solution is caught with the negative ones, so a row without
    # an error is always a posterior
    def test_solution_off_the_simplex_fails_its_row_only(self, monkeypatch):
        solutions = np.array([
            [np.nan, 0.5, 0.5, 0.0],
            [-1e-3, 0.5, 0.501, 0.0],
            [np.inf, 0.5, 0.5, 0.0],
            [0.2, 0.3, 0.5, 0.0],
        ])  # fmt: skip
        monkeypatch.setattr(coupling, "_solve_augmented", lambda aug, errors: solutions.copy())
        stack = np.repeat(theta_map(Posterior([0.2, 0.3, 0.5])).entries[None], 4, axis=0)
        coupled = couple_stack(stack, CouplingConfig())
        assert [str(e) for e in coupled.errors[:3]] == [
            "direct solve left the simplex: min p = nan, max p = nan",
            "direct solve left the simplex: min p = -1.000e-03, max p = 5.010e-01",
            "direct solve left the simplex: min p = 5.000e-01, max p = inf",
        ]
        assert coupled.errors[3] is None
        np.testing.assert_array_equal(coupled.probs[3], [0.2, 0.3, 0.5])

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
