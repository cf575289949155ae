import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmkit import (
    BlobSpec,
    Posterior,
    bayes_posterior_blobs,
    couple_bc,
    couple_wlw,
    generate_blobs,
    perturb_manifold,
    theta_map,
    validate_pairwise,
)
from plmkit.datagen import bayes_posterior_stack
from oracles import bayes_posterior_ref, perturb_manifold_ref, random_posterior


def make_spec(**overrides):
    defaults = dict(
        c=3,
        dim=2,
        means=np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]),
        scale=1.0,
        n_per_class=50,
        seed=0,
    )
    defaults.update(overrides)
    return BlobSpec(**defaults)


class TestGenerateBlobs:
    def test_deterministic(self):
        spec = make_spec()
        x1, b1 = generate_blobs(spec)
        x2, b2 = generate_blobs(spec)
        np.testing.assert_array_equal(x1, x2)
        assert b1.samples == b2.samples

    def test_shapes_and_labels(self):
        x, batch = generate_blobs(make_spec())
        assert x.shape == (150, 2)
        assert len(batch) == 150
        assert {label for _, label in batch.samples} == {0, 1, 2}

    def test_separated_means_are_separable(self):
        spec = make_spec(means=np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]]), scale=0.5)
        x, batch = generate_blobs(spec)
        correct = 0
        for (_, label), point in zip(batch.samples, x):
            correct += int(np.argmin(np.sum((spec.means - point) ** 2, axis=1))) == label
        assert correct == len(batch)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            make_spec(scale=0.0)
        with pytest.raises(ValueError):
            make_spec(n_per_class=0)


class TestBayesPosterior:
    def test_equidistant_is_uniform(self):
        spec = make_spec(means=np.array([[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]]))
        p = bayes_posterior_blobs(spec, np.zeros(2))
        np.testing.assert_allclose(p.probs, np.full(3, 1 / 3), atol=1e-12)

    def test_near_mean_dominates(self):
        spec = make_spec(means=np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 30.0]]), scale=1.0)
        p = bayes_posterior_blobs(spec, spec.means[1])
        assert p.probs[1] > 1 - 1e-12

    def test_midpoint_binary(self):
        spec = make_spec(c=2, means=np.array([[0.0, 0.0], [4.0, 0.0]]))
        p = bayes_posterior_blobs(spec, np.array([2.0, 0.0]))
        np.testing.assert_allclose(p.probs, [0.5, 0.5], atol=1e-12)


    @pytest.mark.parametrize("c, dim", [(3, 2), (10, 10), (4, 17)])
    def test_stack_matches_one_point_at_a_time(self, c, dim):
        """Bit for bit: synth's posterior file must not change with the batching."""
        rng = np.random.default_rng(c * dim)
        means = rng.normal(0.0, 3.0, (c, dim))
        spec = make_spec(c=c, dim=dim, means=means, scale=1.5, n_per_class=20)
        features, _ = generate_blobs(spec)
        stack = bayes_posterior_stack(spec, features)
        expected = np.array([bayes_posterior_ref(spec.means, spec.scale, x) for x in features])
        assert stack.shape == (c * 20, c) and stack.tobytes() == expected.tobytes()
        assert bayes_posterior_blobs(spec, features[3]).probs.tobytes() == expected[3].tobytes()


class TestPerturbManifold:
    def test_zero_noise_is_exact_identity(self):
        p = Posterior([0.2, 0.3, 0.5])
        out = perturb_manifold(p, 0.0, seed=1)
        np.testing.assert_array_equal(out.entries, theta_map(p).entries)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=15),
        st.sampled_from([0.0, 1e-12, 2.0]),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=14),
    )
    def test_equals_full_matrix_formulation(self, c, scale, seed, tiny):
        """Bit for bit the c x c log-odds and noise formulation, with some
        entries near 1e-300, where pairs round to exactly 0 and 1."""
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(c))
        small = rng.choice(c, size=min(tiny, c - 1), replace=False)
        tiny_entries = 10.0 ** -rng.uniform(250, 300, size=small.size)
        probs[small] = np.where(rng.random(small.size) < 0.3, 1e-300, tiny_entries)
        p = Posterior(probs / probs.sum())
        got = perturb_manifold(p, scale, seed).entries
        # the reference warns where a pair rounds to 1 (log-odds log(0)) and where exp overflows
        with np.errstate(divide="ignore", over="ignore"):
            ref = perturb_manifold_ref(p.probs, scale, seed)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "probs, scale, seed",
        [([1.0, 5e-324], 0.5, 1), ([1e-300, 0.5, 0.5], 50.0, 3)],
        ids=["pair rounds to 1", "exp overflows"],
    )
    def test_exact_limits_warn_nothing(self, probs, scale, seed):
        """A pair that rounds to exactly 1 has log-odds log(0), and a large noise
        overflows exp; both limits give exact 0/1 entries, and in this suite a
        warning is an error."""
        out = perturb_manifold(Posterior(probs), scale, seed)
        with np.errstate(divide="ignore", over="ignore"):
            ref = perturb_manifold_ref(np.array(probs), scale, seed)
        assert out.entries.tobytes() == ref.tobytes()
        assert validate_pairwise(out) == [] and out.entries[0, 1] in (0.0, 1.0)

    def test_outputs_valid_for_large_noise(self):
        rng = np.random.default_rng(12)
        for k in range(50):
            p = Posterior(random_posterior(rng, 4))
            out = perturb_manifold(p, 5.0, seed=k)
            assert validate_pairwise(out) == []

    def test_coupling_error_shrinks_with_noise(self):
        rng = np.random.default_rng(13)
        posteriors = [Posterior(random_posterior(rng, 4)) for _ in range(200)]
        med_errors = []
        for scale in (0.1, 0.01, 0.001):
            errs = []
            for k, p in enumerate(posteriors):
                m = perturb_manifold(p, scale, seed=k)
                for fn in (couple_wlw, couple_bc):
                    errs.append(np.max(np.abs(fn(m).probs - p.probs)))
            med_errors.append(float(np.median(errs)))
        assert med_errors[0] > med_errors[1] > med_errors[2]
