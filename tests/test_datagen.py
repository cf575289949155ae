import numpy as np
import pytest

from plmkit import (
    BlobSpec,
    GlmSpec,
    Link,
    Posterior,
    bayes_posterior_blobs,
    couple_bc,
    couple_wlw,
    generate_blobs,
    perturb_manifold,
    theta_map,
    train_binary_glm,
    validate_pairwise,
)
from plmkit.datagen import bayes_posterior_stack
from oracles import bayes_posterior_ref, random_posterior


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


class TestTrainBinaryGlm:
    def _two_blob_data(self, seed=0, sep=4.0, n=200):
        rng = np.random.Generator(np.random.PCG64(seed))
        x0 = rng.standard_normal((n, 2)) + [-sep / 2, 0.0]
        x1 = rng.standard_normal((n, 2)) + [sep / 2, 0.0]
        x = np.vstack([x0, x1])
        y = np.concatenate([np.zeros(n), np.ones(n)])
        return x, y

    def test_symmetric_boundary_through_midpoint(self):
        x, y = self._two_blob_data(seed=5)
        # symmetrize so the population midpoint is exactly the origin
        x = np.vstack([x, -x])
        y = np.concatenate([y, 1 - y])
        fit = train_binary_glm(x, y, GlmSpec(link=Link.LOGIT, max_epochs=20_000))
        p_mid = fit.predict_proba(np.zeros((1, 2)))[0]
        assert p_mid == pytest.approx(0.5, abs=1e-6)

    def test_eps_labels_bound_probabilities(self):
        x, y = self._two_blob_data(seed=6, sep=12.0)
        spec = GlmSpec(link=Link.LOGIT, epsilon_labels=True, max_epochs=20_000)
        fit = train_binary_glm(x, y, spec)
        probs = fit.predict_proba(x)
        assert probs.min() > 1e-8
        assert probs.max() < 1 - 1e-8

    def test_hard_labels_saturate_on_separable_data(self):
        x, y = self._two_blob_data(seed=6, sep=12.0)
        hard = train_binary_glm(x, y, GlmSpec(link=Link.LOGIT, max_epochs=20_000))
        soft = train_binary_glm(
            x, y, GlmSpec(link=Link.LOGIT, epsilon_labels=True, max_epochs=20_000)
        )
        # without label smoothing the fit drifts toward {0,1} much further
        assert hard.predict_proba(x).min() < soft.predict_proba(x).min()

    def test_cloglog_learns(self):
        x, y = self._two_blob_data(seed=7)
        spec = GlmSpec(link=Link.CLOGLOG, learning_rate=0.05, max_epochs=20_000)
        fit = train_binary_glm(x, y, spec)
        preds = (fit.predict_proba(x) >= 0.5).astype(float)
        assert (preds == y).mean() > 0.9

    def test_single_class_rejected(self):
        x = np.zeros((10, 2))
        with pytest.raises(ValueError):
            train_binary_glm(x, np.zeros(10), GlmSpec())

    def test_nonconvergence_is_flagged_not_raised(self):
        x, y = self._two_blob_data(seed=8)
        fit = train_binary_glm(x, y, GlmSpec(max_epochs=3))
        assert fit.converged is False
        assert fit.epochs == 3


class TestPerturbManifold:
    def test_zero_noise_is_exact_identity(self):
        p = Posterior([0.2, 0.3, 0.5])
        out = perturb_manifold(p, 0.0, seed=1)
        np.testing.assert_array_equal(out.entries, theta_map(p).entries)

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
