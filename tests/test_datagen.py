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
import oracles
from oracles import (
    FittedGlm,
    GlmSpec,
    Link,
    bayes_posterior_ref,
    glm_loglik_ref,
    perturb_manifold_ref,
    random_posterior,
    train_binary_glm,
)


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
        fit = train_binary_glm(x, y, GlmSpec(link=Link.LOGIT))
        p_mid = fit.predict_proba(np.zeros((1, 2)))[0]
        assert p_mid == pytest.approx(0.5, abs=1e-6)

    def test_eps_labels_bound_probabilities(self):
        x, y = self._two_blob_data(seed=6, sep=12.0)
        spec = GlmSpec(link=Link.LOGIT, epsilon_labels=True)
        fit = train_binary_glm(x, y, spec)
        probs = fit.predict_proba(x)
        assert probs.min() > 1e-8
        assert probs.max() < 1 - 1e-8

    def test_hard_labels_saturate_on_separable_data(self):
        x, y = self._two_blob_data(seed=6, sep=12.0)
        hard = train_binary_glm(x, y, GlmSpec(link=Link.LOGIT))
        soft = train_binary_glm(x, y, GlmSpec(link=Link.LOGIT, epsilon_labels=True))
        # without label smoothing the fit drifts toward {0,1} much further
        assert hard.predict_proba(x).min() < soft.predict_proba(x).min()

    def test_cloglog_learns(self):
        x, y = self._two_blob_data(seed=7)
        spec = GlmSpec(link=Link.CLOGLOG)
        fit = train_binary_glm(x, y, spec)
        preds = (fit.predict_proba(x) >= 0.5).astype(float)
        assert (preds == y).mean() > 0.9

    # a link given by its value is its member: the same spec, the same fit bit for bit
    @pytest.mark.parametrize("link", list(Link))
    def test_link_value_fits_as_its_member(self, link):
        x, y = self._two_blob_data(seed=5)
        assert GlmSpec(link=link.value) == GlmSpec(link=link)
        by_value = train_binary_glm(x, y, GlmSpec(link=link.value))
        by_member = train_binary_glm(x, y, GlmSpec(link=link))
        assert by_value.link is link and by_value.converged is by_member.converged
        assert by_value.weights.tobytes() == by_member.weights.tobytes()
        assert by_value.intercept == by_member.intercept

    def test_single_class_rejected(self):
        x = np.zeros((10, 2))
        with pytest.raises(ValueError):
            train_binary_glm(x, np.zeros(10), GlmSpec())

    def test_nonconvergence_is_flagged_not_raised(self):
        # hard labels on separable data: the MLE does not exist, and every
        # Newton step moves the weights further out
        x, y = self._two_blob_data(seed=6, sep=12.0)
        fit = train_binary_glm(x, y, GlmSpec())
        assert fit.converged is False
        assert fit.iterations == oracles._MAX_ITERATIONS

    def test_collinear_features_end_the_fit(self):
        # a repeated column makes the information matrix exactly singular
        x, y = self._two_blob_data(seed=8)
        fit = train_binary_glm(x[:, [0, 1, 0]], y, GlmSpec())
        assert fit.converged is False
        assert fit.iterations == 1

    def test_step_is_halved_at_most_the_limit(self, monkeypatch):
        # every trial point lowers the log-likelihood, so no step is taken
        terms, calls = oracles._terms, []

        def falling(eta, t, link):
            loglik, score, info = terms(eta, t, link)
            calls.append(eta)
            return (loglik if len(calls) == 1 else -np.inf), score, info

        monkeypatch.setattr(oracles, "_terms", falling)
        x, y = self._two_blob_data(seed=8)
        fit = train_binary_glm(x, y, GlmSpec())
        assert fit.converged is False and fit.iterations == 1
        assert len(calls) == 1 + oracles._MAX_HALVINGS
        assert not fit.weights.any() and fit.intercept == 0.0

    def test_rounding_at_the_optimum_is_not_a_fall(self):
        # the last Newton step lowers the summed log-likelihood only by rounding
        # (about 1e-14 at -80.23); taken as a fall, it ended the fit unconverged
        x, y = self._two_blob_data(seed=268, sep=0.10897823348747118, n=58)
        fit = train_binary_glm(x, y, GlmSpec(link=Link.LOGIT, epsilon_labels=True))
        assert fit.converged is True

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sep=st.floats(min_value=0.0, max_value=2.0),
        n=st.integers(min_value=50, max_value=150),
    )
    @pytest.mark.parametrize("epsilon_labels", [False, True])
    @pytest.mark.parametrize("link", list(Link))
    def test_fit_is_a_stationary_point(self, link, epsilon_labels, seed, sep, n):
        """On overlapping blobs the MLE exists: the fit converges to a point where
        the central-difference gradient of a plain log-likelihood vanishes."""
        x, y = self._two_blob_data(seed=seed, sep=sep, n=n)
        fit = train_binary_glm(x, y, GlmSpec(link=link, epsilon_labels=epsilon_labels))
        assert fit.converged is True
        t = np.where(y > 0.5, 1.0 - 1.0 / y.size, 1.0 / y.size) if epsilon_labels else y
        beta, h = np.append(fit.weights, fit.intercept), 1e-6

        def loglik(b):
            return glm_loglik_ref(b, x, t, link.value)

        grad = [(loglik(beta + h * e) - loglik(beta - h * e)) / (2 * h) for e in np.eye(beta.size)]
        assert np.max(np.abs(grad)) <= 1e-5

    @pytest.mark.parametrize("link", list(Link))
    def test_predict_proba_far_from_the_boundary(self, link):
        # warnings are errors in this suite, so an overflow in exp fails here
        fit = FittedGlm(np.array([1.0]), 0.0, link, converged=True, iterations=1)
        probs = fit.predict_proba(np.array([[-800.0], [800.0]]))
        assert 0.0 <= probs[0] < 0.5 < probs[1] <= 1.0


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
