import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmkit import (
    CorrectionPatch,
    CouplingConfig,
    Method,
    PairwiseLikelihoodMatrix,
    Posterior,
    SingularityError,
    bootstrap_recombine,
    couple,
    partial_correct,
    theta_map,
    validate_pairwise,
)
from plmkit import ensemble
from plmkit.coupling import couple_stack, theta_map_stack
from plmkit.ensemble import (
    _DECILES,
    _deciles,
    _pair_rng,
    _stream_choices,
    recombine_stack,
    summarize_stack,
)
from oracles import random_offmanifold, random_posterior, summary_ref


class TestCorrectionPatch:
    def test_rejects_unordered_pair(self):
        with pytest.raises(ValueError):
            CorrectionPatch(pairs=((2, 1, 0.5),))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CorrectionPatch(pairs=((0, 1, 0.5), (0, 1, 0.6)))

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            CorrectionPatch(pairs=((0, 1, 1.5),))


class TestPartialCorrect:
    # an index that is a whole float names its class, as the int does
    def test_integral_float_indices(self):
        stack = theta_map_stack(np.array([[0.2, 0.3, 0.5]]))
        by_int = ensemble.correct_stack(stack, CorrectionPatch(pairs=((0, 2, 0.9),)))
        by_float = ensemble.correct_stack(stack, CorrectionPatch(pairs=((0.0, 2.0, 0.9),)))
        assert by_float.tobytes() == by_int.tobytes()
        # the patched stack is a copy
        assert stack.tobytes() == theta_map_stack(np.array([[0.2, 0.3, 0.5]])).tobytes()

    def test_identity_patch(self):
        p = Posterior([0.2, 0.3, 0.5])
        q = 0.2 / (0.2 + 0.3)
        patched = partial_correct(p, CorrectionPatch(pairs=((0, 1, q),)))
        np.testing.assert_allclose(patched.entries, theta_map(p).entries, atol=1e-15)

    def test_substitution(self):
        p = Posterior([0.2, 0.3, 0.5])
        patched = partial_correct(p, CorrectionPatch(pairs=((0, 1, 0.9),))).entries
        assert patched[0, 1] == 0.9
        assert patched[1, 0] == pytest.approx(0.1)
        assert patched[0, 2] == pytest.approx(0.2 / 0.7)
        assert patched[1, 2] == pytest.approx(0.3 / 0.8)

    def test_empty_patch(self):
        p = Posterior([0.2, 0.3, 0.5])
        out = partial_correct(p, CorrectionPatch(pairs=()))
        np.testing.assert_array_equal(out.entries, theta_map(p).entries)

    def test_class_out_of_range(self):
        with pytest.raises(ValueError):
            partial_correct(Posterior([0.5, 0.5]), CorrectionPatch(pairs=((0, 5, 0.5),)))

    def test_pair_without_mass_raises_before_class_bound(self):
        # the posterior is restricted before the patch is checked against it,
        # as the correct command reads the patch after restricting
        with pytest.raises(SingularityError, match="p_0 \\+ p_1 = 0"):
            partial_correct(Posterior([0.0, 0.0, 1.0]), CorrectionPatch(pairs=((0, 5, 0.5),)))

    def test_empty_patch_round_trip(self):
        rng = np.random.default_rng(2)
        for method in Method:
            p = Posterior(random_posterior(rng, 4))
            out = couple(partial_correct(p, CorrectionPatch(pairs=())), CouplingConfig(method=method))
            np.testing.assert_allclose(out.probs, p.probs, atol=1e-7)


class TestBootstrapRecombine:
    def _sources(self, seed=0, c=4):
        rng = np.random.default_rng(seed)
        return [
            PairwiseLikelihoodMatrix(random_offmanifold(rng, c)),
            PairwiseLikelihoodMatrix(random_offmanifold(rng, c)),
        ]

    def test_identical_sources(self):
        m = self._sources()[0]
        for out in bootstrap_recombine([m, m], 10, seed=1):
            np.testing.assert_array_equal(out.entries, m.entries)

    def test_deterministic(self):
        sources = self._sources()
        a = bootstrap_recombine(sources, 20, seed=99)
        b = bootstrap_recombine(sources, 20, seed=99)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.entries, y.entries)

    def test_outputs_valid(self):
        for out in bootstrap_recombine(self._sources(), 50, seed=3):
            assert validate_pairwise(out) == []

    def test_each_pair_from_one_source(self):
        sources = self._sources()
        stack = np.stack([s.entries for s in sources])
        for out in bootstrap_recombine(sources, 20, seed=5):
            for i in range(4):
                for j in range(i + 1, 4):
                    assert out.entries[i, j] in stack[:, i, j]

    def test_mismatched_c(self):
        rng = np.random.default_rng(4)
        a = PairwiseLikelihoodMatrix(random_offmanifold(rng, 3))
        b = PairwiseLikelihoodMatrix(random_offmanifold(rng, 4))
        with pytest.raises(Exception):
            bootstrap_recombine([a, b], 5, seed=0)

    def test_no_recombinations(self):
        assert bootstrap_recombine(self._sources(), 0, seed=4) == []

    def test_block_rows_match_single_sample_calls(self):
        rng = np.random.default_rng(12)
        block = np.stack([[random_offmanifold(rng, 4) for _ in range(3)] for _ in range(5)])
        seeds = [0, 2**32 + 1, 7, 2**64, 2**128 - 1]
        out = recombine_stack(block, 6, seeds)
        for b, seed in enumerate(seeds):
            one = bootstrap_recombine([PairwiseLikelihoodMatrix(m) for m in block[b]], 6, seed)
            assert out[b].tobytes() == np.stack([m.entries for m in one]).tobytes()

    def test_largest_seed_draws_pair_rng_streams(self):
        rng = np.random.default_rng(13)
        block = np.stack([[random_offmanifold(rng, 4) for _ in range(3)] for _ in range(2)])
        seeds = [2**128 - 1, np.uint64(2**64 - 1)]
        out = recombine_stack(block, 5, seeds)
        rows, cols = np.triu_indices(4, k=1)
        for b, seed in enumerate(seeds):
            for k in range(5):
                choice = _pair_rng(int(seed), k).integers(0, 3, size=rows.size)
                assert out[b, k, rows, cols].tobytes() == block[b, choice, rows, cols].tobytes()
                assert out[b, k, cols, rows].tobytes() == block[b, choice, cols, rows].tobytes()

    def test_source_choice_near_uniform(self):
        sources = self._sources(seed=8, c=3)
        hits = 0
        n = 10_000
        for out in bootstrap_recombine(sources, n, seed=123):
            hits += out.entries[0, 1] == sources[0].entries[0, 1]
        assert abs(hits / n - 0.5) <= 0.03


def _one_sample(coupled):
    stats, excluded = summarize_stack(coupled.probs[None])
    return stats[0], int(excluded[0])


class TestEnsembleSummary:
    """Statistics of one sample: mean, sd, min, deciles d10 .. d90, max."""

    def test_single_matrix_zero_sd(self):
        rng = np.random.default_rng(6)
        m = PairwiseLikelihoodMatrix(random_offmanifold(rng, 3))
        stats, excluded = _one_sample(couple_stack(m.entries[None], CouplingConfig()))
        assert np.all(stats[1] == 0.0)
        assert 1 - excluded == 1 and excluded == 0

    def test_repeated_matrices_zero_sd(self):
        rng = np.random.default_rng(7)
        m = PairwiseLikelihoodMatrix(random_offmanifold(rng, 3))
        stats, _ = _one_sample(couple_stack(np.stack([m.entries] * 10), CouplingConfig()))
        assert np.allclose(stats[1], 0.0)

    def test_summary_invariants(self):
        rng = np.random.default_rng(9)
        matrices = np.stack([random_offmanifold(rng, 4) for _ in range(30)])
        config = CouplingConfig(method=Method.BAYES_COVARIANT)
        stats, _ = _one_sample(couple_stack(matrices, config))
        mean, minimum, deciles, maximum = stats[0], stats[2], stats[3:12], stats[12]
        assert np.all(np.diff(deciles, axis=0) >= -1e-12)
        assert np.all(minimum <= mean + 1e-12)
        assert np.all(mean <= maximum + 1e-12)

    def test_matches_full_enumeration_c3(self):
        # reference: enumerate all 2^3 recombinations of two c=3 sources and
        # compare the exact per-class mean against a large seeded bootstrap
        rng = np.random.default_rng(10)
        sources = [
            PairwiseLikelihoodMatrix(random_offmanifold(rng, 3)),
            PairwiseLikelihoodMatrix(random_offmanifold(rng, 3)),
        ]
        pairs = [(0, 1), (0, 2), (1, 2)]
        for method in Method:
            config = CouplingConfig(method=method)
            exact = np.zeros(3)
            for choice in itertools.product([0, 1], repeat=3):
                m = np.zeros((3, 3))
                for (i, j), src in zip(pairs, choice):
                    m[i, j] = sources[src].entries[i, j]
                    m[j, i] = sources[src].entries[j, i]
                exact += couple(PairwiseLikelihoodMatrix(m), config).probs
            exact /= 8
            recombined = recombine_stack(np.stack([m.entries for m in sources])[None], 4000, [77])
            stats, _ = _one_sample(couple_stack(recombined[0], config))
            np.testing.assert_allclose(stats[0], exact, atol=0.02)

    def test_failed_couplings_excluded(self):
        good = theta_map(Posterior([0.2, 0.3, 0.5]))
        bad = PairwiseLikelihoodMatrix(
            [[0.0, 1.0, 0.6], [0.0, 0.0, 0.6], [0.4, 0.4, 0.0]]
        )
        config = CouplingConfig(method=Method.BAYES_COVARIANT)
        stack = np.stack([good.entries, bad.entries, good.entries])
        _, excluded = _one_sample(couple_stack(stack, config))
        assert 3 - excluded == 2 and excluded == 1


def _near(base):
    # seeds that pass core.require_seed, around each word boundary of the entropy
    return st.integers(min_value=max(0, base - 3), max_value=min(base + 3, 2**128 - 1))


class TestStreamChoices:
    """The array kernel equals numpy's generator stream by stream."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.one_of(*[_near(b) for b in (0, 2**32, 2**64, 2**128)]), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=2, max_value=300),
        st.integers(min_value=1, max_value=1300),
    )
    def test_matches_pair_rng(self, seeds, n, sources, size):
        got = _stream_choices(seeds, n, sources, size)
        for b, seed in enumerate(seeds):
            for k in range(n):
                expected = _pair_rng(seed, k).integers(0, sources, size=size)
                assert got[b, k].tobytes() == expected.tobytes()

    def test_range_beyond_32_bits_uses_pair_rng(self):
        # numpy draws 64-bit words for such a range, which the kernel does not model
        got = _stream_choices([3, 2**64], 2, 2**33, 5)
        for b, seed in enumerate([3, 2**64]):
            for k in range(2):
                expected = _pair_rng(seed, k).integers(0, 2**33, size=5)
                assert got[b, k].tobytes() == expected.tobytes()

    def test_rejection_falls_back(self, monkeypatch):
        # with 2**31 + 1 sources about half of all 32-bit draws are rejected
        calls = []

        def counting(seed, index):
            calls.append((seed, index))
            return _pair_rng(seed, index)

        monkeypatch.setattr(ensemble, "_pair_rng", counting)
        sources = 2**31 + 1
        got = _stream_choices([0, 5], 40, sources, 3)
        assert 0 < len(calls) < 80
        for b, seed in enumerate([0, 5]):
            for k in range(40):
                expected = _pair_rng(seed, k).integers(0, sources, size=3)
                assert got[b, k].tobytes() == expected.tobytes()


class TestSummarizeStack:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=2, max_value=6),
        st.sampled_from([0.0, 0.2, 0.6]),
        st.sampled_from(list(Method)),
    )
    def test_block_equals_per_sample(self, seed, samples, n, c, bad_share, method):
        """Samples of a block, some of whose rows fail to couple, are summarized
        bit for bit as one sample at a time."""
        rng = np.random.default_rng(seed)
        stack = np.stack([random_offmanifold(rng, c) for _ in range(samples * n)])
        # an exact 0/1 entry fails BC; an entry outside [0, 1] fails both methods
        for k in np.flatnonzero(rng.random(samples * n) < bad_share):
            stack[k, 0, 1] = -0.5 if method is Method.WU_LIN_WENG else 1.0
            stack[k, 1, 0] = 1.0 - stack[k, 0, 1]
        stack[::n, 0, 1] = stack[::n, 1, 0] = 0.5  # every sample keeps a row
        config = CouplingConfig(method=method)
        coupled = couple_stack(stack, config)
        failed = np.array([e is not None for e in coupled.errors]).reshape(samples, n)
        stats, excluded = summarize_stack(coupled.probs.reshape(samples, n, c))
        for b in range(samples):
            single, single_excluded = _one_sample(couple_stack(stack[b * n : (b + 1) * n], config))
            ref = summary_ref(coupled.probs.reshape(samples, n, c)[b], ~failed[b])
            assert stats[b].tobytes() == single.tobytes() == ref.tobytes()
            assert excluded[b] == single_excluded == failed[b].sum()
            assert n - single_excluded == np.count_nonzero(~failed[b])

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 5e-324, 2.2e-308, 0.5, 1 / 3]),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=2**32),
        st.booleans(),
    )
    def test_deciles_equal_np_quantile(self, pool, n, seed, ties):
        """One sort and numpy's lerp give np.quantile's deciles bit for bit,
        with ties, exact 0 and 1, and subnormals."""
        rng = np.random.default_rng(seed)
        arr = np.array(pool)[rng.integers(len(pool), size=(2, n, 3))]
        if not ties:  # pool values among uniform draws
            arr = np.where(rng.random(arr.shape) < 0.2, arr, rng.random(arr.shape))
        expected = np.quantile(arr, _DECILES, axis=1).swapaxes(0, 1)
        assert _deciles(np.sort(arr, axis=1), np.full(2, n - 1)).tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 5e-324, 2.2e-308, 0.5, 1 / 3]),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=2, max_value=12),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        st.integers(min_value=0, max_value=2**32),
        st.booleans(),
    )
    def test_one_pass_equals_each_sample_alone(self, pool, samples, n, c, share, seed, ties):
        """A block whose samples fail from none to all but one of their rows, NaN
        as couple_stack leaves them, is summarized as each sample's kept rows
        alone, bit for bit, with ties, exact 0 and 1, and subnormals."""
        rng = np.random.default_rng(seed)
        probs = np.array(pool)[rng.integers(len(pool), size=(samples, n, c))]
        if not ties:  # pool values among uniform draws
            probs = np.where(rng.random(probs.shape) < 0.2, probs, rng.random(probs.shape))
        failed = rng.random((samples, n)) < share
        failed[np.arange(samples), rng.integers(n, size=samples)] = False
        probs[failed] = np.nan
        stats, excluded = summarize_stack(probs)
        for b in range(samples):
            assert stats[b].tobytes() == summary_ref(probs[b], ~failed[b]).tobytes()
            assert excluded[b] == np.count_nonzero(np.isnan(probs[b, :, 0]))

    def test_sample_with_no_coupled_row(self):
        """A sample none of whose rows coupled has NaN statistics and all its
        rows excluded, without a warning (warnings are errors in the tests);
        the other samples are summarized as alone, bit for bit."""
        probs = np.random.default_rng(5).random((3, 4, 2))
        probs[0], probs[2, 1] = np.nan, np.nan
        stats, excluded = summarize_stack(probs)
        assert np.isnan(stats[0]).all() and excluded.tolist() == [4, 0, 1]
        for b in (1, 2):
            assert stats[b].tobytes() == summarize_stack(probs[b : b + 1])[0][0].tobytes()

    def test_no_rows(self):
        with pytest.raises(ValueError, match="at least one matrix"):
            summarize_stack(np.zeros((2, 0, 3)))
