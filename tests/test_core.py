import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmkit import (
    BinaryPrediction,
    BlobSpec,
    CouplingConfig,
    InvalidDistributionError,
    LabeledBatch,
    PairwiseLikelihoodMatrix,
    Posterior,
    ShapeError,
    generate_blobs,
    iia_restrict,
    perturb_manifold,
    reconstruct_from_column,
    theta_map,
    validate_pairwise,
)
from plmkit.core import (
    SUM_TOL,
    SYM_TOL,
    diagonals,
    from_upper,
    off_diagonal,
    pairwise_violations,
    posterior_violations,
    require_int,
    strict_upper,
    triu_index,
)
from plmkit.ensemble import recombine_stack
from oracles import pairwise_violations_ref, posterior_violations_ref


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

    def test_equal_values_hash_equal(self):
        p, q = Posterior([0.25, 0.75]), Posterior(np.array([0.25, 0.75]))
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1
        assert p != Posterior([0.75, 0.25])
        assert p != p.probs


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

    def test_equal_values_hash_equal(self):
        m = PairwiseLikelihoodMatrix([[0.0, 0.4], [0.6, 0.0]])
        same = PairwiseLikelihoodMatrix(np.array([[0.0, 0.4], [0.6, 0.0]]))
        assert m == same and hash(m) == hash(same) and len({m, same}) == 1
        assert m != PairwiseLikelihoodMatrix([[0.0, 0.6], [0.4, 0.0]])
        assert m != Posterior([0.4, 0.6]) and m != m.entries

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


def _pairwise_row(data, c):
    """A valid matrix, then a few entries nudged: onto the diagonal, just
    outside [0, 1], or off their complement by just under or over SYM_TOL."""
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32)))
    upper = rng.random(c * (c - 1) // 2)
    edge = rng.random(upper.size) < 0.3
    upper[edge] = rng.choice([0.0, 1.0, 0.5, -1e-12, 1.0 + 1e-12], size=edge.sum())
    m = from_upper(upper[None], c)[0]
    nudge = st.sampled_from(
        [0.999 * SYM_TOL, 1.001 * SYM_TOL, -0.999 * SYM_TOL, -1.001 * SYM_TOL, 1e-12, 0.25, 1.0]
    )
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        i, j = data.draw(st.tuples(*[st.integers(min_value=0, max_value=c - 1)] * 2))
        m[i, j] += data.draw(nudge)
    return m


def _posterior_row(data, c):
    """A normalized or one-hot posterior, sometimes with an entry replaced by
    a value outside [0, 1] or not finite, or its sum moved by about SUM_TOL."""
    raw = data.draw(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=c, max_size=c))
    p = np.array(raw) / sum(raw)
    if data.draw(st.booleans()):
        p = np.eye(c)[data.draw(st.integers(min_value=0, max_value=c - 1))]
    special = st.sampled_from([np.nan, np.inf, -np.inf, -1e-12, 1.0 + 1e-12, 0.0, 1.0])
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        p[data.draw(st.integers(min_value=0, max_value=c - 1))] = data.draw(special)
    if data.draw(st.booleans()):
        p[np.argmax(p)] += data.draw(st.sampled_from([0.5, 2.0, -0.5, -2.0])) * SUM_TOL
    return p


class TestFusedChecks:
    """The fused all-valid tests report exactly what per-entry masks report:
    the same rows, the same messages, in the same order."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=6))
    def test_pairwise_matches_masks(self, data, c, n):
        stack = np.array([_pairwise_row(data, c) for _ in range(n)])
        before = stack.copy()
        got = pairwise_violations(stack)
        assert list(got.items()) == list(pairwise_violations_ref(stack).items())
        assert np.array_equal(stack, before)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=6))
    def test_posterior_matches_masks(self, data, c, n):
        probs = np.array([_posterior_row(data, c) for _ in range(n)])
        with np.errstate(invalid="ignore"):  # inf - inf in a row sum
            expected = posterior_violations_ref(probs)
            got = posterior_violations(probs)
        assert list(got.items()) == list(expected.items())


class TestTriangle:
    @pytest.mark.parametrize("c", [0, 1, 2, 5])
    def test_cached_read_only_row_major(self, c):
        rows, cols = triu_index(c)
        assert triu_index(c)[0] is rows
        expected = np.triu_indices(c, k=1)
        assert np.array_equal(rows, expected[0]) and np.array_equal(cols, expected[1])
        with pytest.raises(ValueError):
            rows[...] = 0

    @pytest.mark.parametrize("c", [2, 5])
    def test_cached_masks(self, c):
        assert np.array_equal(off_diagonal(c), ~np.eye(c, dtype=bool))
        assert np.array_equal(strict_upper(c), np.triu(np.ones((c, c), dtype=bool), k=1))
        for a in (off_diagonal(c), strict_upper(c)):
            with pytest.raises(ValueError):
                a[...] = 0

    def test_diagonals_view(self):
        stack = np.arange(18.0).reshape(2, 3, 3)
        d = diagonals(stack)
        assert np.array_equal(d, [[0, 4, 8], [9, 13, 17]])
        d[...] = -1.0
        assert np.array_equal(stack[:, [0, 1, 2], [0, 1, 2]], np.full((2, 3), -1.0))
        # on a slice the reshape would copy and writes would be lost
        with pytest.raises(ValueError):
            diagonals(np.ones((2, 4, 4))[:, :3, :3])

    def test_from_upper_exact_complements(self):
        upper = np.array([[0.1, 0.2, 0.3], [1.0, 0.0, 5e-324]])
        m = from_upper(upper, 3)
        assert m.shape == (2, 3, 3)
        assert np.array_equal(m[1], [[0.0, 1.0, 0.0], [0.0, 0.0, 5e-324], [1.0, 1.0, 0.0]])
        assert np.all(m + np.swapaxes(m, 1, 2) == 1.0 - np.eye(3))


class TestCouplingConfig:
    def test_defaults(self):
        cfg = CouplingConfig()
        assert cfg.tau == 1e-3 and cfg.rho == 1e-3

    # 1e-17 and the subnormal 1e-320: 1 - tau rounds to 1, so a clip would leave an exact 1
    @pytest.mark.parametrize("tau", [0.0, 0.5, -0.1, 0.7, 1e-17, 1e-320])
    def test_tau_bounds(self, tau):
        with pytest.raises(ValueError, match=rf"^tau must be in \(0, 0\.5\), got {tau!r}$"):
            CouplingConfig(tau=tau)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1e-17, 1e-320])
    def test_rho_bounds(self, rho):
        with pytest.raises(ValueError, match=rf"^rho must be in \(0, 0\.5\), got {rho!r}$"):
            CouplingConfig(rho=rho)


SEEDED = {
    "BlobSpec": lambda seed: BlobSpec(
        c=2, dim=1, means=np.zeros((2, 1)), scale=1.0, n_per_class=1, seed=seed
    ),
    "perturb_manifold": lambda seed: perturb_manifold(Posterior([0.2, 0.8]), 1.0, seed),
    "recombine_stack": lambda seed: recombine_stack(np.zeros((1, 2, 2, 2)), 3, [seed]),
}


class TestSeedRule:
    """Every seeded stream takes core.require_seed's rule: an integer in [0, 2**128)."""

    @pytest.mark.parametrize(
        "seed", [-1, 1.5, None, 2**128, np.int64(-1)], ids=["-1", "1.5", "None", "2**128", "int64"]
    )
    @pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED)
    def test_rejected(self, call, seed):
        with pytest.raises(ValueError) as exc:
            call(seed)
        assert str(exc.value) == f"seed must be an integer in [0, 2**128), got {seed}"

    @pytest.mark.parametrize(
        "seed", [0, 2**128 - 1, np.uint64(2**64 - 1)], ids=["0", "2**128-1", "uint64"]
    )
    @pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED)
    def test_accepted(self, call, seed):
        call(seed)


P3 = Posterior([0.2, 0.3, 0.5])

# each call site of core.require_int, called with a given integer type
COUNTED = {
    "BlobSpec": lambda k: generate_blobs(
        BlobSpec(c=k(2), dim=k(1), means=np.zeros((2, 1)), scale=1.0, n_per_class=k(3), seed=0)
    ),
    "recombine_stack n": lambda k: recombine_stack(
        np.stack([theta_map(P3).entries, np.full((3, 3), 0.5) - np.eye(3) / 2])[None], k(4), [0]
    ),
    "iia_restrict classes": lambda k: iia_restrict(P3, k(2), k(0)),
    "reconstruct_from_column j": lambda k: reconstruct_from_column(theta_map(P3), k(1)).probs,
    "LabeledBatch c": lambda k: LabeledBatch(samples=(("a", 0),), c=k(1)),
    "BinaryPrediction classes": lambda k: BinaryPrediction(k(0), k(2), 0.25),
}


class TestIntRule:
    """Counts, class indices and seeds take core.require_int's rule: an int or
    numpy.integer in [low, high), returned as an int."""

    @pytest.mark.parametrize(
        "value, low, high",
        [(0, 0, None), (np.int64(2), 2, 3), (np.uint64(2**64 - 1), 0, 1 << 128)],
        ids=["0", "int64", "uint64"],
    )
    def test_accepted(self, value, low, high):
        out = require_int("x", value, low, high)
        assert type(out) is int and out == value

    @pytest.mark.parametrize(
        "value, low, high, span",
        [
            (1.0, 0, None, ">= 0"),
            (np.int64(-1), 0, None, ">= 0"),
            (None, 0, 5, "in [0, 5)"),
            (5, 0, 5, "in [0, 5)"),
            (0, 0, 0, "in [0, 0)"),  # an empty range admits nothing
            (2**64, 0, 1 << 64, "in [0, 2**64)"),
            (2**64 - 1, 0, (1 << 64) - 1, "in [0, 18446744073709551615)"),
        ],
    )
    def test_rejected(self, value, low, high, span):
        with pytest.raises(ValueError) as exc:
            require_int("x", value, low, high)
        assert str(exc.value) == f"x must be an integer {span}, got {value}"

    @pytest.mark.parametrize("call", COUNTED.values(), ids=COUNTED)
    def test_numpy_integer_accepted(self, call):
        np.testing.assert_equal(call(np.int64), call(int))


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
