"""Library checks that reject their input and that no other test reaches,
with the exception type and message of each."""

import numpy as np
import pytest

from plmkit import (
    BinaryPrediction,
    BlobSpec,
    CorrectionPatch,
    CouplingConfig,
    InvalidDistributionError,
    LabeledBatch,
    PairwiseLikelihoodMatrix,
    Posterior,
    ShapeError,
    SingularityError,
    accuracy,
    calibrate_threshold,
    confusion_matrix,
    distance_bc,
    iia_restrict,
    pairwise_accuracy,
    perturb_manifold,
    reconstruct_from_column,
    stabilize_clip,
    stabilize_drop,
)
from plmkit.coupling import couple_stack
from plmkit.ensemble import recombine_stack, summarize_stack
from plmkit.fileio import FormatError, read_posterior_stack

# a nonzero diagonal entry and a broken complement
INVALID = PairwiseLikelihoodMatrix([[0.0, 0.5, 0.5], [0.25, 0.0, 0.5], [0.5, 0.5, 0.1]])
VALID = PairwiseLikelihoodMatrix([[0.0, 0.5], [0.5, 0.0]])
P3 = Posterior([0.2, 0.3, 0.5])
TWO = LabeledBatch(samples=(("a", 0), ("b", 1)), c=2)


def _one_probability_column(path):
    path.write_text("# plm-v1\nsample_id,p_0\na,1\n")
    read_posterior_stack(path)


def _no_probability_column(path):
    path.write_text("# plm-v1\nsample_id\n")
    read_posterior_stack(path)


RAISES = [
    ("matrix with one class", lambda path: PairwiseLikelihoodMatrix([[0.0]]),
     ShapeError, "pairwise matrix needs at least 2 classes"),
    ("matrix not finite", lambda path: PairwiseLikelihoodMatrix([[0.0, np.nan], [0.5, 0.0]]),
     ShapeError, "pairwise matrix contains non-finite entries"),
    ("reconstruct invalid matrix", lambda path: reconstruct_from_column(INVALID, 0),
     InvalidDistributionError,
     "diagonal entry (2,2) is 0.1, expected exactly 0; "
     "complement violation at (0,1): r_ij + r_ji = 0.75, expected 1"),
    # validated raw, before the clip it is measured with could zero the diagonal
    ("distance_bc invalid matrix", lambda path: distance_bc(INVALID),
     InvalidDistributionError,
     "diagonal entry (2,2) is 0.1, expected exactly 0; "
     "complement violation at (0,1): r_ij + r_ji = 0.75, expected 1"),
    # an entry near DBL_MAX: its pair sum and a row sum overflow to inf, silently
    ("couple_stack pair sum overflows", lambda path: couple_stack(
        np.array([[[0.0, 1e308], [1e308, 0.0]]]), CouplingConfig()).raise_first(),
     InvalidDistributionError,
     "entry (0,1) = 1e+308 outside [0, 1]; entry (1,0) = 1e+308 outside [0, 1]; "
     "complement violation at (0,1): r_ij + r_ji = inf, expected 1"),
    ("Posterior sum overflows", lambda path: Posterior([1e308, 1e308]),
     InvalidDistributionError, "posterior entries must lie in [0, 1]"),
    ("calibrate_threshold NaN", lambda path: calibrate_threshold([0.2, np.nan, 0.1], 0.5),
     ValueError, "distance nan is not finite and non-negative"),
    ("couple_stack 2-D", lambda path: couple_stack(np.full((3, 3), 0.5), CouplingConfig()),
     ShapeError, "expected an (N, c, c) stack with c >= 2, got shape (3, 3)"),
    ("stabilize_clip tau", lambda path: stabilize_clip(VALID, 0.7),
     ValueError, "tau must be in (0, 0.5), got 0.7"),
    ("stabilize_drop rho", lambda path: stabilize_drop(VALID, 0.7),
     ValueError, "rho must be in (0, 0.5), got 0.7"),
    # 1 - value rounds to 1, so the band would bound nothing
    ("CouplingConfig rho 1e-17", lambda path: CouplingConfig(rho=1e-17),
     ValueError, "rho must be in (0, 0.5), got 1e-17"),
    ("CouplingConfig tau subnormal", lambda path: CouplingConfig(tau=1e-320),
     ValueError, "tau must be in (0, 0.5), got 1e-320"),
    ("BlobSpec means", lambda path: BlobSpec(c=2, dim=2, means=np.zeros((3, 2)), scale=1.0,
                                             n_per_class=1, seed=0),
     ValueError, "means must have shape (2,2), got (3, 2)"),
    ("BlobSpec one class", lambda path: BlobSpec(c=1, dim=1, means=np.zeros((1, 1)), scale=1.0,
                                                 n_per_class=1, seed=0),
     ValueError, "c must be >= 2, got 1"),
    ("BlobSpec no dimension", lambda path: BlobSpec(c=2, dim=0, means=np.zeros((2, 0)), scale=1.0,
                                                    n_per_class=1, seed=0),
     ValueError, "dim must be >= 1, got 0"),
    ("BlobSpec scale nan", lambda path: BlobSpec(c=2, dim=1, means=np.zeros((2, 1)), scale=np.nan,
                                                 n_per_class=1, seed=0),
     ValueError, "scale must be finite and positive, got nan"),
    ("BlobSpec scale inf", lambda path: BlobSpec(c=2, dim=1, means=np.zeros((2, 1)), scale=np.inf,
                                                 n_per_class=1, seed=0),
     ValueError, "scale must be finite and positive, got inf"),
    ("BlobSpec means not finite", lambda path: BlobSpec(c=2, dim=1, means=[[0.0], [np.nan]],
                                                        scale=1.0, n_per_class=1, seed=0),
     ValueError, "means must be finite"),
    ("BlobSpec negative seed", lambda path: BlobSpec(c=2, dim=1, means=np.zeros((2, 1)), scale=1.0,
                                                     n_per_class=1, seed=-1),
     ValueError, "seed must be an integer in [0, 2**128), got -1"),
    # an enum field takes its member or that member's value, nothing else
    ("CouplingConfig method", lambda path: CouplingConfig(method="nope"),
     ValueError, "'nope' is not a valid Method"),
    ("CouplingConfig stabilization", lambda path: CouplingConfig(stabilization="none "),
     ValueError, "'none ' is not a valid Stabilization"),
    # a class index must name a class, so it is a whole number
    ("CorrectionPatch fractional index", lambda path: CorrectionPatch(pairs=((0.5, 1, 0.5),)),
     ValueError, "class indices must be integers, got (0.5,1)"),
    ("CorrectionPatch NaN index", lambda path: CorrectionPatch(
        pairs=((0, 1, 0.5), (np.nan, 2, 0.5))),
     ValueError, "class indices must be integers, got (nan,2)"),
    # a class index names one of the c classes, never one counted from the end
    ("iia_restrict negative class", lambda path: iia_restrict(P3, -1, 0),
     ValueError, "class index -1 outside [0, 3)"),
    ("iia_restrict class c", lambda path: iia_restrict(P3, 0, 3),
     ValueError, "class index 3 outside [0, 3)"),
    ("reconstruct negative column", lambda path: reconstruct_from_column(VALID, -1),
     ValueError, "class index -1 outside [0, 2)"),
    ("reconstruct column c", lambda path: reconstruct_from_column(VALID, 2),
     ValueError, "class index 2 outside [0, 2)"),
    ("perturb_manifold scale nan", lambda path: perturb_manifold(P3, np.nan, 0),
     ValueError, "noise_scale must be finite and >= 0, got nan"),
    ("perturb_manifold scale inf", lambda path: perturb_manifold(P3, np.inf, 0),
     ValueError, "noise_scale must be finite and >= 0, got inf"),
    ("perturb_manifold negative scale", lambda path: perturb_manifold(P3, -1.0, 0),
     ValueError, "noise_scale must be finite and >= 0, got -1.0"),
    ("perturb_manifold zero entry", lambda path: perturb_manifold(Posterior([0.0, 1.0]), 0.1, 0),
     SingularityError, "posterior must be strictly positive"),
    ("recombine_stack one source", lambda path: recombine_stack(np.zeros((1, 1, 2, 2)), 3, [0]),
     ValueError, "need at least two source matrices"),
    ("recombine_stack negative n", lambda path: recombine_stack(np.zeros((1, 2, 2, 2)), -1, [0]),
     ValueError, "n must be >= 0, got -1"),
    # one seed per sample: one seed for three samples would repeat its streams
    ("recombine_stack one seed for three samples", lambda path: recombine_stack(
        np.zeros((3, 2, 2, 2)), 2, [7]),
     ValueError, "need one seed per sample, got 1 for 3"),
    ("recombine_stack four seeds for three samples", lambda path: recombine_stack(
        np.zeros((3, 2, 2, 2)), 2, [7, 8, 9, 10]),
     ValueError, "need one seed per sample, got 4 for 3"),
    ("summarize no rows", lambda path: summarize_stack(np.zeros((1, 0, 2))),
     ValueError, "need at least one matrix"),
    ("accuracy empty", lambda path: accuracy([], LabeledBatch(samples=(), c=2)),
     ValueError, "empty prediction list"),
    ("pairwise_accuracy empty", lambda path: pairwise_accuracy([], LabeledBatch(samples=(), c=2)),
     ValueError, "empty prediction list"),
    ("confusion_matrix ids", lambda path: confusion_matrix(
        [("a", 0)], LabeledBatch(samples=(("b", 0),), c=2)),
     ValueError, "prediction sample_ids do not match label sample_ids"),
    # checked before counting: -1 would count as class c-1, and c would index past the end
    ("confusion_matrix negative prediction", lambda path: confusion_matrix(
        [("a", 0), ("b", -1)], LabeledBatch(samples=(("a", 0), ("b", 1)), c=2)),
     ValueError, "prediction -1 for sample 'b' outside [0, 2)"),
    ("confusion_matrix prediction >= c", lambda path: confusion_matrix(
        [("a", 2), ("b", 5)], LabeledBatch(samples=(("a", 0), ("b", 1)), c=2)),
     ValueError, "prediction 2 for sample 'a' outside [0, 2)"),
    # each prediction's sample_id is labelled and predicted once
    ("accuracy repeated id", lambda path: accuracy([("a", 0), ("a", 0), ("b", 1)], TWO),
     ValueError, "prediction sample_ids are not unique"),
    ("confusion_matrix repeated id", lambda path: confusion_matrix(
        [("a", 0), ("b", 1), ("a", 0)], TWO),
     ValueError, "prediction sample_ids are not unique"),
    ("pairwise_accuracy unlabelled id", lambda path: pairwise_accuracy(
        [("a", BinaryPrediction(0, 1, 0.7)), ("zz", BinaryPrediction(0, 1, 0.7))], TWO),
     ValueError, "prediction sample_ids do not match label sample_ids"),
    ("pairwise_accuracy repeated id", lambda path: pairwise_accuracy(
        [("b", BinaryPrediction(0, 1, 0.7)), ("b", BinaryPrediction(0, 1, 0.7))], TWO),
     ValueError, "prediction sample_ids are not unique"),
    ("posterior file one column", _one_probability_column,
     FormatError, "{path}:2: need at least two probability columns"),
    # a posterior file, like a feature file, names at least one vector column
    ("posterior file no column", _no_probability_column,
     FormatError, "{path}:2: expected header sample_id,p_0,..."),
]  # fmt: skip


@pytest.mark.parametrize(
    "call, error, message", [case[1:] for case in RAISES], ids=[case[0] for case in RAISES]
)
def test_raises(tmp_path, call, error, message):
    path = tmp_path / "in.csv"
    with pytest.raises(error) as exc:
        call(path)
    assert type(exc.value) is error
    assert str(exc.value) == message.format(path=path)
