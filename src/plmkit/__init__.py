"""plmkit: pairwise-coupling meta-classification.

Builds pairwise likelihood matrices from multi-class posteriors, inverts them
with two regular coupling methods, and layers on incremental correction,
bootstrap randomness estimation, and manifold-distance abstention.
"""

__version__ = "0.1.0"

from .core import (
    BinaryPrediction,
    CouplingConfig,
    EmptyResultError,
    InvalidDistributionError,
    LabeledBatch,
    Method,
    NumericalFailureError,
    PairwiseLikelihoodMatrix,
    PlmError,
    Posterior,
    ShapeError,
    SingularityError,
    Stabilization,
    ThetaMatrix,
    validate_pairwise,
)
from .coupling import (
    CoupledStack,
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
)
from .abstention import (
    Abstain,
    SurenessScore,
    abstaining_predict,
    calibrate_threshold,
    distance_bc,
    distance_wlw,
    sureness,
    sureness_stack,
)
from .ensemble import (
    CorrectionPatch,
    EnsembleSummary,
    bootstrap_recombine,
    ensemble_summary,
    partial_correct,
)
from .metrics import (
    accuracy,
    argmax_predict,
    confusion_matrix,
    pairwise_accuracy,
    worst_confused_pair,
)
from .datagen import (
    BlobSpec,
    FittedGlm,
    GlmSpec,
    Link,
    bayes_posterior_blobs,
    generate_blobs,
    perturb_manifold,
    train_binary_glm,
)
