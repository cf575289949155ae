"""plmkit: pairwise-coupling meta-classification.

Builds pairwise likelihood matrices from multi-class posteriors, inverts them
with two regular coupling methods, and layers on incremental correction,
bootstrap randomness estimation, and manifold-distance abstention.

The exported names are loaded lazily (PEP 562): ``import plmkit`` imports no
submodule, and the first use of a name imports the module that defines it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "BinaryPrediction", "CouplingConfig", "EmptyResultError", "InvalidDistributionError",
        "LabeledBatch", "Method", "NumericalFailureError", "PairwiseLikelihoodMatrix", "PlmError",
        "Posterior", "ShapeError", "SingularityError", "Stabilization", "validate_pairwise",
    ),
    "coupling": (
        "CoupledStack", "couple", "couple_bc", "couple_stack", "couple_wlw", "delta2_value",
        "iia_restrict", "reconstruct_from_column", "stabilize_clip", "stabilize_drop", "theta_map",
    ),
    "abstention": (
        "Abstain", "abstaining_predict", "calibrate_threshold", "distance_bc", "distance_wlw",
        "sureness", "sureness_stack",
    ),
    "ensemble": ("CorrectionPatch", "bootstrap_recombine", "partial_correct"),
    "metrics": (
        "accuracy", "argmax_predict", "confusion_matrix", "pairwise_accuracy",
        "worst_confused_pair",
    ),
    "datagen": ("BlobSpec", "bayes_posterior_blobs", "generate_blobs", "perturb_manifold"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
