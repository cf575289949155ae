"""The package namespace: names are exported lazily (PEP 562)."""

import json
import os
import subprocess
import sys

import pytest

import plmkit


def test_import_loads_nothing_until_a_name_is_used():
    script = (
        "import json, sys; import plmkit; "
        "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('plmkit.')); "
        "listed = dir(plmkit); namespace = {}; exec('from plmkit import *', namespace); "
        "print(json.dumps([loaded, listed, sorted(set(namespace) - {'__builtins__'})]))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    loaded, listed, star = json.loads(run.stdout)
    assert loaded == []
    assert set(plmkit.__all__) <= set(listed)
    assert star == sorted(plmkit.__all__)


EXPORTS = [
    "Abstain", "BinaryPrediction", "BlobSpec", "CorrectionPatch", "CoupledStack", "CouplingConfig",
    "EmptyResultError", "InvalidDistributionError", "LabeledBatch", "Method",
    "NumericalFailureError", "PairwiseLikelihoodMatrix", "PlmError", "Posterior", "ShapeError",
    "SingularityError", "Stabilization", "abstaining_predict", "accuracy", "argmax_predict",
    "bayes_posterior_blobs", "bootstrap_recombine", "calibrate_threshold", "confusion_matrix",
    "couple", "couple_bc", "couple_stack", "couple_wlw", "delta2_value", "distance_bc",
    "distance_wlw", "generate_blobs", "iia_restrict", "pairwise_accuracy", "partial_correct",
    "perturb_manifold", "reconstruct_from_column", "stabilize_clip", "stabilize_drop", "sureness",
    "sureness_stack", "theta_map", "validate_pairwise", "worst_confused_pair",
]


def test_every_export_is_its_defining_modules_object():
    # the public surface by name: adding or removing an export edits this list
    assert len(plmkit.__all__) == len(set(plmkit.__all__))
    assert sorted(plmkit.__all__) == EXPORTS
    for name in plmkit.__all__:
        obj = getattr(plmkit, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("plmkit.") and getattr(module, name) is obj


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'plmkit' has no attribute 'no_such_name'$"):
        plmkit.no_such_name
    with pytest.raises(ImportError):
        from plmkit import no_such_name
