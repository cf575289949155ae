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


def test_every_export_is_its_defining_modules_object():
    assert len(plmkit.__all__) == len(set(plmkit.__all__)) == 54
    for name in plmkit.__all__:
        obj = getattr(plmkit, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("plmkit.") and getattr(module, name) is obj


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'plmkit' has no attribute 'no_such_name'$"):
        plmkit.no_such_name
    with pytest.raises(ImportError):
        from plmkit import no_such_name
