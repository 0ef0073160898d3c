"""Export tables must name only what exists.

``lovebem`` resolves its exports lazily, so a stale entry would fail
only on first access; these tests resolve every one up front.
"""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lovebem

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(lovebem.__path__)
                    if info.name != "__main__")


def test_package_exports_resolve():
    missing = []
    for name in lovebem.__all__:
        try:
            getattr(lovebem, name)
        except AttributeError:
            missing.append(name)
    assert missing == []


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_all_names_exist(module):
    mod = importlib.import_module(f"lovebem.{module}")
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []


def test_pipeline_import_leaves_mpmath_out():
    # mpmath serves the tests only; importing it would add to start-up.
    env = dict(os.environ,
               PYTHONPATH=str(Path(lovebem.__file__).resolve().parents[1]))
    code = ("import sys, lovebem.experiments; "
            "sys.exit('mpmath' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0
