"""Every name a module exports in __all__ resolves, so `from module import *` works.

Importing the package stays light: scipy.integrate loads on the first quadrature.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lentparticle

MODULES = sorted(
    name
    for _, name, _ in pkgutil.iter_modules(lentparticle.__path__, "lentparticle.")
    if hasattr(importlib.import_module(name), "__all__")
)


def test_modules_with_all_are_found():
    assert "lentparticle.chaos" in MODULES and "lentparticle.configuration" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


def test_import_does_not_load_scipy_integrate():
    src = str(Path(lentparticle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, lentparticle; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
