"""Every name a module exports in __all__ resolves, so `from module import *` works.

Importing the package stays light, and so does quadrature: scipy loads only
when a quadrature warns.
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


def _fresh(code: str) -> str:
    """stdout of code run in a new interpreter that imports the package from this checkout."""
    src = str(Path(lentparticle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_does_not_load_scipy_integrate():
    assert _fresh("import sys, lentparticle; print('scipy.integrate' in sys.modules)") == "False"


def test_quadrature_does_not_load_scipy():
    code = (
        "import sys\n"
        "from lentparticle import diagnostics, intensities\n"
        "model = intensities.gauss_model(1.0, rate=3.0, dim=2)\n"
        "model.sigma_integrate(lambda xs: xs[:, 0] ** 2)\n"
        "diagnostics.laplace_check(model, lambda t, x: 0.3 * x[:, 0] + 0.2 * x[:, 1], 1000, 5)\n"
        "print('scipy' in sys.modules)"
    )
    assert _fresh(code) == "False"
