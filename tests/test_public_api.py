"""Every name a module exports in __all__ resolves, so `from module import *` works.

Importing the package stays light, and so does quadrature: numpy is the one
runtime dependency, and the package runs with scipy absent.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lentparticle
from lentparticle import cli

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


# a sys.meta_path finder that makes scipy unimportable and records each attempt,
# then the package end to end; prints the attempts the package made
_WITHOUT_SCIPY = r"""
import os, sys, tempfile, warnings

attempts = []

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            attempts.append(name)
            raise ImportError(f"blocked: {name}")

sys.meta_path.insert(0, BlockScipy())
import lentparticle
from lentparticle import diagnostics, intensities
from lentparticle.cli import main

model = intensities.gauss_model(1.0, rate=3.0, dim=2)
assert diagnostics.laplace_check(model, lambda t, x: 0.3 * x[:, 0] + 0.2 * x[:, 1], 1000, 5).passed
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    intensities.uniform_model(1.0, rate=1.0).sigma_integrate(lambda xs: xs[:, 0] * float("nan"))
assert [w.category for w in caught] == [lentparticle.IntegrationWarning], caught
uniform = "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 3.0\n\n"
pair = "[functional]\nlabel = pair_doleans\nt = 1.0\n\n[gamma]\nlabel = diag_x2\ndim = 1\n\n"
configs = {
    "gamma": uniform + pair + "[experiment]\nkind = gamma\nseed = 1\n",
    "survey": uniform + pair + "[experiment]\nkind = survey\nnsamples = 20\n",
    "identity": "[experiment]\nkind = identity\nscale = 0\nmin_pass_fraction = 0\n",
    "chaos": uniform + "[experiment]\nkind = chaos\nnconfigs = 2\nngamma = 1\nnsamples = 2000\n",
    "density": uniform + "[functional]\nlabel = path_eval\nt = 1.0\n\n[experiment]\nkind = density\nnsamples = 300\n",
    "rajchman": "[model]\nfamily = dyadic\nhorizon = 1.0\n\n[experiment]\nkind = rajchman\n",
}
with tempfile.TemporaryDirectory() as out:
    for kind, text in configs.items():
        path = os.path.join(out, kind + ".cfg")
        with open(path, "w") as fh:
            fh.write(text)
        assert main(["--out-dir", out, "run", path]) == 0, kind
print(attempts)
try:
    import scipy
except ImportError as exc:
    print(exc)
"""


def test_runs_without_scipy():
    """import, a laplace_check, a warning and `run` of every experiment kind, with scipy unimportable."""
    assert sorted(cli.EXPERIMENTS) == ["chaos", "density", "gamma", "identity", "rajchman", "survey"]
    assert _fresh(_WITHOUT_SCIPY).splitlines()[-2:] == ["[]", "blocked: scipy"]
