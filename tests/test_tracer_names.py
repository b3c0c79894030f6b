"""The benchmark tracer wraps package functions by (module, attribute) name.

A rename in the package would otherwise only surface in the slow benchmark
tests (`python3 -m pytest perfbench/tests`); this reads the tracer's name
lists and checks that each one resolves, and that the tracer's copy of
every registered functional gives the engine the same bits.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lentparticle.configuration import sample_configuration
from lentparticle.functionals import FUNCTIONAL_BUILDERS, build_functional
from lentparticle.intensities import uniform_model
from lentparticle.lent_particle import carre_du_champ, diag_squares_gamma

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    names = set(spans.PATCHES) | set(spans.MODEL_FACTORIES) | set(spans.FUNCTIONAL_FACTORIES)
    assert names
    missing = [
        f"lentparticle.{mod}.{attr}"
        for mod, attr in sorted(names)
        if not callable(getattr(importlib.import_module(f"lentparticle.{mod}"), attr, None))
    ]
    assert not missing, missing


PARAMS = {"nearest": {}, "gou": {"x0": 0.5, "t": 1.0}}
DIM2 = {"area", "gou", "jump_sde"}


@pytest.mark.parametrize("label", sorted(FUNCTIONAL_BUILDERS))
def test_traced_functional_gives_the_engine_the_same_bits(spans, label):
    d = 2 if label in DIM2 else 1
    model = uniform_model(1.0, rate=10.0, low=-0.3, high=0.8, dim=d)
    F = build_functional(label, model, **PARAMS.get(label, {"t": 1.0}))
    tracer = spans.Tracer()
    traced = tracer.functional(F)
    assert traced.value.__wrapped__ is F.value and traced.add_derivative.__wrapped__ is F.add_derivative
    cfg = sample_configuration(model, 46)
    assert cfg.n_atoms > 2
    assert np.atleast_1d(traced.value(cfg)).tobytes() == np.atleast_1d(F.value(cfg)).tobytes()
    assert tracer.spans and tracer.spans[0][0] == "functionals.value"
    for mode in ("closed", "fd"):
        want = carre_du_champ(F, cfg, diag_squares_gamma(d), mode=mode)
        got = carre_du_champ(traced, cfg, diag_squares_gamma(d), mode=mode)
        assert got.matrix.tobytes() == want.matrix.tobytes(), mode
        assert got.contributions.tobytes() == want.contributions.tobytes(), mode
