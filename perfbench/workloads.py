"""The four benchmark workloads, driven through the package's public functions.

A workload builds its inputs once, then runs passes.  A pass is a fixed
list of calls drawn from the workload seed; one call yields one item (or,
for `identity`, the 40 checks of one suite).  Calls look the package's
functions up as module attributes at call time, so the traced run sees the
wrappers that `spans.Tracer` installs there.  Correctness gates run after
the timed region and use the repository's own tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from lentparticle import configuration, diagnostics, functionals, intensities, lent_particle, suite

# criterion 1 of the acceptance gate: models, functionals and tolerances
CRIT1_TOL = 1e-6
CRIT1_TOL_AREA = 1e-4
CRIT1_TOL_SDE = 1e-4
SDE_Z0 = (0.1, -0.2, 0.3)

SURVEY_PASS = 100       # configurations per pass
SURVEY_FD_EVERY = 50    # one in this many survey items is cross-checked in fd mode
ORACLE_ROUNDS = 4       # rotations of (time_integral, area, jump_sde) per pass
SDE_FINE_EVERY = 32     # one in this many SDE items is checked against euler_step=1e-3
SUITE_SCALE = 0.25      # standard_suite sample-size scale for `identity`
SUITE_CHECKS = 40
FAMILIES_SAMPLES = 20_000


def crit1_models():
    d1 = intensities.uniform_model(1.0, rate=10.0, low=-0.3, high=0.8, label="bench_d1")
    d2 = intensities.uniform_model(1.0, rate=10.0, low=-0.3, high=0.8, dim=2, label="bench_d2")
    return d1, d2


def rel_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(a)), 1e-300)


def item_seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


@dataclass(frozen=True)
class Workload:
    """How to build, run and check one workload.

    `check(inputs, index, arg, result)` returns one (ok, statistical) pair
    per item of the call; statistical gates follow the 4-SE rule, the
    others a fixed tolerance.
    """

    name: str
    build: Callable[[], dict]
    next_pass: Callable[[np.random.Generator], list]
    call: Callable[[dict, object], object]
    fingerprint: Callable[[object], tuple]
    check: Callable[[dict, int, object, object], list[tuple[bool, bool]]]
    items_per_call: int = 1
    latency: bool = True
    warmup: Callable[[dict, object], object] | None = None  # default: one call


# --------------------------------------------------------------------------
# survey: det_positivity_survey, closed mode, one configuration per item
# --------------------------------------------------------------------------

def _survey_build() -> dict:
    d1, _ = crit1_models()
    return {
        "model": d1,
        "F": functionals.make_pair_doleans(d1, 1.0),
        "spec": lent_particle.diag_squares_gamma(1),
    }


def _survey_call(inp: dict, seed: int):
    return lent_particle.det_positivity_survey(inp["F"], inp["model"], inp["spec"], 1, seed=seed).rows[0]


def _survey_check(inp: dict, index: int, seed: int, row) -> list[tuple[bool, bool]]:
    _, n_atoms, det, trace, min_eig, _ = row
    ok = bool(np.isfinite([det, trace, min_eig]).all())
    if ok and index % SURVEY_FD_EVERY == 0:
        # criterion 1 bounds |closed - fd|_F by 1e-6 |closed|_F; for a 2x2 PSD
        # matrix that bounds the trace and min eigenvalue shifts by 1e-6 trace
        # and the determinant shift by 1e-6 trace^2
        fd = lent_particle.det_positivity_survey(
            inp["F"], inp["model"], inp["spec"], 1, seed=seed, mode="fd"
        ).rows[0]
        scale = max(trace, 1e-300)
        ok = (
            fd[1] == n_atoms
            and abs(fd[3] - trace) <= CRIT1_TOL * scale
            and abs(fd[4] - min_eig) <= CRIT1_TOL * scale
            and abs(fd[2] - det) <= CRIT1_TOL * scale * scale
        )
    return [(ok, False)]


SURVEY = Workload(
    name="survey",
    build=_survey_build,
    next_pass=lambda rng: item_seeds(rng, SURVEY_PASS),
    call=_survey_call,
    fingerprint=lambda row: tuple(row),
    check=_survey_check,
)


# --------------------------------------------------------------------------
# oracle: closed and fd carre du champ on criterion-1 models
# --------------------------------------------------------------------------

def _oracle_build() -> dict:
    d1, d2 = crit1_models()
    spec1, spec2 = lent_particle.diag_squares_gamma(1), lent_particle.diag_squares_gamma(2)
    return {
        "time_integral": (functionals.build_functional("time_integral", d1, g="square"), d1, spec1),
        "area": (functionals.make_stochastic_area(d2, 1.0), d2, spec2),
        "jump_sde": (functionals.make_triangular_sde(d2, SDE_Z0, 1.0, euler_step=2e-3), d2, spec2),
        "jump_sde_fine": functionals.make_triangular_sde(d2, SDE_Z0, 1.0, euler_step=1e-3),
    }


ORACLE_KINDS = ("time_integral", "area", "jump_sde")


def _oracle_pass(rng: np.random.Generator) -> list:
    seeds = item_seeds(rng, ORACLE_ROUNDS * len(ORACLE_KINDS))
    return [(ORACLE_KINDS[i % len(ORACLE_KINDS)], s) for i, s in enumerate(seeds)]


def _oracle_call(inp: dict, arg):
    kind, seed = arg
    F, model, spec = inp[kind]
    cfg = configuration.sample_configuration(model, seed)
    closed = None
    if F.has_closed_derivative:
        closed = lent_particle.carre_du_champ(F, cfg, spec, mode="closed").matrix
    fd = lent_particle.carre_du_champ(F, cfg, spec, mode="fd").matrix
    return cfg, closed, fd


def _oracle_check(inp: dict, index: int, arg, result) -> list[tuple[bool, bool]]:
    kind, _ = arg
    cfg, closed, fd = result
    ok = bool(np.isfinite(fd).all())
    if kind == "jump_sde":
        if ok and index % (SDE_FINE_EVERY * len(ORACLE_KINDS)) == ORACLE_KINDS.index(kind):
            _, _, spec = inp[kind]
            fine = lent_particle.carre_du_champ(inp["jump_sde_fine"], cfg, spec, mode="fd").matrix
            ok = rel_frobenius(fd, fine) <= CRIT1_TOL_SDE
    else:
        tol = CRIT1_TOL_AREA if kind == "area" else CRIT1_TOL
        ok = ok and rel_frobenius(closed, fd) <= tol
    return [(bool(ok), False)]


def _oracle_fingerprint(result) -> tuple:
    _, closed, fd = result
    return tuple(fd.ravel()) + (() if closed is None else tuple(closed.ravel()))


ORACLE = Workload(
    name="oracle",
    build=_oracle_build,
    next_pass=_oracle_pass,
    call=_oracle_call,
    fingerprint=_oracle_fingerprint,
    check=_oracle_check,
)


# --------------------------------------------------------------------------
# identity: the 40-check statistical suite at a reduced scale
# --------------------------------------------------------------------------

def _report_fingerprint(reports) -> tuple:
    return tuple((complex(r.estimate), complex(r.reference), r.standard_error) for r in reports)


IDENTITY = Workload(
    name="identity",
    build=dict,
    next_pass=lambda rng: item_seeds(rng, 1),
    call=lambda inp, seed: suite.standard_suite(seed, SUITE_SCALE),
    fingerprint=_report_fingerprint,
    check=lambda inp, index, seed, reports: [(bool(r.passed), True) for r in reports],
    items_per_call=SUITE_CHECKS,
    latency=False,
    # one suite at the floor sample count (100 per check): every code path
    # once, at a fraction of the cost of a timed suite
    warmup=lambda inp, seed: suite.standard_suite(seed, 0.0),
)


# --------------------------------------------------------------------------
# families: one laplace_check per shipped model family
# --------------------------------------------------------------------------

def _families_build() -> dict:
    """Every shipped family at its default parameters (rate 3 where it has none)."""
    m = intensities
    return {
        "uniform_d1": m.uniform_model(1.0, rate=3.0),
        "uniform_d2": m.uniform_model(1.0, rate=3.0, dim=2),
        "gauss_d1": m.gauss_model(1.0, rate=3.0),
        "gauss_d2": m.gauss_model(1.0, rate=3.0, dim=2),
        "power": m.power_model(1.0),
        "polar": m.polar_model(1.0),
        "curve": m.curve_model(1.0),
        "dyadic": m.dyadic_model(1.0),
    }


FAMILY_KEYS = ("uniform_d1", "uniform_d2", "gauss_d1", "gauss_d2", "power", "polar", "curve", "dyadic")


def laplace_probe(ts: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The linear probe 0.3 x_1 (+ 0.2 x_2 in dimension 2)."""
    out = 0.3 * xs[:, 0]
    return out + 0.2 * xs[:, 1] if xs.shape[1] > 1 else out


def _families_pass(rng: np.random.Generator) -> list:
    return list(zip(FAMILY_KEYS, item_seeds(rng, len(FAMILY_KEYS))))


def _families_call(inp: dict, arg):
    key, seed = arg
    return diagnostics.laplace_check(inp[key], laplace_probe, FAMILIES_SAMPLES, seed, name=key)


FAMILIES = Workload(
    name="families",
    build=_families_build,
    next_pass=_families_pass,
    call=_families_call,
    fingerprint=lambda r: _report_fingerprint([r]),
    check=lambda inp, index, arg, r: [(bool(r.passed), True)],
    latency=False,
)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (SURVEY, ORACLE, IDENTITY, FAMILIES)}
