"""Acceptance gate: every criterion at its stated tolerance.

Each criterion is one test; the terminal-summary hook in conftest prints
one PASS/FAIL line per criterion after the run.  Statistical criteria use
the 4-sigma rule; pathwise criteria use fixed tolerances; stated runtime
caps are asserted.
"""

import math
import time

import numpy as np
import pytest

from lentparticle.chaos import (
    MarkFunction,
    chaos_gamma_closed,
    exp_series_check,
    multiple_integral_functional,
    orthogonality_mc,
    product_formula_check,
)
from lentparticle.cli import main as cli_main
from lentparticle.configuration import Configuration, sample_configuration
from lentparticle.diagnostics import dyadic_modulus_limit, ecf_reference_linear
from lentparticle.functionals import (
    make_doleans,
    make_triangular_sde,
    make_generalized_ou,
    make_pair_doleans,
    make_path_eval,
    make_stochastic_area,
    make_time_integral,
    stack_functionals,
)
from lentparticle.intensities import dyadic_model, uniform_model
from lentparticle.lent_particle import (
    carre_du_champ,
    chain_rule_check,
    det_positivity_survey,
    diag_squares_gamma,
    sharp_sample_many,
)
from lentparticle.rng import substream
from lentparticle.suite import standard_suite, suite_pass_fraction

SEED = 20260809
_RESULTS: list[tuple[str, bool, str]] = []


def record(criterion: str, passed: bool, detail: str) -> None:
    _RESULTS.append((criterion, passed, detail))
    assert passed, f"{criterion}: {detail}"


def worst_z(zs) -> float:
    """The largest deviation in SE units; an exact match without spread (z nan) counts as none."""
    return max((z for z in zs if not math.isnan(z)), default=0.0)


@pytest.fixture(scope="module")
def suite_reports():
    start = time.monotonic()
    reports = standard_suite(seed=SEED, scale=1.0)
    return reports, time.monotonic() - start


D1 = uniform_model(1.0, rate=10.0, low=-0.3, high=0.8, label="acc_d1")
D2 = uniform_model(1.0, rate=10.0, low=-0.3, high=0.8, dim=2, label="acc_d2")
SPEC1 = diag_squares_gamma(1)
SPEC2 = diag_squares_gamma(2)


def rel_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(a)), 1e-300)
    return float(np.linalg.norm(a - b)) / denom


def test_criterion_01_oracle_equivalence():
    """Closed-mode vs finite-difference carre du champ on random configurations."""
    start = time.monotonic()
    cases = [
        ("path_eval", make_path_eval(D1, 1.0), D1, SPEC1, 1e-6),
        ("doleans", make_doleans(D1, 1.0), D1, SPEC1, 1e-6),
        ("pair_doleans", make_pair_doleans(D1, 1.0), D1, SPEC1, 1e-6),
        ("area", make_stochastic_area(D2, 1.0), D2, SPEC2, 1e-4),
        (
            "time_integral",
            make_time_integral(
                D1, lambda y: np.sum(y * y, axis=-1, keepdims=True), lambda y: 2.0 * y[..., None, :]
            ),
            D1,
            SPEC1,
            1e-6,
        ),
        ("gou", make_generalized_ou(D2, 0.5, 1.0), D2, SPEC2, 1e-6),
    ]
    worsts = {}
    for name, F, model, spec, tol in cases:
        worst = 0.0
        for i in range(100):
            cfg = sample_configuration(model, seed=SEED + i)
            closed = carre_du_champ(F, cfg, spec, mode="closed").matrix
            fd = carre_du_champ(F, cfg, spec, mode="fd").matrix
            worst = max(worst, rel_frobenius(closed, fd))
        worsts[name] = worst
        assert worst <= tol, (name, worst)
    # the SDE solver has no closed derivative: the truth source is the
    # finite-difference matrix recomputed at a refined Euler step
    worst = 0.0
    for i in range(100):
        cfg = sample_configuration(D2, seed=SEED + 200 + i)
        coarse = carre_du_champ(
            make_triangular_sde(D2, (0.1, -0.2, 0.3), 1.0, euler_step=2e-3), cfg, SPEC2, mode="fd"
        ).matrix
        fine = carre_du_champ(
            make_triangular_sde(D2, (0.1, -0.2, 0.3), 1.0, euler_step=1e-3), cfg, SPEC2, mode="fd"
        ).matrix
        worst = max(worst, rel_frobenius(coarse, fine))
    worsts["jump_sde"] = worst
    elapsed = time.monotonic() - start
    ok = worst <= 1e-4 and elapsed <= 120.0
    record(
        "1 lent-particle vs fd oracle",
        ok,
        f"worst rel diff {max(worsts.values()):.2e} (sde {worst:.2e}), {elapsed:.0f}s <= 120s",
    )


def test_criterion_02_pinned_fixture():
    model = uniform_model(1.0, rate=2.0, low=-0.9, high=0.9)
    cfg = Configuration(1.0, 1, [0.2, 0.6], [[0.5], [-0.2]], "manual")
    g_exp = carre_du_champ(make_doleans(model, 1.0), cfg, SPEC1).matrix[0, 0]
    pair = carre_du_champ(make_pair_doleans(model, 1.0), cfg, SPEC1)
    dev = max(
        abs(g_exp - 0.25),
        float(np.abs(pair.matrix - np.array([[0.29, 0.26], [0.26, 0.25]])).max()),
        abs(pair.det - 0.0049),
    )
    record("2 pinned two-atom fixture", dev <= 1e-12, f"max deviation {dev:.2e} <= 1e-12")


def test_criterion_03_gradient_second_moment():
    model = uniform_model(1.0, rate=4.0, low=-0.5, high=1.0)
    F = make_doleans(model, 1.0)
    n = 100_000
    hits = 0
    zs = []
    for k in range(20):
        cfg = sample_configuration(model, seed=SEED + 300 + k)
        gamma = carre_du_champ(F, cfg, SPEC1).matrix[0, 0]
        sq = sharp_sample_many(F, cfg, SPEC1, n, seed=SEED + 400 + k)[:, 0] ** 2
        se = sq.std(ddof=1) / math.sqrt(n) if cfg.n_atoms else 0.0
        hits += abs(sq.mean() - gamma) <= 4.0 * se
        if se > 0.0:
            zs.append(abs(sq.mean() - gamma) / se)
    record("3 gradient second moment", hits >= 19,
           f"{hits}/20 configurations within 4 SE, worst z {worst_z(zs):.2f}")


def test_criterion_04_chain_rule():
    model = uniform_model(1.0, rate=4.0, low=-0.5, high=0.9)
    fs = [make_path_eval(model, 1.0), make_doleans(model, 1.0)]
    phis = [
        (lambda v: float(v[0] + v[1]), lambda v: np.array([1.0, 1.0])),
        (lambda v: float(v[0] * v[1]), lambda v: np.array([v[1], v[0]])),
        (
            lambda v: float(v[0] / (1.0 + v[1] ** 2)),
            lambda v: np.array([1.0 / (1.0 + v[1] ** 2), -2.0 * v[0] * v[1] / (1.0 + v[1] ** 2) ** 2]),
        ),
    ]
    rng = substream(SEED + 500)
    worst = 0.0
    for k in range(100):
        phi, grad = phis[k % 3]
        cfg = sample_configuration(model, seed=int(rng.integers(1 << 30)))
        from lentparticle.functionals import compose_functional

        composite = compose_functional(phi, grad, stack_functionals(fs))
        lhs = carre_du_champ(composite, cfg, SPEC1).matrix[0, 0]
        res = chain_rule_check(phi, grad, fs, cfg, SPEC1)
        worst = max(worst, res / (1.0 + abs(lhs)))
    record("4 chain rule", worst <= 1e-8, f"worst normalized residual {worst:.2e} <= 1e-8")


def test_criterion_05_pathwise_identities():
    start = time.monotonic()
    model = uniform_model(1.0, rate=10.0, low=-1.0, high=1.0)
    u = MarkFunction(lambda xs: 0.3 * xs[:, 0], sup_bound=0.3, label="0.3x")
    v = MarkFunction(lambda xs: 0.5 * xs[:, 0] ** 2, sup_bound=0.5, label="x^2/2")
    worst_series = 0.0
    worst_product = 0.0
    for i in range(100):
        cfg = sample_configuration(model, seed=SEED + 600 + i)
        worst_series = max(worst_series, exp_series_check(cfg, model, u, t=0.2, n_max=12))
        worst_product = max(worst_product, product_formula_check(cfg, model, u, v, 0.2, 0.2))
    elapsed = time.monotonic() - start
    ok = worst_series <= 1e-8 and worst_product <= 1e-10 and elapsed <= 60.0
    record(
        "5 pathwise series identities",
        ok,
        f"series {worst_series:.2e} <= 1e-8, product {worst_product:.2e} <= 1e-10, {elapsed:.0f}s <= 60s",
    )


def test_criterion_06_orthogonality_grid():
    model = uniform_model(1.0, rate=5.0, low=-1.0, high=1.0)
    u = MarkFunction(lambda xs: 0.4 * xs[:, 0] + 0.3 * xs[:, 0] ** 2, sup_bound=0.7)
    v = MarkFunction(lambda xs: 0.6 * xs[:, 0] ** 2, sup_bound=0.6)
    reps = orthogonality_mc(model, u, v, (1, 2, 3), 1_000_000, SEED + 700)
    hits = sum(rep.passed for rep in reps)
    record("6 chaos orthogonality 3x3", hits >= 8,
           f"{hits}/9 cells within 4 SE at 1e6 samples, worst z {worst_z(r.z for r in reps):.2f}")


def test_criterion_07_chaos_gamma_agreement():
    model = uniform_model(1.0, rate=4.0, low=-1.0, high=1.0)
    u = MarkFunction(
        lambda xs: xs[:, 0], sup_bound=1.0, grad=lambda xs: np.ones((len(xs), 1)), label="x"
    )
    v = MarkFunction(
        lambda xs: xs[:, 0] ** 2, sup_bound=1.0, grad=lambda xs: 2.0 * xs[:, 0:1], label="x^2"
    )
    fu = {i: multiple_integral_functional(model, u, i) for i in (1, 2, 3)}
    fv = {j: multiple_integral_functional(model, v, j) for j in (1, 2, 3)}
    worst = 0.0
    for k in range(50):
        cfg = sample_configuration(model, seed=SEED + 800 + k)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                closed = chaos_gamma_closed(cfg, model, u, v, i, j, SPEC1)
                fd = carre_du_champ(
                    stack_functionals([fu[i], fv[j]]), cfg, SPEC1, mode="fd"
                ).matrix[0, 1]
                worst = max(worst, abs(closed - fd) / (1.0 + abs(closed)))
    record("7 chaos gradient closed form", worst <= 1e-6, f"worst relative error {worst:.2e} <= 1e-6")


def test_criterion_08_measure_identities_and_suite(suite_reports):
    reports, elapsed = suite_reports
    named = [
        r
        for r in reports
        if r.name.startswith(("laplace", "duality", "marked_moment", "mark_identity"))
    ]
    assert len(named) == 15
    named_ok = all(r.passed for r in named)
    frac = suite_pass_fraction(reports)
    ok = named_ok and frac >= 0.95 and elapsed <= 300.0
    failing = [r.name for r in reports if not r.passed]
    record(
        "8 measure identities + 40-check suite",
        ok,
        f"named checks {'all pass' if named_ok else 'FAIL'}, fraction {frac:.3f} >= 0.95, "
        f"worst z {worst_z(r.z for r in reports):.2f}, "
        f"{elapsed:.0f}s <= 300s{'; failing: ' + ', '.join(failing) if failing else ''}",
    )


def test_criterion_09_second_quantization(suite_reports):
    reports, _ = suite_reports
    sq = [r for r in reports if r.name.startswith("second_quantization")]
    mehler = [r for r in reports if r.name.startswith("mehler_exponential")]
    assert len(sq) == 4 and len(mehler) == 1
    ok = all(r.passed for r in sq + mehler)
    record(
        "9 second quantization",
        ok,
        f"n in {{1,2}} x t in {{0.2,1.0}} and the exponential intertwining all within 4 SE, "
        f"worst z {worst_z(r.z for r in sq + mehler):.2f}",
    )


def test_criterion_10_density_diagnostics():
    model = uniform_model(1.0, rate=20.0, low=-0.9, high=0.9)
    res = det_positivity_survey(
        make_pair_doleans(model, 1.0), model, SPEC1, nsamples=1500, seed=SEED + 900
    )
    threshold = 1.0 - 2.0 * math.exp(-20.0) - 1e-3
    dy = dyadic_model(1.0, 0, 30)
    closed = ecf_reference_linear(dy, np.array([2.0**k * math.pi for k in range(9)]))
    limit = dyadic_modulus_limit()
    raj_dev = float(np.abs(closed - limit).max())
    ok = res.frequency >= threshold and raj_dev <= 2e-3 and abs(limit - 0.0335) <= 2e-3
    record(
        "10 density diagnostics",
        ok,
        f"det-positivity {res.frequency:.4f} >= {threshold:.4f}; "
        f"constant modulus {limit:.4f} (dev {raj_dev:.1e} <= 2e-3)",
    )


def test_criterion_11_reproducibility(tmp_path):
    cfg_text = (
        "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 6.0\nlow = -0.9\nhigh = 0.9\n\n"
        "[functional]\nlabel = pair_doleans\nt = 1.0\n\n"
        "[gamma]\nlabel = diag_x2\ndim = 1\n\n"
        "[experiment]\nkind = survey\nseed = 5\nnsamples = 500\nmin_frequency = 0.5\n"
    )
    path = tmp_path / "survey.cfg"
    path.write_text(cfg_text)
    outs = []
    for jobs, sub in (("1", "a"), ("4", "b")):
        d = tmp_path / sub
        assert cli_main(["--out-dir", str(d), "--jobs", jobs, "run", str(path)]) == 0
        outs.append(((d / "survey.csv").read_bytes(), (d / "survey.json").read_bytes()))
    same = outs[0] == outs[1]
    raj = tmp_path / "raj.cfg"
    raj.write_text(
        "[model]\nfamily = dyadic\nhorizon = 1.0\n\n[experiment]\nkind = rajchman\nseed = 2\n"
    )
    pair = []
    for sub in ("c", "d"):
        d = tmp_path / sub
        assert cli_main(["--out-dir", str(d), "run", str(raj)]) == 0
        pair.append((d / "rajchman.csv").read_bytes())
    same = same and pair[0] == pair[1]
    record("11 reproducibility", same, "byte-identical artifacts across --jobs and repeat runs")
