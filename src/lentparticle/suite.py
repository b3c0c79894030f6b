"""The canonical statistical verification suite: 40 independent 4-sigma checks.

Groups: Laplace exponential formula, add/remove duality, marked-measure
moments and product/sum identities, chaos orthogonality, second
quantization, semigroup symmetry, gradient second moments, and raw
configuration laws.  Every check is an EstimatorReport whose pass rule is
|estimate - reference| <= 4 SE; the suite records failures rather than
asserting, and callers gate on the pass fraction.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .chaos import (
    MarkFunction,
    ResamplingSemigroup,
    mehler_exponential_check,
    multiple_integral_batch,
    orthogonality_mc,
    pt_symmetry_check,
    second_quantization_check,
)
from .configuration import IntensityModel, sample_batch, sample_configuration
from .diagnostics import (
    EstimatorReport,
    _mean_report,
    laplace_check,
    duality_check,
    mark_identities_check,
    marked_moment_check,
)
from .functionals import Functional, make_doleans, with_fd_derivative
from .intensities import power_model, uniform_model
from .lent_particle import carre_du_champ, diag_squares_gamma, sharp_sample_many

__all__ = ["standard_suite", "suite_pass_fraction"]


def _n(base: int, scale: float) -> int:
    return max(100, int(base * scale))


def _exp_neg_integral_functional(model: IntensityModel, f) -> Functional:
    def value(cfg):
        s = float(np.sum(f(cfg.marks))) if cfg.n_atoms else 0.0
        return np.array([math.exp(-s)])

    def value_batch(batch):
        sums = batch.reduce_per_sample(np.add, f(batch.marks))
        # math.exp, as in value: numpy's exp may round differently
        return np.fromiter(map(math.exp, (-sums).tolist()), float, sums.size)[:, None]

    return with_fd_derivative("exp_neg_N(f0)", 1, model.dim, value, value_batch)


def _laplace_group(seed: int, scale: float) -> list[EstimatorReport]:
    n = _n(100_000, scale)
    m_uniform = uniform_model(1.0, rate=3.0, low=-1.0, high=1.0, label="suite_uniform_sym")
    m_power = power_model(1.0, c=0.3, a=0.5, epsilon=0.05, symmetric=True, label="suite_power_sym")
    probes: list[tuple[str, IntensityModel, Callable]] = [
        ("laplace[0.3x|uniform]", m_uniform, lambda ts, xs: 0.3 * xs[:, 0]),
        ("laplace[0.5cos3x|uniform]", m_uniform, lambda ts, xs: 0.5 * np.cos(3.0 * xs[:, 0])),
        ("laplace[0.3x|power]", m_power, lambda ts, xs: 0.3 * xs[:, 0]),
        ("laplace[0.7 ind x>0.2|power]", m_power, lambda ts, xs: 0.7 * (xs[:, 0] > 0.2)),
    ]
    return [
        laplace_check(model, f, n, seed=seed + k, name=name)
        for k, (name, model, f) in enumerate(probes)
    ]


def _duality_group(seed: int, scale: float) -> list[EstimatorReport]:
    n = _n(100_000, scale)
    model = uniform_model(1.0, rate=3.0, low=-0.5, high=1.0, label="suite_uniform_slant")
    g_sq = lambda xs: xs[:, 0] ** 2
    g_abs = lambda xs: np.abs(xs[:, 0])
    reports = []
    reports += list(
        duality_check(model, make_doleans(model, 1.0), g_sq, n, seed=seed + 11, name="duality[doleans,x^2]")
    )
    expf = _exp_neg_integral_functional(model, lambda xs: np.abs(xs[:, 0]))
    reports += list(duality_check(model, expf, g_abs, n, seed=seed + 12, name="duality[exp,abs]"))
    return reports


def _marked_moment_group(seed: int, scale: float) -> list[EstimatorReport]:
    n = _n(100_000, scale)
    model = uniform_model(1.0, rate=3.0, low=-1.0, high=1.0, label="suite_uniform_marks")

    def stable_first(xs):
        x2 = xs[:, 0] ** 2
        return -np.expm1(-x2) / x2

    def stable_second(xs):
        x2 = xs[:, 0] ** 2
        return -np.expm1(-2.0 * x2) / (2.0 * x2)

    probes = [
        (
            "marked_moment[x(r-1/2)]",
            lambda ts, xs, r: xs[:, 0] * (r - 0.5),
            lambda ts, xs: np.zeros(len(ts)),
            lambda ts, xs: xs[:, 0] ** 2 / 12.0,
        ),
        (
            "marked_moment[exp(-x^2 r)]",
            lambda ts, xs, r: np.exp(-(xs[:, 0] ** 2) * r),
            lambda ts, xs: stable_first(xs),
            lambda ts, xs: stable_second(xs),
        ),
        (
            "marked_moment[(r-1/2)^2]",
            lambda ts, xs, r: (r - 0.5) ** 2,
            lambda ts, xs: np.full(len(ts), 1.0 / 12.0),
            lambda ts, xs: np.full(len(ts), 1.0 / 80.0),
        ),
    ]
    return [
        marked_moment_check(model, F, Fm, F2, n, seed=seed + 21 + k, name=name)
        for k, (name, F, Fm, F2) in enumerate(probes)
    ]


def _mark_identities_group(seed: int, scale: float) -> list[EstimatorReport]:
    n = _n(100_000, scale)
    n_inner = 16
    model = uniform_model(1.0, rate=3.0, low=-1.0, high=1.0, label="suite_uniform_marks")

    def _col(xs, r):
        x2 = xs[:, 0] ** 2
        return x2.reshape(x2.shape + (1,) * (np.ndim(r) - 1))

    def f_exp(ts, xs, r):
        return np.exp(-_col(xs, r) * r)

    def f_exp_mean(ts, xs):
        x2 = xs[:, 0] ** 2
        return -np.expm1(-x2) / x2

    def f_rat(ts, xs, r):
        return 1.0 / (1.0 + _col(xs, r) * r)

    def f_rat_mean(ts, xs):
        x2 = xs[:, 0] ** 2
        return np.log1p(x2) / x2

    out = []
    out += list(
        mark_identities_check(model, f_exp, f_exp_mean, n, n_inner, seed=seed + 31, name="mark_identity[exp]")
    )
    out += list(
        mark_identities_check(model, f_rat, f_rat_mean, n, n_inner, seed=seed + 32, name="mark_identity[rational]")
    )
    return out


def _orthogonality_group(seed: int, scale: float) -> list[EstimatorReport]:
    n = _n(1_000_000, scale)
    model = uniform_model(1.0, rate=5.0, low=-1.0, high=1.0, label="suite_uniform_chaos")
    # u v has even part, so the diagonal references n! <u,v>^n are nonzero
    u = MarkFunction(lambda xs: 0.4 * xs[:, 0] + 0.3 * xs[:, 0] ** 2, sup_bound=0.7, label="0.4x+0.3x^2")
    v = MarkFunction(lambda xs: 0.6 * xs[:, 0] ** 2, sup_bound=0.6, label="0.6x^2")
    return orthogonality_mc(model, u, v, (1, 2, 3), n, seed + 40)


def _second_quantization_group(seed: int, scale: float) -> list[EstimatorReport]:
    n = _n(100_000, scale)
    model = uniform_model(1.0, rate=3.0, low=-1.0, high=1.0, label="suite_uniform_sq")
    sg = ResamplingSemigroup(model)
    u = MarkFunction(lambda xs: xs[:, 0], sup_bound=1.0, label="x")
    return [
        second_quantization_check(sg, u, deg, t, n, n_inner=64, seed=seed + 60 + k)
        for k, (deg, t) in enumerate([(1, 0.2), (1, 1.0), (2, 0.2), (2, 1.0)])
    ]


def _semigroup_group(seed: int, scale: float) -> list[EstimatorReport]:
    model = uniform_model(1.0, rate=3.0, low=-1.0, high=1.0, label="suite_uniform_sg")
    sg = ResamplingSemigroup(model)
    g = MarkFunction(lambda xs: -0.4 / (1.0 + xs[:, 0] ** 2), sup_bound=0.4, label="-0.4/(1+x^2)")
    u = MarkFunction(lambda xs: xs[:, 0] ** 2, sup_bound=1.0, label="x^2")
    v = MarkFunction(lambda xs: 1.0 / (1.0 + xs[:, 0] ** 2), sup_bound=1.0, label="1/(1+x^2)")
    out = [
        mehler_exponential_check(sg, g, t=0.5, nsamples=_n(50_000, scale), n_inner=32, seed=seed + 71),
        pt_symmetry_check(sg, u, v, t=0.7, nsamples=_n(100_000, scale), seed=seed + 72),
    ]
    # centering of the second chaos over configurations
    n = _n(1_000_000, scale)
    batch = sample_batch(model, n, seed=seed + 73)
    uu = MarkFunction(lambda xs: 0.5 * xs[:, 0], sup_bound=0.5)
    i2 = multiple_integral_batch(batch, uu, model.nu_integrate(uu), 2)
    out.append(_mean_report("chaos_centering[n=2]", i2, 0.0))
    return out


def _gradient_moment_group(seed: int, scale: float) -> list[EstimatorReport]:
    n = _n(100_000, scale)
    model = uniform_model(1.0, rate=4.0, low=-0.5, high=1.0, label="suite_uniform_sharp")
    spec = diag_squares_gamma(1)
    F = make_doleans(model, 1.0)
    out = []
    for k in range(4):
        cfg = sample_configuration(model, seed=seed + 80 + k)
        gamma = carre_du_champ(F, cfg, spec).matrix[0, 0]
        samples = sharp_sample_many(F, cfg, spec, n, seed=seed + 90 + k)[:, 0]
        out.append(_mean_report(f"sharp_second_moment[cfg{k}]", samples**2, gamma))
        if k < 2:
            out.append(_mean_report(f"sharp_centering[cfg{k}]", samples, 0.0))
    return out


def _configuration_group(seed: int, scale: float) -> list[EstimatorReport]:
    n = _n(100_000, scale)
    model = uniform_model(1.0, rate=3.0, low=-0.5, high=1.0, label="suite_uniform_raw")
    batch = sample_batch(model, n, seed=seed + 95)
    f = lambda xs: np.cos(xs[:, 0])
    nu_f = model.nu_integrate(f)
    sums = batch.sum_per_sample(f(batch.marks)) - nu_f
    nu_f2 = model.nu_integrate(lambda xs: np.cos(xs[:, 0]) ** 2)
    out = [
        _mean_report("compensated_centering[cos]", sums, 0.0),
        _mean_report("compensated_variance[cos]", sums**2, nu_f2),
    ]
    half = model.horizon / 2.0
    early = batch.times < half
    c1 = np.bincount(batch.sample_index[early], minlength=n).astype(float)
    c2 = np.bincount(batch.sample_index[~early], minlength=n).astype(float)
    lam_half = model.rate * half
    prod = (c1 - lam_half) * (c2 - lam_half)
    out.append(_mean_report("independent_windows_cov", prod, 0.0))
    return out


def standard_suite(seed: int, scale: float = 1.0) -> list[EstimatorReport]:
    """Run all 40 statistical checks; scale < 1 shrinks sample counts for smoke runs."""
    reports: list[EstimatorReport] = []
    reports += _laplace_group(seed, scale)            # 4
    reports += _duality_group(seed, scale)            # 4
    reports += _marked_moment_group(seed, scale)      # 3
    reports += _mark_identities_group(seed, scale)    # 4
    reports += _orthogonality_group(seed, scale)      # 9
    reports += _second_quantization_group(seed, scale)  # 4
    reports += _semigroup_group(seed, scale)          # 3
    reports += _gradient_moment_group(seed, scale)    # 6
    reports += _configuration_group(seed, scale)      # 3
    return reports


def suite_pass_fraction(reports: list[EstimatorReport]) -> float:
    return sum(r.passed for r in reports) / len(reports)
