"""Shipped intensity-model families.

Each factory builds an :class:`~lentparticle.configuration.IntensityModel`
whose sampler, quadrature, total rate and compensator mean are mutually
consistent.  Samplers use exact inverse transforms wherever the family
allows it, so Monte Carlo estimates can be compared against quadrature
references at the 4-sigma level without sampler bias.

Quadrature evaluates f on whole node arrays: one adaptive Gauss-Kronrod
cubature (scipy.integrate.cubature, rule gk21, rtol = atol = 1e-12) over
the family's box, one per angular sector for polar, with scipy imported on
first use.  The gauss family's box is [-c scale, c scale]^d with c = 38.61,
not R^d: its density exp(-z*z/2) is exactly 0.0 in float64 for |z| past
38.604, so every node outside the box would add exactly 0.0 (or nan where f
overflows), and the finite box integrates the same floating-point integrand
with about a tenth of the nodes.  The atomic family integrates by finite sum.
Symmetric families set their compensator mean to exactly zero.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Sequence

import numpy as np

from .configuration import IntensityModel, InvalidModelError

__all__ = [
    "uniform_model",
    "gauss_model",
    "power_model",
    "polar_model",
    "curve_model",
    "dyadic_model",
    "MODEL_FAMILIES",
    "build_model",
]


def _integrate(fn: Callable[[np.ndarray], np.ndarray], lo: Sequence[float], hi: Sequence[float]) -> float:
    """Integral of fn((k, d) nodes) -> (k,) over the box [lo, hi] (limits may be infinite).

    Warns with scipy's IntegrationWarning when the rule stops short of
    rtol = atol = 1e-12 or the estimate is not finite.
    """
    from scipy.integrate import IntegrationWarning, cubature

    res = cubature(fn, lo, hi, rtol=1e-12, atol=1e-12)
    est = float(res.estimate)
    if res.status != "converged" or not math.isfinite(est):
        warnings.warn(
            f"cubature {res.status} with estimate {est!r}, error estimate {float(res.error):.3g}",
            IntegrationWarning,
            stacklevel=3,
        )
    return est


def uniform_model(
    horizon: float,
    rate: float,
    low: float = -1.0,
    high: float = 1.0,
    dim: int = 1,
    label: str | None = None,
) -> IntensityModel:
    """Marks uniform on the box (low, high)^d, jump measure mass `rate`."""
    if not (high > low and math.isfinite(high - low)):
        raise InvalidModelError(f"uniform family needs finite bounds with high > low, got ({low}, {high})")
    if dim not in (1, 2):
        raise InvalidModelError("uniform family ships dim 1 or 2")
    width = high - low
    density = rate / width**dim

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(low, high, size=(n, dim))

    def sigma_int(f):
        return density * _integrate(f, [low] * dim, [high] * dim)

    symmetric = low == -high
    mean = np.zeros(dim) if symmetric else np.full(dim, rate * 0.5 * (low + high))
    return IntensityModel(
        label=label or f"uniform({low},{high})d{dim}",
        family="compound-poisson",
        horizon=horizon,
        dim=dim,
        rate=rate,
        jump_sampler=sampler,
        sigma_integrate=sigma_int,
        mean=mean,
    )


# exp(-z*z/2) is exactly 0.0 in float64 for |z| > sqrt(2 * 745.133) = 38.604
_GAUSS_CUT = 38.61


def gauss_model(
    horizon: float,
    rate: float,
    scale: float = 1.0,
    dim: int = 1,
    label: str | None = None,
) -> IntensityModel:
    """Marks i.i.d. centered Gaussian with standard deviation `scale` per coordinate."""
    if dim not in (1, 2):
        raise InvalidModelError("gauss family ships dim 1 or 2")
    if not (scale > 0.0 and math.isfinite(scale)):  # scale 0 draws only the excluded zero mark
        raise InvalidModelError(f"gauss family needs a finite scale > 0, got {scale}")

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return scale * rng.standard_normal((n, dim))

    def dens(xs: np.ndarray) -> np.ndarray:
        """Product of the per-coordinate normal densities at each row."""
        return np.prod(np.exp(-0.5 * (xs / scale) ** 2) / (scale * math.sqrt(2.0 * math.pi)), axis=1)

    def sigma_int(f):
        cut = _GAUSS_CUT * scale
        return rate * _integrate(lambda xs: f(xs) * dens(xs), [-cut] * dim, [cut] * dim)

    return IntensityModel(
        label=label or f"gauss({scale})d{dim}",
        family="compound-poisson",
        horizon=horizon,
        dim=dim,
        rate=rate,
        jump_sampler=sampler,
        sigma_integrate=sigma_int,
        mean=np.zeros(dim),
    )


def power_model(
    horizon: float,
    c: float = 1.0,
    a: float = 0.5,
    epsilon: float = 1e-2,
    symmetric: bool = False,
    label: str | None = None,
) -> IntensityModel:
    """Truncated power jump density c |x|^(-1-a) on epsilon < |x| < 1.

    One-sided on (epsilon, 1) by default; the symmetric variant mirrors the
    density to negative marks and has compensator mean exactly zero.
    Sampling is by exact inverse transform of the tail function.
    """
    if not (0.0 < epsilon < 1.0):
        raise InvalidModelError("power family needs 0 < epsilon < 1")
    if a <= 0.0:
        raise InvalidModelError("power family needs exponent a > 0")
    one_side_rate = c * (epsilon**-a - 1.0) / a
    if a != 1.0:
        one_side_mean = c * (1.0 - epsilon ** (1.0 - a)) / (1.0 - a)
    else:
        one_side_mean = c * math.log(1.0 / epsilon)

    def draw_magnitudes(rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        return (epsilon**-a - u * (epsilon**-a - 1.0)) ** (-1.0 / a)

    if symmetric:
        rate = 2.0 * one_side_rate
        mean = np.zeros(1)

        def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
            mags = draw_magnitudes(rng, n)
            signs = rng.integers(0, 2, size=n) * 2 - 1
            return (mags * signs).reshape(n, 1)

        def sigma_int(f):
            return _integrate(lambda xs: (f(xs) + f(-xs)) * c * xs[:, 0] ** (-1.0 - a), [epsilon], [1.0])
    else:
        rate = one_side_rate
        mean = np.array([one_side_mean])

        def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
            return draw_magnitudes(rng, n).reshape(n, 1)

        def sigma_int(f):
            return _integrate(lambda xs: f(xs) * c * xs[:, 0] ** (-1.0 - a), [epsilon], [1.0])

    return IntensityModel(
        label=label or f"power(c={c},a={a},eps={epsilon},{'sym' if symmetric else 'pos'})",
        family="power-truncated",
        horizon=horizon,
        dim=1,
        rate=rate,
        jump_sampler=sampler,
        sigma_integrate=sigma_int,
        mean=mean,
    )


def polar_model(
    horizon: float,
    epsilon: float = 1e-2,
    g_values: Sequence[float] | float = 1.0 / (2.0 * math.pi),
    label: str | None = None,
) -> IntensityModel:
    """Planar jump measure g(theta) dtheta x 1_(epsilon,1)(rho) drho/rho.

    g is piecewise constant on equal angular sectors (a scalar means one
    sector, i.e. isotropic), which keeps sampling and the first-moment
    quadrature exact.  The radial part is log-uniform on (epsilon, 1) after
    truncation, of mass log(1/epsilon).
    """
    if not (0.0 < epsilon < 1.0):
        raise InvalidModelError("polar family needs 0 < epsilon < 1")
    g = np.atleast_1d(np.asarray(g_values, dtype=float))
    k = g.size
    sector = 2.0 * math.pi / k
    if np.any(g < 0.0) or not 0.0 < sum(g.tolist()) * sector < math.inf:  # Python floats: no overflow warning
        raise InvalidModelError("angular density must be nonnegative with positive finite mass")
    edges = sector * np.arange(k + 1)
    total_g = float(g.sum() * sector)
    log_inv_eps = math.log(1.0 / epsilon)
    rate = total_g * log_inv_eps
    probs = g * sector / total_g
    cum = np.concatenate(([0.0], np.cumsum(probs)))

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, k - 1)
        theta = edges[idx] + rng.random(n) * sector
        rho = np.exp(math.log(epsilon) * (1.0 - rng.random(n)))
        return np.column_stack([rho * np.cos(theta), rho * np.sin(theta)])

    def sigma_int(f):
        def fn(nodes: np.ndarray) -> np.ndarray:  # (theta, rho) -> f(rho cos theta, rho sin theta) / rho
            th, r = nodes[:, 0], nodes[:, 1]
            return f(np.column_stack([r * np.cos(th), r * np.sin(th)])) / r

        # sector edges are discontinuities of g: one cubature per sector
        return sum(g[i] * _integrate(fn, [edges[i], epsilon], [edges[i + 1], 1.0]) for i in range(k) if g[i] > 0.0)

    # first moment closed form: (1 - eps) * integral of g * (cos, sin)
    mean = (1.0 - epsilon) * np.array(
        [
            float(np.sum(g * (np.sin(edges[1:]) - np.sin(edges[:-1])))),
            float(np.sum(g * (-np.cos(edges[1:]) + np.cos(edges[:-1])))),
        ]
    )
    if k == 1:  # isotropic: both components vanish exactly
        mean = np.zeros(2)
    return IntensityModel(
        label=label or f"polar(eps={epsilon},k={k})",
        family="polar",
        horizon=horizon,
        dim=2,
        rate=rate,
        jump_sampler=sampler,
        sigma_integrate=sigma_int,
        mean=mean,
    )


def curve_model(
    horizon: float,
    c: float = 1.0,
    a: float = 0.5,
    epsilon: float = 1e-2,
    label: str | None = None,
) -> IntensityModel:
    """Planar jump measure carried by the parabola u -> (u, u^2): image of a 1-d power model.

    The base parameter follows the truncated power density c u^(-1-a) on
    (epsilon, 1); the jump measure of (X, [X]) lives on this curve.
    """
    base = power_model(horizon, c=c, a=a, epsilon=epsilon, symmetric=False)

    def image(u: np.ndarray) -> np.ndarray:
        return np.column_stack([u, u**2])

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return image(base.jump_sampler(rng, n)[:, 0])

    def sigma_int(f2):
        return base.sigma_integrate(lambda us: np.asarray(f2(image(us[:, 0]))))

    mean = np.array(
        [sigma_int(lambda xs, j=j: xs[:, j]) for j in range(2)]
    )
    return IntensityModel(
        label=label or f"curve(c={c},a={a},eps={epsilon})",
        family="curve-image",
        horizon=horizon,
        dim=2,
        rate=base.rate,
        jump_sampler=sampler,
        sigma_integrate=sigma_int,
        mean=mean,
    )


def dyadic_model(
    horizon: float,
    n_start: int = 0,
    n_max: int = 30,
    label: str | None = None,
) -> IntensityModel:
    """Atomic jump measure: unit mass at 2^-n for n = n_start..n_max.

    Non-diffuse; marks repeat, so this family is excluded from the
    add/remove support-algebra property checks.  Integration is the exact
    finite sum over atoms.
    """
    # on [-1022, 1074] every atom 2^-n is a nonzero float and their sum stays below 2^1023
    if not (-1022 <= n_start <= n_max <= 1074 and n_start == int(n_start) and n_max == int(n_max)):
        raise InvalidModelError(f"dyadic family needs integers n_max >= n_start in [-1022, 1074], got {n_start}..{n_max}")
    values = 2.0 ** (-np.arange(n_start, n_max + 1, dtype=float))
    rate = float(values.size)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(values, size=n).reshape(n, 1)

    def sigma_int(f):
        return float(np.sum(np.asarray(f(values.reshape(-1, 1)))))

    return IntensityModel(
        label=label or f"dyadic({n_start}..{n_max})",
        family="atomic-dyadic",
        horizon=horizon,
        dim=1,
        rate=rate,
        jump_sampler=sampler,
        sigma_integrate=sigma_int,
        mean=np.array([float(values.sum())]),
    )


# ---------------------------------------------------------------------------
# registry for the experiment runner
# ---------------------------------------------------------------------------

MODEL_FAMILIES: dict[str, dict] = {
    "uniform": {
        "builder": uniform_model,
        "params": "horizon, rate, low=-1, high=1, dim=1",
    },
    "gauss": {
        "builder": gauss_model,
        "params": "horizon, rate, scale=1, dim=1",
    },
    "power": {
        "builder": power_model,
        "params": "horizon, c=1, a=0.5, epsilon=0.01, symmetric=false",
    },
    "polar": {
        "builder": polar_model,
        "params": "horizon, epsilon=0.01, g_values=1/(2*pi)",
    },
    "curve": {
        "builder": curve_model,
        "params": "horizon, c=1, a=0.5, epsilon=0.01",
    },
    "dyadic": {
        "builder": dyadic_model,
        "params": "horizon, n_start=0, n_max=30",
    },
}


def build_model(family: str, **params) -> IntensityModel:
    """Build a registered model family from keyword parameters."""
    if family not in MODEL_FAMILIES:
        raise KeyError(f"unknown model family {family!r}; known: {sorted(MODEL_FAMILIES)}")
    return MODEL_FAMILIES[family]["builder"](**params)
