"""Shipped intensity-model families.

Each factory builds an :class:`~lentparticle.configuration.IntensityModel`
whose sampler, quadrature, total rate and compensator mean are mutually
consistent.  Samplers use exact inverse transforms wherever the family
allows it, so Monte Carlo estimates can be compared against quadrature
references at the 4-sigma level without sampler bias.

Quadrature evaluates f on whole node arrays: one adaptive Gauss-Kronrod
cubature (21-point Kronrod, embedded 10-point Gauss, rtol = atol = 1e-12)
over the family's finite box, one per angular sector for polar.  It
returns scipy.integrate.cubature's gk21 result bit for bit but makes one f
call per subdivision; it and its IntegrationWarning are in the package, so
numpy is the one runtime dependency.  The gauss family's box is
[-c scale, c scale]^d with c = 38.61, not R^d: its density exp(-z*z/2) is
exactly 0.0 in float64 for |z| past 38.604, so every node outside the box
would add exactly 0.0 (or nan where f overflows), and the finite box
integrates the same floating-point integrand with about a tenth of the
nodes.  The atomic family integrates by finite sum.  Symmetric families set
their compensator mean to exactly zero.
"""

from __future__ import annotations

import functools
import heapq
import math
import warnings
from typing import Callable, Sequence

import numpy as np

from .configuration import IntensityModel, InvalidModelError

__all__ = [
    "IntegrationWarning",
    "uniform_model",
    "gauss_model",
    "power_model",
    "polar_model",
    "curve_model",
    "dyadic_model",
    "MODEL_FAMILIES",
    "build_model",
]


# QUADPACK's dqk21 (Piessens et al., QUADPACK, 1983): the Kronrod nodes on
# [-1, 1] from +1 down and their weights, in scipy.integrate.cubature's order
_KRONROD_HALF = [
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
    0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
    0.2943928627014602, 0.14887433898163122,
]
_KRONROD_WEIGHTS_HALF = [
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
    0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
    0.14277593857706009, 0.14773910490133849,
]
_KRONROD_NODES = np.array(_KRONROD_HALF + [0.0] + [-x for x in reversed(_KRONROD_HALF)])
_KRONROD_WEIGHTS = np.array(_KRONROD_WEIGHTS_HALF + [0.1494455540029169] + _KRONROD_WEIGHTS_HALF[::-1])
# The embedded 10-point Gauss rule from -1 up, as scipy.special.roots_legendre(10)
# gives it in scipy 1.17.1.  Its nodes near +-0.149 and +-0.865 differ from the
# Kronrod table's in the last bit, so f is evaluated at them too.
_GAUSS_HALF = [0.14887433898163116, 0.4333953941292472, 0.6794095682990244, 0.8650633666889844, 0.9739065285171717]
_GAUSS_WEIGHTS_HALF = [0.2955242247147533, 0.26926671930999674, 0.21908636251598224, 0.14945134915058053, 0.06667134430868714]
_GAUSS_NODES = np.array([-x for x in reversed(_GAUSS_HALF)] + _GAUSS_HALF)
_GAUSS_WEIGHTS = np.array(_GAUSS_WEIGHTS_HALF[::-1] + _GAUSS_WEIGHTS_HALF)
_RTOL = _ATOL = 1e-12
_MAX_SUBDIVISIONS = 10_000


def _cartesian(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Rows of the product of 1-d arrays, the last varying fastest."""
    return np.stack(np.meshgrid(*arrays, indexing="ij"), axis=-1).reshape(-1, len(arrays))


@functools.cache
def _product_rule(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gk21 product rule on [-1, 1]^d: nodes + 1, signed weights, child corner picks.

    Rows 0..21^d - 1 are the Kronrod nodes with their weights, the rest the
    Gauss nodes with negated weights, so a region's Kronrod estimate sums
    the first 21^d weighted values and its error estimate sums them all.
    """
    nodes = np.concatenate([_cartesian([_KRONROD_NODES] * d), _cartesian([_GAUSS_NODES] * d)])
    weights = np.concatenate([
        np.prod(_cartesian([_KRONROD_WEIGHTS] * d), axis=-1),
        -np.prod(_cartesian([_GAUSS_WEIGHTS] * d), axis=-1),
    ])
    return nodes + 1, weights, _cartesian([np.array([0, 1])] * d)


class _Region:
    """A box on the heap; the one with the largest error pops first."""

    __slots__ = ("est", "err", "a", "b")

    def __init__(self, est: float, err: float, a: np.ndarray, b: np.ndarray):
        self.est, self.err, self.a, self.b = est, err, a, b

    def __lt__(self, other: "_Region") -> bool:
        return self.err > other.err


def _cubature(fn: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray) -> tuple[float, float, str]:
    """Estimate, error estimate and status of the integral of fn over [lo, hi].

    What scipy.integrate.cubature(fn, lo, hi, rtol=1e-12, atol=1e-12)
    returns, bit for bit: the same nodes and sums, the same greedy heap
    that splits the box of largest error into 2^d halves, the same running
    totals and the same 10,000-subdivision cap.  Each subdivision makes one
    fn call on the Kronrod and Gauss nodes of all 2^d children; cubature
    makes two per child and evaluates the Kronrod nodes twice.
    """
    d = lo.size
    nodes, weights, picks = _product_rule(d)
    n_kronrod = _KRONROD_NODES.size**d

    def estimates(a: np.ndarray, b: np.ndarray) -> tuple[list, list]:
        """Kronrod estimates and error estimates on the boxes [a[i], b[i]]."""
        lengths = b - a
        x = nodes * (lengths[:, None, :] * 0.5) + a[:, None, :]
        vals = np.asarray(fn(x.reshape(-1, d))).reshape(len(a), -1)
        terms = weights * (np.prod(lengths, axis=1) / 2**d)[:, None] * vals
        return np.sum(terms[:, :n_kronrod], axis=1).tolist(), np.abs(np.sum(terms, axis=1)).tolist()

    [est], [err] = estimates(lo[None], hi[None])
    regions = [_Region(est, err, lo, hi)]
    est, err = 0.0 + est, 0.0 + err  # cubature's totals start at 0.0, so -0.0 reads 0.0
    subdivisions = 0
    while err > _ATOL + _RTOL * abs(est):
        region = heapq.heappop(regions)
        est -= region.est
        err -= region.err
        ends = np.stack([region.a, (region.a + region.b) / 2, region.b])
        a, b = np.take_along_axis(ends, picks, 0), np.take_along_axis(ends, picks + 1, 0)
        for child in zip(*estimates(a, b), a, b):
            est += child[0]
            err += child[1]
            heapq.heappush(regions, _Region(*child))
        subdivisions += 1
        if subdivisions >= _MAX_SUBDIVISIONS:
            return est, err, "not_converged"
    return est, err, "converged"


class IntegrationWarning(UserWarning):
    """A quadrature stopped short of its tolerance or returned a non-finite value."""


def _integrate(fn: Callable, lo: Sequence[float], hi: Sequence[float], factor: float = 1.0) -> float:
    """factor times the integral of fn((k, d) nodes) -> (k,) over the finite box [lo, hi], lo <= hi.

    Adaptive product Gauss-Kronrod (21-point Kronrod, embedded 10-point
    Gauss) to rtol = atol = 1e-12, equal bit for bit to scipy's cubature
    with rule gk21.  Warns with IntegrationWarning when the rule stops
    short of the tolerance or the value is not finite, reporting the value
    returned and its error estimate, both scaled by factor.
    """
    est, err, status = _cubature(fn, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    value = factor * est
    if status != "converged" or not math.isfinite(value):
        warnings.warn(
            f"cubature {status} with estimate {float(value)!r}, error estimate {abs(factor) * err:.3g}",
            IntegrationWarning,
            stacklevel=3,
        )
    return value


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
    try:
        density = rate / width**dim
    except (OverflowError, ZeroDivisionError):  # Python's float ** and / raise where numpy returns inf
        density = math.nan
    # a rate outside (0, inf) is left to IntensityModel's own check
    if 0.0 < rate < math.inf and not 0.0 < density < math.inf:
        raise InvalidModelError(
            f"uniform family needs a finite positive density rate / (high - low)^{dim}, "
            f"got rate {rate} on ({low}, {high})"
        )

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(low, high, size=(n, dim))

    def sigma_int(f):
        return _integrate(f, [low] * dim, [high] * dim, density)

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
    cut = _GAUSS_CUT * scale  # scale 0 draws only the excluded zero mark; [-cut, cut]^d needs a finite volume
    if not (scale > 0.0 and math.isfinite(math.prod([2.0 * cut] * dim))):
        raise InvalidModelError(f"gauss family needs a finite scale > 0, got {scale} (box volume (2 * {_GAUSS_CUT} scale)^{dim})")

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return scale * rng.standard_normal((n, dim))

    def dens(xs: np.ndarray) -> np.ndarray:
        """Product of the per-coordinate normal densities at each row."""
        return np.prod(np.exp(-0.5 * (xs / scale) ** 2) / (scale * math.sqrt(2.0 * math.pi)), axis=1)

    def sigma_int(f):
        return _integrate(lambda xs: f(xs) * dens(xs), [-cut] * dim, [cut] * dim, rate)

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
        return sum(_integrate(fn, [edges[i], epsilon], [edges[i + 1], 1.0], g[i]) for i in range(k) if g[i] > 0.0)

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
