"""Monte Carlo verification of measure-level identities and density diagnostics.

Estimators compare a Monte Carlo mean against a reference (quadrature value
or a paired Monte Carlo mean of the dual expression) and report a pass flag
at the 4-sigma level.  Statistical checks never assert; callers aggregate
pass fractions.  Density evidence (kernel density shape, characteristic
function decay, determinant surveys) is reported side by side and is
evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .configuration import (  # noqa: F401  add_particle, remove_index: named by perfbench/spans.py
    IntensityModel,
    add_particle,
    csv_text,
    remove_index,
    sample_batch,
)
from .functionals import Functional, FunctionalError, batch_values
from .rng import chunk_ranges, substream

__all__ = [
    "EstimatorReport",
    "laplace_check",
    "duality_check",
    "marked_moment_check",
    "mark_identities_check",
    "DensityCurve",
    "kde",
    "EcfCurve",
    "ecf",
    "ecf_reference_linear",
    "dyadic_modulus_limit",
    "rajchman_demo",
]


@dataclass(frozen=True)
class EstimatorReport:
    """One verified identity: estimate vs reference with its pass rule.

    A report passes when |estimate - reference| <= 4 * SE with SE the
    sample standard deviation over sqrt(nsamples); z is that deviation in
    units of SE.
    """

    name: str
    estimate: complex | float
    reference: complex | float
    standard_error: float
    nsamples: int

    @property
    def deviation(self) -> float:
        return abs(self.estimate - self.reference)

    @property
    def z(self) -> float:
        """deviation / SE; at SE = 0, nan for an exact match and inf otherwise."""
        if self.standard_error == 0.0:
            return math.nan if self.deviation == 0.0 else math.inf
        return float(self.deviation / self.standard_error)

    @property
    def passed(self) -> bool:
        return self.deviation <= 4.0 * self.standard_error

    def to_dict(self) -> dict:
        def enc(v):
            if isinstance(v, complex):
                return {"re": v.real, "im": v.imag}
            return float(v)

        return {
            "identity": self.name,
            "estimate": enc(self.estimate),
            "reference": enc(self.reference),
            "se": float(self.standard_error),
            "z": self.z if math.isfinite(self.z) else None,
            "n": int(self.nsamples),
            "rule": "4se",
            "pass": bool(self.passed),
        }


def _standard_error(samples: np.ndarray) -> float:
    n = samples.size
    return float(np.std(samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def _mean_report(name: str, samples: np.ndarray, reference: float) -> EstimatorReport:
    """Report for E[samples] = reference."""
    return EstimatorReport(
        name=name,
        estimate=float(np.mean(samples)),
        reference=float(reference),
        standard_error=_standard_error(samples),
        nsamples=samples.size,
    )


def _paired_report(name: str, lhs: np.ndarray, rhs: np.ndarray) -> EstimatorReport:
    """Report for E[lhs] = E[rhs] with variance taken on the paired difference."""
    return EstimatorReport(
        name=name,
        estimate=float(np.mean(lhs)),
        reference=float(np.mean(rhs)),
        standard_error=_standard_error(lhs - rhs),
        nsamples=lhs.size,
    )


# ---------------------------------------------------------------------------
# measure-level identities
# ---------------------------------------------------------------------------

def laplace_check(
    model: IntensityModel,
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    nsamples: int,
    seed: int,
    name: str = "laplace",
) -> EstimatorReport:
    """E exp(i (N - nu)(f)) against the exponential formula by quadrature.

    f(times, marks) must be bounded and time-homogeneous; the reference
    integrates (1 - cos f) + i (f - sin f) against the intensity.
    """
    batch = sample_batch(model, nsamples, seed)
    vals = np.asarray(f(batch.times, batch.marks), dtype=float)
    nu_f = model.nu_integrate(lambda xs: f(np.zeros(len(xs)), xs))
    tilde = batch.sum_per_sample(vals) - nu_f
    z = np.exp(1j * tilde)
    est = complex(np.mean(z))
    if nsamples > 1:
        se = math.sqrt((np.var(z.real, ddof=1) + np.var(z.imag, ddof=1)) / nsamples)
    else:
        se = 0.0
    re_part = model.nu_integrate(lambda xs: 1.0 - np.cos(f(np.zeros(len(xs)), xs)))
    im_part = model.nu_integrate(
        lambda xs: np.asarray(f(np.zeros(len(xs)), xs)) - np.sin(f(np.zeros(len(xs)), xs))
    )
    ref = complex(np.exp(-complex(re_part, im_part)))
    return EstimatorReport(name=name, estimate=est, reference=ref, standard_error=se, nsamples=nsamples)


# samples per block of duality_check: bounds the memory of its derived
# batches; each sample is computed alone, so no float depends on it
DUALITY_BLOCK = 16384


def duality_check(
    model: IntensityModel,
    G: Functional,
    g: Callable[[np.ndarray], np.ndarray],
    nsamples: int,
    seed: int,
    name: str = "duality",
) -> tuple[EstimatorReport, EstimatorReport]:
    """Both directions of the add/remove duality for H(w, x) = G(w) g(x).

    Adding a particle drawn from the normalized intensity and weighting by
    the total mass gives an unbiased one-draw quadrature of the intensity
    integral; it is paired per sample with the configuration-sum side.
    G is evaluated on batches: the sampled one, its with_atom (the drawn
    atoms added) and its leave_one_out (each atom removed in turn).
    """
    lam = model.rate * model.horizon
    sigma_g = model.sigma_integrate(g)
    batch = sample_batch(model, nsamples, seed)
    rng = substream(seed, 1)
    taus = rng.uniform(0.0, model.horizon, size=nsamples)
    chis = model.sample_marks(rng, nsamples)
    g_extra = np.asarray(g(chis), dtype=float)
    g_cfg, lhs_p, rhs_p, lhs_m = (np.empty(nsamples) for _ in range(4))
    for lo, hi in chunk_ranges(nsamples, DUALITY_BLOCK):
        part = batch.samples(lo, hi)
        g_atoms = np.asarray(g(part.marks), dtype=float) if part.marks.size else np.zeros(0)
        g_cfg[lo:hi] = batch_values(G, part)[:, 0]
        added = batch_values(G, part.with_atom(taus[lo:hi], chis[lo:hi]))[:, 0]
        lhs_p[lo:hi] = lam * added * g_extra[lo:hi]
        rhs_p[lo:hi] = g_cfg[lo:hi] * part.reduce_per_sample(np.add, g_atoms)
        # part's rows, and so the leave_one_out samples, run in time order:
        # the bincount adds each sample's terms in time order
        removed = batch_values(G, part.leave_one_out())[:, 0]
        lhs_m[lo:hi] = part.sum_per_sample(removed * g_atoms)
    rhs_m = g_cfg * model.horizon * sigma_g
    return (
        _paired_report(f"{name}[add]", lhs_p, rhs_p),
        _paired_report(f"{name}[remove]", lhs_m, rhs_m),
    )


def marked_moment_check(
    model: IntensityModel,
    F: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    F_mean: Callable[[np.ndarray, np.ndarray], np.ndarray],
    F_sq_mean: Callable[[np.ndarray, np.ndarray], np.ndarray],
    nsamples: int,
    seed: int,
    name: str = "marked_second_moment",
) -> EstimatorReport:
    """Second moment of an integral against the uniformly marked measure.

    F(times, marks, r) is the per-atom integrand; F_mean and F_sq_mean are
    its closed first and second moments in the auxiliary mark.  Conditional
    on the configuration, the expectation of (sum F)^2 over marks equals
    (sum F_mean)^2 - sum F_mean^2 + sum F_sq_mean; the two sides are paired
    per sample.
    """
    batch = sample_batch(model, nsamples, seed)
    total = batch.times.size
    r = substream(seed, 1).random(total)
    if total:
        fv = np.asarray(F(batch.times, batch.marks, r), dtype=float)
        fm = np.asarray(F_mean(batch.times, batch.marks), dtype=float)
        f2 = np.asarray(F_sq_mean(batch.times, batch.marks), dtype=float)
        lhs = batch.sum_per_sample(fv) ** 2
        rhs = (
            batch.sum_per_sample(fm) ** 2
            - batch.sum_per_sample(fm**2)
            + batch.sum_per_sample(f2)
        )
    else:
        lhs = rhs = np.zeros(nsamples)
    return _paired_report(name, lhs, rhs)


def mark_identities_check(
    model: IntensityModel,
    F: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    F_mean: Callable[[np.ndarray, np.ndarray], np.ndarray],
    nsamples: int,
    n_inner: int,
    seed: int,
    name: str = "mark_identity",
) -> tuple[EstimatorReport, EstimatorReport]:
    """Product and sum identities for the marked measure, 0 < F <= 1.

    Per configuration, the inner Monte Carlo mean over auxiliary marks of
    prod_a F (resp. sum_a F) is compared with prod_a F_mean (resp.
    sum_a F_mean).  F(times, marks, r) receives r of shape
    (n_atoms, n_inner) and must broadcast mark-derived columns against it
    (e.g. via x[:, None]).
    """
    batch = sample_batch(model, nsamples, seed)
    total = batch.times.size
    if total == 0:
        ones, zeros = np.ones(nsamples), np.zeros(nsamples)
        return (
            _paired_report(f"{name}[product]", ones, ones),
            _paired_report(f"{name}[sum]", zeros, zeros),
        )
    r = substream(seed, 1).random((total, n_inner))
    fv = np.asarray(F(batch.times, batch.marks, r), dtype=float).reshape(total, n_inner)
    if fv.min() <= 0.0 or fv.max() > 1.0 + 1e-12:
        raise ValueError(f"{name}: F must take values in (0, 1]")
    fm = np.asarray(F_mean(batch.times, batch.marks), dtype=float)
    lhs1 = np.exp(batch.sum_per_sample(np.log(fv))).mean(axis=1)
    rhs1 = np.exp(batch.sum_per_sample(np.log(fm)))
    lhs2 = batch.sum_per_sample(fv).mean(axis=1)
    rhs2 = batch.sum_per_sample(fm)
    return (
        _paired_report(f"{name}[product]", lhs1, rhs1),
        _paired_report(f"{name}[sum]", lhs2, rhs2),
    )


# ---------------------------------------------------------------------------
# density diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityCurve:
    """Gaussian-kernel density estimate on a grid (1-d or 2-d)."""

    dim: int
    grid: tuple[np.ndarray, ...]
    density: np.ndarray | None
    bandwidth: tuple[float, ...]
    integral: float
    degenerate: bool
    nsamples: int
    atom: tuple[float, ...] | None = None  # location when the sample is degenerate

    def to_csv(self) -> str:
        if self.dim == 1:
            return csv_text("x,density", zip(self.grid[0], self.density))
        gx, gy = self.grid
        rows = ((x, y, self.density[i, j]) for i, x in enumerate(gx) for j, y in enumerate(gy))
        return csv_text("x,y,density", rows)


# KDE grid points: per axis in 1-d, and per axis of the 2-d tensor grid
KDE_GRID_1D = 512
KDE_GRID_2D = 128


def _silverman_1d(data: np.ndarray) -> float:
    std = float(np.std(data))
    q75, q25 = np.percentile(data, [75, 25])
    spread = min(std, (q75 - q25) / 1.34) or std
    return 0.9 * spread * data.size ** (-0.2)


def kde(
    F: Functional,
    model: IntensityModel,
    nsamples: int,
    seed: int,
) -> DensityCurve:
    """Gaussian kernel density estimate of the law of F (out_dim <= 2).

    The bandwidth is the Silverman rule in 1-d and the per-axis scaled
    standard deviation in 2-d; the grid extends four bandwidths beyond the
    sample range so that the trapezoid mass is 1 up to kernel tails.  A
    zero-variance sample is flagged degenerate.
    """
    if F.out_dim > 2:
        raise FunctionalError(f"kernel density estimates ship for out_dim <= 2, got {F.out_dim}")
    data = batch_values(F, sample_batch(model, nsamples, seed))
    if not np.all(np.isfinite(data)):
        raise FunctionalError("non-finite functional values in the sample")
    stds = data.std(axis=0)
    if np.any(stds == 0.0):
        return DensityCurve(
            dim=F.out_dim,
            grid=(),
            density=None,
            bandwidth=(0.0,) * F.out_dim,
            integral=1.0,
            degenerate=True,
            nsamples=nsamples,
            atom=tuple(float(v) for v in data[0]),
        )
    if F.out_dim == 1:
        x = data[:, 0]
        h = _silverman_1d(x)
        gx = np.linspace(x.min() - 4 * h, x.max() + 4 * h, KDE_GRID_1D)
        dens = np.exp(-0.5 * ((gx[:, None] - x[None, :]) / h) ** 2).sum(axis=1)
        dens /= nsamples * h * math.sqrt(2.0 * math.pi)
        mass = float(np.trapezoid(dens, gx))
        return DensityCurve(1, (gx,), dens, (h,), mass, False, nsamples)
    # two-dimensional: product Gaussian kernel, per-axis bandwidth
    n = nsamples
    factor = n ** (-1.0 / 6.0)
    hs = tuple(float(s) * factor for s in stds)
    gx = np.linspace(data[:, 0].min() - 4 * hs[0], data[:, 0].max() + 4 * hs[0], KDE_GRID_2D)
    gy = np.linspace(data[:, 1].min() - 4 * hs[1], data[:, 1].max() + 4 * hs[1], KDE_GRID_2D)
    kx = np.exp(-0.5 * ((gx[:, None] - data[None, :, 0]) / hs[0]) ** 2)
    ky = np.exp(-0.5 * ((gy[:, None] - data[None, :, 1]) / hs[1]) ** 2)
    dens = kx @ ky.T / (n * 2.0 * math.pi * hs[0] * hs[1])
    mass = float(np.trapezoid(np.trapezoid(dens, gy, axis=1), gx))
    return DensityCurve(2, (gx, gy), dens, hs, mass, False, nsamples)


@dataclass(frozen=True)
class EcfCurve:
    """Empirical characteristic-function modulus with its flat error band."""

    u: np.ndarray
    modulus: np.ndarray
    se_band: float
    nsamples: int

    def to_csv(self) -> str:
        return csv_text("u,modulus,se", ((u, m, self.se_band) for u, m in zip(self.u, self.modulus)))


def ecf(
    F: Functional,
    model: IntensityModel,
    nsamples: int,
    u_grid: np.ndarray,
    seed: int,
) -> EcfCurve:
    """|phi_hat(u)| over the grid for a scalar functional; a non-finite phase u * F raises FunctionalError."""
    if F.out_dim != 1:
        raise ValueError("characteristic-function diagnostic needs a scalar functional")
    data = batch_values(F, sample_batch(model, nsamples, seed))[:, 0]
    u = np.asarray(u_grid, dtype=float)
    # the largest |u * F| is the product of the largest factors; Python floats overflow to inf without a warning
    u_abs, f_abs = float(np.max(np.abs(u), initial=0.0)), float(np.max(np.abs(data), initial=0.0))
    if not math.isfinite(u_abs * f_abs):
        raise FunctionalError(f"characteristic-function phase u * F is not finite: max |u| {u_abs:g}, max |F| {f_abs:g}")
    mod = np.empty(u.size)
    for i, ui in enumerate(u):
        mod[i] = abs(np.mean(np.exp(1j * ui * data)))
    return EcfCurve(u, mod, 1.0 / math.sqrt(nsamples), nsamples)


def ecf_reference_linear(model: IntensityModel, u_grid: np.ndarray) -> np.ndarray:
    """Closed-form |phi(u)| of the compensated first coordinate (N - nu)(x_1).

    The modulus of the exponential formula is exp(-nu(1 - cos(u x_1))),
    evaluated by the model quadrature (a finite sum for atomic families).
    """
    out = np.empty(len(u_grid))
    for i, u in enumerate(np.asarray(u_grid, dtype=float)):
        out[i] = math.exp(-model.nu_integrate(lambda xs: 1.0 - np.cos(u * xs[:, 0])))
    return out


def dyadic_modulus_limit() -> float:
    """exp(-sum_{j>=0} (1 - cos(pi / 2^j))): the constant modulus at u = 2^k pi.

    The series converges geometrically; truncation stops when the summand
    drops below 1e-16.
    """
    s = 0.0
    j = 0
    while True:
        term = 1.0 - math.cos(math.pi / 2.0**j)
        s += term
        j += 1
        if term < 1e-16 and j > 4:
            break
    return math.exp(-s)


def rajchman_demo(
    model: IntensityModel,
    k_max: int = 8,
    nsamples: int = 0,
    seed: int = 0,
    k_min: int = 0,
) -> dict:
    """Constant characteristic-function modulus at u = 2^k pi, k = k_min..k_max, on the dyadic model.

    The law of the compensated linear functional is continuous but its
    characteristic function does not vanish along this geometric sequence:
    on the atoms 2^-n, n = n_start..n_max, the modulus at k = n_start..n_max - 4
    is dyadic_modulus_limit() ** horizon to within 7e-4.  The closed-form
    route resolves the ~0.03 moduli exactly, with an optional Monte Carlo
    overlay.
    """
    ks = list(range(k_min, k_max + 1))
    u = np.array([2.0**k * math.pi for k in ks])
    closed = ecf_reference_linear(model, u)
    out = {
        "u_exponents": ks,
        "closed_modulus": closed.tolist(),
        "limit": dyadic_modulus_limit() ** model.horizon,
    }
    if nsamples:
        from .functionals import make_path_eval

        F = make_path_eval(model, model.horizon)
        curve = ecf(F, model, nsamples, u, seed)
        out["mc_modulus"] = curve.modulus.tolist()
        out["mc_se"] = curve.se_band
    return out
