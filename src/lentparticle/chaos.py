"""Multiple Poisson integrals, their algebraic identities, and second quantization.

Multiple integrals are computed by the lent-particle rule for chaos:
lending a particle at mark x turns I_n(u tensor n) into I_n + n u(x) I_(n-1)
(the difference operator D_x I_n = n u(x) I_(n-1)).  On the empty
configuration I_n = (-nu(u))^n, so lending a configuration's atoms one by
one builds I_0..I_n on it with one stable update per atom.  Equal-factor
kernels reach every chaos: by polarization a symmetrized product of n
factors is a finite signed sum of equal-factor kernels.  The exponential
generating series and the product formula then hold pathwise and serve as
tests, not definitions.  The same derivative, read as the closed mark
derivative at lent atom i, n I_(n-1)(cfg minus atom i) grad u(x_i), makes
Gamma[I_i, I_j] the engine's carre_du_champ, with all n rows in one pass.

The shipped bottom semigroup is keep-or-resample: each mark is kept with
probability exp(-t) or redrawn from the normalized jump measure, and
ResamplingSemigroup.move is the one draw of that motion; it draws fresh
marks only for the slots it resamples.  The motion is symmetric, exactly
simulatable, and has the closed form p_t u = exp(-t) u + (1 - exp(-t))
mean_sigma(u), so sigma(p_t u) = sigma(u) and its second quantization can
be checked without nested approximation error, by one blocked inner Monte
Carlo of RESAMPLING_REPS motions per block (the Mehler and chaos checks).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .configuration import (
    BatchedConfigurations,
    Configuration,
    IntensityModel,
    sample_batch,
)
from .diagnostics import EstimatorReport, _mean_report, _paired_report
from .functionals import Functional, _lent_row, stack_functionals
from .lent_particle import GammaSpec, carre_du_champ
from .rng import chunk_ranges, substream

__all__ = [
    "MarkFunction",
    "ChaosError",
    "multiple_integral_equal",
    "multiple_integral_functional",
    "multiple_integral_batch",
    "exp_series_check",
    "orthogonality_mc",
    "chaos_gamma_closed",
    "product_formula_check",
    "ResamplingSemigroup",
    "pt_apply",
    "pt_symmetry_check",
    "mehler_exponential_check",
    "second_quantization_check",
]

MAX_DEGREE = 8

# motions per block of the resampling checks: a block holds RESAMPLING_REPS // n_inner samples
RESAMPLING_REPS = 640_000


class ChaosError(ValueError):
    """Raised for degree caps, radius violations, or missing gradients."""


@dataclass(frozen=True)
class MarkFunction:
    """A bounded mark function with an optional gradient, both vectorized.

    fn maps marks (n, d) -> (n,); grad, when present, maps (n, d) -> (n, d)
    and is required by the closed chaos carre-du-champ formula.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    sup_bound: float
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = "u"

    def __call__(self, marks: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(marks), dtype=float)

    def gradient(self, marks: np.ndarray) -> np.ndarray:
        if self.grad is None:
            raise ChaosError(f"mark function {self.label!r} has no gradient")
        return np.asarray(self.grad(marks), dtype=float)


# ---------------------------------------------------------------------------
# multiple integrals by lending atoms
# ---------------------------------------------------------------------------

def _lend_integrals(counts: np.ndarray, offsets: np.ndarray, vals: np.ndarray, nu_u: float, n: int) -> np.ndarray:
    """I_0..I_n of the equal kernel on every sample of a flat batch, shape (n + 1, nsamples) + vals.shape[1:].

    Sample i has the kernel values vals[offsets[i]:offsets[i + 1]]; trailing
    axes of vals are independent copies of it.  Each sample starts empty,
    where I_k = (-nu(u))^k, and lends its atoms in row order: lending a value
    v adds k v I_(k-1) to I_k, for k descending.  Samples run longest first,
    so the samples still lending at slot r are a prefix and every update is a
    contiguous slice.  One configuration skips that setup and lends in floats.
    """
    if counts.size == 1 and vals.ndim == 1:
        lent = [(-nu_u) ** k for k in range(n + 1)]
        slots = ((lent, v) for v in vals[offsets[0]:offsets[1]].tolist())
        order = None
    else:
        lent = np.empty((n + 1, counts.size) + vals.shape[1:])
        for k in range(n + 1):
            lent[k] = (-nu_u) ** k
        top = int(counts.max(initial=0))
        # a stable sort on the smallest unsigned keys that hold the counts is a radix sort
        order = np.argsort((top - counts).astype(np.min_scalar_type(top)), kind="stable")
        first = offsets[order]
        active = counts.size - np.cumsum(np.bincount(counts))[:top]
        slots = (([row[:m] for row in lent], vals[first[:m] + r]) for r, m in enumerate(active))
    # rows: I_0..I_n of the samples still lending (views into the batch, or the floats of one sample)
    for rows, v in slots:
        for k in range(n, 0, -1):
            rows[k] += k * v * rows[k - 1]
    if order is None:
        return np.array(lent).reshape((n + 1, 1))
    out = np.empty_like(lent)
    out[:, order] = lent
    return out


def _config_integrals(cfg: Configuration, u: MarkFunction, nu_u: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """u at the atoms of cfg and I_0..I_n of u's equal kernels on it."""
    vals = u(cfg.marks) if cfg.n_atoms else np.zeros(0)
    return vals, _lend_integrals(np.array([cfg.n_atoms]), np.array([0, cfg.n_atoms]), vals, nu_u, n)[:, 0]


def multiple_integral_equal(
    cfg: Configuration,
    model: IntensityModel,
    u: MarkFunction,
    n: int,
    nu_u: float | None = None,
) -> float:
    """I_n of the equal-factor kernel, by lending the atoms of cfg one by one."""
    if n > MAX_DEGREE:
        raise ChaosError(f"degree {n} > {MAX_DEGREE} unsupported")
    if nu_u is None:
        nu_u = model.nu_integrate(u)
    return float(_config_integrals(cfg, u, nu_u, n)[1][n])


def _leave_one_out_integrals(vals: np.ndarray, nu_u: float, k: int) -> np.ndarray:
    """I_k of the equal kernel without each atom of one configuration, from its kernel values vals (n,).

    I_k = sum_j k!/(k-j)! (-nu(u))^(k-j) e_j, where e_j without atom i is sum_(a+b=j) e_a(atoms before i)
    e_b(atoms after i): one cumsum per degree for the prefix and suffix sums, and no division.
    """
    n = vals.size
    # e[a, 0, i]: e_a of the atoms before atom i; e[a, 1, n - 1 - i]: e_a of the atoms after it
    e = np.zeros((k + 1, 2, n))
    e[0] = 1.0
    ends = np.array((vals[:-1], vals[:0:-1]))
    for a in range(1, k + 1):
        np.multiply(ends, e[a - 1, :, :-1]).cumsum(axis=1, out=e[a, :, 1:])
    w = [math.perm(k, j) * (-nu_u) ** (k - j) for j in range(k + 1)]
    hankel = np.array([w[a:] + [0.0] * a for a in range(k + 1)])  # entry (a, b): w[a + b], zero past k
    return np.einsum("ai,ab,bi->i", e[:, 0], hankel, e[:, 1, ::-1])


def multiple_integral_functional(
    model: IntensityModel, u: MarkFunction, n: int, label: str | None = None
) -> Functional:
    """cfg -> I_n(u tensor n); lent_jacobians' row at atom i is n I_(n-1)(cfg minus atom i) grad u(x_i).

    add_derivative is its one-row case.  A kernel without a gradient raises
    ChaosError in closed mode once there are atoms; n = 0 has zero rows.
    """
    nu_u = model.nu_integrate(u)

    def value(cfg: Configuration) -> np.ndarray:
        return np.array([multiple_integral_equal(cfg, model, u, n, nu_u=nu_u)])

    def lent_jacobians(cfg: Configuration) -> np.ndarray:
        if n == 0 or cfg.n_atoms == 0:
            return np.zeros((cfg.n_atoms, 1, model.dim))
        lower = _leave_one_out_integrals(u(cfg.marks), nu_u, n - 1)
        return (n * lower)[:, None, None] * u.gradient(cfg.marks)[:, None, :]

    label = label or f"I_{n}[{u.label}]"
    return Functional(label, 1, model.dim, value, partial(_lent_row, lent_jacobians), lent_jacobians=lent_jacobians)


# ---------------------------------------------------------------------------
# pathwise algebraic identities
# ---------------------------------------------------------------------------

def exp_series_check(
    cfg: Configuration,
    model: IntensityModel,
    u: MarkFunction,
    t: float,
    n_max: int,
) -> float:
    """Pathwise residual of the exponential generating series of the chaos.

    prod_atoms (1 + t u) * exp(-t nu(u)) is compared with the partial sum
    sum_{n<=n_max} t^n/n! I_n(u tensor n); the residual is bounded by the
    Taylor tail (|t| sup|u|)^(n_max+1) e^(|t| nu(|u|)).
    """
    radius = abs(t) * u.sup_bound
    if radius >= 0.5:
        raise ChaosError(f"series radius violated: |t| sup|u| = {radius} >= 1/2")
    nu_u = model.nu_integrate(u)
    vals, full = _config_integrals(cfg, u, nu_u, n_max)
    lhs = float(np.prod(1.0 + t * vals)) * math.exp(-t * nu_u)
    rhs = 0.0
    for n in range(0, n_max + 1):
        rhs += t**n / math.factorial(n) * float(full[n])
    return abs(lhs - rhs)


def product_formula_check(
    cfg: Configuration,
    model: IntensityModel,
    u: MarkFunction,
    v: MarkFunction,
    s: float,
    t: float,
) -> float:
    """Relative residual of the two-kernel generating identity.

    exp(N log(1+su) - s nu(u)) exp(N log(1+tv) - t nu(v)) equals
    exp(N log(1+su+tv+stuv) - nu(su+tv+stuv)) exp(st nu(uv)) exactly; both
    sides are evaluated independently.
    """
    if abs(s) * u.sup_bound >= 0.5 or abs(t) * v.sup_bound >= 0.5:
        raise ChaosError("product-formula radius violated")
    nu_u = model.nu_integrate(u)
    nu_v = model.nu_integrate(v)
    nu_uv = model.nu_integrate(lambda xs: u(xs) * v(xs))
    if cfg.n_atoms:
        uv_u, uv_v = u(cfg.marks), v(cfg.marks)
    else:
        uv_u = uv_v = np.zeros(0)
    lhs = math.exp(float(np.sum(np.log1p(s * uv_u))) - s * nu_u) * math.exp(
        float(np.sum(np.log1p(t * uv_v))) - t * nu_v
    )
    mixed = s * uv_u + t * uv_v + s * t * uv_u * uv_v
    nu_mixed = s * nu_u + t * nu_v + s * t * nu_uv
    rhs = math.exp(float(np.sum(np.log1p(mixed))) - nu_mixed) * math.exp(s * t * nu_uv)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


# ---------------------------------------------------------------------------
# vectorized sampling of chaos statistics
# ---------------------------------------------------------------------------

def multiple_integral_batch(batch: BatchedConfigurations, u: MarkFunction, nu_u: float, n: int) -> np.ndarray:
    """I_n(u tensor n) on every configuration of the batch, shape (nsamples,); nu_u = nu(u)."""
    vals = u(batch.marks) if batch.times.size else np.zeros(0)
    return _lend_integrals(batch.counts, batch.offsets, vals, nu_u, n)[n]


def orthogonality_mc(
    model: IntensityModel,
    u: MarkFunction,
    v: MarkFunction,
    degrees: tuple[int, ...],
    nsamples: int,
    seed: int,
) -> list[EstimatorReport]:
    """Monte Carlo E[I_m(u...) I_n(v...)] against delta_mn n! <u, v>^n, one report per cell of degrees x degrees.

    Cells run m-major, and cell (m, n) lends its own batch of nsamples from the stream seed + 3m + n,
    so the cells are independent.  nu(u), nu(v) and <u, v> = nu(uv) are integrated once per grid.
    """
    if max(degrees) > MAX_DEGREE:
        raise ChaosError(f"degrees must be <= {MAX_DEGREE}")
    nu_u = model.nu_integrate(u)
    nu_v = model.nu_integrate(v)
    inner = model.nu_integrate(lambda xs: u(xs) * v(xs))
    reports = []
    for m in degrees:
        for n in degrees:
            batch = sample_batch(model, nsamples, seed + 3 * m + n)
            prod = multiple_integral_batch(batch, u, nu_u, m) * multiple_integral_batch(batch, v, nu_v, n)
            ref = math.factorial(n) * inner**n if m == n else 0.0
            reports.append(_mean_report(f"orthogonality[m={m},n={n}]", prod, ref))
            del batch, prod  # one cell's batch at a time: free it before the next is drawn
    return reports


# ---------------------------------------------------------------------------
# chaos carre du champ
# ---------------------------------------------------------------------------

def chaos_gamma_closed(
    cfg: Configuration,
    model: IntensityModel,
    u: MarkFunction,
    v: MarkFunction,
    i: int,
    j: int,
    spec: GammaSpec,
) -> float:
    """Carre du champ of the pair (I_i(u tensor i), I_j(v tensor j)) by the engine.

    Lending the particle at an atom gives each multiple integral the closed
    mark derivative of multiple_integral_functional, so the entry is

        Gamma = i j sum_atoms I_{i-1}(u; w minus atom) I_{j-1}(v; w minus atom)
                          gamma[u, v](mark),

    the off-diagonal entry of carre_du_champ on the stacked pair.
    """
    if max(i, j) > MAX_DEGREE or min(i, j) < 1:
        raise ChaosError("degrees must lie in 1..8")
    pair = stack_functionals(
        [multiple_integral_functional(model, u, i), multiple_integral_functional(model, v, j)]
    )
    return float(carre_du_champ(pair, cfg, spec).matrix[0, 1])


# ---------------------------------------------------------------------------
# keep-or-resample semigroup and second quantization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResamplingSemigroup:
    """Bottom semigroup: keep each mark with probability exp(-t), else resample."""

    model: IntensityModel

    def keep_prob(self, t: float) -> float:
        if t < 0.0:
            raise ChaosError("semigroup time must be >= 0")
        return math.exp(-t)

    def move(self, rng: np.random.Generator, marks: np.ndarray, t: float, n_inner: int) -> np.ndarray:
        """n_inner independent motions of the marks (n, d), shape (n, n_inner, d).

        Draws the keep mask (n, n_inner), then one fresh mark per resampled slot in row order.
        """
        n, d = marks.shape
        keep = rng.random((n, n_inner)) < self.keep_prob(t)
        moved = np.repeat(marks, n_inner, axis=0)
        resampled = np.flatnonzero(~keep)
        moved[resampled] = self.model.sample_marks(rng, resampled.size)
        return moved.reshape(n, n_inner, d)


def pt_apply(sg: ResamplingSemigroup, u: MarkFunction, t: float) -> MarkFunction:
    """Closed form of the semigroup action: exp(-t) u + (1-exp(-t)) mean_sigma(u)."""
    q = sg.keep_prob(t)
    mean_u = sg.model.sigma_integrate(u) / sg.model.rate
    grad = None
    if u.grad is not None:
        grad = lambda marks: q * u.gradient(marks)
    return MarkFunction(
        fn=lambda marks: q * u(marks) + (1.0 - q) * mean_u,
        sup_bound=q * u.sup_bound + (1.0 - q) * abs(mean_u),
        grad=grad,
        label=f"p_{t:g}[{u.label}]",
    )


def pt_symmetry_check(
    sg: ResamplingSemigroup,
    u: MarkFunction,
    v: MarkFunction,
    t: float,
    nsamples: int,
    seed: int,
) -> EstimatorReport:
    """Self-adjointness under the normalized jump law: E[u p_t v] = E[v p_t u]."""
    rng = substream(seed)
    marks = sg.model.sample_marks(rng, nsamples)
    ptu, ptv = pt_apply(sg, u, t), pt_apply(sg, v, t)
    diff = u(marks) * ptv(marks) - v(marks) * ptu(marks)
    return _mean_report(f"pt_symmetry[t={t:g}]", diff, 0.0)


def _resampled_means(
    sg: ResamplingSemigroup, u: Callable, ptu: Callable, t: float, nsamples: int, n_inner: int,
    seed: int, tags: tuple[int, int], stat: Callable[[BatchedConfigurations, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Per sample, the mean over n_inner motions of stat(u at the moved marks), and stat(ptu at the marks).

    stat maps per-atom values (total,) or (total, n_inner) to per-sample ones.  Block k holds
    RESAMPLING_REPS // n_inner samples from (seed, tags[0], k) and moves them by (seed, tags[1], k).
    A sample without atoms has nothing to move: its mean is its one value, as a mean of equal floats need not be.
    """
    if n_inner < 1:
        raise ChaosError(f"n_inner must be >= 1, got {n_inner}")
    inner, outer = np.empty(nsamples), np.empty(nsamples)
    for blk, (lo, hi) in enumerate(chunk_ranges(nsamples, max(1, RESAMPLING_REPS // n_inner))):
        batch = sample_batch(sg.model, hi - lo, seed, tags[0], blk)
        outer[lo:hi] = stat(batch, ptu(batch.marks))
        moved_u = u(sg.move(substream(seed, tags[1], blk), batch.marks, t, n_inner).reshape(-1, sg.model.dim))
        reps = stat(batch, moved_u.reshape(-1, n_inner))
        inner[lo:hi] = np.where(batch.counts > 0, reps.mean(axis=1), reps[:, 0])
        del moved_u, reps  # u at the motions and its statistics are the peak: free them before the next block
    return inner, outer


def mehler_exponential_check(
    sg: ResamplingSemigroup,
    g: MarkFunction,
    t: float,
    nsamples: int,
    n_inner: int,
    seed: int,
) -> EstimatorReport:
    """Exponential intertwining: inner-MC of prod(1 + g) after per-atom motion
    against prod(1 + p_t g) on the same configuration, paired per sample.

    Requires -1/2 <= g <= 0 so both sides stay in (0, 1].
    """
    ptg = pt_apply(sg, g, t)

    def ptg_in_range(marks: np.ndarray) -> np.ndarray:
        gv = g(marks)
        if np.any(gv < -0.5 - 1e-12) or np.any(gv > 1e-12):
            raise ChaosError("exponential check needs -1/2 <= g <= 0")
        return ptg(marks)

    prod = lambda batch, vals: np.exp(batch.sum_per_sample(np.log1p(vals)))
    lhs, rhs = _resampled_means(sg, g, ptg_in_range, t, nsamples, n_inner, seed, (101, 202), prod)
    return _paired_report(f"mehler_exponential[t={t:g}]", lhs, rhs)


def second_quantization_check(
    sg: ResamplingSemigroup,
    u: MarkFunction,
    n: int,
    t: float,
    nsamples: int,
    n_inner: int,
    seed: int,
) -> EstimatorReport:
    """Chaos-wise action of the lifted semigroup.

    Per configuration, the inner-MC mean of I_n(u tensor n) after per-atom
    keep-or-resample motion is compared with I_n((p_t u) tensor n) on the
    unmoved configuration; the paired residual is zero in expectation.
    Both sides compensate with nu(u): nu(p_t u) = nu(u) exactly.
    """
    if n > 6:
        raise ChaosError("second-quantization check ships for n <= 6")
    nu_u = sg.model.nu_integrate(u)
    i_n = lambda batch, vals: _lend_integrals(batch.counts, batch.offsets, vals, nu_u, n)[n]
    inner, ref = _resampled_means(sg, u, pt_apply(sg, u, t), t, nsamples, n_inner, seed, (303, 404), i_n)
    return _mean_report(f"second_quantization[n={n},t={t:g}]", inner - ref, 0.0)
