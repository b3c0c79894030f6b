"""The lent-particle engine.

The carre-du-champ matrix of a functional F on the Poisson space is
computed atom by atom: for each atom (t, x) of the configuration, the atom
is removed (lent back to the intensity), the added-particle Jacobian
D = dF(cfg_without_atom + atom(t, y))/dy is evaluated at y = x, and the
atom contributes D alpha(x) D^T, where alpha is the bottom carre du champ
on marks.  The sum over atoms is the m x m matrix whose a.s. nondegeneracy
is the standard density diagnostic.

The companion gradient sample (the "sharp") realizes the same matrix as a
conditional second moment: with one auxiliary uniform mark r per atom and
zero-mean orthonormal basis functions eta on [0, 1],
sharp = sum_a D_a L(x_a) eta(r_a) with L L^T = alpha satisfies
E[sharp sharp^T | configuration] = Gamma.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .configuration import (
    Configuration,
    IntensityModel,
    MarkedConfiguration,
    remove_index,
    sample_configuration,
)
from .functionals import (
    Functional,
    compose_functional,
    finite_difference_add_derivative,
    stack_functionals,
)
from .intensities import CurveMap, parabola_curve
from .rng import substream

__all__ = [
    "GammaSpec",
    "CarreDuChamp",
    "EngineError",
    "carre_du_champ",
    "sharp_sample",
    "sharp_sample_many",
    "chain_rule_check",
    "det_positivity_survey",
    "SurveyResult",
    "survey_row",
    "diag_squares_gamma",
    "identity_gamma",
    "norm_scaled_gamma",
    "curve_gamma",
    "GAMMA_BUILDERS",
    "build_gamma",
]


class EngineError(RuntimeError):
    """Raised when a derivative is non-finite or dimensions disagree."""


def _default_basis(k: int) -> tuple[Callable[[np.ndarray], np.ndarray], ...]:
    """Zero-mean orthonormal functions on [0, 1): sqrt(2) cos(2 pi j r)."""
    return tuple(
        (lambda r, j=j: math.sqrt(2.0) * np.cos(2.0 * math.pi * j * np.asarray(r))) for j in range(1, k + 1)
    )


def _chol_with_jitter(a: np.ndarray) -> np.ndarray:
    tr = float(np.trace(a))
    if tr == 0.0:
        return np.zeros_like(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        jitter = 1e-14 * tr
        return np.linalg.cholesky(a + jitter * np.eye(a.shape[0]))


@dataclass(frozen=True)
class GammaSpec:
    """Bottom carre du champ alpha(x) with a factorization realizing it.

    `alpha` maps a mark (d,) to a symmetric PSD (d, d) matrix; `chol`
    returns L(x) with L L^T = alpha(x); `mark_basis` holds k >= d zero-mean
    orthonormal functions on [0, 1) used by the gradient sampler.
    """

    label: str
    dim: int
    alpha: Callable[[np.ndarray], np.ndarray]
    chol: Callable[[np.ndarray], np.ndarray] | None = None
    mark_basis: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = None

    def __post_init__(self) -> None:
        if self.chol is None:
            object.__setattr__(self, "chol", lambda x: _chol_with_jitter(self.alpha(x)))
        if self.mark_basis is None:
            object.__setattr__(self, "mark_basis", _default_basis(self.dim))
        if len(self.mark_basis) < self.dim:
            raise EngineError("need at least d mark-basis functions")

    def eta(self, r: np.ndarray) -> np.ndarray:
        """First d basis functions at r: shape r.shape + (d,)."""
        r = np.asarray(r)
        return np.stack([self.mark_basis[j](r) for j in range(self.dim)], axis=-1)

    def validate(self, probe_marks: np.ndarray) -> None:
        """Check symmetry/PSD of alpha, the factorization, and the basis."""
        for x in np.atleast_2d(probe_marks):
            a = self.alpha(x)
            if not np.allclose(a, a.T, atol=1e-12):
                raise EngineError(f"alpha not symmetric at {x}")
            w = np.linalg.eigvalsh(0.5 * (a + a.T))
            if w.min() < -1e-10 * max(1.0, abs(w).max()):
                raise EngineError(f"alpha not PSD at {x}: eigenvalues {w}")
            l = self.chol(x)
            if not np.allclose(l @ l.T, a, atol=1e-10 * max(1.0, abs(a).max())):
                raise EngineError(f"cholesky factor mismatch at {x}")
        nodes, weights = np.polynomial.legendre.leggauss(200)
        r = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        vals = np.stack([b(r) for b in self.mark_basis])
        means = vals @ w
        gram = (vals * w) @ vals.T
        if np.abs(means).max() > 1e-8:
            raise EngineError(f"basis not zero-mean: {means}")
        if np.abs(gram - np.eye(len(self.mark_basis))).max() > 1e-8:
            raise EngineError("basis not orthonormal on [0, 1)")


def diag_squares_gamma(dim: int = 1) -> GammaSpec:
    """alpha(x) = diag(x_i^2): differentiation weighted by the jump size."""
    return GammaSpec(
        label=f"diag_x2(d={dim})",
        dim=dim,
        alpha=lambda x: np.diag(np.asarray(x, dtype=float) ** 2),
        chol=lambda x: np.diag(np.abs(np.asarray(x, dtype=float))),
    )


def identity_gamma(dim: int = 1) -> GammaSpec:
    return GammaSpec(
        label=f"identity(d={dim})",
        dim=dim,
        alpha=lambda x: np.eye(dim),
        chol=lambda x: np.eye(dim),
    )


def norm_scaled_gamma(dim: int = 2) -> GammaSpec:
    """alpha(x) = |x|^2 I: rotation-invariant weight, vanishing at the origin."""
    return GammaSpec(
        label=f"polar(d={dim})",
        dim=dim,
        alpha=lambda x: float(np.dot(x, x)) * np.eye(dim),
        chol=lambda x: float(np.linalg.norm(x)) * np.eye(dim),
    )


def curve_gamma(
    curve: CurveMap | None = None,
    base_gamma: Callable[[float], float] = lambda u: u * u,
) -> GammaSpec:
    """Pull-back carre du champ for a jump measure carried by a planar curve.

    With tangent v(u) = (f'(u), g'(u)) and base carre du champ gtilde(u) on
    the parameter, alpha = gtilde(u) v v^T: rank one by construction.
    """
    curve = curve or parabola_curve()

    def alpha(x: np.ndarray) -> np.ndarray:
        u = float(curve.inverse(np.atleast_2d(x))[0])
        v = curve.tangent(np.array([u]))[0]
        return base_gamma(u) * np.outer(v, v)

    def chol(x: np.ndarray) -> np.ndarray:
        u = float(curve.inverse(np.atleast_2d(x))[0])
        v = curve.tangent(np.array([u]))[0]
        w = math.sqrt(max(base_gamma(u), 0.0)) * v
        l = np.zeros((2, 2))
        l[:, 0] = w
        return l

    return GammaSpec(label="curve", dim=2, alpha=alpha, chol=chol)


GAMMA_BUILDERS: dict[str, dict] = {
    "diag_x2": {"build": lambda p: diag_squares_gamma(**p), "params": "dim=1"},
    "identity": {"build": lambda p: identity_gamma(**p), "params": "dim=1"},
    "polar": {"build": lambda p: norm_scaled_gamma(**p), "params": "dim=2"},
    "curve": {"build": lambda p: curve_gamma(**p), "params": "(parabola u -> (u, u^2))"},
}


def build_gamma(label: str, **params) -> GammaSpec:
    if label not in GAMMA_BUILDERS:
        raise KeyError(f"unknown gamma spec {label!r}; known: {sorted(GAMMA_BUILDERS)}")
    return GAMMA_BUILDERS[label]["build"](dict(params))


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CarreDuChamp:
    """The pathwise m x m matrix with its per-atom PSD contributions."""

    matrix: np.ndarray
    contributions: tuple[np.ndarray, ...]

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    @property
    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix).min())


def _atom_jacobians(F: Functional, cfg: Configuration, mode: str) -> np.ndarray:
    """The lend loop: D at every atom with that atom lent back, shape (n, m, d)."""
    if mode not in ("closed", "fd"):
        raise EngineError(f"unknown mode {mode!r}")
    m, d = F.out_dim, cfg.dim
    closed = mode == "closed" and F.has_closed_derivative
    out = np.empty((cfg.n_atoms, m, d))
    for i in range(cfg.n_atoms):
        t_i = float(cfg.times[i])
        x_i = cfg.marks[i]
        reduced = remove_index(cfg, i)
        if closed:
            jac = np.atleast_2d(F.add_derivative(reduced, t_i, x_i))
        else:
            jac = finite_difference_add_derivative(F.value, reduced, t_i, x_i, m)
        if jac.shape != (m, d):
            raise EngineError(f"atom {i}: derivative shape {jac.shape}, expected {(m, d)}")
        if not np.all(np.isfinite(jac)):
            raise EngineError(f"atom {i} at (t={t_i}, x={x_i}): non-finite derivative {jac}")
        out[i] = jac
    return out


def carre_du_champ(
    F: Functional,
    cfg: Configuration,
    spec: GammaSpec,
    mode: str = "closed",
) -> CarreDuChamp:
    """Sum over atoms of D alpha D^T with the atom lent back before differentiating.

    mode "closed" uses the functional's own derivative when it has one;
    mode "fd" forces the central finite-difference oracle.
    """
    if spec.dim != cfg.dim or F.mark_dim != cfg.dim:
        raise EngineError(
            f"dimension mismatch: cfg d={cfg.dim}, spec d={spec.dim}, functional d={F.mark_dim}"
        )
    jacs = _atom_jacobians(F, cfg, mode)
    total = np.zeros((F.out_dim, F.out_dim))
    contribs: list[np.ndarray] = []
    for jac, x_i in zip(jacs, cfg.marks):
        contrib = jac @ spec.alpha(x_i) @ jac.T
        contrib = 0.5 * (contrib + contrib.T)
        contribs.append(contrib)
        total += contrib
    return CarreDuChamp(matrix=total, contributions=tuple(contribs))


def _sharp(F: Functional, cfg: Configuration, spec: GammaSpec, aux: np.ndarray, mode: str) -> np.ndarray:
    """sum_a D_a L(x_a) eta(r_a) for each row of aux marks (s, n): shape (s, m)."""
    jacs = _atom_jacobians(F, cfg, mode)
    chols = np.reshape([spec.chol(x) for x in cfg.marks], (cfg.n_atoms, spec.dim, spec.dim))
    return np.einsum("amk,sak->sm", jacs @ chols, spec.eta(aux))


def sharp_sample(F: Functional, mcfg: MarkedConfiguration, spec: GammaSpec, mode: str = "closed") -> np.ndarray:
    """One gradient sample: sum_a D_a L(x_a) eta(r_a), shape (m,)."""
    return _sharp(F, mcfg.base, spec, mcfg.aux_marks[None, :], mode)[0]


def sharp_sample_many(
    F: Functional,
    cfg: Configuration,
    spec: GammaSpec,
    nsamples: int,
    seed: int,
    mode: str = "closed",
) -> np.ndarray:
    """Gradient samples over independent auxiliary marks, shape (nsamples, m).

    The per-atom Jacobians are fixed by the configuration, so only the
    auxiliary marks are redrawn; the empirical second moment converges to
    the carre-du-champ matrix.
    """
    return _sharp(F, cfg, spec, substream(seed).random((nsamples, cfg.n_atoms)), mode)


def chain_rule_check(
    phi: Callable[[np.ndarray], float],
    grad_phi: Callable[[np.ndarray], np.ndarray],
    functionals: Sequence[Functional],
    cfg: Configuration,
    spec: GammaSpec,
    mode: str = "closed",
) -> float:
    """Pathwise residual of the first-order functional calculus.

    Compares the carre du champ of phi(F_1, ..., F_n) against
    sum_ij phi_i'(F) phi_j'(F) Gamma[F_i, F_j]; both sides are computed
    independently through the engine.
    """
    stacked = stack_functionals(list(functionals), label="stack")
    composite = compose_functional(phi, grad_phi, stacked)
    lhs = carre_du_champ(composite, cfg, spec, mode=mode).matrix[0, 0]
    grad = np.atleast_1d(np.asarray(grad_phi(np.atleast_1d(stacked.value(cfg))), dtype=float))
    big = carre_du_champ(stacked, cfg, spec, mode=mode).matrix
    rhs = float(grad @ big @ grad)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# determinant survey
# ---------------------------------------------------------------------------

def _scale_aware_pass(det: float, trace: float, m: int, tol: float) -> bool:
    if trace <= 0.0:
        return det > 0.0
    return det > tol * (trace / m) ** m


def survey_row(
    F: Functional,
    model: IntensityModel,
    spec: GammaSpec,
    seed: int,
    i: int,
    tol: float,
    mode: str = "closed",
) -> tuple:
    """Survey row of the configuration drawn from stream (seed, i).

    (i, n_atoms, det, trace, min_eig, simplified_fraction), where the last
    entry is the fraction of atoms whose single contribution already passes
    the scale-aware rule.
    """
    cfg = sample_configuration(model, seed, i)
    cdc = carre_du_champ(F, cfg, spec, mode=mode)
    m = F.out_dim
    simp = 0.0
    if cdc.contributions:
        simp = np.mean(
            [
                _scale_aware_pass(float(np.linalg.det(c)), float(np.trace(c)), m, tol)
                for c in cdc.contributions
            ]
        )
    return (i, cfg.n_atoms, cdc.det, cdc.trace, cdc.min_eigenvalue, float(simp))


@dataclass(frozen=True)
class SurveyResult:
    """Nondegeneracy survey over sampled configurations, built from survey rows."""

    functional: str
    out_dim: int
    tol: float
    rows: tuple[tuple, ...]  # (global index i, n_atoms, det, trace, min_eig, simplified_fraction)

    def __post_init__(self) -> None:
        if not self.rows:
            raise EngineError("nsamples must be >= 1")

    @property
    def nsamples(self) -> int:
        return len(self.rows)

    @property
    def frequency(self) -> float:
        """Fraction of rows with det above the scale-aware threshold."""
        hits = sum(_scale_aware_pass(r[2], r[3], self.out_dim, self.tol) for r in self.rows)
        return hits / self.nsamples

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("seed,n_atoms,det,trace,min_eig,simplified_criterion_fraction\n")
        for row in self.rows:
            buf.write(
                f"{row[0]},{row[1]},{row[2]:.17g},{row[3]:.17g},{row[4]:.17g},{row[5]:.17g}\n"
            )
        return buf.getvalue()


def det_positivity_survey(
    F: Functional,
    model: IntensityModel,
    spec: GammaSpec,
    nsamples: int,
    seed: int,
    tol: float = 1e-12,
    mode: str = "closed",
) -> SurveyResult:
    """Estimate how often the carre-du-champ matrix is nondegenerate.

    Reports, per sampled configuration, det/trace/min eigenvalue of the
    matrix plus the fraction of atoms whose single contribution already has
    positive determinant (the stronger per-atom sufficient condition, which
    can only hold when the functional dimension does not exceed the mark
    dimension).  Row i is drawn from stream (seed, i).
    """
    rows = tuple(survey_row(F, model, spec, seed, i, tol, mode) for i in range(nsamples))
    return SurveyResult(functional=F.label, out_dim=F.out_dim, tol=tol, rows=rows)
