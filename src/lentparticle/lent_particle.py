"""The lent-particle engine.

The carre-du-champ matrix of a functional F on the Poisson space is a sum
over the atoms (t, x) of the configuration: lend the atom back, take the
added-particle Jacobian D = dF(cfg_without_atom + atom(t, y))/dy at y = x,
and add D alpha(x) D^T, where alpha is the bottom carre du champ on marks.
Its a.s. nondegeneracy is the standard density diagnostic.  Closed mode
takes all n of them from the functional's lent_jacobians in one array pass
where it ships one (area, time_integral), else from add_derivative atom by
atom; fd mode takes all of them from one stacked central-difference call.
Either way the (n, m, d) stack is checked once for shape and finiteness.

The companion gradient sample (the "sharp") realizes the same matrix as a
conditional second moment: with one auxiliary uniform mark r per atom and
zero-mean orthonormal basis functions eta on [0, 1],
sharp = sum_a D_a L(x_a) eta(r_a) with L L^T = alpha satisfies
E[sharp sharp^T | configuration] = Gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .configuration import (
    Configuration,
    IntensityModel,
    csv_text,
    remove_index,
    sample_configuration,
)
from .functionals import (  # noqa: F401  finite_difference_add_derivative: named by perfbench/spans.py
    Functional,
    _value_rows,
    compose_functional,
    finite_difference_add_derivative,
    finite_difference_lent_jacobians,
    stack_functionals,
)
from .rng import substream

__all__ = [
    "GammaSpec",
    "CarreDuChamp",
    "EngineError",
    "carre_du_champ",
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


#: carre_du_champ and _sharp run under it: overflow warns nothing; a non-finite D or total raises EngineError
_engine_errstate = np.errstate(over="ignore", invalid="ignore")


def _chol_with_jitter(a: np.ndarray) -> np.ndarray:
    tr = float(np.trace(a))
    if tr == 0.0:
        return np.zeros_like(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        jitter = 1e-14 * tr
        return np.linalg.cholesky(a + jitter * np.eye(a.shape[0]))


def _transpose(a: np.ndarray) -> np.ndarray:
    """Each matrix of a (n, p, q) stack transposed: (n, q, p)."""
    return a.transpose(0, 2, 1)


@dataclass(frozen=True)
class GammaSpec:
    """Bottom carre du champ alpha on marks with a factorization realizing it.

    `alpha` maps a mark array (n, d) to the stack of symmetric PSD (n, d, d)
    matrices alpha(x_a); `chol` maps it to factors L(x_a) with
    L L^T = alpha(x_a) (default: a jittered Cholesky of each matrix).
    """

    label: str
    dim: int
    alpha: Callable[[np.ndarray], np.ndarray]
    chol: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.chol is None:
            object.__setattr__(self, "chol", self._jittered_chol)

    def _jittered_chol(self, xs: np.ndarray) -> np.ndarray:
        return np.reshape([_chol_with_jitter(a) for a in self.alpha(xs)], (len(xs), self.dim, self.dim))

    def eta(self, r: np.ndarray) -> np.ndarray:
        """sqrt(2) cos(2 pi j r) for j = 1..d, zero-mean and orthonormal on [0, 1): shape r.shape + (d,)."""
        j = np.arange(1, self.dim + 1)
        return math.sqrt(2.0) * np.cos(2.0 * math.pi * j * np.asarray(r)[..., None])

    def validate(self, probe_marks: np.ndarray) -> None:
        """Check that alpha is symmetric and PSD and that chol factors it, at every probe mark."""
        xs = np.atleast_2d(probe_marks)
        a = self.alpha(xs)
        w = np.linalg.eigvalsh(0.5 * (a + _transpose(a)))
        l = self.chol(xs)
        scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))[:, None, None]
        for bad, what in (
            (~np.isclose(a, _transpose(a), atol=1e-12).all(axis=(1, 2)), "alpha not symmetric"),
            (w.min(axis=1) < -1e-10 * np.maximum(1.0, np.abs(w).max(axis=1)), "alpha not PSD"),
            (~np.isclose(l @ _transpose(l), a, atol=1e-10 * scale).all(axis=(1, 2)), "cholesky factor mismatch"),
        ):
            if bad.any():
                i = int(np.argmax(bad))
                raise EngineError(f"{what} at {xs[i]}: alpha = {a[i].tolist()}")


def _eye(dim: int) -> np.ndarray:
    if dim < 1:
        raise EngineError(f"mark dimension must be >= 1, got {dim}")
    return np.eye(dim)


def diag_squares_gamma(dim: int = 1) -> GammaSpec:
    """alpha(x) = diag(x_i^2): differentiation weighted by the jump size."""
    eye = _eye(dim)
    return GammaSpec(
        label=f"diag_x2(d={dim})",
        dim=dim,
        alpha=lambda xs: eye * (np.asarray(xs, dtype=float) ** 2)[:, None, :],
        chol=lambda xs: eye * np.abs(np.asarray(xs, dtype=float))[:, None, :],
    )


def identity_gamma(dim: int = 1) -> GammaSpec:
    eye = _eye(dim)
    eyes = lambda xs: np.tile(eye, (len(xs), 1, 1))
    return GammaSpec(label=f"identity(d={dim})", dim=dim, alpha=eyes, chol=eyes)


def norm_scaled_gamma(dim: int = 2) -> GammaSpec:
    """alpha(x) = |x|^2 I: rotation-invariant weight, vanishing at the origin."""
    eye = _eye(dim)

    def squared_norms(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return xs[:, None, :] @ xs[:, :, None]  # (n, 1, 1)

    return GammaSpec(
        label=f"polar(d={dim})",
        dim=dim,
        alpha=lambda xs: squared_norms(xs) * eye,
        chol=lambda xs: np.sqrt(squared_norms(xs)) * eye,
    )


def curve_gamma() -> GammaSpec:
    """Pull-back carre du champ for a jump measure carried by the parabola u -> (u, u^2).

    With parameter u = x_1, tangent v = (1, 2u) and base carre du champ u^2
    on the parameter, alpha = u^2 v v^T: rank one by construction.
    """

    def parameter_and_tangent(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = np.asarray(xs, dtype=float)[:, 0]
        return u, np.column_stack([np.ones_like(u), 2.0 * u])

    def alpha(xs: np.ndarray) -> np.ndarray:
        u, v = parameter_and_tangent(xs)
        return (u * u)[:, None, None] * (v[:, :, None] * v[:, None, :])

    def chol(xs: np.ndarray) -> np.ndarray:
        u, v = parameter_and_tangent(xs)
        l = np.zeros((len(u), 2, 2))
        l[:, :, 0] = np.sqrt(u * u)[:, None] * v
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
    """The pathwise m x m matrix with its (n, m, m) stack of per-atom PSD contributions."""

    matrix: np.ndarray
    contributions: np.ndarray

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
    """D at every atom with that atom lent back, shape (n, m, d).

    Closed mode takes them from F.lent_jacobians in one pass where F ships
    it, else removes each atom and calls add_derivative.  fd mode, and a
    functional without a closed derivative, gets them all from one stacked
    call: through value_marks where F ships it, else through value per row.
    The (n, m, d) stack is checked once, in every mode: its shape, and the
    first atom with a non-finite entry.
    """
    if mode not in ("closed", "fd"):
        raise EngineError(f"unknown mode {mode!r}")
    n, m, d = cfg.n_atoms, F.out_dim, cfg.dim
    if mode == "fd" or not F.has_closed_derivative:
        jacs = finite_difference_lent_jacobians(F.value_marks or partial(_value_rows, F.value), cfg, m)
    elif F.lent_jacobians is not None:
        jacs = np.asarray(F.lent_jacobians(cfg), dtype=float)
    else:
        jacs = np.empty((n, m, d))
        for i, (t, x) in enumerate(zip(cfg.times, cfg.marks)):
            jac = np.atleast_2d(F.add_derivative(remove_index(cfg, i), float(t), x))
            if jac.shape != (m, d):
                raise EngineError(f"atom {i}: derivative shape {jac.shape}, expected {(m, d)}")
            jacs[i] = jac
    if jacs.shape != (n, m, d):
        raise EngineError(f"derivative shape {jacs.shape}, expected {(n, m, d)}")
    finite = np.isfinite(jacs).all(axis=(1, 2))
    if not finite.all():
        i = int(np.argmin(finite))
        raise EngineError(f"atom {i} at (t={cfg.times[i]}, x={cfg.marks[i]}): non-finite derivative {jacs[i]}")
    return jacs


@_engine_errstate
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
    contribs = jacs @ spec.alpha(cfg.marks) @ _transpose(jacs)
    contribs = 0.5 * (contribs + _transpose(contribs))
    # summed in atom order, as the lend loop visits the atoms
    total = sum(contribs, np.zeros((F.out_dim, F.out_dim)))
    if not np.isfinite(total).all():
        i = int(np.argmin(np.isfinite(np.cumsum(contribs, axis=0)).all(axis=(1, 2))))
        raise EngineError(f"atom {i} at (t={cfg.times[i]}, x={cfg.marks[i]}): the carre du champ turns non-finite")
    return CarreDuChamp(matrix=total, contributions=contribs)


@_engine_errstate
def _sharp(F: Functional, cfg: Configuration, spec: GammaSpec, aux: np.ndarray, mode: str) -> np.ndarray:
    """sum_a D_a L(x_a) eta(r_a) for each row of aux marks (s, n): shape (s, m)."""
    jacs = _atom_jacobians(F, cfg, mode)
    return np.einsum("amk,sak->sm", jacs @ spec.chol(cfg.marks), spec.eta(aux))


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

def _nondegenerate(mats: np.ndarray, tol: float) -> np.ndarray:
    """det M > tol prod_k M_kk for each PSD matrix M of a (..., m, m) stack; a zero M_kk fails.

    The ratio is det of M's correlation matrix: in [0, 1] (Hadamard), blind to the scale of F's coordinates.
    """
    diag_prod = np.prod(np.diagonal(mats, axis1=-2, axis2=-1), axis=-1)
    return (diag_prod > 0.0) & (np.linalg.det(mats) > tol * diag_prod)


def survey_row(
    F: Functional,
    model: IntensityModel,
    spec: GammaSpec,
    seed: int,
    i: int,
    tol: float,
    mode: str = "closed",
) -> tuple[tuple, bool]:
    """Survey row of the configuration drawn from stream (seed, i), and whether its matrix is nondegenerate.

    The row is (i, n_atoms, det, trace, min_eig, simplified_fraction), where
    the last entry is the fraction of atoms whose single contribution
    already is nondegenerate; both verdicts are _nondegenerate's.
    """
    cfg = sample_configuration(model, seed, i)
    cdc = carre_du_champ(F, cfg, spec, mode=mode)
    ok = _nondegenerate(np.concatenate((cdc.matrix[None], cdc.contributions)), tol)
    simp = float(np.mean(ok[1:])) if cfg.n_atoms else 0.0
    return (i, cfg.n_atoms, cdc.det, cdc.trace, cdc.min_eigenvalue, simp), bool(ok[0])


@dataclass(frozen=True)
class SurveyResult:
    """Nondegeneracy survey over sampled configurations: its rows and each row's verdict."""

    functional: str
    rows: tuple[tuple, ...]  # (global index i, n_atoms, det, trace, min_eig, simplified_fraction)
    passed: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise EngineError("nsamples must be >= 1")

    @classmethod
    def collect(cls, functional: str, scored: Sequence[tuple[tuple, bool]]) -> "SurveyResult":
        """The result of survey_row outputs, in row order."""
        return cls(functional, tuple(row for row, _ in scored), tuple(ok for _, ok in scored))

    @property
    def nsamples(self) -> int:
        return len(self.rows)

    @property
    def frequency(self) -> float:
        """Fraction of rows whose matrix is nondegenerate."""
        return sum(self.passed) / self.nsamples

    def to_csv(self) -> str:
        return csv_text("seed,n_atoms,det,trace,min_eig,simplified_criterion_fraction", self.rows)


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
    matrix plus the fraction of atoms whose single contribution already is
    nondegenerate (the stronger per-atom sufficient condition, which can
    only hold when the functional dimension does not exceed the mark
    dimension).  A matrix M is nondegenerate when det M > tol prod_k M_kk.
    Row i is drawn from stream (seed, i).
    """
    return SurveyResult.collect(F.label, [survey_row(F, model, spec, seed, i, tol, mode) for i in range(nsamples)])
