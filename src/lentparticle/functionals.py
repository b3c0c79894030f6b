"""Functionals of Poisson configurations with added-particle derivatives.

Each functional exposes two callables: ``value(cfg)``, the pathwise
evaluation F(w), and ``add_derivative(cfg, t, x)``, the (m x d) Jacobian of
x -> F(cfg + atom(t, x)) in the mark of the inserted atom.  The derivative
is taken only with respect to the mark; the insertion time enters as a
parameter.  This pair is exactly what the carre-du-champ engine consumes:
it lends a particle at each atom of the configuration, differentiates, and
takes the particle back before integrating against N.

Closed derivatives are provided where a pathwise formula exists; the SDE
has none and is differentiated by central finite differences.
All paths are the compensated paths of the truncated model: jump sums minus
the linear compensator drift t * mean.

Three optional hooks evaluate F many times in one call.  Two of them carry
the bits of ``value`` on every row: ``value_batch(batch)`` over the samples
of a ``BatchedConfigurations``, and ``value_marks(cfg, marks)`` at cfg's atom
times under each of K mark arrays ``(K, n, d)``.  The third,
``lent_jacobians(cfg)``, is the closed derivative of the lent-particle
formula: the ``(n, m, d)`` Jacobians at every atom of cfg with that atom
lent back, in one array pass.  area, time_integral and the chaos ``I_n``
ship it (prefix and suffix sums), a stack when all its parts do, and their
``add_derivative`` is its one-row case: the atom ``(t, x)`` is lent to cfg
by an unchecked insert and its row is read.  Lending an atom and taking
it back keeps the atom times, so fd Jacobians always come from one stacked
call on such mark arrays, ``finite_difference_lent_jacobians``: through
``value_marks`` where F ships it, a fast path, else through ``value`` on each
row.  Three functionals ship it, and each ``value`` is its one-row case:
- the jump SDE: its coefficient ``c(s, z, u)`` broadcasts over leading axes
  (``z (..., m)``, ``u (..., d)`` -> ``(..., m)``), so one Euler pass
  advances all K states, and its compensator drift is ``c(s, z, mean)``.
  One solver, ``_jump_sde``, holds the jump loop: a user ``c`` advances the
  drift by a step loop, one ``c`` call per Euler step, and the triangular
  preset by prefix sums over the steps, ``_SDE_SCAN_STEPS`` at a time, with
  the step loop's bits;
- the time integral: ``g`` (``(..., d) -> (..., m)``) and ``gprime``
  (``(..., d) -> (..., m, d)``) broadcast over leading axes, so all segments,
  quadrature nodes and mark sets go through one ``g`` call;
- the stochastic area: its prefix sums carry a leading K axis.

Every path functional reads the compensated path from three helpers:
``_prefix`` (the jump sums after 0, 1, ..., n atoms, with or without a
leading K axis), ``_segments`` (the inter-jump segments of an interval) and
``_path`` (Y at an array of points, right values or left limits).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .configuration import Atom, BatchedConfigurations, Configuration, IntensityModel, add_particle

__all__ = [
    "Functional",
    "FunctionalError",
    "batch_values",
    "finite_difference_add_derivative",
    "finite_difference_lent_jacobians",
    "stack_functionals",
    "compose_functional",
    "PiecewiseConstant",
    "make_path_eval",
    "make_doleans",
    "make_pair_doleans",
    "make_stochastic_area",
    "make_time_integral",
    "make_generalized_ou",
    "make_running_sup",
    "make_nearest_point",
    "make_jump_sde",
    "make_triangular_sde",
    "FUNCTIONAL_BUILDERS",
    "build_functional",
]


class FunctionalError(ValueError):
    """Raised for domain violations or incompatible parameters."""


@dataclass(frozen=True)
class Functional:
    """A configuration functional with its added-particle mark derivative."""

    label: str
    out_dim: int
    mark_dim: int
    value: Callable[[Configuration], np.ndarray]
    add_derivative: Callable[[Configuration, float, np.ndarray], np.ndarray]
    has_closed_derivative: bool = True
    # optional: the (nsamples, m) values of a whole batch, with value's bits on each config(i)
    value_batch: Callable[[BatchedConfigurations], np.ndarray] | None = None
    # optional: the (K, m) values at cfg's atom times under K mark arrays (K, n, d), with value's bits on each row
    value_marks: Callable[[Configuration, np.ndarray], np.ndarray] | None = None
    # optional: the closed (n, m, d) Jacobians at every atom of cfg with that atom lent back, in one pass
    lent_jacobians: Callable[[Configuration], np.ndarray] | None = None


def batch_values(F: Functional, batch: BatchedConfigurations) -> np.ndarray:
    """F at every sample of the batch, (nsamples, out_dim): value_batch, else value per sample."""
    if F.value_batch is not None:
        return F.value_batch(batch)
    rows = [np.atleast_1d(F.value(batch.config(i))) for i in range(batch.nsamples)]
    return np.array(rows, dtype=float).reshape(batch.nsamples, F.out_dim)


def _fd_steps(marks: np.ndarray) -> np.ndarray:
    """Central-difference steps (n, d) at every mark coordinate.

    h = max(1e-5, 1e-7 |x_k|), halved where x +- h e_k is the excluded zero mark.
    """
    h = np.maximum(1e-5, 1e-7 * np.abs(marks))
    others_zero = np.count_nonzero(marks, axis=1)[:, None] == (marks != 0)
    return np.where((np.abs(marks) == h) & others_zero, 0.5 * h, h)


def finite_difference_add_derivative(
    value: Callable[[Configuration], np.ndarray],
    cfg: Configuration,
    t: float,
    x: np.ndarray,
    out_dim: int,
) -> np.ndarray:
    """Central-difference Jacobian of the added-particle map x -> F(cfg + (t, x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size
    jac = np.empty((out_dim, d))
    for k, h in enumerate(_fd_steps(x[None])[0]):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fp = np.atleast_1d(value(add_particle(cfg, Atom(t, xp))))
        fm = np.atleast_1d(value(add_particle(cfg, Atom(t, xm))))
        jac[:, k] = (fp - fm) / (2.0 * h)
    return jac


# mark-set atoms (rows x n) per value_marks call in finite_difference_lent_jacobians
_FD_BLOCK_ATOMS = 1 << 14


def finite_difference_lent_jacobians(
    value_marks: Callable[[Configuration, np.ndarray], np.ndarray],
    cfg: Configuration,
    out_dim: int,
) -> np.ndarray:
    """Central-difference Jacobians at every atom with that atom lent back, shape (n, out_dim, d).

    Row (i, k, +-) of the value_marks calls is cfg.marks with mark i moved
    to x_i +- h e_k: the configuration remove_index(cfg, i) + (t_i, x_i +- h e_k),
    so atom i's Jacobian has the bits of finite_difference_add_derivative there.
    The 2 d n rows go in blocks of _FD_BLOCK_ATOMS // n, so memory grows as n, not n^2.
    """
    n, d = cfg.n_atoms, cfg.dim
    h = _fd_steps(cfg.marks)
    steps = np.stack([h, -h], axis=-1).ravel()  # row (i, k, +-) in C order
    atom, coord = np.divmod(np.arange(2 * d * n) // 2, d)
    vals = np.empty((2 * d * n, out_dim))
    block = max(1, _FD_BLOCK_ATOMS // max(n, 1))
    for lo in range(0, 2 * d * n, block):
        rows = np.arange(lo, min(lo + block, 2 * d * n))
        marks = np.broadcast_to(cfg.marks, (rows.size, n, d)).copy()
        marks[rows - lo, atom[rows], coord[rows]] += steps[rows]
        got = np.asarray(value_marks(cfg, marks))
        if got.shape != (rows.size, out_dim):
            raise FunctionalError(f"value_marks shape {got.shape}, expected {(rows.size, out_dim)}")
        vals[rows] = got
    vals = vals.reshape(n, d, 2, out_dim)
    return ((vals[:, :, 0] - vals[:, :, 1]) / (2.0 * h)[:, :, None]).transpose(0, 2, 1)


def _value_rows(value: Callable[[Configuration], np.ndarray], cfg: Configuration, marks: np.ndarray) -> np.ndarray:
    """value_marks from value: each mark array at cfg's times is a configuration remove_index + add_particle builds."""
    lent = (Configuration._from_arrays_unchecked(cfg.horizon, cfg.dim, cfg.times, x, cfg.intensity_ref) for x in marks)
    return np.array([np.atleast_1d(value(c)) for c in lent], dtype=float)


def _lent_row(lent_jacobians: Callable[[Configuration], np.ndarray], cfg: Configuration, t: float, x) -> np.ndarray:
    """add_derivative as lent_jacobians' one-row case: lend (t, x) to cfg and read that atom's row.

    The insert is unchecked, as in _value_rows, so the excluded zero mark may be lent too.
    """
    i = int(np.searchsorted(cfg.times, t))
    times = np.insert(cfg.times, i, t)
    marks = np.insert(cfg.marks, i, np.reshape(x, cfg.dim), axis=0)
    return lent_jacobians(Configuration._from_arrays_unchecked(cfg.horizon, cfg.dim, times, marks, cfg.intensity_ref))[i]


def with_fd_derivative(
    label: str, out_dim: int, mark_dim: int, value, value_batch=None, value_marks=None
) -> Functional:
    """Wrap a raw value map (and optional hooks) into a Functional differentiated by finite differences."""
    add_derivative = partial(finite_difference_add_derivative, value, out_dim=out_dim)
    return Functional(
        label, out_dim, mark_dim, value, add_derivative,
        has_closed_derivative=False, value_batch=value_batch, value_marks=value_marks,
    )


def stack_functionals(fs: Sequence[Functional], label: str | None = None) -> Functional:
    """Concatenate functionals into one vector-valued functional, with lent_jacobians when every part ships one."""
    if len({f.mark_dim for f in fs}) != 1:
        raise FunctionalError("stacked functionals must share the mark dimension")
    m = sum(f.out_dim for f in fs)

    def value(cfg: Configuration) -> np.ndarray:
        return np.concatenate([np.atleast_1d(f.value(cfg)) for f in fs])

    def add_derivative(cfg: Configuration, t: float, x: np.ndarray) -> np.ndarray:
        return np.vstack([f.add_derivative(cfg, t, x) for f in fs])

    parts = [f.lent_jacobians for f in fs]
    lent = None if None in parts else lambda cfg: np.concatenate([p(cfg) for p in parts], axis=1)
    closed = all(f.has_closed_derivative for f in fs)
    label = label or "+".join(f.label for f in fs)
    return Functional(label, m, fs[0].mark_dim, value, add_derivative, closed, lent_jacobians=lent)


def compose_functional(
    phi: Callable[[np.ndarray], float],
    grad_phi: Callable[[np.ndarray], np.ndarray],
    f: Functional,
    label: str = "phi(F)",
) -> Functional:
    """Scalar composition phi(F) with the chain-rule added-particle derivative.

    The gradient of phi is evaluated at F of the configuration with the
    particle added, which is the correct pathwise object before the
    particle is taken back.
    """

    def value(cfg: Configuration) -> np.ndarray:
        return np.atleast_1d(float(phi(np.atleast_1d(f.value(cfg)))))

    def add_derivative(cfg: Configuration, t: float, x: np.ndarray) -> np.ndarray:
        vals_plus = np.atleast_1d(f.value(add_particle(cfg, Atom(t, x))))
        d_inner = f.add_derivative(cfg, t, x)
        return np.atleast_2d(np.asarray(grad_phi(vals_plus), dtype=float) @ d_inner)

    return Functional(label, 1, f.mark_dim, value, add_derivative, f.has_closed_derivative)


# ---------------------------------------------------------------------------
# path helpers
# ---------------------------------------------------------------------------

def _prefix(marks: np.ndarray) -> np.ndarray:
    """Jump sums after 0, 1, ..., n atoms, in atom order: (..., n, d) -> (..., n + 1, d)."""
    out = np.zeros(marks.shape[:-2] + (marks.shape[-2] + 1, marks.shape[-1]))
    np.cumsum(marks, axis=-2, out=out[..., 1:, :])
    return out


def _segments(cfg: Configuration, start: float, end: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inter-jump segments of [start, end]: left ends, right ends, atoms at or before each left end."""
    inner = cfg.times[(cfg.times > start) & (cfg.times < end)]
    pts = np.concatenate([[start], inner, [end]])
    keep = pts[1:] > pts[:-1]
    a, b = pts[:-1][keep], pts[1:][keep]
    return a, b, np.searchsorted(cfg.times, a, side="right")


def _path(cfg: Configuration, mean: np.ndarray, s, side: str) -> np.ndarray:
    """Compensated path at the points s, shape s.shape + (d,): right values, or left limits if side is "left"."""
    s = np.asarray(s, dtype=float)
    return _prefix(cfg.marks)[np.searchsorted(cfg.times, s, side=side)] - s[..., None] * mean


def _check_window(t: float, horizon: float) -> None:
    if not (0.0 < t <= horizon):
        raise FunctionalError(f"evaluation time {t} outside (0, {horizon}]")


# ---------------------------------------------------------------------------
# worked functionals
# ---------------------------------------------------------------------------

def make_path_eval(model: IntensityModel, t: float) -> Functional:
    """The compensated path Y_t itself (one output per mark coordinate)."""
    _check_window(t, model.horizon)
    mean = model.mean
    d = model.dim
    eye = np.eye(d)
    zero = np.zeros((d, d))

    def value(cfg: Configuration) -> np.ndarray:
        return _path(cfg, mean, t, "right")

    def add_derivative(cfg: Configuration, alpha: float, x: np.ndarray) -> np.ndarray:
        return eye if alpha <= t else zero

    return Functional(f"path_eval(t={t})", d, d, value, add_derivative)


def _check_doleans_jumps(jumps: np.ndarray) -> None:
    if np.any(jumps <= -1.0):
        raise FunctionalError("exponential functional needs all marks > -1")


def _doleans_value(cfg: Configuration, mean: np.ndarray, t: float) -> float:
    # exp(Y_t) prod (1 + dY) exp(-dY) collapses to exp(-t*mean) prod (1 + dY)
    jumps = cfg.marks[: int(np.searchsorted(cfg.times, t, side="right")), 0]
    _check_doleans_jumps(jumps)
    return math.exp(-t * mean[0]) * float(np.prod(1.0 + jumps))


def make_doleans(model: IntensityModel, t: float) -> Functional:
    """The exponential of the compensated path: solution of dZ = Z_- dY."""
    _check_window(t, model.horizon)
    if model.dim != 1:
        raise FunctionalError("exponential functional ships for mark dimension 1")
    mean = model.mean

    def value(cfg: Configuration) -> np.ndarray:
        return np.array([_doleans_value(cfg, mean, t)])

    def add_derivative(cfg: Configuration, alpha: float, x: np.ndarray) -> np.ndarray:
        # adding a jump y at alpha <= t multiplies the value by (1 + y)
        if alpha > t:
            return np.zeros((1, 1))
        return np.array([[_doleans_value(cfg, mean, t)]])

    def value_batch(batch: BatchedConfigurations) -> np.ndarray:
        # factors of atoms after t are 1, so the in-order product is _doleans_value's
        live = batch.times <= t
        _check_doleans_jumps(batch.marks[live, 0])
        factors = np.where(live, 1.0 + batch.marks[:, 0], 1.0)
        return (math.exp(-t * mean[0]) * batch.reduce_per_sample(np.multiply, factors))[:, None]

    return Functional(f"doleans(t={t})", 1, 1, value, add_derivative, value_batch=value_batch)


def make_pair_doleans(model: IntensityModel, t: float) -> Functional:
    """The pair (Y_t, exponential of Y at t); derivative column (1, value)."""
    return stack_functionals(
        [make_path_eval(model, t), make_doleans(model, t)], label=f"pair_doleans(t={t})"
    )


def make_stochastic_area(model: IntensityModel, t: float) -> Functional:
    """(X1(t), X2(t), area), area = int X1(s-) dX2 - int X2(s-) dX1.

    Both coordinates are compensated paths; the stochastic integrals expand
    pathwise into jump sums plus the closed-form integral of the
    piecewise-linear path against the linear drift.  lent_jacobians reads
    every atom's Jacobian off one prefix sum of the marks; add_derivative
    is its one-row case.
    """
    _check_window(t, model.horizon)
    if model.dim != 2:
        raise FunctionalError("stochastic area needs mark dimension 2")
    mean = model.mean

    def value_marks(cfg: Configuration, marks: np.ndarray) -> np.ndarray:
        n = int(np.searchsorted(cfg.times, t, side="right"))
        ts, dj = cfg.times[:n], marks[:, :n]
        # J after i jumps, and X(tau_i-)
        jved = _prefix(dj)
        left = jved[:, :n] - ts[:, None] * mean
        area = np.sum(left[..., 0] * dj[..., 1] - left[..., 1] * dj[..., 0], axis=-1)
        # drift corrections -mu2 int X1 + mu1 int X2 with int X = int J - mu t^2/2
        int_x = np.einsum("kna,n->ka", jved[:, 1:], np.diff(np.append(ts, t))) - mean * 0.5 * t * t
        area += -mean[1] * int_x[:, 0] + mean[0] * int_x[:, 1]
        return np.column_stack([jved[:, n] - t * mean, area])

    def value(cfg: Configuration) -> np.ndarray:
        return value_marks(cfg, cfg.marks[None])[0]

    def lent_jacobians(cfg: Configuration) -> np.ndarray:
        # atom i at tau_i <= t: rows [[1, 0], [0, 1], [a, -b]], (b, a) = Y_t - x_i - 2 Y(tau_i-); after t, zero rows
        n = int(np.searchsorted(cfg.times, t, side="right"))
        jved = _prefix(cfg.marks[:n])
        b, a = (jved[n] - t * mean - cfg.marks[:n] - 2.0 * (jved[:n] - cfg.times[:n, None] * mean)).T
        out = np.zeros((cfg.n_atoms, 3, 2))
        out[:n, 0, 0] = out[:n, 1, 1] = 1.0
        out[:n, 2, 0], out[:n, 2, 1] = a, -b
        return out

    return Functional(
        f"area(t={t})", 3, 2, value, partial(_lent_row, lent_jacobians),
        value_marks=value_marks, lent_jacobians=lent_jacobians,
    )


_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _broadcast_check(fn: Callable, probes: Sequence[np.ndarray], shape: tuple[int, ...], name: str) -> None:
    """fn must map (2, .) probe arguments to (2,) + shape, each row equal to fn of that row alone."""
    expected = f"{name} must broadcast over leading axes, {' and '.join(str(p.shape) for p in probes)} -> {(2,) + shape}"
    try:
        rows = np.asarray(fn(*probes), dtype=float)
        points = np.array([np.asarray(fn(*row), dtype=float) for row in zip(*probes)])
    except (ValueError, TypeError, IndexError) as exc:
        raise FunctionalError(f"{expected}: {exc}") from exc
    if not (rows.shape == points.shape == (2,) + shape and np.allclose(rows, points, rtol=1e-12, atol=1e-12)):
        raise FunctionalError(f"{expected}, got rows {rows.shape} unlike the per-point rows {points.shape}")


def make_time_integral(
    model: IntensityModel,
    g: Callable[[np.ndarray], np.ndarray],
    gprime: Callable[[np.ndarray], np.ndarray],
    t: float = 1.0,
    label: str = "time_integral",
) -> Functional:
    """int_0^t g(Y_s) ds along the piecewise-linear compensated path.

    g maps (..., d) -> (..., m) and its Jacobian gprime (..., d) -> (..., m, d),
    both broadcasting over leading axes (checked on a (2, d) probe); m is read
    off g(0).  Integration is 8-point Gauss-Legendre per inter-jump segment,
    exact for the shipped polynomial probes, with every segment x node (x mark
    set) in one g call: value_marks integrates K mark arrays at once and value
    is its one-row case.  Lending atom i back restores the path, so its
    Jacobian is int_{tau_i}^t gprime(Y_s) ds: lent_jacobians integrates
    gprime over all segments in one call and sums the segments from each
    tau_i on by one suffix sum; add_derivative is its one-row case.
    """
    _check_window(t, model.horizon)
    mean = model.mean
    d = model.dim
    out_dim = np.atleast_1d(g(np.zeros(d))).size
    probe = np.array([[0.5], [-0.25]]) * np.arange(1, d + 1)
    _broadcast_check(g, [probe], (out_dim,), "g")
    _broadcast_check(gprime, [probe], (out_dim, d), "gprime")

    def weighted(fn: Callable, base: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Gauss-Legendre terms of int_a^b fn(base - s mean) ds for bases (..., S, d): shape (..., S, 8, ...), C order."""
        half = 0.5 * (b - a)
        s = (0.5 * (a + b))[:, None] + half[:, None] * _GL8_NODES  # (S, 8)
        vals = fn(base[..., None, :] - s[..., None] * mean)
        lead = base.ndim - 2
        w = (half[:, None] * _GL8_WEIGHTS).reshape(s.shape + (1,) * (vals.ndim - lead - 2))
        return np.ascontiguousarray(w * vals)

    def value_marks(cfg: Configuration, marks: np.ndarray) -> np.ndarray:
        a, b, counts = _segments(cfg, 0.0, t)
        # C order fixes the summation order, so each leading row gets the bits it gets alone
        return weighted(g, _prefix(marks)[:, counts], a, b).sum(axis=(1, 2))

    def value(cfg: Configuration) -> np.ndarray:
        return value_marks(cfg, cfg.marks[None])[0]

    def lent_jacobians(cfg: Configuration) -> np.ndarray:
        # atom i before t: int_{tau_i}^t gprime(Y_s) ds, the suffix sum from the segment starting at tau_i
        a, b, counts = _segments(cfg, 0.0, t)
        per_segment = weighted(gprime, _prefix(cfg.marks)[counts], a, b).sum(axis=1)
        suffix = np.cumsum(per_segment[::-1], axis=0)[::-1]
        n = int(np.searchsorted(cfg.times, t))
        out = np.zeros((cfg.n_atoms, out_dim, d))
        out[:n] = suffix[np.searchsorted(a, cfg.times[:n])]
        return out

    return Functional(
        f"{label}(t={t})", out_dim, d, value, partial(_lent_row, lent_jacobians),
        value_marks=value_marks, lent_jacobians=lent_jacobians,
    )


def make_generalized_ou(model: IntensityModel, x0: float, t: float) -> Functional:
    """exp(xi_t) (x0 + int_0^t exp(-xi_s-) d eta_s) for a 2-d driver (xi, eta).

    Mark coordinates are (xi-jump, eta-jump); the exponential of the
    piecewise-linear xi path is integrated in closed form on inter-jump
    segments, so the whole evaluation is quadrature-free.
    """
    _check_window(t, model.horizon)
    if model.dim != 2:
        raise FunctionalError("generalized O-U needs mark dimension 2 (xi, eta jumps)")
    if not (isinstance(x0, numbers.Real) and math.isfinite(x0)):
        raise FunctionalError(f"gou x0 must be a finite number, got {x0!r}")
    mean = model.mean
    mu_xi, mu_eta = float(mean[0]), float(mean[1])

    def discounted(cfg: Configuration, b: float) -> float:
        """x0 + int_[0,b] exp(-xi_s-) d eta_s: the eta jumps at times <= b, then the drift per segment."""
        jump_times = cfg.times[: int(np.searchsorted(cfg.times, b, side="right"))]
        jumps = np.exp(-_path(cfg, mean, jump_times, "left")[:, 0]) @ cfg.marks[: jump_times.size, 1]
        a, q, _ = _segments(cfg, 0.0, b)
        # int_a^q exp(-xi_s) ds with xi_s = xi_a - mu_xi (s - a)
        widths = q - a if mu_xi == 0.0 else np.expm1(mu_xi * (q - a)) / mu_xi
        return x0 + (jumps - mu_eta * (np.exp(-_path(cfg, mean, a, "right")[:, 0]) @ widths))

    def value(cfg: Configuration) -> np.ndarray:
        return np.array([math.exp(_path(cfg, mean, t, "right")[0]) * discounted(cfg, t)])

    def add_derivative(cfg: Configuration, alpha: float, x: np.ndarray) -> np.ndarray:
        if alpha > t:
            return np.zeros((1, 2))
        dxi, deta = np.asarray(x, dtype=float).reshape(2)
        front = math.exp(_path(cfg, mean, t, "right")[0] + dxi)
        disc = math.exp(-_path(cfg, mean, alpha, "left")[0])
        return np.array([[front * (discounted(cfg, alpha) + disc * deta), front * disc]])

    return Functional(f"gou(x0={x0},t={t})", 1, 2, value, add_derivative)


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-continuous piecewise-constant function on [0, inf)."""

    breaks: tuple[float, ...] = (0.0,)
    values: tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        if len(self.breaks) != len(self.values) or not self.breaks:
            raise FunctionalError("one value per breakpoint is required")
        if self.breaks[0] != 0.0 or any(
            b2 <= b1 for b1, b2 in zip(self.breaks, self.breaks[1:])
        ):
            raise FunctionalError("breakpoints must start at 0 and increase")

    def __call__(self, s: np.ndarray, side: str) -> np.ndarray:
        """Values at the points s: right values, or left limits if side is "left"."""
        i = np.searchsorted(self.breaks, s, side=side) - 1
        return np.asarray(self.values)[np.maximum(i, 0)]


def make_running_sup(
    model: IntensityModel, t: float, K: PiecewiseConstant | None = None
) -> Functional:
    """sup_{s<=t} (Y_s + K_s) for a piecewise-constant deterministic K.

    The path is piecewise linear between jump and breakpoint times, so the
    sup is attained at segment endpoints.  The added-particle derivative is
    1 when the post-insertion argmax lies at or after the insertion time
    (ties resolve to 1), else 0.
    """
    _check_window(t, model.horizon)
    if model.dim != 1:
        raise FunctionalError("running sup ships for mark dimension 1")
    K = K or PiecewiseConstant()
    mean = model.mean
    breaks = np.asarray(K.breaks)

    def heights(cfg: Configuration, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The event grid of [0, t] with alpha on it, and H = Y + K there: right values, left limits."""
        inner = np.concatenate([cfg.times, breaks])
        ev = np.unique(np.concatenate([[0.0, alpha, t], inner[(inner > 0.0) & (inner < t)]]))
        right, left = (_path(cfg, mean, ev, side)[:, 0] + K(ev, side) for side in ("right", "left"))
        return ev, right, left

    def value(cfg: Configuration) -> np.ndarray:
        ev, right, left = heights(cfg, 0.0)
        return np.array([np.concatenate([right, left[ev > 0.0]]).max()])

    def add_derivative(cfg: Configuration, alpha: float, x: np.ndarray) -> np.ndarray:
        if alpha > t:
            return np.zeros((1, 1))
        ev, right, left = heights(cfg, alpha)
        # the added jump lifts H from alpha on (right values there, left limits after it);
        # H before alpha is the right values before it and the left limits up to it
        after = np.concatenate([right[ev >= alpha], left[ev > alpha]]).max() + float(np.ravel(x)[0])
        before = np.concatenate([right[ev < alpha], left[(ev > 0.0) & (ev <= alpha)]]).max(initial=-math.inf)
        return np.array([[1.0 if after >= before else 0.0]])

    return Functional(f"sup(t={t})", 1, 1, value, add_derivative)


def make_nearest_point(model: IntensityModel) -> Functional:
    """Distance from the origin to the nearest mark (times are ignored).

    Empty configurations evaluate to +inf; diagnostics that use this
    functional condition on at least one atom.
    """
    d = model.dim

    def value(cfg: Configuration) -> np.ndarray:
        if cfg.n_atoms == 0:
            return np.array([math.inf])
        return np.array([float(np.min(np.linalg.norm(cfg.marks, axis=1)))])

    def add_derivative(cfg: Configuration, alpha: float, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        r = float(np.linalg.norm(x))
        if r > value(cfg)[0]:
            return np.zeros((1, d))
        return (x / r).reshape(1, d)

    return Functional("nearest", 1, d, value, add_derivative)


# Euler steps per prefix-sum chunk of the triangular drift: the scan holds 3 (chunk + 1) K floats for K states
_SDE_SCAN_STEPS = 512
# cap on t / euler_step, far above every shipped step (euler_step 1e-3 at t = 1 is 1,000 steps)
_SDE_MAX_STEPS = 1_000_000


def _jump_sde(
    model: IntensityModel,
    c: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
    t: float,
    euler_step: float,
    label: str,
    drift: Callable[[np.ndarray, float, float, int], np.ndarray],
) -> Functional:
    """The jump SDE solver: c at each atom; between atoms drift(state, a, h, nsteps), nsteps Euler steps of h from a."""
    _check_window(t, model.horizon)
    if not (math.isfinite(euler_step) and euler_step > 0.0):
        raise FunctionalError(f"euler step must be finite and positive, got {euler_step}")
    if not t / euler_step <= _SDE_MAX_STEPS:
        raise FunctionalError(
            f"euler_step = {euler_step} needs t / euler_step = {t / euler_step:.3g} Euler steps, "
            f"above the cap of {_SDE_MAX_STEPS:,}"
        )
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not np.all(np.isfinite(x0)):
        raise FunctionalError(f"initial state must be finite, got {x0}")
    m = x0.size
    # the solver adds c to its (K, m) states, so c's rows may broadcast to (m,), as a constant does
    probe = np.array([[0.5], [-0.25]]) * np.arange(1, m + model.dim + 1)
    _broadcast_check(
        lambda z, u: np.broadcast_to(c(0.0, z, u), z.shape[:-1] + (m,)), [probe[:, :m], probe[:, m:]], (m,), "c"
    )
    drift_free = bool(np.all(model.mean == 0.0))

    def advance(state: np.ndarray, a: float, b: float) -> np.ndarray:
        if b <= a or drift_free:
            return state
        nsteps = max(1, math.ceil((b - a) / euler_step))
        return drift(state, a, (b - a) / nsteps, nsteps)

    def value_marks(cfg: Configuration, marks: np.ndarray) -> np.ndarray:
        state = np.tile(x0, (len(marks), 1))
        s = 0.0
        for i in range(int(np.searchsorted(cfg.times, t, side="right"))):
            tau = float(cfg.times[i])
            state = advance(state, s, tau)
            state = state + c(tau, state, marks[:, i])
            s = tau
        return advance(state, s, t)

    def value(cfg: Configuration) -> np.ndarray:
        return value_marks(cfg, cfg.marks[None])[0]

    return with_fd_derivative(f"{label}(t={t})", m, model.dim, value, value_marks=value_marks)


def make_jump_sde(
    model: IntensityModel,
    c: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
    t: float,
    euler_step: float = 1e-2,
    label: str = "jump_sde",
) -> Functional:
    """Pure-jump SDE dX = c(s, X_-, u) dN~ solved pathwise; the state dimension is x0's size.

    Jumps apply c at each atom; between jumps the compensator drift
    -c(s, X, mean), exact when c is linear in the mark, is advanced by
    explicit Euler with step euler_step (skipped when the mean is zero),
    one c call per step.  t / euler_step may not exceed _SDE_MAX_STEPS.
    c must broadcast over leading axes, z (..., m) and u (..., d) to (..., m),
    checked on a probe, so the value_marks hook advances K states in one
    pass; value is its one-row case.  Derivatives are finite differences,
    all 2 d n of one configuration from one value_marks call.
    """
    mean = model.mean

    def step_loop(state: np.ndarray, a: float, h: float, nsteps: int) -> np.ndarray:
        s = a
        for _ in range(nsteps):
            state = state - h * c(s, state, mean)
            s += h
        return state

    return _jump_sde(model, c, x0, t, euler_step, label, step_loop)


def _triangular_c(s: float, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The triangular preset's coefficient: (u0, 2 z0 u0 + u1, z0 u0 + 2 u1)."""
    z0u0 = z[..., 0] * u[..., 0]
    out = np.empty(z0u0.shape + (3,))
    out[..., 0] = u[..., 0]
    out[..., 1] = 2.0 * z0u0 + u[..., 1]  # 2 (z0 u0) = (2 z0) u0: doubling is exact
    out[..., 2] = z0u0 + 2.0 * u[..., 1]
    return out


def make_triangular_sde(
    model: IntensityModel,
    z0: Sequence[float] = (0.0, 0.0, 0.0),
    t: float = 1.0,
    euler_step: float = 1e-2,
) -> Functional:
    """Triangular 3-d system driven by a 2-d jump path.

    dZ1 = dY1, dZ2 = 2 Z1_- dY1 + dY2, dZ3 = Z1_- dY1 + 2 dY2: a degenerate
    system whose jump-driven version still spreads over R^3.

    make_jump_sde with this c, bit for bit, but the drift between jumps is
    three prefix sums over the Euler steps instead of a step loop: Z1 falls
    by h m0 a step and Z2, Z3 by terms of Z1 alone.  a - b is a + (-b) and
    np.add.accumulate adds in order, so every state keeps the loop's bits.
    The scan runs _SDE_SCAN_STEPS steps at a time, so its memory is bounded
    at any euler_step, and chunking does not change the sequence of adds.
    """
    if model.dim != 2:
        raise FunctionalError("this preset needs mark dimension 2")
    m0, m1 = model.mean

    def scan(state: np.ndarray, a: float, h: float, nsteps: int) -> np.ndarray:
        for lo in range(0, nsteps, _SDE_SCAN_STEPS):
            z = np.empty((3, min(_SDE_SCAN_STEPS, nsteps - lo) + 1, len(state)))  # coordinate, step, row
            z[:, 0] = state.T
            z[0, 1:] = -(h * m0)
            np.add.accumulate(z[0], axis=0, out=z[0])
            # each step's -h c(s, z, mean), from Z1 before the step
            z0m0 = z[0, :-1] * m0
            z[1, 1:] = -(h * (2.0 * z0m0 + m1))
            z[2, 1:] = -(h * (z0m0 + 2.0 * m1))
            np.add.accumulate(z[1:], axis=1, out=z[1:])
            state = z[:, -1].T.copy()
        return state

    return _jump_sde(model, _triangular_c, np.asarray(z0, dtype=float), t, euler_step, "jump_sde[triangular]", scan)


# ---------------------------------------------------------------------------
# registry for the experiment runner
# ---------------------------------------------------------------------------

_TIME_INTEGRAL_PROBES: dict[str, tuple[Callable, Callable]] = {
    "identity": (lambda y: y[..., :1], lambda y: np.zeros(y.shape[:-1] + (1, 1)) + np.eye(1, y.shape[-1])),
    "square": (lambda y: np.sum(y * y, axis=-1, keepdims=True), lambda y: 2.0 * y[..., None, :]),
    "cubic": (lambda y: np.sum(y**3, axis=-1, keepdims=True), lambda y: 3.0 * (y**2)[..., None, :]),
}


def _build_time_integral(model: IntensityModel, params: dict) -> Functional:
    name = params.pop("g", "square")
    if name not in _TIME_INTEGRAL_PROBES:
        raise FunctionalError(f"unknown probe g={name!r}; known: {sorted(_TIME_INTEGRAL_PROBES)}")
    g, gp = _TIME_INTEGRAL_PROBES[name]
    return make_time_integral(model, g, gp, label=f"time_integral[{name}]", **params)


def _build_sup(model: IntensityModel, params: dict) -> Functional:
    breaks = tuple(map(float, params.pop("k_breaks", (0.0,))))
    values = tuple(map(float, params.pop("k_values", (0.0,))))
    return make_running_sup(model, K=PiecewiseConstant(breaks, values), **params)


FUNCTIONAL_BUILDERS: dict[str, dict] = {
    "path_eval": {"build": lambda model, p: make_path_eval(model, **p), "params": "t"},
    "doleans": {"build": lambda model, p: make_doleans(model, **p), "params": "t"},
    "pair_doleans": {"build": lambda model, p: make_pair_doleans(model, **p), "params": "t"},
    "area": {"build": lambda model, p: make_stochastic_area(model, **p), "params": "t"},
    "time_integral": {
        "build": _build_time_integral,
        "params": "t=1, g=identity|square|cubic",
    },
    "gou": {"build": lambda model, p: make_generalized_ou(model, **p), "params": "x0, t"},
    "sup": {"build": _build_sup, "params": "t, k_breaks=[0], k_values=[0]"},
    "nearest": {"build": lambda model, p: make_nearest_point(model, **p), "params": "(none)"},
    "jump_sde": {
        "build": lambda model, p: make_triangular_sde(model, **p),
        "params": "z0=[0,0,0], t=1, euler_step=0.01",
    },
}


def build_functional(label: str, model: IntensityModel, **params) -> Functional:
    if label not in FUNCTIONAL_BUILDERS:
        raise KeyError(f"unknown functional {label!r}; known: {sorted(FUNCTIONAL_BUILDERS)}")
    return FUNCTIONAL_BUILDERS[label]["build"](model, dict(params))
