"""Finite Poisson configurations and truncated intensity models.

A configuration is a finite set of timed, vector-valued jump atoms on a
window [0, T]; it is one realization of a Poisson random measure N with
intensity dt x sigma on [0, T] x R^d, where sigma is a finite (truncated)
jump measure.  This module hosts the creation/annihilation operators
(add_particle / remove_index), flat batches of sampled configurations with
their per-sample sums N(f), and a line-oriented text serialization.

All types are immutable after construction and safe to share across
workers.  Atom equality is exact equality of the stored (time, mark) reals,
which is what unambiguous support membership for add/remove requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .rng import substream

__all__ = [
    "Atom",
    "Configuration",
    "IntensityModel",
    "ConfigurationError",
    "InvalidModelError",
    "sample_configuration",
    "sample_batch",
    "BatchedConfigurations",
    "add_particle",
    "write_configuration",
    "read_configuration",
    "csv_text",
]


class ConfigurationError(ValueError):
    """Raised for malformed atoms, configurations, or serialized data."""


class InvalidModelError(ValueError):
    """Raised when an intensity model has a nonpositive horizon or rate, or one its sampler cannot draw."""


# the largest Poisson mean numpy's sampler accepts (its POISSON_LAM_MAX)
_POISSON_MEAN_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
# expected atoms (rate * horizon * nsamples) per sample_batch call: ten times the largest shipped
# batch, the 1,000,000-sample orthogonality batches of the scale-1 suite at 5,000,000 expected atoms
_BATCH_ATOMS_MAX = 50_000_000


@dataclass(frozen=True)
class Atom:
    """One jump: a time in [0, T] and a nonzero mark vector in R^d."""

    time: float
    mark: tuple[float, ...]

    def __init__(self, time: float, mark) -> None:
        mark_t = tuple(float(m) for m in np.atleast_1d(np.asarray(mark, dtype=float)))
        object.__setattr__(self, "time", float(time))
        object.__setattr__(self, "mark", mark_t)
        if not np.isfinite(self.time):
            raise ConfigurationError("atom time must be finite")
        if not all(np.isfinite(m) for m in mark_t):
            raise ConfigurationError("atom mark must be finite")
        if all(m == 0.0 for m in mark_t):
            raise ConfigurationError("atom mark must be a nonzero vector")

    @property
    def dim(self) -> int:
        return len(self.mark)

    def mark_array(self) -> np.ndarray:
        return np.asarray(self.mark, dtype=float)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Configuration:
    """A finite configuration: atoms sorted by strictly increasing time.

    Times are pairwise distinct (the time component of the intensity is
    diffuse); every mutation-returning operation maintains the sort order
    and never touches its input.
    """

    horizon: float
    dim: int
    times: np.ndarray
    marks: np.ndarray
    intensity_ref: str = "manual"

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", _readonly(np.atleast_1d(self.times)))
        marks = np.asarray(self.marks, dtype=float)
        if marks.size == 0:
            marks = marks.reshape(0, self.dim)
        marks = np.atleast_2d(marks)
        object.__setattr__(self, "marks", _readonly(marks))
        self._validate()

    def _validate(self) -> None:
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ConfigurationError("horizon must be positive and finite")
        if self.dim < 1:
            raise ConfigurationError("mark dimension must be >= 1")
        if self.times.ndim != 1 or self.marks.shape != (self.times.size, self.dim):
            raise ConfigurationError(
                f"shape mismatch: times {self.times.shape}, marks {self.marks.shape}, dim {self.dim}"
            )
        if self.times.size:
            if not np.all(np.isfinite(self.times)) or not np.all(np.isfinite(self.marks)):
                raise ConfigurationError("times and marks must be finite")
            if self.times[0] < 0.0 or self.times[-1] > self.horizon:
                raise ConfigurationError("atom times must lie in [0, T]")
            if np.any(np.diff(self.times) <= 0.0):
                raise ConfigurationError("atom times must be strictly increasing")
            if np.any(np.all(self.marks == 0.0, axis=1)):
                raise ConfigurationError("atom marks must be nonzero vectors")

    @classmethod
    def _from_arrays_unchecked(
        cls, horizon: float, dim: int, times: np.ndarray, marks: np.ndarray, intensity_ref: str
    ) -> "Configuration":
        # Hot-loop constructor for arrays already known to satisfy the invariants; it makes them read-only.
        times.setflags(write=False)
        marks.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "horizon", horizon)
        object.__setattr__(obj, "dim", dim)
        object.__setattr__(obj, "times", times)
        object.__setattr__(obj, "marks", marks)
        object.__setattr__(obj, "intensity_ref", intensity_ref)
        return obj

    @property
    def n_atoms(self) -> int:
        return int(self.times.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and self.dim == other.dim
            and self.intensity_ref == other.intensity_ref
            and self.times.shape == other.times.shape
            and bool(np.all(self.times == other.times))
            and bool(np.all(self.marks == other.marks))
        )

    def __repr__(self) -> str:
        return (
            f"Configuration(T={self.horizon}, d={self.dim}, n={self.n_atoms}, "
            f"intensity_ref={self.intensity_ref!r})"
        )


@dataclass(frozen=True)
class IntensityModel:
    """A finite-activity jump intensity dt x sigma on [0, T] x R^d.

    sigma is the truncated jump measure (small jumps removed), with total
    mass `rate`, a normalized sampler, a deterministic quadrature
    `sigma_integrate`, and the first-moment vector `mean` used as the
    compensator density.  `sigma_integrate(f)` integrates a vectorized
    mark function f((k, d) array) -> (k,) against sigma; the shipped
    families call f on whole node arrays, never one point at a time.
    """

    label: str
    family: str
    horizon: float
    dim: int
    rate: float
    jump_sampler: Callable[[np.random.Generator, int], np.ndarray]
    sigma_integrate: Callable[[Callable[[np.ndarray], np.ndarray]], float]
    mean: np.ndarray

    def __post_init__(self) -> None:
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise InvalidModelError(f"nonpositive horizon {self.horizon}")
        if not (self.rate > 0.0 and np.isfinite(self.rate)):
            raise InvalidModelError(f"rate must be finite and positive, got {self.rate}")
        if not self.rate * self.horizon <= _POISSON_MEAN_MAX:
            raise InvalidModelError(f"rate * horizon = {self.rate * self.horizon} exceeds the Poisson sampler's range")
        if self.dim < 1:
            raise InvalidModelError("mark dimension must be >= 1")
        object.__setattr__(self, "mean", _readonly(np.atleast_1d(self.mean)))
        if self.mean.shape != (self.dim,):
            raise InvalidModelError("compensator mean must have shape (dim,)")

    def sample_marks(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n marks from sigma / rate, shaped (n, dim)."""
        out = np.asarray(self.jump_sampler(rng, n), dtype=float).reshape(n, self.dim)
        # exact zero marks have probability zero; redraw defensively (the row
        # mask is built only when some coordinate is exactly zero)
        while not out.all():
            bad = np.all(out == 0.0, axis=1)
            if not bad.any():
                break
            out[bad] = np.asarray(self.jump_sampler(rng, int(bad.sum())), dtype=float).reshape(-1, self.dim)
        return out

    def nu_integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """Integrate a time-homogeneous mark function against dt x sigma."""
        return self.horizon * self.sigma_integrate(f)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_configuration(model: IntensityModel, seed: int, *path: int) -> Configuration:
    """Draw one configuration from the stream (seed, *path): sample_batch's one-sample case.

    The sampler keeps times in [0, T] and marks nonzero; what it cannot promise is checked here.
    """
    cfg = sample_batch(model, 1, seed, *path).config(0)
    if not np.isfinite(cfg.marks).all() or (np.diff(cfg.times) <= 0.0).any():
        raise ConfigurationError(f"stream {(seed, *path)} drew a non-finite mark or two equal times")
    return cfg


@dataclass(frozen=True)
class BatchedConfigurations:
    """A flat batch of sampled configurations for vectorized estimators.

    Atom data of sample i lives in rows offsets[i]:offsets[i+1]; sample_index
    maps each flat row back to its sample.  Sampled rows stay in draw
    order; time_order lists them in time order within each sample.
    """

    model: IntensityModel
    nsamples: int
    counts: np.ndarray        # (nsamples,)
    offsets: np.ndarray       # (nsamples + 1,)
    times: np.ndarray         # (total,)
    marks: np.ndarray         # (total, d)

    @cached_property
    def sample_index(self) -> np.ndarray:
        return np.repeat(np.arange(self.nsamples), self.counts)

    @cached_property
    def time_order(self) -> np.ndarray:
        """Flat rows sorted by (sample, time): a stable argsort per sample."""
        return np.lexsort((self.times, self.sample_index))

    def config(self, i: int) -> Configuration:
        # invariants hold by construction (sampler output); skip re-validation
        rows = self.time_order[self.offsets[i]:self.offsets[i + 1]]
        return Configuration._from_arrays_unchecked(
            self.model.horizon, self.model.dim, self.times[rows], self.marks[rows], self.model.label
        )

    def sum_per_sample(self, values: np.ndarray) -> np.ndarray:
        """Sum per-atom values (total,) or (total, k) into per-sample totals (nsamples,) or (nsamples, k).

        Columns share one bincount over (sample, column) bins, which adds
        each bin's atoms in atom order, as a bincount per column does.
        """
        if values.ndim == 1:
            return np.bincount(self.sample_index, weights=values, minlength=self.nsamples)
        k = values.shape[1]
        bins = (self.sample_index[:, None] * k + np.arange(k)).ravel()
        sums = np.bincount(bins, weights=values.ravel(), minlength=self.nsamples * k)
        return sums.reshape(self.nsamples, k)

    def reduce_per_sample(self, ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
        """ufunc.reduce of each sample's per-atom values (total,) in time order.

        Samples of equal count reduce as the rows of one block, which numpy
        reduces row by row as it reduces each row alone: config(i)'s bits.
        """
        out = np.empty(self.nsamples)
        ordered = values[self.time_order]
        for k in np.unique(self.counts):
            ids = np.flatnonzero(self.counts == k)
            out[ids] = ufunc.reduce(ordered[self.offsets[ids, None] + np.arange(k)], axis=1)
        return out

    def samples(self, lo: int, hi: int) -> "BatchedConfigurations":
        """Samples lo..hi-1 as a batch of their own, rows in time order."""
        rows = self.time_order[self.offsets[lo]:self.offsets[hi]]
        return self._time_ordered(self.counts[lo:hi], self.times[rows], self.marks[rows])

    def _time_ordered(self, counts: np.ndarray, times: np.ndarray, marks: np.ndarray) -> "BatchedConfigurations":
        offsets = np.concatenate(([0], np.cumsum(counts)))
        batch = BatchedConfigurations(self.model, counts.size, counts, offsets, times, marks)
        batch.__dict__["time_order"] = np.arange(times.size)  # fills the cache: rows are in time order
        return batch

    def with_atom(self, times: np.ndarray, marks: np.ndarray) -> "BatchedConfigurations":
        """Atom (times[i], marks[i]) added to sample i, as add_particle adds it to config(i).

        An atom already in its sample's support leaves that sample as it is.
        """
        model, owner = self.model, self.sample_index
        times, marks = np.asarray(times, dtype=float), np.asarray(marks, dtype=float)
        if times.shape != (self.nsamples,) or marks.shape != (self.nsamples, model.dim):
            raise ConfigurationError(f"one atom per sample in R^{model.dim}: times {times.shape}, marks {marks.shape}")
        ok = (times >= 0.0) & (times <= model.horizon) & np.all(np.isfinite(marks), axis=1) & np.any(marks != 0.0, axis=1)
        if not np.all(ok):
            raise ConfigurationError(f"atom {np.argmin(ok)}: time outside [0, {model.horizon}] or a zero or non-finite mark")
        hit = np.flatnonzero(self.times == times[owner])
        clash = hit[np.any(self.marks[hit] != marks[owner[hit]], axis=1)]
        if clash.size:
            raise ConfigurationError(f"time collision at t={self.times[clash[0]]} with a different mark")
        keep = np.bincount(owner[hit], minlength=self.nsamples) == 0
        at = (self.offsets[:-1] + np.bincount(owner[self.times < times[owner]], minlength=self.nsamples))[keep]
        rows = self.time_order
        return self._time_ordered(
            self.counts + keep,
            np.insert(self.times[rows], at, times[keep]),
            np.insert(self.marks[rows], at, marks[keep], axis=0),
        )

    def leave_one_out(self) -> "BatchedConfigurations":
        """One sample per atom, in time_order: sample offsets[i] + r is remove_index(config(i), r)."""
        owner = self.sample_index
        counts = self.counts[owner] - 1
        removed = np.repeat(np.arange(owner.size), counts)
        first = self.offsets[owner[removed]]
        pos = first + np.arange(removed.size) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = self.time_order[pos + (pos >= removed)]
        return self._time_ordered(counts, self.times[rows], self.marks[rows])


def sample_batch(model: IntensityModel, nsamples: int, seed: int, *path: int) -> BatchedConfigurations:
    """Draw nsamples configurations from the stream (seed, *path) in flat arrays.

    Times are unsorted within samples.  A batch whose expected atom count
    rate * horizon * nsamples exceeds _BATCH_ATOMS_MAX raises
    ConfigurationError before anything is drawn.
    """
    lam = model.rate * model.horizon
    if not lam * nsamples <= _BATCH_ATOMS_MAX:
        raise ConfigurationError(
            f"rate * horizon = {lam:.6g} over nsamples = {nsamples} expects {lam * nsamples:.3g} atoms, "
            f"above the cap of {_BATCH_ATOMS_MAX:,} atoms per batch"
        )
    rng = substream(seed, *path)
    counts = rng.poisson(lam, size=nsamples)
    total = int(counts.sum())
    times = rng.uniform(0.0, model.horizon, size=total)
    marks = model.sample_marks(rng, total)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return BatchedConfigurations(model, nsamples, counts, offsets, times, marks)


# ---------------------------------------------------------------------------
# creation / annihilation
# ---------------------------------------------------------------------------

def add_particle(cfg: Configuration, a: Atom) -> Configuration:
    """Insert atom a in time order; identity if a is already in the support."""
    if a.dim != cfg.dim:
        raise ConfigurationError(f"atom dimension {a.dim} != configuration dimension {cfg.dim}")
    if not (0.0 <= a.time <= cfg.horizon):
        raise ConfigurationError(f"atom time {a.time} outside [0, {cfg.horizon}]")
    i = int(np.searchsorted(cfg.times, a.time))
    if i < cfg.n_atoms and cfg.times[i] == a.time:
        if tuple(cfg.marks[i]) == a.mark:
            return cfg
        raise ConfigurationError(f"time collision at t={a.time} with a different mark")
    times = np.insert(cfg.times, i, a.time)
    marks = np.insert(cfg.marks, i, a.mark_array(), axis=0)
    return Configuration._from_arrays_unchecked(cfg.horizon, cfg.dim, times, marks, cfg.intensity_ref)


def remove_index(cfg: Configuration, i: int) -> Configuration:
    """Remove the i-th atom (used by the per-atom engine loops)."""
    times = np.delete(cfg.times, i)
    marks = np.delete(cfg.marks, i, axis=0)
    return Configuration._from_arrays_unchecked(cfg.horizon, cfg.dim, times, marks, cfg.intensity_ref)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_configuration(cfg: Configuration) -> str:
    """Serialize to the line format: header 'T d n', then 'time mark_1 .. mark_d'."""
    lines = [f"{cfg.horizon:.17g} {cfg.dim} {cfg.n_atoms}"]
    for i in range(cfg.n_atoms):
        row = " ".join(f"{v:.17g}" for v in (cfg.times[i], *cfg.marks[i]))
        lines.append(row)
    return "\n".join(lines) + "\n"


def csv_text(header: str, rows) -> str:
    """A CSV body: the header line, then one line per row; integers as is, other numbers to 17 digits."""
    lines = (",".join(str(v) if isinstance(v, (int, np.integer)) else f"{v:.17g}" for v in row) for row in rows)
    return "\n".join([header, *lines]) + "\n"


def read_configuration(text: str, intensity_ref: str = "manual") -> Configuration:
    """Parse the line format; rejects unsorted or duplicate times."""
    rows = [ln for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise ConfigurationError("empty configuration text")
    head = rows[0].split()
    if len(head) != 3:
        raise ConfigurationError(f"bad header {rows[0]!r}, expected 'T d n'")
    horizon, dim, n = float(head[0]), int(head[1]), int(head[2])
    if len(rows) - 1 != n:
        raise ConfigurationError(f"expected {n} atom lines, found {len(rows) - 1}")
    times = np.empty(n)
    marks = np.empty((n, dim))
    for i, ln in enumerate(rows[1:]):
        vals = [float(v) for v in ln.split()]
        if len(vals) != 1 + dim:
            raise ConfigurationError(f"atom line {i + 2}: expected {1 + dim} fields, got {len(vals)}")
        times[i] = vals[0]
        marks[i] = vals[1:]
    return Configuration(horizon, dim, times, marks, intensity_ref=intensity_ref)
