"""The path functionals against their per-point loops, and the contract every registered functional keeps.

`make_generalized_ou` and `make_running_sup` read the compensated path from
the shared prefix-sum helpers.  The loops below are their earlier per-point
forms, kept as the oracle: values agree within the bounds stated here, and
the running sup's 0/1 derivative agrees exactly.
"""

import math

import numpy as np
import pytest

from lentparticle.configuration import Atom, Configuration, add_particle, remove_index, sample_configuration
from lentparticle.functionals import (
    FUNCTIONAL_BUILDERS,
    FunctionalError,
    PiecewiseConstant,
    build_functional,
    finite_difference_add_derivative,
    make_generalized_ou,
    make_running_sup,
)
from lentparticle.intensities import curve_model, dyadic_model, gauss_model, polar_model, power_model, uniform_model
from lentparticle.lent_particle import carre_du_champ, diag_squares_gamma
from lentparticle.rng import substream

# relative bounds on the value moves against the loops (largest over 800 configurations: gou 1.7e-13, sup 1.7e-15)
GOU_VALUE_RTOL = 1e-12
SUP_VALUE_RTOL = 1e-14

SYM1 = uniform_model(1.0, rate=6.0, low=-0.9, high=0.9, label="sym1")
DRIFT1 = uniform_model(1.0, rate=12.0, low=-0.3, high=0.9, label="drift1")
RISE1 = uniform_model(1.0, rate=12.0, low=-0.9, high=0.3, label="rise1")  # negative mean: Y rises between jumps
SYM2 = uniform_model(1.0, rate=6.0, low=-0.9, high=0.9, dim=2, label="sym2")
DRIFT2 = uniform_model(1.0, rate=12.0, low=-0.3, high=0.9, dim=2, label="drift2")


def _stop(cfg: Configuration, s: float, strict: bool = False) -> int:
    return int(np.searchsorted(cfg.times, s, side="left" if strict else "right"))


def loop_gou(model, x0: float, t: float):
    """make_generalized_ou's per-point loops: (value, add_derivative)."""
    mu_xi, mu_eta = float(model.mean[0]), float(model.mean[1])

    def xi_at(cfg, s, strict=False):
        return float(cfg.marks[: _stop(cfg, s, strict), 0].sum() - mu_xi * s)

    def exp_neg_xi_integral(cfg, b):
        ts = cfg.times[: _stop(cfg, b)]
        pts = np.concatenate([[0.0], ts[ts > 0.0], [b]])
        acc = cum = 0.0
        k = 0
        for i in range(pts.size - 1):
            a, q = pts[i], pts[i + 1]
            while k < cfg.n_atoms and cfg.times[k] <= a:
                cum += cfg.marks[k, 0]
                k += 1
            if q > a:
                if mu_xi == 0.0:
                    acc += math.exp(-cum) * (q - a)
                else:
                    acc += math.exp(-cum) * (math.exp(mu_xi * q) - math.exp(mu_xi * a)) / mu_xi
        return acc

    def eta_integral(cfg, b):
        acc = 0.0
        for i in range(_stop(cfg, b)):
            de = cfg.marks[i, 1]
            if de != 0.0:
                acc += math.exp(-xi_at(cfg, cfg.times[i], strict=True)) * de
        return acc - mu_eta * exp_neg_xi_integral(cfg, b)

    def value(cfg):
        return np.array([math.exp(xi_at(cfg, t)) * (x0 + eta_integral(cfg, t))])

    def add_derivative(cfg, alpha, x):
        if alpha > t:
            return np.zeros((1, 2))
        dxi, deta = float(x[0]), float(x[1])
        front = math.exp(xi_at(cfg, t) + dxi)
        disc = math.exp(-xi_at(cfg, alpha, strict=True))
        return np.array([[front * (x0 + eta_integral(cfg, alpha) + disc * deta), front * disc]])

    return value, add_derivative


def loop_sup(model, t: float, K: PiecewiseConstant):
    """make_running_sup's per-point loops: (value, add_derivative)."""
    mu = float(model.mean[0])

    def k_at(s, side):
        return K.values[max(int(np.searchsorted(K.breaks, s, side=side)) - 1, 0)]

    def H(cfg, s):
        return float(cfg.marks[: _stop(cfg, s), 0].sum() - mu * s + k_at(s, "right"))

    def H_left(cfg, s):
        return float(cfg.marks[: _stop(cfg, s, strict=True), 0].sum() - mu * s + k_at(s, "left"))

    def events(cfg, lo, hi):
        ev = [lo, hi]
        ev.extend(cfg.times[(cfg.times > lo) & (cfg.times < hi)])
        ev.extend(b for b in K.breaks if lo < b < hi)
        return np.unique(np.asarray(ev))

    def sup_closed(cfg, lo, hi):
        best = -math.inf
        for s in events(cfg, lo, hi):
            best = max(best, H(cfg, s))
            if s > lo:
                best = max(best, H_left(cfg, s))
        return best

    def sup_before(cfg, a):
        if a <= 0.0:
            return -math.inf
        best = H_left(cfg, a)
        for s in events(cfg, 0.0, a):
            if s < a:
                best = max(best, H(cfg, s))
            if 0.0 < s < a:
                best = max(best, H_left(cfg, s))
        return best

    def value(cfg):
        return np.array([sup_closed(cfg, 0.0, t)])

    def add_derivative(cfg, alpha, x):
        if alpha > t:
            return np.zeros((1, 1))
        after = sup_closed(cfg, alpha, t) + float(np.atleast_1d(x)[0])
        return np.array([[1.0 if after >= sup_before(cfg, alpha) else 0.0]])

    return value, add_derivative


def _probe_times(cfg: Configuration, t: float, breaks, rng) -> list[float]:
    """Insertion times at every atom, every K break, 0, t, and two uniform draws."""
    return [*map(float, cfg.times), *breaks, 0.0, t, *rng.uniform(0.0, t, size=2)]


GOU_CASES = [(DRIFT2, 0.5, 1.0), (DRIFT2, -1.3, 0.6), (SYM2, 0.0, 1.0), (SYM2, 2.0, 0.35)]


@pytest.mark.parametrize("model,x0,t", GOU_CASES)
def test_gou_matches_its_loops(model, x0, t):
    F = make_generalized_ou(model, x0, t)
    value, add_derivative = loop_gou(model, x0, t)
    rng = substream(141, int(10 * t))
    probes = 0
    for cfg in [Configuration(1.0, 2, [], [], "manual")] + [sample_configuration(model, 141, i) for i in range(25)]:
        want = value(cfg)
        assert F.value(cfg) == pytest.approx(want, rel=GOU_VALUE_RTOL, abs=1e-300)
        for alpha in _probe_times(cfg, t, (), rng):
            x = rng.uniform(-0.9, 0.9, size=2)
            got, ref = F.add_derivative(cfg, alpha, x), add_derivative(cfg, alpha, x)
            assert got.shape == (1, 2)
            assert got == pytest.approx(ref, rel=GOU_VALUE_RTOL, abs=1e-300), (alpha, x)
            probes += 1
    assert probes > 200


SUP_KS = [
    PiecewiseConstant(),
    PiecewiseConstant((0.0, 0.5), (0.0, 2.0)),
    PiecewiseConstant((0.0, 0.2, 0.45, 0.8), (0.3, -0.4, 0.25, -1.0)),
]


@pytest.mark.parametrize("k", range(len(SUP_KS)))
@pytest.mark.parametrize("model", [SYM1, DRIFT1, RISE1], ids=["sym", "drift", "rise"])
@pytest.mark.parametrize("t", [1.0, 0.45])
def test_running_sup_matches_its_loops_and_its_derivative_exactly(model, k, t):
    K = SUP_KS[k]
    F = make_running_sup(model, t, K)
    value, add_derivative = loop_sup(model, t, K)
    rng = substream(142, k, int(100 * t))
    probes = ones = 0
    for cfg in [Configuration(1.0, 1, [], [], "manual")] + [sample_configuration(model, 142, k, i) for i in range(30)]:
        want = value(cfg)[0]
        assert F.value(cfg)[0] == pytest.approx(want, rel=SUP_VALUE_RTOL, abs=SUP_VALUE_RTOL)
        for alpha in _probe_times(cfg, t, K.breaks, rng):
            for x in (rng.uniform(-0.9, 0.9, size=1), np.array([1e-9]), np.array([-1e-9])):
                got = F.add_derivative(cfg, alpha, x)
                assert got.shape == (1, 1)
                assert got.tobytes() == add_derivative(cfg, alpha, x).tobytes(), (alpha, x)
                probes += 1
                ones += int(got[0, 0])
    assert probes > 1000 and 0 < ones < probes


def test_piecewise_constant_reads_right_values_and_left_limits():
    K = PiecewiseConstant((0.0, 0.5, 0.75), (1.0, 2.0, 3.0))
    s = np.array([0.0, 0.25, 0.5, 0.6, 0.75, 2.0])
    assert K(s, "right").tolist() == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    assert K(s, "left").tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# the contract of every registered functional, on every compatible family
# ---------------------------------------------------------------------------

FAMILIES = {
    "uniform_d1": uniform_model(1.0, rate=8.0, low=-0.9, high=0.9),
    "uniform_d2": uniform_model(1.0, rate=8.0, low=-0.9, high=0.9, dim=2),
    "gauss_d1": gauss_model(1.0, rate=8.0, scale=0.3),
    "gauss_d2": gauss_model(1.0, rate=8.0, scale=0.3, dim=2),
    "power": power_model(1.0, c=2.0, epsilon=0.05, symmetric=True),
    "polar": polar_model(1.0, epsilon=0.05),
    "curve": curve_model(1.0, c=3.0, epsilon=0.05),
    "dyadic": dyadic_model(1.0, n_max=12),
}

PARAMS = {"gou": {"x0": 0.5, "t": 1.0}, "sup": {"t": 1.0, "k_breaks": [0.0, 0.5], "k_values": [0.0, 0.3]}}


def _build(label: str, family: str):
    """The functional on the family's model, or None where the mark dimension does not fit."""
    params = PARAMS.get(label, {} if label == "nearest" else {"t": 1.0})
    try:
        return build_functional(label, FAMILIES[family], **params)
    except FunctionalError as exc:
        assert "dimension" in str(exc)
        return None


PAIRS = [(label, family) for label in sorted(FUNCTIONAL_BUILDERS) for family in FAMILIES if _build(label, family)]


def test_every_registered_functional_has_compatible_families():
    assert {label for label, _ in PAIRS} == set(FUNCTIONAL_BUILDERS)
    assert len(PAIRS) >= 3 * len(FUNCTIONAL_BUILDERS)


def _assert_close(closed, fd, what):
    assert closed.shape == fd.shape, what
    assert np.abs(closed - fd).max(initial=0.0) <= 1e-6 * (1.0 + np.abs(closed).max(initial=0.0)), (what, closed, fd)


@pytest.mark.parametrize("label,family", PAIRS, ids=[f"{l}-{f}" for l, f in PAIRS])
def test_registered_functional_contract(label, family):
    """Lending an atom back keeps value's bits; the empty configuration; closed against fd at marks near 0 and -1."""
    F, model = _build(label, family), FAMILIES[family]
    d, m = model.dim, F.out_dim
    cfgs = [sample_configuration(model, 143, i) for i in range(4)]
    assert sum(c.n_atoms for c in cfgs) > 4
    for cfg in cfgs:
        want = np.atleast_1d(F.value(cfg))
        assert want.shape == (m,)
        for i in range(cfg.n_atoms):
            lent_back = add_particle(remove_index(cfg, i), Atom(float(cfg.times[i]), cfg.marks[i]))
            assert np.atleast_1d(F.value(lent_back)).tobytes() == want.tobytes()

    empty = Configuration(1.0, d, [], [], "manual")
    assert np.atleast_1d(F.value(empty)).shape == (m,)
    for mode in ("closed", "fd"):
        cdc = carre_du_champ(F, empty, diag_squares_gamma(d), mode=mode)
        assert cdc.matrix.tobytes() == np.zeros((m, m)).tobytes()
        assert cdc.contributions.shape == (0, m, m)
    if not F.has_closed_derivative:
        return

    # the fd step halves where x -+ h e_k is the excluded zero mark (|x_k| = 1e-5)
    near_zero = [1e-5, -1e-5, 3e-7, 2e-3] if d == 1 else [(1e-5, 0.0), (0.0, -1e-5), (3e-7, -2e-3)]
    near_minus_one = [-0.999, -1.0 + 2e-5] if label in ("doleans", "pair_doleans") else []
    rng = substream(144, len(label), len(family))
    checked = 0
    for cfg in [empty] + cfgs:
        for x in [*near_zero, *near_minus_one]:
            x = np.atleast_1d(np.asarray(x, dtype=float))
            if label == "nearest" and d == 1 and abs(x[0]) < 1e-5:
                continue  # |x| has its kink at the excluded 0 inside the stencil
            alpha = float(rng.uniform(0.0, 1.0))
            closed = np.atleast_2d(F.add_derivative(cfg, alpha, x))
            fd = finite_difference_add_derivative(F.value, cfg, alpha, x, m)
            if label == "sup" and abs(fd[0, 0] - round(fd[0, 0])) > 1e-9:
                continue  # a kink of the sup inside the stencil
            _assert_close(closed, fd, (cfg.n_atoms, alpha, x))
            checked += 1
    assert checked >= 3 * len(near_zero)
