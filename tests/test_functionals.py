import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from lentparticle.configuration import (
    Atom,
    BatchedConfigurations,
    Configuration,
    add_particle,
    sample_batch,
    sample_configuration,
)
from lentparticle import functionals
from lentparticle.functionals import (
    FunctionalError,
    _fd_steps,
    batch_values,
    PiecewiseConstant,
    finite_difference_add_derivative,
    make_doleans,
    make_triangular_sde,
    make_generalized_ou,
    make_jump_sde,
    make_nearest_point,
    make_pair_doleans,
    make_path_eval,
    make_running_sup,
    make_stochastic_area,
    make_time_integral,
)
from lentparticle.intensities import uniform_model
from lentparticle.lent_particle import carre_du_champ, diag_squares_gamma
from lentparticle.rng import substream

SYM1 = uniform_model(1.0, rate=2.0, low=-0.9, high=0.9, label="sym1")
SYM2 = uniform_model(1.0, rate=2.0, low=-0.9, high=0.9, dim=2, label="sym2")
DRIFT1 = uniform_model(1.0, rate=4.0, low=-0.3, high=0.9, label="drift1")
DRIFT2 = uniform_model(1.0, rate=4.0, low=-0.3, high=0.9, dim=2, label="drift2")
M0_ZERO2 = dataclasses.replace(DRIFT2, mean=np.array([0.0, DRIFT2.mean[1]]))  # drift in the second coordinate only


def cfg_of(times, marks, horizon=1.0):
    marks = np.atleast_2d(np.asarray(marks, dtype=float))
    if marks.shape[0] != len(times):
        marks = marks.T
    return Configuration(horizon, marks.shape[1], times, marks, "manual")


EX1 = cfg_of([0.2, 0.6], [[0.5], [-0.2]])
EMPTY1 = Configuration(1.0, 1, [], [], "manual")
EMPTY2 = Configuration(1.0, 2, [], [], "manual")


def triangular_c_per_term(s, z, u):
    """The triangular coefficient term by term: (2 z0) u0 = 2 (z0 u0) exactly."""
    out = np.empty(np.broadcast_shapes(z.shape[:-1], u.shape[:-1]) + (3,))
    out[..., 0] = u[..., 0]
    out[..., 1] = 2.0 * z[..., 0] * u[..., 0] + u[..., 1]
    out[..., 2] = z[..., 0] * u[..., 0] + 2.0 * u[..., 1]
    return out


def triangular_configs(model, t):
    """Three sampled configurations and a fixed one with atoms at 0 and at t."""
    sampled = [sample_configuration(model, 60, seed) for seed in range(3)]
    return sampled + [cfg_of([0.0, t], [[0.4, -0.2], [-0.1, 0.7]])]


def fd_matrix(F, cfg, t, x):
    return finite_difference_add_derivative(F.value, cfg, t, np.atleast_1d(x), F.out_dim)


def assert_derivative_matches_fd(F, cfg, t, x, rtol=1e-6):
    closed = np.atleast_2d(F.add_derivative(cfg, t, np.atleast_1d(np.asarray(x, float))))
    fd = fd_matrix(F, cfg, t, x)
    scale = 1.0 + np.abs(closed).max()
    assert np.abs(closed - fd).max() <= rtol * scale, (closed, fd)


class TestPathEval:
    def test_value(self):
        F = make_path_eval(SYM1, 1.0)
        assert F.value(EX1)[0] == pytest.approx(0.3)

    def test_early_window(self):
        F = make_path_eval(SYM1, 0.4)
        assert F.value(EX1)[0] == pytest.approx(0.5)

    def test_derivative_zero_after_window(self):
        F = make_path_eval(SYM1, 0.4)
        assert np.all(F.add_derivative(EX1, 0.5, np.array([0.1])) == 0.0)

    def test_window_validation(self):
        with pytest.raises(FunctionalError):
            make_path_eval(SYM1, 1.5)

    @pytest.mark.parametrize("x", [1e-5, -1e-5])
    def test_fd_step_halves_off_the_excluded_zero_mark(self, x):
        # at |x| = 1e-5 the first step x - h (or x + h) is the excluded mark 0: the step halves
        F = make_path_eval(SYM1, 1.0)
        added = []

        def value(cfg):
            added.append(cfg.marks[list(cfg.times).index(0.4), 0])
            return F.value(cfg)

        jac = finite_difference_add_derivative(value, EX1, 0.4, np.array([x]), 1)
        assert sorted(added) == pytest.approx(sorted([x - 5e-6, x + 5e-6]), rel=1e-12)
        np.testing.assert_allclose(jac, [[1.0]], rtol=1e-9)


def _fd_step_per_coordinate(x, k):
    """The per-coordinate step rule _fd_steps vectorizes, kept as its oracle."""
    h = max(1e-5, 1e-7 * abs(x[k]))
    if abs(x[k]) == h and not np.any(np.delete(x, k)):
        h *= 0.5
    return h


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fd_steps_match_the_per_coordinate_rule_bit_for_bit(d):
    rng = substream(91)
    marks = rng.normal(size=(300, d)) * 10.0 ** rng.integers(-7, 9, size=(300, 1))
    # marks one step from the excluded zero mark, and marks with other coordinates set
    marks[:3] = 0.0
    marks[0, 0], marks[1, -1], marks[2, 0] = 1e-5, -1e-5, 2e2
    marks[3] = 1e-5
    want = np.array([[_fd_step_per_coordinate(x, k) for k in range(d)] for x in marks])
    assert _fd_steps(marks).tobytes() == want.tobytes()
    assert (want[:2] == 5e-6).sum() == 2


class TestDoleans:
    def test_fixture_value(self):
        F = make_doleans(SYM1, 1.0)
        assert F.value(EX1)[0] == pytest.approx(1.2, abs=1e-14)

    def test_added_particle_multiplies(self):
        F = make_doleans(SYM1, 1.0)
        grown = add_particle(EX1, Atom(0.5, [0.25]))
        assert F.value(grown)[0] == pytest.approx(1.5, abs=1e-14)

    def test_empty_product(self):
        F = make_doleans(SYM1, 1.0)
        assert F.value(EMPTY1)[0] == pytest.approx(1.0)

    def test_domain_error(self):
        F = make_doleans(SYM1, 1.0)
        bad = cfg_of([0.4], [[-1.5]])
        with pytest.raises(FunctionalError):
            F.value(bad)

    def test_identity_against_raw_form(self):
        # exp(Y_t) prod (1 + dY) exp(-dY) recomputed from raw atoms
        F = make_doleans(DRIFT1, 1.0)
        for seed in range(20):
            cfg = sample_configuration(DRIFT1, seed)
            jumps = cfg.marks[:, 0]
            y_t = jumps.sum() - DRIFT1.mean[0]
            raw = math.exp(y_t) * np.prod((1.0 + jumps) * np.exp(-jumps))
            assert F.value(cfg)[0] == pytest.approx(raw, rel=1e-12)


    @pytest.mark.parametrize("t", [1.0, 0.6])
    def test_value_batch_has_the_bits_of_value(self, t):
        model = uniform_model(1.0, rate=6.0, low=-0.9, high=1.5, label="wide")
        F = make_doleans(model, t)
        batch = sample_batch(model, 2_000, seed=9)
        got = F.value_batch(batch)
        assert got.shape == (batch.nsamples, 1)
        want = np.array([F.value(batch.config(i)) for i in range(batch.nsamples)])
        assert np.array_equal(got, want)
        assert np.array_equal(batch_values(F, batch), want)

    def test_value_batch_domain_error(self):
        F = make_doleans(SYM1, 0.5)
        times, marks = np.array([0.7, 0.4, 0.9]), np.array([[0.2], [-1.5], [0.3]])
        bad = BatchedConfigurations(SYM1, 2, np.array([1, 2]), np.array([0, 1, 3]), times, marks)
        with pytest.raises(FunctionalError):
            F.value_batch(bad)
        # a mark <= -1 after t is outside the product, as in value
        late = BatchedConfigurations(
            SYM1, 1, np.array([2]), np.array([0, 2]), np.array([0.7, 0.2]), np.array([[-1.5], [0.3]])
        )
        assert np.array_equal(F.value_batch(late), [F.value(late.config(0))])


class TestPairDoleans:
    def test_fixture(self):
        F = make_pair_doleans(SYM1, 1.0)
        np.testing.assert_allclose(F.value(EX1), [0.3, 1.2], atol=1e-14)

    def test_empty(self):
        F = make_pair_doleans(SYM1, 1.0)
        np.testing.assert_allclose(F.value(EMPTY1), [0.0, 1.0])

    def test_derivative_column(self):
        F = make_pair_doleans(SYM1, 1.0)
        col = F.add_derivative(EX1, 0.5, np.array([0.1]))
        np.testing.assert_allclose(col, [[1.0], [1.2]], atol=1e-14)


class TestStochasticArea:
    AREA_FIXTURE = cfg_of([0.2, 0.6], [[1.0, 0.0], [0.0, 1.0]])

    def test_empty(self):
        F = make_stochastic_area(SYM2, 1.0)
        np.testing.assert_allclose(F.value(EMPTY2), [0.0, 0.0, 0.0])

    def test_single_jump_no_cross_term(self):
        F = make_stochastic_area(SYM2, 1.0)
        one = cfg_of([0.5], [[1.0, 1.0]])
        assert F.value(one)[2] == pytest.approx(0.0, abs=1e-15)

    def test_fixture_area(self):
        F = make_stochastic_area(SYM2, 1.0)
        np.testing.assert_allclose(F.value(self.AREA_FIXTURE), [1.0, 1.0, 1.0], atol=1e-14)

    def test_antisymmetric_under_coordinate_swap(self):
        F = make_stochastic_area(DRIFT2, 1.0)
        # swapping both mark coordinates of every atom flips the area sign
        m_sw = uniform_model(1.0, rate=4.0, low=-0.3, high=0.9, dim=2)
        for seed in range(10):
            cfg = sample_configuration(DRIFT2, seed)
            swapped = Configuration(1.0, 2, cfg.times, cfg.marks[:, ::-1], "manual")
            v = F.value(cfg)
            w = make_stochastic_area(m_sw, 1.0).value(swapped)
            assert w[0] == pytest.approx(v[1], abs=1e-13)
            assert w[1] == pytest.approx(v[0], abs=1e-13)
            assert w[2] == pytest.approx(-v[2], abs=1e-13)

    def test_derivative_matches_fd_with_drift(self):
        F = make_stochastic_area(DRIFT2, 1.0)
        rng = substream(5)
        for _ in range(20):
            cfg = sample_configuration(DRIFT2, int(rng.integers(1 << 30)))
            t = float(rng.uniform(0.0, 1.0))
            x = rng.uniform(-0.3, 0.9, size=2)
            assert_derivative_matches_fd(F, cfg, t, x)


class TestTimeIntegral:
    @staticmethod
    def square(model=SYM1, t=1.0):
        return make_time_integral(
            model, lambda y: np.sum(y * y, axis=-1, keepdims=True), lambda y: 2.0 * y[..., None, :], t=t
        )

    def test_identity_empty(self):
        F = make_time_integral(SYM1, lambda y: y[..., :1], lambda y: np.ones(y.shape[:-1] + (1, 1)), t=1.0)
        assert F.value(EMPTY1)[0] == pytest.approx(0.0)

    def test_step_path(self):
        F = self.square()
        one = cfg_of([0.25], [[1.0]])
        assert F.value(one)[0] == pytest.approx(0.75, abs=1e-14)

    def test_hand_derivative(self):
        F = self.square()
        one = cfg_of([0.25], [[1.0]])
        d = F.add_derivative(one, 0.5, np.array([0.0]))
        assert d[0, 0] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "bad,g,gprime",
        [
            ("g", lambda y: y[:1], lambda y: np.zeros(y.shape[:-1] + (1, 1)) + np.eye(1, y.shape[-1])),
            ("g", lambda y: np.array([float(y @ y)]), lambda y: 2.0 * y[..., None, :]),
            ("gprime", lambda y: y[..., :1], lambda y: np.eye(1, y.size)),
            ("gprime", lambda y: np.sum(y * y, axis=-1, keepdims=True), lambda y: 2.0 * y.reshape(1, -1)),
        ],
        ids=["first_coordinate", "square", "first_coordinate_jacobian", "square_jacobian"],
    )
    @pytest.mark.parametrize("model", [SYM1, SYM2], ids=["d1", "d2"])
    def test_per_point_probe_raises(self, bad, g, gprime, model):
        # a per-point g or gprime would return the wrong rows on the (..., d) arrays it is given
        with pytest.raises(FunctionalError, match=f"^{bad} must broadcast over leading axes"):
            make_time_integral(model, g, gprime)

    def test_derivative_matches_fd_with_drift(self):
        F = self.square(DRIFT1)
        rng = substream(6)
        for _ in range(20):
            cfg = sample_configuration(DRIFT1, int(rng.integers(1 << 30)))
            t = float(rng.uniform(0.0, 1.0))
            x = rng.uniform(-0.3, 0.9, size=1)
            assert_derivative_matches_fd(F, cfg, t, x)


class TestGeneralizedOU:
    def test_empty_is_x0(self):
        F = make_generalized_ou(SYM2, x0=1.7, t=1.0)
        assert F.value(EMPTY2)[0] == pytest.approx(1.7)

    def test_single_eta_jump(self):
        F = make_generalized_ou(SYM2, x0=1.0, t=1.0)
        one = cfg_of([0.5], [[0.0, 2.0]])
        assert F.value(one)[0] == pytest.approx(3.0, abs=1e-14)

    def test_two_jump_fixture(self):
        F = make_generalized_ou(SYM2, x0=0.0, t=1.0)
        cfg = cfg_of([0.3, 0.6], [[math.log(2.0), 0.0], [0.0, 1.0]])
        assert F.value(cfg)[0] == pytest.approx(1.0, abs=1e-14)

    def test_derivative_matches_fd_with_drift(self):
        F = make_generalized_ou(DRIFT2, x0=0.5, t=1.0)
        rng = substream(7)
        for _ in range(20):
            cfg = sample_configuration(DRIFT2, int(rng.integers(1 << 30)))
            t = float(rng.uniform(0.0, 1.0))
            x = rng.uniform(-0.3, 0.9, size=2)
            assert_derivative_matches_fd(F, cfg, t, x)


class TestRunningSup:
    def test_zero_path(self):
        F = make_running_sup(SYM1, 1.0)
        assert F.value(EMPTY1)[0] == pytest.approx(0.0)

    def test_step_path_max(self):
        F = make_running_sup(SYM1, 1.0)
        assert F.value(EX1)[0] == pytest.approx(0.5)

    def test_derivative_early_insertion(self):
        F = make_running_sup(SYM1, 1.0)
        d = F.add_derivative(EX1, 0.1, np.array([0.01]))
        assert d[0, 0] == 1.0

    def test_derivative_matches_fd_away_from_ties(self):
        F = make_running_sup(SYM1, 1.0)
        rng = substream(8)
        checked = 0
        for _ in range(60):
            cfg = sample_configuration(SYM1, int(rng.integers(1 << 30)))
            t = float(rng.uniform(0.0, 1.0))
            x = rng.uniform(-0.9, 0.9, size=1)
            fd = fd_matrix(F, cfg, t, x)[0, 0]
            if abs(fd) > 0.01 and abs(fd - 1.0) > 0.01:
                continue  # a kink inside the stencil
            closed = F.add_derivative(cfg, t, x)[0, 0]
            assert closed == pytest.approx(round(fd), abs=1e-9)
            checked += 1
        assert checked >= 40

    def test_monotone_in_window(self):
        vals = [make_running_sup(SYM1, t).value(EX1)[0] for t in (0.1, 0.3, 0.7, 1.0)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_positive_perturbation(self):
        F = make_running_sup(SYM1, 1.0)
        base = F.value(EX1)[0]
        bumped = cfg_of([0.2, 0.6], [[0.6], [-0.2]])
        assert F.value(bumped)[0] >= base

    def test_piecewise_offset(self):
        K = PiecewiseConstant((0.0, 0.5), (0.0, 2.0))
        F = make_running_sup(SYM1, 1.0, K=K)
        assert F.value(EX1)[0] == pytest.approx(2.5)  # Y=0.5 on [0.5,0.6), K=2 there


class TestNearestPoint:
    MODEL = uniform_model(1.0, rate=2.0, low=-1.0, high=1.0, dim=2)

    def test_min_norm(self):
        F = make_nearest_point(self.MODEL)
        cfg = cfg_of([0.3, 0.7], [[3.0, 4.0], [1.0, 0.0]])
        assert F.value(cfg)[0] == pytest.approx(1.0)

    def test_empty_flags_infinity(self):
        F = make_nearest_point(self.MODEL)
        assert F.value(EMPTY2)[0] == math.inf

    def test_derivative_is_unit_gradient_on_argmin(self):
        F = make_nearest_point(self.MODEL)
        cfg = cfg_of([0.3], [[3.0, 4.0]])
        d = F.add_derivative(cfg, 0.7, np.array([1.0, 0.0]))
        np.testing.assert_allclose(d, [[1.0, 0.0]])
        d2 = F.add_derivative(cfg, 0.7, np.array([30.0, 40.0]))
        np.testing.assert_allclose(d2, [[0.0, 0.0]])


class TestJumpSDE:
    def test_zero_coefficient(self):
        F = make_jump_sde(SYM2, lambda s, z, u: np.zeros(2), [1.0, -1.0], 1.0)
        cfg = sample_configuration(SYM2, 3)
        np.testing.assert_allclose(F.value(cfg), [1.0, -1.0])

    def test_linear_reduces_to_path(self):
        F = make_jump_sde(SYM1, lambda s, z, u: u, [0.0], 1.0)
        P = make_path_eval(SYM1, 1.0)
        for seed in range(5):
            cfg = sample_configuration(SYM1, seed)
            assert F.value(cfg)[0] == pytest.approx(P.value(cfg)[0], abs=1e-12)

    def test_triangular_recursion(self):
        F = make_triangular_sde(SYM2, (0.0, 0.0, 0.0), 1.0)
        cfg = cfg_of([0.2, 0.6], [[0.5, 0.0], [0.0, 0.3]])
        np.testing.assert_allclose(F.value(cfg), [0.5, 0.3, 0.6], atol=1e-14)

    def test_triangular_fd_cross_check(self):
        F = make_triangular_sde(SYM2, (0.0, 0.0, 0.0), 1.0)
        cfg = cfg_of([0.2, 0.6], [[0.5, 0.0], [0.0, 0.3]])
        fd = fd_matrix(F, cfg, 0.4, np.array([0.1, 0.2]))
        # hand recursion: dZ1/du1 = 1; dZ2/du1 = 2 z1 + later feedback, dZ2/du2 = 1, ...
        assert fd.shape == (3, 2)
        assert fd[0, 0] == pytest.approx(1.0, rel=1e-6)
        assert fd[0, 1] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "model,t,step,scan_steps",
        [
            (DRIFT2, 1.0, 2e-3, None),
            (DRIFT2, 1.0, 1e-3, None),
            (DRIFT2, 0.5, 1e-2, None),
            (DRIFT2, 1.0, 0.05, None),
            (SYM2, 1.0, 1e-2, None),
            (M0_ZERO2, 1.0, 2e-3, None),
            (DRIFT2, 1.0, 1e-2, 7),  # every interval of 8 or more steps crosses a chunk boundary
        ],
        ids=["crit1", "crit1_fine", "t_half", "coarse", "drift_free", "m0_zero", "chunked"],
    )
    def test_triangular_coefficient_keeps_the_parent_bits(self, monkeypatch, model, t, step, scan_steps):
        # the preset's prefix-sum drift against make_jump_sde's step loop with a per-term c
        if scan_steps is not None:
            monkeypatch.setattr(functionals, "_SDE_SCAN_STEPS", scan_steps)
        spec = diag_squares_gamma(2)
        F = make_triangular_sde(model, (0.1, -0.2, 0.3), t, euler_step=step)
        G = make_jump_sde(model, triangular_c_per_term, (0.1, -0.2, 0.3), t, euler_step=step)
        for cfg in triangular_configs(model, t):
            assert F.value(cfg).tobytes() == G.value(cfg).tobytes()
            marks = np.stack([cfg.marks, 0.5 * cfg.marks, -cfg.marks])
            assert F.value_marks(cfg, marks).tobytes() == G.value_marks(cfg, marks).tobytes()
            got, want = carre_du_champ(F, cfg, spec, mode="fd"), carre_du_champ(G, cfg, spec, mode="fd")
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.contributions.tobytes() == want.contributions.tobytes()

    def test_step_loop_reference_sees_a_one_percent_drift_error(self):
        # the loop with the preset's c on a 1.01 x mean proxy: the bytewise comparison above can fail
        spec = diag_squares_gamma(2)
        proxy = dataclasses.replace(DRIFT2, mean=1.01 * DRIFT2.mean)
        F = make_triangular_sde(DRIFT2, (0.1, -0.2, 0.3), 1.0, euler_step=2e-3)
        G = make_jump_sde(proxy, functionals._triangular_c, (0.1, -0.2, 0.3), 1.0, euler_step=2e-3)
        for cfg in triangular_configs(DRIFT2, 1.0):
            assert F.value(cfg).tobytes() != G.value(cfg).tobytes()
            got, want = carre_du_champ(F, cfg, spec, mode="fd"), carre_du_champ(G, cfg, spec, mode="fd")
            assert got.matrix.tobytes() != want.matrix.tobytes()

    def test_euler_first_order_convergence(self):
        # state-linear drift: error halves with the step
        model = DRIFT2
        cfg = sample_configuration(model, 17)

        def c(s, z, u):
            return np.stack([u[..., 0] + 0.5 * z[..., 1], u[..., 1] - 0.3 * z[..., 0]], axis=-1)

        vals = []
        for k in range(5):
            F = make_jump_sde(model, c, [0.2, -0.1], 1.0, euler_step=0.08 / 2**k)
            vals.append(F.value(cfg))
        errs = [float(np.linalg.norm(v - vals[-1])) for v in vals[:-1]]
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1) if errs[i + 1] > 0]
        assert all(r > 1.6 for r in ratios), (errs, ratios)

    def test_coefficient_must_broadcast_over_leading_axes(self):
        # a c that indexes the leading axis once passed and gave every lent atom the first row's coefficient
        model = uniform_model(1.0, rate=5.0, low=-0.3, high=0.8)
        with pytest.raises(FunctionalError, match=r"^c must broadcast over leading axes, \(2, 1\) and \(2, 1\)"):
            make_jump_sde(model, lambda s, z, u: z[0] * u[0], [1.0], 1.0)
        F = make_jump_sde(model, lambda s, z, u: z * u, [1.0], 1.0)
        cfg = sample_configuration(model, seed=3)
        assert cfg.n_atoms == 1
        x = cfg.marks[0]
        jac = finite_difference_add_derivative(F.value, Configuration(1.0, 1, [], [], "lent"), cfg.times[0], x, 1)
        gamma = carre_du_champ(F, cfg, diag_squares_gamma(1), mode="fd").matrix[0, 0]
        assert gamma == pytest.approx((jac[0, 0] * x[0]) ** 2, rel=1e-12)
        assert gamma == pytest.approx(0.0464168, rel=1e-6)

    def test_step_validation(self):
        with pytest.raises(FunctionalError):
            make_jump_sde(SYM1, lambda s, z, u: u, [0.0], 1.0, euler_step=0.0)

    def test_step_budget_is_checked_at_construction(self):
        # built, never run: the cap trips before a step or a scan chunk is allocated
        cap = functionals._SDE_MAX_STEPS
        make_jump_sde(SYM1, lambda s, z, u: u, [0.0], 1.0, euler_step=2.0 / cap)
        make_triangular_sde(DRIFT2, t=0.5, euler_step=1.0 / cap)
        message = r"^euler_step = 1e-300 needs t / euler_step = 1e\+300 Euler steps, above the cap of 1,000,000$"
        builders = (partial(make_jump_sde, SYM1, lambda s, z, u: u, [0.0]), partial(make_triangular_sde, DRIFT2, (0.0,) * 3))
        for build in builders:
            with pytest.raises(FunctionalError, match=message):
                build(1.0, euler_step=1e-300)
            with pytest.raises(FunctionalError, match=r"above the cap"):
                build(1.0, euler_step=0.5 / cap)


class TestIndependentValueOracles:
    """Brute-force oracles computed without the closed segment formulas."""

    def test_area_against_riemann_sum(self):
        F = make_stochastic_area(DRIFT2, 1.0)
        mean = DRIFT2.mean
        for seed in (3, 11, 27):
            cfg = sample_configuration(DRIFT2, seed)
            grid = np.sort(np.unique(np.concatenate([np.linspace(0, 1, 40_001), cfg.times])))

            def path(s_arr):
                out = np.zeros((len(s_arr), 2))
                for t_i, x_i in zip(cfg.times, cfg.marks):
                    out[s_arr >= t_i] += x_i
                return out - np.outer(s_arr, mean)

            right = path(grid)
            left = right - np.array(
                [
                    cfg.marks[list(cfg.times).index(s)] if s in cfg.times else np.zeros(2)
                    for s in grid
                ]
            )
            dx = np.diff(right, axis=0)
            area = float(np.sum(left[:-1, 0] * dx[:, 1] - left[:-1, 1] * dx[:, 0]))
            # left endpoints of each cell: the pre-jump value at jump cells
            got = F.value(cfg)[2]
            assert got == pytest.approx(area, abs=5e-4), (seed, got, area)

    def test_gou_against_euler_simulation(self):
        # dX = (-mu_xi X - mu_eta) ds between jumps; X <- exp(dxi) (X + deta) at jumps
        x0, t = 0.7, 1.0
        F = make_generalized_ou(DRIFT2, x0=x0, t=t)
        mu_xi, mu_eta = DRIFT2.mean
        for seed in (5, 9):
            cfg = sample_configuration(DRIFT2, seed)
            h = 1e-5
            x = x0
            events = list(zip(cfg.times, cfg.marks)) + [(t, None)]
            s = 0.0
            for tau, mark in events:
                steps = max(1, int(round((tau - s) / h)))
                dt = (tau - s) / steps if steps else 0.0
                for _ in range(steps):
                    x += dt * (-mu_xi * x - mu_eta)
                s = tau
                if mark is not None:
                    x = math.exp(mark[0]) * (x + mark[1])
            assert F.value(cfg)[0] == pytest.approx(x, rel=2e-4), seed

    def test_time_integral_against_dense_trapezoid(self):
        # dense trapezoid per inter-jump segment (the path is smooth inside)
        F = TestTimeIntegral.square(DRIFT1)
        mean = DRIFT1.mean
        for seed in (2, 8):
            cfg = sample_configuration(DRIFT1, seed)
            breaks = np.concatenate([[0.0], cfg.times[cfg.times < 1.0], [1.0]])
            ref = 0.0
            base = 0.0
            k = 0
            for a, b in zip(breaks[:-1], breaks[1:]):
                while k < cfg.n_atoms and cfg.times[k] <= a:
                    base += cfg.marks[k, 0]
                    k += 1
                s = np.linspace(a, b, 20_001)
                ref += float(np.trapezoid((base - s * mean[0]) ** 2, s))
            assert F.value(cfg)[0] == pytest.approx(ref, rel=1e-8), seed


@pytest.mark.parametrize(
    "maker,model,dim",
    [
        (lambda m: make_path_eval(m, 1.0), DRIFT1, 1),
        (lambda m: make_doleans(m, 1.0), DRIFT1, 1),
        (lambda m: make_pair_doleans(m, 1.0), DRIFT1, 1),
        (lambda m: make_stochastic_area(m, 1.0), DRIFT2, 2),
        (
            lambda m: make_time_integral(
                m, lambda y: np.sum(y * y, axis=-1, keepdims=True), lambda y: 2.0 * y[..., None, :]
            ),
            DRIFT1,
            1,
        ),
        (lambda m: make_generalized_ou(m, 0.5, 1.0), DRIFT2, 2),
    ],
)
def test_closed_derivative_vs_fd_invariant(maker, model, dim):
    """100 random (cfg, time, mark) probes per closed-form functional."""
    F = maker(model)
    rng = substream(1234)
    for _ in range(100):
        cfg = sample_configuration(model, int(rng.integers(1 << 30)))
        t = float(rng.uniform(0.0, 1.0))
        x = rng.uniform(-0.3, 0.9, size=dim)
        assert_derivative_matches_fd(F, cfg, t, x)
