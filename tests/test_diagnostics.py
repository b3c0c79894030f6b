import dataclasses
import math
import warnings

import numpy as np
import pytest

from lentparticle import diagnostics
from lentparticle.configuration import Atom, add_particle, remove_index, sample_batch
from lentparticle.diagnostics import (
    EstimatorReport,
    dyadic_modulus_limit,
    ecf,
    ecf_reference_linear,
    kde,
    laplace_check,
    duality_check,
    mark_identities_check,
    marked_moment_check,
    rajchman_demo,
)
from lentparticle.functionals import FunctionalError, make_doleans, make_pair_doleans, make_path_eval, with_fd_derivative
from lentparticle.intensities import dyadic_model, gauss_model, power_model, uniform_model
from lentparticle.rng import substream
from lentparticle.suite import _exp_neg_integral_functional

SYM = uniform_model(1.0, rate=3.0, low=-1.0, high=1.0, label="sym3")


class TestEstimatorReport:
    def test_statistical_rule_is_exactly_four_se(self):
        r = EstimatorReport("x", 1.0, 0.0, standard_error=0.25, nsamples=10)
        assert r.passed  # |1 - 0| == 4 * 0.25
        r2 = EstimatorReport("x", 1.0000001, 0.0, standard_error=0.25, nsamples=10)
        assert not r2.passed

    def test_json_round(self):
        r = EstimatorReport("x", complex(1, 2), complex(1, 2), 0.1, 5)
        d = r.to_dict()
        assert d["estimate"] == {"re": 1.0, "im": 2.0} and d["pass"]

    def test_z_is_deviation_over_se(self):
        r = EstimatorReport("x", complex(1.3, 0.4), complex(1.0, 0.0), standard_error=0.25, nsamples=10)
        assert r.z == pytest.approx(2.0, rel=1e-15) and r.to_dict()["z"] == r.z

    @pytest.mark.parametrize("estimate,z", [(1.0, math.nan), (1.5, math.inf)])
    def test_z_without_standard_error_is_null(self, estimate, z):
        r = EstimatorReport("x", estimate, 1.0, standard_error=0.0, nsamples=1)
        np.testing.assert_equal(r.z, z)
        assert r.to_dict()["z"] is None


class TestLaplace:
    def test_zero_function_exact(self):
        rep = laplace_check(SYM, lambda ts, xs: np.zeros(len(ts)), 500, seed=1)
        assert rep.estimate == 1.0 + 0.0j and rep.reference == 1.0 + 0.0j and rep.passed

    def test_indicator_reference_closed_form(self):
        # f = c 1_{x > 0}: nu(A) = rate * T / 2 on the symmetric model
        c = 0.7
        rep = laplace_check(SYM, lambda ts, xs: c * (xs[:, 0] > 0.0), 50_000, seed=2)
        lam0 = 1.5
        expected = np.exp(-lam0 * (1.0 - np.exp(1j * c) + 1j * c))
        assert rep.reference == pytest.approx(expected, abs=1e-12)
        assert rep.passed

    def test_power_model_linear_probe(self):
        model = power_model(1.0, c=0.4, a=0.5, epsilon=0.02, symmetric=True)
        rep = laplace_check(model, lambda ts, xs: 0.3 * xs[:, 0], 50_000, seed=3)
        assert rep.passed

    def test_conjugate_symmetry(self):
        f = lambda ts, xs: 0.3 * xs[:, 0]
        rep_plus = laplace_check(SYM, f, 20_000, seed=4)
        rep_minus = laplace_check(SYM, lambda ts, xs: -f(ts, xs), 20_000, seed=4)
        assert rep_minus.estimate == pytest.approx(np.conj(rep_plus.estimate), abs=1e-12)
        assert rep_minus.reference == pytest.approx(np.conj(rep_plus.reference), abs=1e-12)


    def test_gauss_d2_reference_integrals_stay_within_node_budget(self):
        """The three reference integrals evaluate 69,722 nodes over the gauss box (734,536 over R^2)."""
        model = gauss_model(1.0, rate=3.0, dim=2)
        nodes = []

        def counted(f):
            def g(xs):
                nodes.append(len(xs))
                return f(xs)

            return model.sigma_integrate(g)

        probe = lambda ts, xs: 0.3 * xs[:, 0] + 0.2 * xs[:, 1]
        laplace_check(dataclasses.replace(model, sigma_integrate=counted), probe, 2, seed=0)
        assert 0 < sum(nodes) < 150_000


class TestLemma8:
    def test_constant_functional_matches_campbell(self):
        one = with_fd_derivative("one", 1, 1, lambda cfg: np.array([1.0]))
        g = lambda xs: xs[:, 0] ** 2
        r_add, r_rem = duality_check(SYM, one, g, 20_000, seed=5)
        assert r_add.passed and r_rem.passed
        # both sides estimate E N(g) = nu(g) = 1
        assert r_add.estimate == pytest.approx(1.0, abs=0.05)

    def test_zero_g(self):
        one = with_fd_derivative("one", 1, 1, lambda cfg: np.array([1.0]))
        r_add, r_rem = duality_check(SYM, one, lambda xs: np.zeros(len(xs)), 500, seed=6)
        assert r_add.estimate == 0.0 and r_rem.estimate == 0.0

    def test_exponential_functional(self):
        expf = with_fd_derivative(
            "exp", 1, 1, lambda cfg: np.array([math.exp(-float(np.abs(cfg.marks).sum()))])
        )
        r_add, r_rem = duality_check(SYM, expf, lambda xs: xs[:, 0] ** 2, 20_000, seed=7)
        assert r_add.passed and r_rem.passed


def _duality_oracle(model, G, g, nsamples, seed, name="duality"):
    """duality_check as one loop over samples: add_particle and remove_index on each config(i)."""
    scalar = lambda cfg: float(np.atleast_1d(G.value(cfg))[0])
    lam = model.rate * model.horizon
    sigma_g = model.sigma_integrate(g)
    batch = sample_batch(model, nsamples, seed)
    rng = substream(seed, 1)
    taus = rng.uniform(0.0, model.horizon, size=nsamples)
    chis = model.sample_marks(rng, nsamples)
    g_extra = np.asarray(g(chis), dtype=float)
    lhs_p, rhs_p, lhs_m, rhs_m = (np.empty(nsamples) for _ in range(4))
    for i in range(nsamples):
        cfg = batch.config(i)
        g_atoms = np.asarray(g(cfg.marks), dtype=float) if cfg.n_atoms else np.zeros(0)
        g_cfg = scalar(cfg)
        lhs_p[i] = lam * scalar(add_particle(cfg, Atom(taus[i], chis[i]))) * g_extra[i]
        rhs_p[i] = g_cfg * float(g_atoms.sum())
        lhs_m[i] = sum(scalar(remove_index(cfg, a)) * g_atoms[a] for a in range(cfg.n_atoms))
        rhs_m[i] = g_cfg * model.horizon * sigma_g
    return (
        diagnostics._paired_report(f"{name}[add]", lhs_p, rhs_p),
        diagnostics._paired_report(f"{name}[remove]", lhs_m, rhs_m),
    )


SLANT = uniform_model(1.0, rate=3.0, low=-0.5, high=1.0, label="slant")
ONE = with_fd_derivative("one", 1, 1, lambda cfg: np.array([1.0]))
EXP_ABS = _exp_neg_integral_functional(SLANT, lambda xs: np.abs(xs[:, 0]))
SQUARE = lambda xs: xs[:, 0] ** 2


class TestDualityAgainstPerSampleLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "G,g",
        [
            (make_doleans(SLANT, 1.0), SQUARE),
            (make_doleans(SLANT, 0.5), SQUARE),
            (EXP_ABS, lambda xs: np.abs(xs[:, 0])),
            (ONE, SQUARE),
            (make_doleans(SLANT, 1.0), lambda xs: np.zeros(len(xs))),
        ],
        ids=["doleans", "doleans_t_half", "exp", "one_fallback", "zero_g"],
    )
    def test_reports_equal(self, monkeypatch, G, g, seed):
        # blocks that do not divide the sample count
        monkeypatch.setattr(diagnostics, "DUALITY_BLOCK", 700)
        got = duality_check(SLANT, G, g, 2_000, seed=seed)
        want = _duality_oracle(SLANT, G, g, 2_000, seed=seed)
        for a, b in zip(got, want):
            assert a.name == b.name and a.nsamples == b.nsamples
            assert a.estimate == b.estimate
            assert a.standard_error == b.standard_error
            assert abs(a.reference - b.reference) <= math.ulp(b.reference)

    def test_hook_and_fallback_agree(self):
        fallback = with_fd_derivative("exp_loop", 1, 1, EXP_ABS.value)
        assert fallback.value_batch is None
        for a, b in zip(duality_check(SLANT, EXP_ABS, SQUARE, 3_000, seed=4),
                        duality_check(SLANT, fallback, SQUARE, 3_000, seed=4)):
            assert a.to_dict() == b.to_dict()


class TestMarkedMoment:
    def test_mark_free_integrand_exact(self):
        rep = marked_moment_check(
            SYM,
            lambda ts, xs, r: xs[:, 0],
            lambda ts, xs: xs[:, 0],
            lambda ts, xs: xs[:, 0] ** 2,
            2000,
            seed=8,
        )
        assert rep.deviation <= 1e-12

    def test_centered_integrand(self):
        rep = marked_moment_check(
            SYM,
            lambda ts, xs, r: xs[:, 0] * (r - 0.5),
            lambda ts, xs: np.zeros(len(ts)),
            lambda ts, xs: xs[:, 0] ** 2 / 12.0,
            50_000,
            seed=9,
        )
        assert rep.passed
        # reference reduces to E N(x^2) / 12 = 1 / 12 on this model
        assert rep.reference == pytest.approx(1.0 / 12.0, abs=0.01)


class TestMarkIdentities:
    def test_mark_free_is_exact(self):
        def F(ts, xs, r):
            base = 0.5 + 0.4 * np.abs(np.sin(xs[:, 0]))
            return base.reshape(base.shape + (1,) * (np.ndim(r) - 1)) * np.ones_like(r)

        def Fm(ts, xs):
            return 0.5 + 0.4 * np.abs(np.sin(xs[:, 0]))

        r1, r2 = mark_identities_check(SYM, F, Fm, 2000, 8, seed=10)
        assert r1.deviation <= 1e-12 and r2.deviation <= 1e-12

    def test_domain_guard(self):
        def F(ts, xs, r):
            return 2.0 * np.ones_like(r)

        with pytest.raises(ValueError):
            mark_identities_check(SYM, F, lambda ts, xs: np.ones(len(ts)), 100, 4, seed=11)

    def test_exp_probe(self):
        def F(ts, xs, r):
            x2 = xs[:, 0] ** 2
            return np.exp(-x2.reshape(x2.shape + (1,) * (np.ndim(r) - 1)) * r)

        def Fm(ts, xs):
            x2 = xs[:, 0] ** 2
            return -np.expm1(-x2) / x2

        r1, r2 = mark_identities_check(SYM, F, Fm, 20_000, 16, seed=12)
        assert r1.passed and r2.passed

    def test_empty_configurations_give_one_and_zero(self):
        sparse = uniform_model(1.0, rate=1e-9, label="sparse")
        r1, r2 = mark_identities_check(
            sparse, lambda ts, xs, r: np.ones_like(r), lambda ts, xs: np.ones(len(ts)), 50, 4, seed=13
        )
        assert r1.estimate == 1.0 and r1.reference == 1.0
        assert r2.estimate == 0.0 and r2.reference == 0.0


class TestKde:
    def test_degenerate_sample_flagged(self):
        const = with_fd_derivative("const", 1, 1, lambda cfg: np.array([2.5]))
        curve = kde(const, SYM, 200, seed=13)
        assert curve.degenerate and curve.atom == (2.5,)

    def test_integrates_to_one(self):
        model = uniform_model(1.0, rate=20.0, low=-1.0, high=1.0)
        curve = kde(make_path_eval(model, 1.0), model, 4000, seed=14)
        assert abs(curve.integral - 1.0) <= 1e-3
        assert np.all(curve.density >= 0.0)

    def test_symmetric_model_gives_symmetric_density(self):
        model = uniform_model(1.0, rate=20.0, low=-1.0, high=1.0)
        curve = kde(make_path_eval(model, 1.0), model, 6000, seed=15)
        gx, dens = curve.grid[0], curve.density
        sym = np.interp(-gx, gx, dens, left=0.0, right=0.0)
        asym = float(np.trapezoid(np.abs(dens - sym), gx))
        assert asym <= 0.05

    def test_pair_mass_above_zero(self):
        # positive marks keep the exponential coordinate above 1
        model = power_model(1.0, c=0.35, a=0.5, epsilon=0.05, label="pos")
        curve = kde(make_pair_doleans(model, 1.0), model, 3000, seed=16)
        gx, gy = curve.grid
        mass_pos = float(
            np.trapezoid(np.trapezoid(curve.density[:, gy > 0.0], gy[gy > 0.0], axis=1), gx)
        )
        assert mass_pos / curve.integral >= 1.0 - 1e-3

    def test_dimension_cap(self):
        from lentparticle.functionals import make_stochastic_area

        model = uniform_model(1.0, rate=3.0, dim=2)
        with pytest.raises(ValueError):
            kde(make_stochastic_area(model, 1.0), model, 100, seed=17)


class TestEcf:
    def test_zero_functional(self):
        const = with_fd_derivative("zero", 1, 1, lambda cfg: np.array([0.0]))
        curve = ecf(const, SYM, 500, np.array([0.5, 1.0, 5.0]), seed=18)
        np.testing.assert_allclose(curve.modulus, 1.0)

    def test_scalar_functional_required(self):
        model = uniform_model(1.0, rate=3.0)
        with pytest.raises(ValueError):
            ecf(make_pair_doleans(model, 1.0), model, 100, np.array([1.0]), seed=0)

    def test_overflowing_phase_raises_without_warning(self):
        # u * F overflows at u = 1e308, where exp(i u F) used to write nan moduli
        model = uniform_model(1.0, rate=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FunctionalError, match="not finite"):
                ecf(make_path_eval(model, 1.0), model, 200, np.array([0.5, 1e308]), seed=0)

    def test_diffuse_model_decays(self):
        model = uniform_model(1.0, rate=20.0, low=-1.0, high=1.0)
        u_grid = np.array([0.5, 2.0, 8.0, 20.0, 40.0])
        curve = ecf(make_path_eval(model, 1.0), model, 20_000, u_grid, seed=19)
        ref = ecf_reference_linear(model, u_grid)
        np.testing.assert_allclose(curve.modulus, ref, atol=4.0 / math.sqrt(20_000) + 0.01)
        assert ref[-1] < 0.1 and curve.modulus[-1] < 0.1

    def test_truncation_ladder_monotone_decay(self):
        # shrinking the cut strengthens the decay of |phi| at fixed frequency
        u_grid = np.array([30.0])
        mods = [
            ecf_reference_linear(power_model(1.0, c=0.5, a=0.5, epsilon=eps, symmetric=True), u_grid)[0]
            for eps in (0.2, 0.1, 0.05, 0.02)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(mods, mods[1:]))


class TestRajchman:
    def test_constant_modulus_on_dyadic_model(self):
        model = dyadic_model(1.0, 0, 30)
        out = rajchman_demo(model, k_max=8)
        closed = np.asarray(out["closed_modulus"])
        assert np.abs(closed - out["limit"]).max() <= 2e-3
        assert out["limit"] == pytest.approx(0.0335, abs=2e-4)

    def test_start_index_parameter(self):
        # starting the atoms at n = 1 lifts the k = 0 modulus only: the
        # missing unit atom re-enters the sum at every k >= 1
        model = dyadic_model(1.0, 1, 30)
        out = rajchman_demo(model, k_max=4)
        closed = np.asarray(out["closed_modulus"])
        assert abs(closed[0] - dyadic_modulus_limit()) > 0.1
        np.testing.assert_allclose(closed[1:], dyadic_modulus_limit(), atol=1e-6)

    def test_mc_overlay(self):
        model = dyadic_model(1.0, 0, 12)
        out = rajchman_demo(model, k_max=2, nsamples=4000, seed=20)
        mc = np.asarray(out["mc_modulus"])
        closed = np.asarray(out["closed_modulus"])
        assert np.abs(mc - closed).max() <= 4.0 * out["mc_se"] + 0.02
