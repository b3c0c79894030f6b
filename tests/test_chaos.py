import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lentparticle.chaos import (
    ChaosError,
    MarkFunction,
    ResamplingSemigroup,
    chaos_gamma_alternating,
    chaos_gamma_closed,
    exp_series_check,
    mehler_exponential_check,
    multiple_integral_batch,
    multiple_integral_equal,
    multiple_integral_functional,
    orthogonality_mc,
    product_formula_check,
    pt_apply,
    pt_symmetry_check,
    second_quantization_check,
)
from lentparticle.chaos import _lend_integrals
from lentparticle.configuration import Configuration, remove_index, sample_batch, sample_configuration
from lentparticle.diagnostics import EstimatorReport
from lentparticle.functionals import finite_difference_add_derivative, stack_functionals
from lentparticle.intensities import uniform_model
from lentparticle.lent_particle import carre_du_champ, diag_squares_gamma
from lentparticle.rng import substream

U_ID = MarkFunction(lambda xs: xs[:, 0], sup_bound=1.0, grad=lambda xs: np.ones((len(xs), 1)), label="x")
V_SQ = MarkFunction(lambda xs: xs[:, 0] ** 2, sup_bound=1.0, grad=lambda xs: 2.0 * xs[:, 0:1], label="x^2")

# nu(x) = 0.1 on this model
MODEL01 = uniform_model(1.0, rate=1.0, low=0.0, high=0.2, label="nu01")
SYM = uniform_model(1.0, rate=4.0, low=-1.0, high=1.0, label="sym4")
EX1 = Configuration(1.0, 1, [0.2, 0.6], [[0.5], [-0.2]], "manual")
EMPTY = Configuration(1.0, 1, [], [], "manual")
SPEC = diag_squares_gamma(1)


# ---------------------------------------------------------------------------
# oracles: I_n by inclusion-exclusion over elementary symmetric polynomials,
# per configuration and per group of a batch through the Newton identities
# ---------------------------------------------------------------------------

def elementary_symmetric(values, kmax):
    """e_0..e_kmax of the values by the stable descending-index recurrence."""
    e = np.zeros(kmax + 1)
    e[0] = 1.0
    top = 0
    for v in np.asarray(values, dtype=float):
        top = min(top + 1, kmax)
        for k in range(top, 0, -1):
            e[k] += v * e[k - 1]
    return e


def _i_n_from_e(e, nu_u, n):
    """I_n of the equal kernel from e_0..e_n over the last axis: sum_k C(n, k) (-nu(u))^(n-k) k! e_k."""
    out = np.zeros(e.shape[:-1])
    for k in range(0, n + 1):
        out += math.comb(n, k) * (-nu_u) ** (n - k) * math.factorial(k) * e[..., k]
    return out


def _e_from_power_sums(p, kmax):
    """Newton identities: e_0..e_kmax from power sums, vectorized over rows."""
    e = np.zeros(p.shape[:-1] + (kmax + 1,))
    e[..., 0] = 1.0
    for k in range(1, kmax + 1):
        acc = np.zeros(p.shape[:-1])
        for i in range(1, k + 1):
            acc += (-1.0) ** (i - 1) * e[..., k - i] * p[..., i - 1]
        e[..., k] = acc / k
    return e


def _grouped_i_n(index, vals, size, nu_u, n):
    """I_n of the equal kernel per group of atoms from per-group power sums, shape (size,)."""
    p = np.empty((size, n))
    pk = np.ones_like(vals)
    for k in range(1, n + 1):
        pk = pk * vals
        p[:, k - 1] = np.bincount(index, weights=pk, minlength=size)
    return _i_n_from_e(_e_from_power_sums(p, n), nu_u, n)


def _exact_integrals(vals, nu_u, n):
    """I_0..I_n by inclusion-exclusion in exact rationals, and the same sums with every term made positive."""
    nu = Fraction(nu_u)
    e, e_abs = [Fraction(1)] + [Fraction(0)] * n, [Fraction(1)] + [Fraction(0)] * n
    for v in map(Fraction, vals.tolist()):
        for k in range(n, 0, -1):
            e[k] += v * e[k - 1]
            e_abs[k] += abs(v) * e_abs[k - 1]
    terms = lambda j, x, es: sum(math.comb(j, k) * x ** (j - k) * math.factorial(k) * es[k] for k in range(j + 1))
    return [terms(j, -nu, e) for j in range(n + 1)], [terms(j, abs(nu), e_abs) for j in range(n + 1)]


def _factorial_measure(cfg, u, k):
    """N^(k)(u tensor k), the sum over ordered k-tuples of distinct atoms: k! e_k(u values)."""
    return math.factorial(k) * float(elementary_symmetric(u(cfg.marks), k)[k])


def _polarized(cfg, model, factors):
    """I_n of the symmetrized product of the factors by polarization.

    The signed sum over eps in {+1, -1}^n of prod(eps) I_n((sum_j eps_j u_j) tensor n),
    divided by n! 2^n: every term is an equal-factor integral.
    """
    n = len(factors)
    total = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=n):
        w = MarkFunction(
            lambda xs, signs=signs: sum(e * f(xs) for e, f in zip(signs, factors)),
            sup_bound=sum(f.sup_bound for f in factors),
        )
        total += math.prod(signs) * multiple_integral_equal(cfg, model, w, n)
    return total / (math.factorial(n) * 2**n)


def _inclusion_exclusion(cfg, model, factors):
    """I_n of u_1 x ... x u_n from ordered tuples of distinct atoms, weighted by nu of the rest."""
    n = len(factors)
    vals = [f(cfg.marks) for f in factors]
    nus = [model.nu_integrate(f) for f in factors]
    total = 0.0
    for inside in itertools.product((False, True), repeat=n):
        js = [j for j in range(n) if inside[j]]
        measure = sum(
            math.prod(vals[j][a] for j, a in zip(js, atoms))
            for atoms in itertools.permutations(range(cfg.n_atoms), len(js))
        )
        rest = math.prod(nus[j] for j in range(n) if not inside[j])
        total += (-1.0) ** (n - len(js)) * rest * measure
    return total


class TestFactorialMeasure:
    def test_order_one(self):
        assert _factorial_measure(EX1, U_ID, 1) == pytest.approx(0.3)

    def test_order_two_ordered_pairs(self):
        assert _factorial_measure(EX1, U_ID, 2) == pytest.approx(-0.2)

    def test_order_exceeds_atoms(self):
        assert _factorial_measure(EX1, U_ID, 3) == 0.0

    def test_order_zero(self):
        assert _factorial_measure(EX1, U_ID, 0) == 1.0

    @given(st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=7), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_matches_brute_force(self, vals, k):
        from itertools import combinations

        e = elementary_symmetric(np.array(vals), max(k, 1))
        brute = sum(math.prod(c) for c in combinations(vals, k)) if k <= len(vals) else 0.0
        got = e[k] if k < e.size else 0.0
        assert got == pytest.approx(brute, rel=1e-10, abs=1e-10)


class TestMultipleIntegral:
    def test_first_chaos_is_compensated(self):
        assert multiple_integral_equal(EX1, MODEL01, U_ID, 1) == pytest.approx(0.2)

    def test_first_chaos_zero_mean_model(self):
        sym = uniform_model(1.0, rate=2.0, low=-0.9, high=0.9)
        assert multiple_integral_equal(EX1, sym, U_ID, 1) == pytest.approx(0.3, abs=1e-12)

    def test_second_chaos_fixture(self):
        assert multiple_integral_equal(EX1, MODEL01, U_ID, 2) == pytest.approx(-0.25)

    def test_pathwise_identity_degree_two(self):
        # I_2 = (N(u) - nu(u))^2 - N(u^2)
        for seed in range(10):
            cfg = sample_configuration(SYM, seed)
            nu_u = SYM.nu_integrate(U_ID)
            vals = U_ID(cfg.marks) if cfg.n_atoms else np.zeros(0)
            ref = (vals.sum() - nu_u) ** 2 - (vals**2).sum()
            assert multiple_integral_equal(cfg, SYM, U_ID, 2) == pytest.approx(ref, rel=1e-12)

    def test_empty_configuration(self):
        nu_u = MODEL01.nu_integrate(U_ID)
        for n in (1, 2, 3, 4):
            expect = (-nu_u) ** n
            assert multiple_integral_equal(EMPTY, MODEL01, U_ID, n) == pytest.approx(expect)

    def test_degree_cap(self):
        with pytest.raises(ChaosError):
            multiple_integral_equal(EX1, MODEL01, U_ID, 9)

    def test_factor_symmetry(self):
        # a degree-3 product kernel in two factor orders, by polarization
        w = MarkFunction(lambda xs: np.cos(xs[:, 0]), sup_bound=1.0, label="cos")
        cfg = sample_configuration(SYM, 3)
        brute = _inclusion_exclusion(cfg, SYM, (U_ID, V_SQ, w))
        assert _polarized(cfg, SYM, (U_ID, V_SQ, w)) == pytest.approx(brute, rel=1e-12)
        assert _polarized(cfg, SYM, (w, U_ID, V_SQ)) == pytest.approx(brute, rel=1e-12)

    def test_distinct_factors_brute_force(self):
        cfg = sample_configuration(SYM, 5)
        nu_u = SYM.nu_integrate(U_ID)
        nu_v = SYM.nu_integrate(V_SQ)
        uu = U_ID(cfg.marks)
        vv = V_SQ(cfg.marks)
        n = cfg.n_atoms
        n2 = sum(uu[i] * vv[j] for i in range(n) for j in range(n) if i != j)
        brute = n2 - nu_u * vv.sum() - nu_v * uu.sum() + nu_u * nu_v
        assert _polarized(cfg, SYM, (U_ID, V_SQ)) == pytest.approx(brute, rel=1e-12)

    def test_equal_kernel_consistency(self):
        # polarization of equal factors gives back the equal-factor integral
        cfg = sample_configuration(SYM, 6)
        a = _polarized(cfg, SYM, (U_ID,) * 3)
        b = multiple_integral_equal(cfg, SYM, U_ID, 3)
        assert a == pytest.approx(b, rel=1e-12)


class TestExpSeries:
    def test_zero_kernel(self):
        zero = MarkFunction(lambda xs: np.zeros(len(xs)), sup_bound=0.0)
        res = exp_series_check(EX1, SYM, zero, t=0.3, n_max=6)
        assert res.residual == 0.0

    def test_empty_configuration_scalar_taylor(self):
        u = MarkFunction(lambda xs: 0.5 * np.ones(len(xs)), sup_bound=0.5)
        res = exp_series_check(EMPTY, SYM, u, t=0.4, n_max=10)
        nu_u = SYM.nu_integrate(u)
        tail = abs(math.exp(-0.4 * nu_u) - sum((-0.4 * nu_u) ** n / math.factorial(n) for n in range(11)))
        assert res.residual == pytest.approx(tail, abs=1e-15)

    def test_random_configurations_within_tail(self):
        u = MarkFunction(lambda xs: 0.3 * xs[:, 0], sup_bound=0.3)
        model = uniform_model(1.0, rate=10.0, low=-1.0, high=1.0)
        for seed in range(30):
            cfg = sample_configuration(model, seed)
            res = exp_series_check(cfg, model, u, t=0.2, n_max=12)
            assert res.residual <= 1e-8

    def test_radius_guard(self):
        with pytest.raises(ChaosError):
            exp_series_check(EX1, SYM, U_ID, t=0.6, n_max=4)


class TestProductFormula:
    def test_zero_kernel_side(self):
        zero = MarkFunction(lambda xs: np.zeros(len(xs)), sup_bound=0.0)
        assert product_formula_check(EX1, SYM, zero, V_SQ, 0.2, 0.2) <= 1e-15

    def test_zero_times(self):
        assert product_formula_check(EX1, SYM, U_ID, V_SQ, 0.0, 0.0) <= 1e-15

    def test_random_configurations(self):
        model = uniform_model(1.0, rate=10.0, low=-1.0, high=1.0)
        for seed in range(30):
            cfg = sample_configuration(model, seed)
            assert product_formula_check(cfg, model, U_ID, V_SQ, 0.2, 0.2) <= 1e-10


class TestChaosGamma:
    def test_first_order_is_configuration_integral(self):
        got = chaos_gamma_closed(EX1, MODEL01, U_ID, U_ID, 1, 1, SPEC)
        assert got == pytest.approx(0.29, abs=1e-14)

    def test_empty(self):
        assert chaos_gamma_closed(EMPTY, MODEL01, U_ID, V_SQ, 2, 2, SPEC) == 0.0

    def test_alternating_form_telescopes(self):
        cfg = sample_configuration(SYM, 8)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                a = chaos_gamma_closed(cfg, SYM, U_ID, V_SQ, i, j, SPEC)
                b = chaos_gamma_alternating(cfg, SYM, U_ID, V_SQ, i, j, SPEC)
                assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_against_fd_lent_particle(self):
        rng = substream(17)
        fu = {i: multiple_integral_functional(SYM, U_ID, i) for i in (1, 2, 3)}
        fv = {j: multiple_integral_functional(SYM, V_SQ, j) for j in (1, 2, 3)}
        for _ in range(6):
            cfg = sample_configuration(SYM, int(rng.integers(1 << 30)))
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    closed = chaos_gamma_closed(cfg, SYM, U_ID, V_SQ, i, j, SPEC)
                    pair = stack_functionals([fu[i], fv[j]])
                    fd = carre_du_champ(pair, cfg, SPEC, mode="fd").matrix[0, 1]
                    assert abs(closed - fd) <= 1e-6 * (1.0 + abs(closed))

    def test_gradient_required(self):
        plain = MarkFunction(lambda xs: xs[:, 0], sup_bound=1.0)
        with pytest.raises(ChaosError):
            chaos_gamma_closed(EX1, MODEL01, plain, plain, 1, 1, SPEC)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lent_derivative_matches_finite_differences(self, n):
        # D_x I_n = n I_(n-1): the closed mark Jacobian at every lent atom
        # against central differences of the value, criterion 1's 1e-6 relative
        cos = MarkFunction(
            lambda xs: np.cos(xs[:, 0]), sup_bound=1.0, grad=lambda xs: -np.sin(xs[:, 0:1]), label="cos"
        )
        for u in (U_ID, V_SQ, cos):
            F = multiple_integral_functional(SYM, u, n)
            assert F.has_closed_derivative
            for seed in range(8):
                cfg = sample_configuration(SYM, 300 + seed)
                closed, fd = [], []
                for a in range(cfg.n_atoms):
                    reduced, t, x = remove_index(cfg, a), float(cfg.times[a]), cfg.marks[a]
                    closed.append(F.add_derivative(reduced, t, x))
                    fd.append(finite_difference_add_derivative(F.value, reduced, t, x, 1))
                closed, fd = np.array(closed), np.array(fd)
                assert closed.shape == fd.shape == (cfg.n_atoms, 1, 1)
                assert np.linalg.norm(closed - fd) <= 1e-6 * max(np.linalg.norm(closed), 1e-300)

    def test_closed_mode_needs_a_gradient_fd_mode_does_not(self):
        plain = MarkFunction(lambda xs: xs[:, 0], sup_bound=1.0, label="x")
        F = multiple_integral_functional(SYM, plain, 2)
        cfg = sample_configuration(SYM, 8)
        with pytest.raises(ChaosError, match="no gradient"):
            carre_du_champ(F, cfg, SPEC, mode="closed")
        fd = carre_du_champ(F, cfg, SPEC, mode="fd").matrix[0, 0]
        assert fd == pytest.approx(chaos_gamma_closed(cfg, SYM, U_ID, U_ID, 2, 2, SPEC), rel=1e-6)


class TestBatchIntegrals:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_batch_matches_per_configuration(self, n):
        batch = sample_batch(SYM, 200, seed=12)
        nu = SYM.nu_integrate(V_SQ)
        got = multiple_integral_batch(batch, V_SQ, nu, n)
        want = [multiple_integral_equal(batch.config(i), SYM, V_SQ, n, nu_u=nu) for i in range(200)]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_time_ordered_batch_is_bit_equal_to_each_configuration(self):
        # a batch in time order lends each sample's atoms as config(i) lends them
        batch = sample_batch(SYM, 300, seed=13).samples(0, 300)
        nu = SYM.nu_integrate(V_SQ)
        for n in range(9):
            got = multiple_integral_batch(batch, V_SQ, nu, n)
            want = [multiple_integral_equal(batch.config(i), SYM, V_SQ, n, nu_u=nu) for i in range(300)]
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
    def test_inclusion_exclusion_and_newton_oracles(self, n):
        model = uniform_model(1.0, rate=6.0, low=-1.0, high=1.0)
        batch = sample_batch(model, 300, seed=14)
        nu = model.nu_integrate(V_SQ)
        per_cfg = [multiple_integral_equal(batch.config(i), model, V_SQ, n, nu_u=nu) for i in range(300)]
        oracle = [float(_i_n_from_e(elementary_symmetric(V_SQ(batch.config(i).marks), n), nu, n)) for i in range(300)]
        np.testing.assert_allclose(per_cfg, oracle, rtol=1e-10, atol=1e-10)
        newton = _grouped_i_n(batch.sample_index, V_SQ(batch.marks), batch.nsamples, nu, n)
        np.testing.assert_allclose(multiple_integral_batch(batch, V_SQ, nu, n), newton, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("rate", [10.0, 40.0])
    @pytest.mark.parametrize(
        "u", [U_ID, MarkFunction(lambda xs: 0.4 * xs[:, 0] + 0.3 * xs[:, 0] ** 2, sup_bound=0.7)]
    )
    def test_exact_rational_oracle_to_degree_twelve(self, rate, u):
        # error against exact I_n, relative to the sum of the absolute terms of I_n (at least 1)
        model = uniform_model(1.0, rate=rate, low=-1.0, high=1.0)
        batch = sample_batch(model, 25, seed=5).samples(0, 25)
        nu = model.nu_integrate(u)
        whole = np.array([multiple_integral_batch(batch, u, nu, n) for n in range(13)])
        for i in range(25):
            exact, scale = _exact_integrals(u(batch.config(i).marks), nu, 12)
            # a one-sample batch takes the per-configuration path
            alone = [multiple_integral_batch(batch.samples(i, i + 1), u, nu, n)[0] for n in range(13)]
            for n in range(13):
                bound = 1e-12 * max(scale[n], 1)
                assert abs(Fraction(whole[n, i]) - exact[n]) <= bound, (i, n)
                assert abs(Fraction(alone[n]) - exact[n]) <= bound, (i, n)

    def test_trailing_axes_lend_as_independent_batches(self):
        batch = sample_batch(SYM, 50, seed=15)
        vals = np.stack([U_ID(batch.marks), V_SQ(batch.marks), np.cos(batch.marks[:, 0])], axis=1)
        both = _lend_integrals(batch.counts, batch.offsets, vals, 0.3, 4)
        assert both.shape == (5, 50, 3)
        for j in range(3):
            np.testing.assert_array_equal(both[:, :, j], _lend_integrals(batch.counts, batch.offsets, vals[:, j], 0.3, 4))


class TestOrthogonality:
    def test_diagonal_and_off_diagonal(self):
        u = MarkFunction(lambda xs: 0.4 * xs[:, 0] + 0.3 * xs[:, 0] ** 2, sup_bound=0.7)
        v = MarkFunction(lambda xs: 0.6 * xs[:, 0] ** 2, sup_bound=0.6)
        model = uniform_model(1.0, rate=5.0, low=-1.0, high=1.0)
        r11 = orthogonality_mc(model, u, v, 1, 1, 200_000, seed=2)
        assert r11.passed and abs(r11.reference) > 0.05
        r12 = orthogonality_mc(model, u, v, 1, 2, 200_000, seed=3)
        assert r12.passed and r12.reference == 0.0
        r22 = orthogonality_mc(model, u, v, 2, 2, 200_000, seed=4)
        assert r22.passed and r22.reference == pytest.approx(2.0 * (0.18) ** 2, rel=1e-9)


class TestSemigroup:
    SG = ResamplingSemigroup(SYM)

    def test_t_zero_identity(self):
        xs = np.linspace(-1, 1, 7).reshape(-1, 1)
        ptu = pt_apply(self.SG, U_ID, 0.0)
        np.testing.assert_allclose(ptu(xs), U_ID(xs))

    def test_large_t_goes_constant(self):
        xs = np.linspace(-1, 1, 7).reshape(-1, 1)
        ptu = pt_apply(self.SG, V_SQ, 50.0)
        mean_v = self.SG.model.sigma_integrate(V_SQ) / self.SG.model.rate
        np.testing.assert_allclose(ptu(xs), mean_v, rtol=1e-12)

    def test_centered_kernel_halves_at_log2(self):
        xs = np.linspace(-1, 1, 7).reshape(-1, 1)
        ptu = pt_apply(self.SG, U_ID, math.log(2.0))  # sigma(x) = 0 on the symmetric model
        np.testing.assert_allclose(ptu(xs), 0.5 * U_ID(xs), atol=1e-14)

    def test_contraction_and_semigroup_property(self):
        xs = np.linspace(-1, 1, 11).reshape(-1, 1)
        ptu = pt_apply(self.SG, V_SQ, 0.8)
        assert np.abs(ptu(xs)).max() <= V_SQ.sup_bound + 1e-12
        lhs = pt_apply(self.SG, pt_apply(self.SG, V_SQ, 0.3), 0.5)(xs)
        rhs = pt_apply(self.SG, V_SQ, 0.8)(xs)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_symmetry_mc(self):
        rep = pt_symmetry_check(self.SG, U_ID, V_SQ, 0.6, 100_000, seed=5)
        assert rep.passed

    def test_mehler_t_zero_exact(self):
        # at t = 0 every motion keeps every mark
        marks = sample_configuration(SYM, 12).marks
        moved = self.SG.move(substream(0), marks, 0.0, 16)
        assert np.array_equal(moved, np.repeat(marks[:, None, :], 16, axis=1))

    def test_mehler_linear_functional_identity(self):
        # conditional mean of N(g) after motion is N(p_t g)
        g = MarkFunction(lambda xs: np.cos(xs[:, 0]), sup_bound=1.0)
        cfg = sample_configuration(SYM, 21)
        t = 0.4
        n_inner = 20_000
        moved = self.SG.move(substream(3), cfg.marks, t, n_inner)
        vals = g(moved.reshape(-1, 1)).reshape(cfg.n_atoms, n_inner).sum(axis=0)
        ref = float(np.sum(pt_apply(self.SG, g, t)(cfg.marks)))
        assert abs(vals.mean() - ref) <= 4.0 * vals.std(ddof=1) / math.sqrt(n_inner)

    def test_mehler_exponential_identity(self):
        g = MarkFunction(lambda xs: -0.4 / (1.0 + xs[:, 0] ** 2), sup_bound=0.4)
        rep = mehler_exponential_check(self.SG, g, 0.5, 20_000, 32, seed=6)
        assert rep.passed

    def test_second_quantization_t_zero(self):
        rep = second_quantization_check(self.SG, U_ID, 2, 0.0, 2_000, 4, seed=7)
        assert abs(rep.estimate) <= 1e-12

    def test_second_quantization_small(self):
        for deg in (1, 2):
            rep = second_quantization_check(self.SG, U_ID, deg, 0.5, 30_000, 32, seed=8 + deg)
            assert rep.passed, rep

    def test_negative_time_rejected(self):
        with pytest.raises(ChaosError):
            self.SG.keep_prob(-0.1)

    @pytest.mark.parametrize("t", [0.3, 1.5])
    def test_move_keeps_each_mark_with_probability_exp_minus_t(self, t):
        marks = sample_configuration(SYM, 40).marks
        moved = self.SG.move(substream(41), marks, t, 4000)
        assert moved.shape == (marks.shape[0], 4000, 1)
        kept = (moved == marks[:, None, :]).all(axis=2)
        q = math.exp(-t)
        assert abs(kept.mean() - q) <= 4.0 * math.sqrt(q * (1.0 - q) / kept.size)
        # each atom's column keeps at the same rate
        per_atom = kept.mean(axis=1)
        assert np.all(np.abs(per_atom - q) <= 4.0 * math.sqrt(q * (1.0 - q) / 4000))

    @pytest.mark.parametrize("d", [1, 2])
    def test_move_on_zero_atoms(self, d):
        sg = ResamplingSemigroup(uniform_model(1.0, rate=4.0, dim=d))
        assert sg.move(substream(0), np.zeros((0, d)), 0.5, 16).shape == (0, 16, d)

    @pytest.mark.parametrize("t", [0.0, 0.2, 1.0])
    def test_move_draws_one_fresh_mark_per_resampled_slot(self, t):
        # the stream rule: the keep mask, then the resampled slots' marks in row order, and nothing else
        marks = sample_configuration(SYM, 42).marks
        moving = substream(43)
        moved = self.SG.move(moving, marks, t, 50)
        rng = substream(43)
        resampled = rng.random((marks.shape[0], 50)) >= math.exp(-t)
        want = np.repeat(marks[:, None, :], 50, axis=1)
        want[resampled] = SYM.sample_marks(rng, int(resampled.sum()))
        assert np.array_equal(moved, want)
        assert np.array_equal(moving.random(4), rng.random(4))

    def test_pt_keeps_sigma(self):
        # sigma(p_t u) = sigma(u), so both sides of the second-quantization check compensate with nu(u)
        for t in (0.2, 1.0):
            assert self.SG.model.sigma_integrate(pt_apply(self.SG, V_SQ, t)) == pytest.approx(
                self.SG.model.sigma_integrate(V_SQ), rel=1e-13
            )

    def test_checks_on_a_model_without_atoms(self):
        # every block is empty: nothing moves and both sides are exact
        sg = ResamplingSemigroup(uniform_model(1e-3, rate=1e-3))
        assert sample_batch(sg.model, 200, 12, 303, 0).counts.sum() == 0
        g = MarkFunction(lambda xs: -0.4 / (1.0 + xs[:, 0] ** 2), sup_bound=0.4)
        for n in (1, 2):
            rep = second_quantization_check(sg, U_ID, n, 0.5, 200, 64, seed=12)
            assert rep.estimate == 0.0 and rep.standard_error == 0.0 and rep.passed
        rep = mehler_exponential_check(sg, g, 0.5, 200, 32, seed=12)
        assert rep.estimate == 1.0 and rep.reference == 1.0 and rep.passed

    def test_mehler_rejects_g_out_of_range(self):
        g = MarkFunction(lambda xs: 0.3 * xs[:, 0], sup_bound=0.3)
        with pytest.raises(ChaosError, match="-1/2 <= g <= 0"):
            mehler_exponential_check(self.SG, g, 0.5, 200, 8, seed=13)

    def test_inner_count_below_one_rejected(self):
        with pytest.raises(ChaosError, match="n_inner"):
            second_quantization_check(self.SG, U_ID, 1, 0.5, 200, 0, seed=14)


def test_sharp_sampling_of_chaos_functional_matches_closed_gamma():
    # three layers at once: finite-difference derivatives of I_2 feed the
    # gradient sampler, whose second moment is the closed chaos matrix entry
    from lentparticle.lent_particle import sharp_sample_many

    cfg = sample_configuration(SYM, 23)
    F = multiple_integral_functional(SYM, U_ID, 2)
    gamma = chaos_gamma_closed(cfg, SYM, U_ID, U_ID, 2, 2, SPEC)
    n = 50_000
    sq = sharp_sample_many(F, cfg, SPEC, n, seed=31, mode="fd")[:, 0] ** 2
    assert abs(sq.mean() - gamma) <= 4.0 * sq.std(ddof=1) / math.sqrt(n)


@pytest.mark.parametrize("n, reference", [(1, 4.0 / 3.0), (2, 64.0 / 9.0)])
def test_fock_space_mean_of_chaos_gamma(n, reference):
    # Mecke: E Gamma[I_n(u tensor n)] = n n! nu(u^2)^(n-1) nu(gamma[u]); for u = x and
    # alpha(x) = x^2 on rate 4 over [-1, 1], nu(u^2) = nu(gamma[u]) = 4/3
    assert SYM.nu_integrate(lambda xs: xs[:, 0] ** 2) == pytest.approx(4.0 / 3.0, rel=1e-12)
    F = multiple_integral_functional(SYM, U_ID, n)
    gammas = np.array([carre_du_champ(F, sample_configuration(SYM, 61, i), SPEC).matrix[0, 0] for i in range(4000)])
    se = float(gammas.std(ddof=1) / math.sqrt(gammas.size))
    report = EstimatorReport(f"fock_mean[n={n}]", float(gammas.mean()), reference, se, gammas.size)
    assert report.passed, report
