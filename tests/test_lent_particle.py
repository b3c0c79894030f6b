import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lentparticle import functionals, lent_particle
from lentparticle.chaos import MarkFunction, multiple_integral_functional
from lentparticle.configuration import (
    Atom,
    Configuration,
    add_particle,
    remove_index,
    sample_configuration,
)
from lentparticle.functionals import (
    _path,
    _prefix,
    _segments,
    build_functional,
    finite_difference_add_derivative,
    finite_difference_lent_jacobians,
    make_doleans,
    make_generalized_ou,
    make_pair_doleans,
    make_path_eval,
    compose_functional,
    make_stochastic_area,
    make_triangular_sde,
    stack_functionals,
    with_fd_derivative,
)
from lentparticle.intensities import curve_model, uniform_model
from lentparticle.lent_particle import (
    EngineError,
    GammaSpec,
    build_gamma,
    carre_du_champ,
    chain_rule_check,
    curve_gamma,
    det_positivity_survey,
    diag_squares_gamma,
    identity_gamma,
    norm_scaled_gamma,
    sharp_sample_many,
)
from lentparticle.lent_particle import _sharp
from lentparticle.rng import substream
from test_path_functionals import FAMILIES, PAIRS, _build

# distinct times in (0, 1] and marks bounded away from 0 and -1
ATOMS = st.lists(
    st.tuples(
        st.floats(0.01, 1.0),
        st.floats(0.05, 0.9) | st.floats(-0.9, -0.05),
    ),
    min_size=0,
    max_size=6,
    unique_by=lambda a: a[0],
)


def _config(atoms) -> Configuration:
    atoms = sorted(atoms)
    return Configuration(1.0, 1, [a[0] for a in atoms], [[a[1]] for a in atoms], "manual")


def _sharp_per_atom(F, cfg, aux, spec, mode="closed"):
    """The per-atom gradient-sample loop at auxiliary marks aux (n,), kept as the oracle for the batched engine."""
    out = np.zeros(F.out_dim)
    for i in range(cfg.n_atoms):
        reduced = remove_index(cfg, i)
        t_i, x_i = float(cfg.times[i]), cfg.marks[i]
        if mode == "fd" or not F.has_closed_derivative:
            jac = finite_difference_add_derivative(F.value, reduced, t_i, x_i, F.out_dim)
        else:
            jac = np.atleast_2d(F.add_derivative(reduced, t_i, x_i))
        out += jac @ spec.chol(x_i[None])[0] @ spec.eta(aux[i])
    return out

MODEL = uniform_model(1.0, rate=2.0, low=-0.9, high=0.9, label="sym")
SPEC = diag_squares_gamma(1)
EX1 = Configuration(1.0, 1, [0.2, 0.6], [[0.5], [-0.2]], "manual")
EMPTY = Configuration(1.0, 1, [], [], "manual")


def _gamma_quadratic(spec, x, u, v):
    """The bottom quadratic form u^T alpha(x) v."""
    return float(np.asarray(u, dtype=float) @ spec.alpha(np.asarray([x], dtype=float))[0] @ np.asarray(v, dtype=float))


class TestGammaQuadratic:
    def test_diag_squares(self):
        assert _gamma_quadratic(SPEC, [0.5], [1.0], [1.0]) == pytest.approx(0.25)

    def test_zero_vector(self):
        assert _gamma_quadratic(SPEC, [0.5], [0.0], [1.0]) == 0.0

    def test_identity_dot_product(self):
        spec = identity_gamma(2)
        assert _gamma_quadratic(spec, [0.3, 0.4], [1.0, 2.0], [3.0, -1.0]) == pytest.approx(1.0)


class TestGammaSpecValidation:
    @pytest.mark.parametrize(
        "spec,dim",
        [
            (diag_squares_gamma(1), 1),
            (diag_squares_gamma(2), 2),
            (identity_gamma(2), 2),
            (norm_scaled_gamma(2), 2),
            (curve_gamma(), 2),
        ],
    )
    def test_psd_factorization_basis(self, spec, dim):
        rng = substream(77)
        if spec.label == "curve":
            us = rng.uniform(0.05, 1.0, size=10_000)
            probes = np.column_stack([us, us**2])
        else:
            probes = rng.uniform(-2.0, 2.0, size=(10_000, dim))
            probes = probes[np.any(probes != 0.0, axis=1)]
        spec.validate(probes)

    def test_curve_alpha_rank_one(self):
        spec = curve_gamma()
        a = spec.alpha(np.array([[0.5, 0.25]]))[0]
        w = np.linalg.eigvalsh(a)
        assert w[0] == pytest.approx(0.0, abs=1e-12)
        assert w[1] > 0.0

    def test_default_chol_handles_singular_psd(self):
        # no factor supplied: the jittered dense Cholesky of each matrix covers rank-deficient alpha
        v = np.array([1.0, 2.0])
        spec = GammaSpec(label="rank1", dim=2, alpha=lambda xs: np.tile(np.outer(v, v), (len(xs), 1, 1)))
        l = spec.chol(np.array([[0.3, 0.4], [0.5, 0.6]]))
        assert l.shape == (2, 2, 2)
        np.testing.assert_allclose(l @ l.transpose(0, 2, 1), [np.outer(v, v)] * 2, atol=1e-6)
        zero = GammaSpec(label="null", dim=2, alpha=lambda xs: np.zeros((len(xs), 2, 2)))
        np.testing.assert_allclose(zero.chol(np.array([[0.3, 0.4]])), 0.0)
        assert zero.chol(np.zeros((0, 2))).shape == (0, 2, 2)

    def test_eta_is_zero_mean_orthonormal(self):
        nodes, weights = np.polynomial.legendre.leggauss(200)
        r, w = 0.5 * (nodes + 1.0), 0.5 * weights
        vals = diag_squares_gamma(3).eta(r)  # (200, 3)
        np.testing.assert_allclose(w @ vals, 0.0, atol=1e-8)
        np.testing.assert_allclose((vals * w[:, None]).T @ vals, np.eye(3), atol=1e-8)

    def test_validate_names_the_failing_mark(self):
        skew = GammaSpec(
            label="skew", dim=2, alpha=lambda xs: np.tile([[1.0, 0.5], [0.0, 1.0]], (len(xs), 1, 1))
        )
        with pytest.raises(EngineError, match="not symmetric"):
            skew.validate(np.array([[0.1, 0.2], [0.3, 0.4]]))
        ones = lambda xs: np.ones((len(xs), 1, 1))
        negative = GammaSpec(label="neg", dim=1, alpha=lambda xs: -ones(xs), chol=ones)
        with pytest.raises(EngineError, match=r"not PSD at \[0.3\]"):
            negative.validate(np.array([[0.3]]))
        wrong = GammaSpec(label="wrong", dim=1, alpha=ones, chol=lambda xs: 2.0 * ones(xs))
        with pytest.raises(EngineError, match="cholesky factor mismatch"):
            wrong.validate(np.array([[0.3], [0.4]]))


class TestExponentialPairFixture:
    def test_scalar_gamma(self):
        cdc = carre_du_champ(make_doleans(MODEL, 1.0), EX1, SPEC)
        assert cdc.matrix[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_path_gamma(self):
        cdc = carre_du_champ(make_path_eval(MODEL, 1.0), EX1, SPEC)
        assert cdc.matrix[0, 0] == pytest.approx(0.29, abs=1e-12)

    def test_pair_matrix_and_det(self):
        cdc = carre_du_champ(make_pair_doleans(MODEL, 1.0), EX1, SPEC)
        np.testing.assert_allclose(cdc.matrix, [[0.29, 0.26], [0.26, 0.25]], atol=1e-12)
        assert cdc.det == pytest.approx(0.0049, abs=1e-12)

    def test_matrix_equals_contribution_sum(self):
        cdc = carre_du_champ(make_pair_doleans(MODEL, 1.0), EX1, SPEC)
        total = sum(cdc.contributions)
        np.testing.assert_allclose(cdc.matrix, total, rtol=1e-12)

    def test_contributions_psd(self):
        cdc = carre_du_champ(make_pair_doleans(MODEL, 1.0), EX1, SPEC)
        for c in cdc.contributions:
            w = np.linalg.eigvalsh(c)
            assert w.min() >= -1e-10 * max(np.trace(c), 1e-30)


class TestEngineProperties:
    def test_gamma_psd_on_random_configurations(self):
        F = make_pair_doleans(MODEL, 1.0)
        for seed in range(20):
            cfg = sample_configuration(MODEL, seed)
            w = np.linalg.eigvalsh(carre_du_champ(F, cfg, SPEC).matrix)
            assert w.min() >= -1e-10 * max(w.max(), 1e-30)

    def test_locality_vanishing_derivative(self):
        # an atom after the window has zero derivative: Gamma unchanged
        F = make_path_eval(MODEL, 0.5)
        before = carre_du_champ(F, EX1, SPEC).matrix
        grown = add_particle(EX1, Atom(0.9, [0.7]))
        after = carre_du_champ(F, grown, SPEC).matrix
        np.testing.assert_allclose(before, after, rtol=0, atol=0)

    def test_scaling_is_quadratic(self):
        F = make_doleans(MODEL, 1.0)
        G = compose_functional(lambda v: 3.0 * v[0], lambda v: np.array([3.0]), F, label="3F")
        a = carre_du_champ(F, EX1, SPEC).matrix
        b = carre_du_champ(G, EX1, SPEC).matrix
        np.testing.assert_allclose(b, 9.0 * a, rtol=1e-14)

    def test_bilinearity_via_stacking(self):
        # Gamma[F+G] = Gamma[F] + 2 Gamma[F,G] + Gamma[G]
        F = make_path_eval(MODEL, 1.0)
        G = make_doleans(MODEL, 1.0)
        pair = stack_functionals([F, G])
        M = carre_du_champ(pair, EX1, SPEC).matrix
        s = stack_functionals([F, G], label="sum")
        sum_f = with_fd_derivative("F+G", 1, 1, lambda cfg: np.array([float(np.sum(s.value(cfg)))]))
        total = carre_du_champ(sum_f, EX1, SPEC, mode="fd").matrix[0, 0]
        assert total == pytest.approx(M[0, 0] + 2 * M[0, 1] + M[1, 1], rel=1e-6)

    def test_dimension_mismatch_rejected(self):
        F = make_pair_doleans(MODEL, 1.0)
        with pytest.raises(EngineError):
            carre_du_champ(F, EX1, diag_squares_gamma(2))

    def test_mode_validation(self):
        with pytest.raises(EngineError):
            carre_du_champ(make_doleans(MODEL, 1.0), EX1, SPEC, mode="magic")

    def test_oracle_equivalence_closed_vs_fd(self):
        F = make_pair_doleans(MODEL, 1.0)
        for seed in range(25):
            cfg = sample_configuration(MODEL, seed)
            closed = carre_du_champ(F, cfg, SPEC).matrix
            fd = carre_du_champ(F, cfg, SPEC, mode="fd").matrix
            denom = max(float(np.linalg.norm(closed)), 1e-300)
            assert np.linalg.norm(closed - fd) / denom <= 1e-6


class TestSharpSample:
    def test_empty_configuration(self):
        F = make_doleans(MODEL, 1.0)
        assert sharp_sample_many(F, EMPTY, SPEC, 1, seed=0)[0, 0] == 0.0

    def test_basis_zero_crossing(self):
        # eta_1(1/4) = sqrt(2) cos(pi/2) = 0
        F = make_path_eval(MODEL, 1.0)
        one = Configuration(1.0, 1, [0.5], [[0.7]], "manual")
        assert _sharp(F, one, SPEC, np.array([[0.25]]), "closed")[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_many_path(self):
        F = make_doleans(MODEL, 1.0)
        rows = [sharp_sample_many(F, EX1, SPEC, 1, seed=1000 + i)[0, 0] for i in range(4)]
        assert all(np.isfinite(rows))

    @pytest.mark.parametrize("mode", ["closed", "fd"])
    def test_matches_per_atom_oracle_d1(self, mode):
        F = make_pair_doleans(MODEL, 1.0)
        for seed in range(10):
            cfg = sample_configuration(MODEL, seed)
            got = sharp_sample_many(F, cfg, SPEC, 3, seed=500 + seed, mode=mode)
            for row, aux in zip(got, substream(500 + seed).random((3, cfg.n_atoms))):
                np.testing.assert_allclose(row, _sharp_per_atom(F, cfg, aux, SPEC, mode), rtol=0, atol=1e-14)

    def test_matches_per_atom_oracle_d2(self):
        model = uniform_model(1.0, rate=5.0, low=-0.3, high=0.8, dim=2)
        F = make_stochastic_area(model, 1.0)
        spec = diag_squares_gamma(2)
        for seed in range(10):
            cfg = sample_configuration(model, seed)
            got = sharp_sample_many(F, cfg, spec, 3, seed=600 + seed)
            for row, aux in zip(got, substream(600 + seed).random((3, cfg.n_atoms))):
                np.testing.assert_allclose(row, _sharp_per_atom(F, cfg, aux, spec), rtol=0, atol=1e-14)

    def test_many_rows_are_samples_at_their_aux_marks(self):
        F = make_pair_doleans(MODEL, 1.0)
        cfg = sample_configuration(MODEL, 3)
        many = sharp_sample_many(F, cfg, SPEC, 5, seed=11)
        aux = substream(11).random((5, cfg.n_atoms))
        for row, r in zip(many, aux):
            np.testing.assert_array_equal(row, _sharp(F, cfg, SPEC, r[None], "closed")[0])
        # the same seed draws the same auxiliary marks
        np.testing.assert_array_equal(many, sharp_sample_many(F, cfg, SPEC, 5, seed=11))

    def test_engine_errors_reach_samplers(self):
        F = make_doleans(MODEL, 1.0)
        bad = with_fd_derivative("nan", 1, 1, lambda cfg: np.array([np.nan]))
        with pytest.raises(EngineError):
            sharp_sample_many(bad, EX1, SPEC, 3, seed=0)
        with pytest.raises(EngineError):
            sharp_sample_many(F, EX1, SPEC, 1, seed=0, mode="magic")

    def test_overflowing_fd_stencil_warns_nothing(self):
        # marks near 1e308: the fd path's prefix sums overflow, as in carre_du_champ, under one errstate
        model = uniform_model(1.0, rate=2.0, high=1e308)
        cfg = sample_configuration(model, seed=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = sharp_sample_many(make_path_eval(model, 0.5), cfg, SPEC, 5, seed=7, mode="fd")
        assert not caught and cfg.n_atoms == 4
        assert got[:, 0].tolist() == [
            -math.inf, -6.915876452882719e307, 6.860516100850899e307, 1.75420493484129e308, -4.032273719017338e307
        ]

    def test_second_moment_converges_to_gamma(self):
        F = make_doleans(MODEL, 1.0)
        gamma = carre_du_champ(F, EX1, SPEC).matrix[0, 0]
        n = 100_000
        samples = sharp_sample_many(F, EX1, SPEC, n, seed=9)[:, 0]
        sq = samples**2
        assert abs(sq.mean() - gamma) <= 4.0 * sq.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean()) <= 4.0 * samples.std(ddof=1) / math.sqrt(n)
        assert gamma == pytest.approx(0.25, abs=1e-12)


class TestLendProperties:
    @given(ATOMS, st.floats(0.01, 1.0), st.floats(0.05, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_remove_after_add_is_identity(self, atoms, t, x):
        cfg = _config(atoms)
        if t in cfg.times:
            return
        grown = add_particle(cfg, Atom(t, [x]))
        assert remove_index(grown, int(np.searchsorted(grown.times, t))) == cfg

    @given(ATOMS)
    @settings(max_examples=60, deadline=None)
    def test_contributions_psd_and_sum_to_gamma(self, atoms):
        cfg = _config(atoms)
        cdc = carre_du_champ(make_pair_doleans(MODEL, 1.0), cfg, SPEC)
        assert len(cdc.contributions) == cfg.n_atoms
        total = np.zeros((2, 2))
        for c in cdc.contributions:
            w = np.linalg.eigvalsh(c)
            assert w.min() >= -1e-12 * max(w.max(), 1e-30)
            total = total + c
        np.testing.assert_allclose(cdc.matrix, total, rtol=1e-12, atol=1e-15)


class TestChainRule:
    def test_identity_is_exact(self):
        res = chain_rule_check(
            lambda v: float(v[0]), lambda v: np.array([1.0]), [make_doleans(MODEL, 1.0)], EX1, SPEC
        )
        assert res == 0.0

    def test_sum_of_equal_functionals(self):
        F = make_path_eval(MODEL, 1.0)
        res = chain_rule_check(
            lambda v: float(v[0] + v[1]), lambda v: np.array([1.0, 1.0]), [F, F], EX1, SPEC
        )
        assert res <= 1e-12

    def test_product_on_fixture(self):
        res = chain_rule_check(
            lambda v: float(v[0] * v[1]),
            lambda v: np.array([v[1], v[0]]),
            [make_path_eval(MODEL, 1.0), make_doleans(MODEL, 1.0)],
            EX1,
            SPEC,
        )
        assert res <= 1e-8


class TestSurvey:
    def test_path_eval_frequency_tracks_occupancy(self):
        model = uniform_model(1.0, rate=20.0, low=-0.9, high=0.9)
        res = det_positivity_survey(make_path_eval(model, 1.0), model, SPEC, 200, seed=5)
        assert res.frequency == 1.0  # P(no atoms) ~ 2e-9 at this rate

    def test_constant_functional_is_degenerate(self):
        const = with_fd_derivative("const", 1, 1, lambda cfg: np.array([3.0]))
        res = det_positivity_survey(const, MODEL, SPEC, 100, seed=6)
        assert res.frequency == 0.0

    def test_pair_doleans_rank_two(self):
        model = uniform_model(1.0, rate=20.0, low=-0.9, high=0.9)
        res = det_positivity_survey(make_pair_doleans(model, 1.0), model, SPEC, 200, seed=7)
        assert res.frequency >= 0.995
        # per-atom contributions are rank one for a 2-d functional of 1-d marks
        assert all(row[5] == 0.0 for row in res.rows)

    def test_rank_deficient_gamma_fails_at_every_scaling(self):
        # Gamma[AF] = A Gamma[F] A^T: the verdict follows the rank, whatever the scale of each coordinate
        model = uniform_model(1.0, rate=20.0, low=-0.9, high=0.9)
        cfg = sample_configuration(model, 9)
        y = make_path_eval(model, 1.0)
        full = carre_du_champ(make_pair_doleans(model, 1.0), cfg, SPEC).matrix
        deficient = carre_du_champ(stack_functionals([y, y]), cfg, SPEC).matrix  # two equal Jacobian rows
        scales = 10.0 ** np.arange(-30, 31, 6)
        for a in np.stack(np.meshgrid(scales, scales), axis=-1).reshape(-1, 2):
            for gamma, expected in ((full, True), (deficient, False)):
                scaled = a[:, None] * gamma * a[None, :]
                assert lent_particle._nondegenerate(scaled, 1e-12) == expected, (a, gamma)
        assert det_positivity_survey(stack_functionals([y, y]), model, SPEC, 50, seed=9).frequency == 0.0

    def test_zero_diagonal_entry_fails(self):
        # the first has det 1 > 0 = tol prod_k M_kk: only its zero diagonal entries fail it
        gammas = np.array([
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
            np.diag([1.0, 0.0, 1.0]),
            [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]],
        ])
        assert lent_particle._nondegenerate(gammas, 0.0).tolist() == [False, False, True]

    def test_row_i_drawn_from_stream_seed_i(self):
        F = make_path_eval(MODEL, 1.0)
        res = det_positivity_survey(F, MODEL, SPEC, 4, seed=8)
        for i, row in enumerate(res.rows):
            assert row[:2] == (i, sample_configuration(MODEL, 8, i).n_atoms)

    @pytest.mark.parametrize("nsamples", [0, -5])
    def test_rejects_empty_survey(self, nsamples):
        with pytest.raises(EngineError):
            det_positivity_survey(make_path_eval(MODEL, 1.0), MODEL, SPEC, nsamples, seed=8)

    def test_csv_shape(self):
        res = det_positivity_survey(make_path_eval(MODEL, 1.0), MODEL, SPEC, 5, seed=8)
        lines = res.to_csv().strip().splitlines()
        assert lines[0].startswith("seed,")
        assert len(lines) == 6


def test_curve_model_gamma_runs():
    # rank-deficient bottom gamma on a curve-carried intensity
    model = curve_model(1.0, c=0.6, a=0.5, epsilon=0.05)
    spec = curve_gamma()
    F = make_path_eval(model, 1.0)
    cfg = sample_configuration(model, seed=10)
    closed = carre_du_champ(F, cfg, spec).matrix
    fd = carre_du_champ(F, cfg, spec, mode="fd").matrix
    np.testing.assert_allclose(closed, fd, atol=1e-8 * (1 + np.abs(closed).max()))
    w = np.linalg.eigvalsh(closed)
    assert w.min() >= -1e-10 * max(w.max(), 1e-30)


# ---------------------------------------------------------------------------
# the array contract against the per-atom engine it replaced
# ---------------------------------------------------------------------------

def _eta_per_function(r, d):
    """sqrt(2) cos(2 pi j r) evaluated one basis function at a time, stacked on the last axis."""
    r = np.asarray(r)
    return np.stack([math.sqrt(2.0) * np.cos(2.0 * math.pi * j * r) for j in range(1, d + 1)], axis=-1)


def _curve_alpha_one(x):
    u = float(x[0])
    v = np.array([1.0, 2.0 * u])
    return (u * u) * np.outer(v, v)


def _curve_chol_one(x):
    u = float(x[0])
    l = np.zeros((2, 2))
    l[:, 0] = math.sqrt(max(u * u, 0.0)) * np.array([1.0, 2.0 * u])
    return l


# alpha and chol of one mark (d,) -> (d, d), as each spec was written per mark
PER_MARK = {
    "diag_x2": (lambda x: np.diag(np.asarray(x, dtype=float) ** 2), lambda x: np.diag(np.abs(np.asarray(x, dtype=float)))),
    "identity": (lambda x: np.eye(len(x)), lambda x: np.eye(len(x))),
    "polar": (
        lambda x: float(np.dot(x, x)) * np.eye(len(x)),
        lambda x: float(np.linalg.norm(x)) * np.eye(len(x)),
    ),
    "curve": (_curve_alpha_one, _curve_chol_one),
}


def _per_atom_engine(F, cfg, spec_label, mode, nsamples=0, seed=0):
    """The lend loop with alpha and chol called once per atom: (matrix, contributions, sharp rows, Jacobians)."""
    alpha_one, chol_one = PER_MARK[spec_label]
    jacs = np.empty((cfg.n_atoms, F.out_dim, cfg.dim))
    for i in range(cfg.n_atoms):
        reduced, t_i, x_i = remove_index(cfg, i), float(cfg.times[i]), cfg.marks[i]
        if mode == "closed" and F.has_closed_derivative:
            jacs[i] = np.atleast_2d(F.add_derivative(reduced, t_i, x_i))
        else:
            jacs[i] = finite_difference_add_derivative(F.value, reduced, t_i, x_i, F.out_dim)
    total = np.zeros((F.out_dim, F.out_dim))
    contribs = []
    for jac, x_i in zip(jacs, cfg.marks):
        contrib = jac @ alpha_one(x_i) @ jac.T
        contrib = 0.5 * (contrib + contrib.T)
        contribs.append(contrib)
        total += contrib
    chols = np.reshape([chol_one(x) for x in cfg.marks], (cfg.n_atoms, cfg.dim, cfg.dim))
    aux = substream(seed).random((nsamples, cfg.n_atoms))
    sharp = np.einsum("amk,sak->sm", jacs @ chols, _eta_per_function(aux, cfg.dim))
    return total, contribs, sharp, jacs


D1 = uniform_model(1.0, rate=10.0, low=-0.3, high=0.8, label="oracle_d1")
D2 = uniform_model(1.0, rate=10.0, low=-0.3, high=0.8, dim=2, label="oracle_d2")
CURVE = curve_model(1.0, c=3.0, a=0.5, epsilon=0.05)

ORACLE_CASES = [
    ("pair_doleans", lambda: make_pair_doleans(D1, 1.0), D1, "diag_x2", "closed", 60),
    ("time_integral", lambda: build_functional("time_integral", D1, g="square"), D1, "diag_x2", "closed", 60),
    ("gou", lambda: make_generalized_ou(D2, x0=0.5, t=1.0), D2, "diag_x2", "closed", 60),
    ("curve", lambda: make_path_eval(CURVE, 1.0), CURVE, "curve", "closed", 60),
    ("area", lambda: make_stochastic_area(D2, 1.0), D2, "diag_x2", "closed", 60),
    ("area_fd", lambda: make_stochastic_area(D2, 1.0), D2, "diag_x2", "fd", 60),
    ("triangular_fd", lambda: make_triangular_sde(D2, euler_step=0.05), D2, "diag_x2", "fd", 10),
    ("triangular_fd_criterion1", lambda: make_triangular_sde(D2, (0.1, -0.2, 0.3), 1.0, euler_step=2e-3), D2, "diag_x2", "fd", 4),
    ("triangular_fd_t_half", lambda: make_triangular_sde(D2, (0.1, -0.2, 0.3), 0.5, euler_step=0.01), D2, "diag_x2", "fd", 10),
    ("identity_pair", lambda: make_pair_doleans(D1, 1.0), D1, "identity", "closed", 20),
    ("polar_area", lambda: make_stochastic_area(D2, 1.0), D2, "polar", "closed", 20),
]


@pytest.mark.parametrize("name,build,model,spec_label,mode,nconfigs", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_array_engine_matches_per_atom_loop_bit_for_bit(name, build, model, spec_label, mode, nconfigs):
    F = build()
    spec = build_gamma(spec_label, **({} if spec_label == "curve" else {"dim": model.dim}))
    atoms = 0
    for i in range(nconfigs):
        cfg = sample_configuration(model, 41, i)
        atoms += cfg.n_atoms
        total, contribs, sharp, _ = _per_atom_engine(F, cfg, spec_label, mode, nsamples=8, seed=i)
        cdc = carre_du_champ(F, cfg, spec, mode=mode)
        assert cdc.matrix.tobytes() == total.tobytes()
        assert cdc.contributions.shape == (cfg.n_atoms, F.out_dim, F.out_dim)
        for got, want in zip(cdc.contributions, contribs):
            assert got.tobytes() == want.tobytes()
        assert sharp_sample_many(F, cfg, spec, 8, seed=i, mode=mode).tobytes() == sharp.tobytes()
    assert atoms > 2 * nconfigs


def _assert_value_marks_rows_are_lent_values(F, model):
    """Every stacked row is F.value on its lent-and-perturbed configuration, bit for bit.

    The rows are F.value_marks's, or the engine's rows from value where F
    ships no value_marks.  Configurations: a sampled one, one with an atom
    at time 0 (and one after t = 0.5), and the empty one, whose Gamma is zero.
    """
    d = model.dim
    rows_of = F.value_marks or partial(functionals._value_rows, F.value)
    at_zero = Configuration(1.0, d, [0.0, 0.3, 0.7], np.linspace(-0.4, 0.6, 3 * d).reshape(3, d), "manual")
    for cfg in (sample_configuration(model, 41, 3), at_zero):
        n = cfg.n_atoms
        stacks = []

        def value_marks(c, marks):
            stacks.append(marks)
            return rows_of(c, marks)

        jacs = finite_difference_lent_jacobians(value_marks, cfg, F.out_dim)
        (stack,) = stacks
        assert stack.shape == (2 * d * n, n, d)
        rows = rows_of(cfg, stack)
        for r, (i, k, sign) in enumerate(np.ndindex(n, d, 2)):
            moved = stack[r, i] - cfg.marks[i]
            assert np.count_nonzero(moved) == 1 and (moved[k] > 0) == (sign == 0)
            lent = add_particle(remove_index(cfg, i), Atom(float(cfg.times[i]), stack[r, i]))
            assert lent.marks.tobytes() == stack[r].tobytes()
            assert rows[r].tobytes() == F.value(lent).tobytes()
        for i in range(n):
            want = finite_difference_add_derivative(F.value, remove_index(cfg, i), float(cfg.times[i]), cfg.marks[i], F.out_dim)
            assert jacs[i].tobytes() == want.tobytes()
    empty = Configuration(1.0, d, [], [], "manual")
    assert rows_of(empty, empty.marks[None]).tobytes() == np.atleast_1d(F.value(empty))[None].tobytes()
    cdc = carre_du_champ(F, empty, diag_squares_gamma(d), mode="fd")
    assert cdc.matrix.tobytes() == np.zeros((F.out_dim, F.out_dim)).tobytes()
    assert cdc.contributions.shape == (0, F.out_dim, F.out_dim)


def test_jump_sde_value_marks_rows_are_values_of_the_lent_and_perturbed_configurations():
    for t in (1.0, 0.5):
        _assert_value_marks_rows_are_lent_values(make_triangular_sde(D2, (0.1, -0.2, 0.3), t, euler_step=0.01), D2)


VALUE_MARKS_CASES = [
    *[
        (f"time_integral[{g}]_d{model.dim}", lambda t, g=g, model=model: build_functional("time_integral", model, g=g, t=t), model)
        for g in ("identity", "square", "cubic")
        for model in (D1, D2)
    ],
    ("area", lambda t: make_stochastic_area(D2, t), D2),
]


@pytest.mark.parametrize("t", [1.0, 0.5])
@pytest.mark.parametrize("name,build,model", VALUE_MARKS_CASES, ids=[c[0] for c in VALUE_MARKS_CASES])
def test_value_marks_rows_are_values_of_the_lent_and_perturbed_configurations(name, build, model, t):
    F = build(t)
    assert F.value_marks is not None and F.has_closed_derivative
    _assert_value_marks_rows_are_lent_values(F, model)


def _per_atom_area_derivative(model, t):
    """make_stochastic_area's add_derivative as it was written per atom, kept as the oracle for lent_jacobians."""
    mean = model.mean

    def add_derivative(cfg: Configuration, alpha: float, x: np.ndarray) -> np.ndarray:
        if alpha > t:
            return np.zeros((3, 2))
        xt, xa = _path(cfg, mean, [t, alpha], "right")
        b, a = xt - xa - _path(cfg, mean, alpha, "left")
        return np.array([[1.0, 0.0], [0.0, 1.0], [a, -b]])

    return add_derivative


def _per_atom_time_integral_derivative(model, gprime, t, out_dim):
    """make_time_integral's add_derivative as it was written per atom, kept as the oracle for lent_jacobians."""
    mean, d = model.mean, model.dim

    def integrate(fn, base: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """sum over segments of int_a^b fn(base - s mean) ds for bases (..., S, d)."""
        half = 0.5 * (b - a)
        s = (0.5 * (a + b))[:, None] + half[:, None] * functionals._GL8_NODES  # (S, 8)
        vals = fn(base[..., None, :] - s[..., None] * mean)
        lead = base.ndim - 2
        w = (half[:, None] * functionals._GL8_WEIGHTS).reshape(s.shape + (1,) * (vals.ndim - lead - 2))
        # C order fixes the summation order, so each leading row gets the bits it gets alone
        return np.ascontiguousarray(w * vals).sum(axis=(lead, lead + 1))

    def add_derivative(cfg: Configuration, alpha: float, x: np.ndarray) -> np.ndarray:
        if alpha >= t:
            return np.zeros((out_dim, d))
        a, b, counts = _segments(cfg, alpha, t)
        return integrate(gprime, _prefix(cfg.marks)[counts] + np.asarray(x, dtype=float).reshape(d), a, b)

    return add_derivative


D1_DENSE = uniform_model(1.0, rate=300.0, low=-0.3, high=0.8, label="oracle_d1_dense")
D2_DENSE = uniform_model(1.0, rate=300.0, low=-0.3, high=0.8, dim=2, label="oracle_d2_dense")

LENT_CASES = [
    *[
        (
            f"time_integral[{g}]_d{d}",
            lambda model, t, g=g: build_functional("time_integral", model, g=g, t=t),
            lambda model, t, F, g=g: _per_atom_time_integral_derivative(model, functionals._TIME_INTEGRAL_PROBES[g][1], t, F.out_dim),
            d,
        )
        for g in ("identity", "square", "cubic")
        for d in (1, 2)
    ],
    ("area", lambda model, t: make_stochastic_area(model, t), lambda model, t, F: _per_atom_area_derivative(model, t), 2),
]


@pytest.mark.parametrize("t", [1.0, 0.5])
@pytest.mark.parametrize("name,build,oracle,dim", LENT_CASES, ids=[c[0] for c in LENT_CASES])
def test_lent_jacobians_match_the_per_atom_formulas(name, build, oracle, dim, t):
    """Every row of lent_jacobians is the per-atom derivative at that atom lent back, within 1e-12 of the largest |J|.

    Configurations at rates 10 and 300, the empty one, and one with atoms at
    time 0, exactly at t and after t; add_derivative, lent_jacobians' one-row
    case, matches the per-atom formula at inserted atoms too, the zero mark included.
    """
    rng = substream(147, len(name), int(10 * t))
    # area's rows live at atoms at or before t, time_integral's at atoms before t
    side = "right" if name == "area" else "left"
    atoms = 0
    for model in ((D1, D1_DENSE) if dim == 1 else (D2, D2_DENSE)):
        F = build(model, t)
        per_atom = oracle(model, t, F)
        edge_times = [0.0, 0.3, t, *([0.7, 0.9] if t < 1.0 else [])]
        edge = Configuration(1.0, dim, edge_times, rng.uniform(-0.3, 0.8, size=(len(edge_times), dim)), "manual")
        cfgs = [*(sample_configuration(model, 147, i) for i in range(3)), Configuration(1.0, dim, [], [], "manual"), edge]
        for cfg in cfgs:
            jacs = F.lent_jacobians(cfg)
            assert jacs.shape == (cfg.n_atoms, F.out_dim, dim)
            want = np.array([per_atom(remove_index(cfg, i), float(cfg.times[i]), cfg.marks[i]) for i in range(cfg.n_atoms)])
            want = want.reshape(jacs.shape)
            scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
            assert np.abs(jacs - want).max(initial=0.0) <= 1e-12 * scale
            assert not jacs[np.searchsorted(cfg.times, t, side=side):].any()
            atoms += cfg.n_atoms
            assert lent_particle._atom_jacobians(F, cfg, "closed").tobytes() == jacs.tobytes()
            for alpha in (0.0, float(rng.uniform(0.0, t)), t, min(t + 0.25, 1.0)):
                if alpha in cfg.times:
                    continue  # a second atom at an atom's time is no configuration
                for x in (rng.uniform(-0.3, 0.8, size=dim), np.zeros(dim)):
                    got, ref = F.add_derivative(cfg, alpha, x), per_atom(cfg, alpha, x)
                    assert got.shape == ref.shape == (F.out_dim, dim)
                    assert np.abs(got - ref).max() <= 1e-12 * max(float(np.abs(ref).max()), 1e-300), (alpha, x)
    assert atoms > 600


def test_a_bad_lent_jacobians_stack_raises_naming_its_shape_or_first_bad_atom():
    F = make_stochastic_area(D2, 1.0)
    cfg = sample_configuration(D2, 41, 0)
    n = cfg.n_atoms
    assert n > 3
    short = replace(F, lent_jacobians=lambda c: F.lent_jacobians(c)[1:])
    with pytest.raises(EngineError, match=rf"^derivative shape \({n - 1}, 3, 2\), expected \({n}, 3, 2\)$"):
        carre_du_champ(short, cfg, diag_squares_gamma(2))

    def nan_from_atom_2(c):
        jacs = F.lent_jacobians(c)
        jacs[2:, 2, 0] = np.nan
        return jacs

    with pytest.raises(EngineError, match=rf"^atom 2 at \(t={cfg.times[2]}, x="):
        carre_du_champ(replace(F, lent_jacobians=nan_from_atom_2), cfg, diag_squares_gamma(2))
    with pytest.raises(EngineError, match="^atom 2 at .*non-finite derivative"):
        sharp_sample_many(replace(F, lent_jacobians=nan_from_atom_2), cfg, diag_squares_gamma(2), 3, seed=0)
    # fd mode reads no closed hook
    assert carre_du_champ(short, cfg, diag_squares_gamma(2), mode="fd").contributions.shape == (n, 3, 3)


@pytest.mark.parametrize("label,family", PAIRS, ids=[f"{l}-{f}" for l, f in PAIRS])
def test_generic_rows_are_values_of_the_lent_and_perturbed_configurations(label, family):
    _assert_value_marks_rows_are_lent_values(_build(label, family), FAMILIES[family])


_KERNEL_U = MarkFunction(lambda xs: xs[:, 0], sup_bound=1.0, grad=lambda xs: np.ones((len(xs), 1)), label="x")
_KERNEL_V = MarkFunction(lambda xs: xs[:, 0] ** 2, sup_bound=1.0, grad=lambda xs: 2.0 * xs[:, 0:1], label="x^2")

# every registered functional on every compatible family, a stacked I_n pair and a composition
FD_CASES = [
    *[(f"{label}-{family}", lambda label=label, family=family: _build(label, family), family) for label, family in PAIRS],
    *[
        (
            f"I2+I3-{family}",
            lambda family=family: stack_functionals([
                multiple_integral_functional(FAMILIES[family], _KERNEL_U, 2),
                multiple_integral_functional(FAMILIES[family], _KERNEL_V, 3),
            ]),
            family,
        )
        for family in ("uniform_d1", "uniform_d2")
    ],
    *[
        (
            f"compose-{family}",
            lambda family=family: compose_functional(
                lambda y: y[0] * y[1], lambda y: np.array([y[1], y[0]]), make_pair_doleans(FAMILIES[family], 1.0)
            ),
            family,
        )
        for family in ("uniform_d1", "power")
    ],
]


def _fd_configurations(model):
    """Sampled configurations, the empty one, and marks at |x_k| = 1e-5, where the fd step halves."""
    d = model.dim
    near_zero = [[1e-5], [-1e-5], [0.3]] if d == 1 else [[1e-5, 0.0], [0.0, -1e-5], [0.2, 1e-5]]
    return [
        *(sample_configuration(model, 146, i) for i in range(3)),
        Configuration(1.0, d, [], [], "manual"),
        Configuration(1.0, d, [0.1, 0.4, 0.8], near_zero, "manual"),
    ]


@pytest.mark.parametrize("name,build,family", FD_CASES, ids=[c[0] for c in FD_CASES])
def test_fd_engine_makes_one_stacked_call_and_no_per_atom_lend(monkeypatch, name, build, family):
    """fd mode lends no atom one at a time: no remove_index, add_particle or per-atom fd Jacobian."""
    F, model = build(), FAMILIES[family]
    calls = []
    for module, attr in (
        (lent_particle, "remove_index"),
        (lent_particle, "finite_difference_add_derivative"),
        (functionals, "add_particle"),
        (functionals, "finite_difference_add_derivative"),
    ):
        monkeypatch.setattr(module, attr, lambda *a, attr=attr: calls.append(attr))
    stacked = []
    lend_all = functionals.finite_difference_lent_jacobians
    monkeypatch.setattr(lent_particle, "finite_difference_lent_jacobians", lambda *a: stacked.append(1) or lend_all(*a))
    spec, cfgs = diag_squares_gamma(model.dim), _fd_configurations(model)
    for cfg in cfgs:
        carre_du_champ(F, cfg, spec, mode="fd")
        sharp_sample_many(F, cfg, spec, 4, seed=1, mode="fd")
    assert calls == []
    assert len(stacked) == 2 * len(cfgs)


@pytest.mark.parametrize("name,build,family", FD_CASES, ids=[c[0] for c in FD_CASES])
def test_fd_engine_matches_per_atom_loop_bit_for_bit(name, build, family):
    """The one stacked fd call gives the Jacobians, Gamma, contributions and sharp rows of the per-atom loop."""
    F, model = build(), FAMILIES[family]
    spec = identity_gamma(model.dim)
    for i, cfg in enumerate(_fd_configurations(model)):
        total, contribs, sharp, jacs = _per_atom_engine(F, cfg, "identity", "fd", nsamples=8, seed=i)
        assert lent_particle._atom_jacobians(F, cfg, "fd").tobytes() == jacs.tobytes()
        cdc = carre_du_champ(F, cfg, spec, mode="fd")
        assert cdc.matrix.tobytes() == total.tobytes()
        assert cdc.contributions.tobytes() == np.array(contribs).reshape(cfg.n_atoms, F.out_dim, F.out_dim).tobytes()
        assert sharp_sample_many(F, cfg, spec, 8, seed=i, mode="fd").tobytes() == sharp.tobytes()


def test_fd_lent_jacobians_go_in_bounded_blocks_with_the_bits_of_one_call(monkeypatch):
    """Each value_marks call holds at most _FD_BLOCK_ATOMS mark-set atoms, so memory is linear in n."""
    model = uniform_model(1.0, rate=300.0, low=-0.3, high=0.8, dim=2)
    cfg = sample_configuration(model, 45)
    n = cfg.n_atoms
    for F in (
        build_functional("time_integral", model, g="square"),
        make_stochastic_area(model, 1.0),
        make_triangular_sde(model, euler_step=0.05),
    ):
        shapes = []

        def spy(c, marks):
            shapes.append(marks.shape)
            return F.value_marks(c, marks)

        blocked = finite_difference_lent_jacobians(spy, cfg, F.out_dim)
        assert len(shapes) > 10 and sum(k for k, _, _ in shapes) == 4 * n
        assert all(k * n_k <= functionals._FD_BLOCK_ATOMS and n_k == n for k, n_k, _ in shapes)
        with monkeypatch.context() as patch:
            patch.setattr(functionals, "_FD_BLOCK_ATOMS", 4 * n * n)
            shapes.clear()
            one_call = finite_difference_lent_jacobians(spy, cfg, F.out_dim)
            assert shapes == [(4 * n, n, 2)]
        assert blocked.tobytes() == one_call.tobytes()


@pytest.mark.parametrize("label", sorted(PER_MARK))
def test_spec_arrays_match_per_mark_specs_bit_for_bit(label):
    alpha_one, chol_one = PER_MARK[label]
    rng = substream(78)
    if label == "curve":
        u = rng.uniform(0.05, 1.0, size=500)
        dims, marks = (2,), {2: np.column_stack([u, u**2])}
    else:
        dims = (1, 2, 3)
        marks = {d: rng.normal(size=(500, d)) * rng.uniform(0.01, 10.0, size=(500, 1)) for d in dims}
    for d in dims:
        spec = build_gamma(label, **({} if label == "curve" else {"dim": d}))
        xs = marks[d]
        assert spec.alpha(xs).tobytes() == np.array([alpha_one(x) for x in xs]).tobytes()
        assert spec.chol(xs).tobytes() == np.array([chol_one(x) for x in xs]).tobytes()
        assert spec.alpha(xs[:0]).shape == spec.chol(xs[:0]).shape == (0, d, d)
        r = rng.random((7, 5))
        assert spec.eta(r).tobytes() == _eta_per_function(r, d).tobytes()
