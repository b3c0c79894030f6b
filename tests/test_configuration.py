import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import cubature

from lentparticle import IntegrationWarning, configuration, intensities
from lentparticle.configuration import (
    Atom,
    BatchedConfigurations,
    Configuration,
    ConfigurationError,
    IntensityModel,
    InvalidModelError,
    add_particle,
    read_configuration,
    remove_index,
    sample_batch,
    sample_configuration,
    write_configuration,
)
from lentparticle.intensities import (
    curve_model,
    dyadic_model,
    gauss_model,
    polar_model,
    power_model,
    uniform_model,
)
from lentparticle.rng import substream


def cfg_1d(pairs, horizon=1.0):
    times = [t for t, _ in pairs]
    marks = [[x] for _, x in pairs]
    return Configuration(horizon, 1, times, marks, "manual")


FIXTURE = cfg_1d([(0.3, 0.5)])


class TestAtomAndConfiguration:
    def test_zero_mark_rejected(self):
        with pytest.raises(ConfigurationError):
            Atom(0.5, [0.0, 0.0])

    def test_times_must_increase(self):
        with pytest.raises(ConfigurationError):
            Configuration(1.0, 1, [0.5, 0.5], [[1.0], [2.0]], "manual")

    def test_times_within_window(self):
        with pytest.raises(ConfigurationError):
            Configuration(1.0, 1, [1.5], [[1.0]], "manual")

    def test_arrays_read_only(self):
        with pytest.raises(ValueError):
            FIXTURE.times[0] = 0.1


class TestSampling:
    def test_tiny_rate_gives_empty(self):
        model = uniform_model(1.0, rate=1e-9)
        empty = sum(sample_configuration(model, seed=s).n_atoms == 0 for s in range(200))
        assert empty == 200

    def test_count_mean_and_variance(self):
        model = uniform_model(1.0, rate=2.0)
        n = 1_000_000
        counts = sample_batch(model, n, seed=11).counts
        assert abs(counts.mean() - 2.0) <= 4.0 * math.sqrt(2.0 / n)
        assert abs(counts.var(ddof=1) - 2.0) <= 0.02

    def test_batch_beyond_the_atom_cap_raises_before_drawing(self, monkeypatch):
        # the expected atom count rate * horizon * nsamples is checked before any stream is opened
        monkeypatch.setattr(configuration, "substream", lambda *a: pytest.fail("a stream was opened"))
        cap = configuration._BATCH_ATOMS_MAX
        for model, nsamples in ((uniform_model(1.0, rate=1e15), 1), (uniform_model(2.0, rate=5.0), cap // 5)):
            with pytest.raises(ConfigurationError, match="^" + re.escape(f"rate * horizon = {model.rate * model.horizon:g} over nsamples = {nsamples} ")):
                sample_batch(model, nsamples, 0)

    def test_deterministic_for_seed(self):
        model = uniform_model(1.0, rate=5.0)
        assert sample_configuration(model, seed=40) == sample_configuration(model, seed=40)

    def test_invalid_model_rejected(self):
        with pytest.raises(InvalidModelError):
            uniform_model(-1.0, rate=2.0)
        with pytest.raises(InvalidModelError):
            uniform_model(1.0, rate=0.0)
        with pytest.raises(InvalidModelError, match="integers n_max >= n_start"):
            dyadic_model(1.0, n_start=0.5)
        with pytest.raises(InvalidModelError, match="integers n_max >= n_start"):
            dyadic_model(1.0, n_start=5, n_max=3)

    def test_times_sorted_marks_in_support(self):
        model = uniform_model(1.0, rate=30.0, low=-0.5, high=0.5)
        cfg = sample_configuration(model, seed=4)
        assert np.all(np.diff(cfg.times) > 0)
        assert np.all(np.abs(cfg.marks) <= 0.5)

    @pytest.mark.parametrize("family", list(intensities.MODEL_FAMILIES))
    def test_configuration_is_the_one_sample_batch(self, family):
        needs_rate = {"uniform", "gauss"}
        models = [
            intensities.build_model(family, horizon=1.5, **({"rate": 4.0, "dim": dim} if family in needs_rate else {}))
            for dim in ((1, 2) if family in needs_rate else (1,))
        ]
        for model in models:
            for seed, path in [(0, ()), (7, ()), (3, (1,)), (3, (2,)), (11, (0, 4)), (11, (1, 4))]:
                assert sample_configuration(model, seed, *path) == sample_batch(model, 1, seed, *path).config(0)

    def test_infinite_marks_raise(self):
        # an overflowing sampler; gauss_model rejects the scale 1e308 whose sampler once overflowed
        def overflowing(rng, n):
            return np.full((n, 1), np.inf)

        model = IntensityModel("overflow", "test", 1.0, 1, 3.0, overflowing, lambda f: 0.0, np.zeros(1))
        with pytest.raises(ConfigurationError, match="finite"):
            sample_configuration(model, 4)

    def test_times_are_uniform_on_the_window(self):
        # about 1e6 times; a law on [0, 0.98 T] moves the mean by about 34 SE
        horizon = 2.5
        batch = sample_batch(uniform_model(horizon, rate=4.0), 100_000, seed=31)
        u = batch.times / horizon
        n = u.size
        assert n > 990_000 and u.min() >= 0.0 and u.max() <= 1.0
        assert abs(u.mean() - 0.5) <= 4.0 * math.sqrt(1.0 / 12.0 / n)
        assert abs(np.mean(u**2) - 1.0 / 3.0) <= 4.0 * math.sqrt(4.0 / 45.0 / n)

    def test_superposition_matches_single_component(self):
        # counts of two superposed streams follow the summed-rate law
        m1 = uniform_model(1.0, rate=1.5)
        m2 = uniform_model(1.0, rate=2.5)
        n = 100_000
        counts = sample_batch(m1, n, seed=21).counts + sample_batch(m2, n, seed=22).counts
        kmax = 14
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        pmf = stats.poisson.pmf(np.arange(kmax), 4.0)
        expected = np.append(pmf, 1.0 - pmf.sum()) * n
        res = stats.chisquare(observed, expected)
        assert res.pvalue >= 1e-3


class TestParticleAlgebra:
    def test_add_inserts_in_order(self):
        out = add_particle(FIXTURE, Atom(0.7, [-0.2]))
        assert out.n_atoms == 2 and out.times[1] == 0.7

    def test_add_on_support_is_identity(self):
        assert add_particle(FIXTURE, Atom(0.3, [0.5])) == FIXTURE

    def test_add_to_empty(self):
        empty = Configuration(1.0, 1, [], [], "manual")
        out = add_particle(empty, Atom(0.1, [1.0]))
        assert out.n_atoms == 1

    def test_remove_present(self):
        two = cfg_1d([(0.3, 0.5), (0.7, -0.2)])
        assert remove_index(two, 1) == FIXTURE

    def test_add_then_remove_is_identity_bit_exact(self):
        a = Atom(0.51, [0.125])
        assert remove_index(add_particle(FIXTURE, a), 1) == FIXTURE

    def test_remove_then_add_on_support(self):
        a = Atom(0.3, [0.5])
        assert add_particle(remove_index(FIXTURE, 0), a) == FIXTURE

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            add_particle(FIXTURE, Atom(0.5, [1.0, 1.0]))

    def test_time_outside_window(self):
        with pytest.raises(ConfigurationError):
            add_particle(FIXTURE, Atom(2.0, [1.0]))

    @given(
        t=st.floats(0.0, 1.0, allow_nan=False),
        x=st.floats(-2.0, 2.0, allow_nan=False).filter(lambda v: v != 0.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_algebra_property(self, t, x):
        a = Atom(t, [x])
        if t == 0.3:
            # the time of FIXTURE's atom: its own mark is the support case above,
            # any other mark is a time collision
            if x != 0.5:
                with pytest.raises(ConfigurationError, match="time collision"):
                    add_particle(FIXTURE, a)
            return
        grown = add_particle(FIXTURE, a)
        assert remove_index(grown, int(np.searchsorted(grown.times, t))) == FIXTURE
        assert add_particle(grown, a) == grown


def batch_of(model, samples) -> BatchedConfigurations:
    """A batch from per-sample (time, mark) lists, rows in the order given."""
    counts = np.array([len(s) for s in samples], dtype=int)
    times = np.array([t for s in samples for t, _ in s], dtype=float)
    marks = np.array([x for s in samples for _, x in s], dtype=float).reshape(-1, 1)
    return BatchedConfigurations(
        model, len(samples), counts, np.concatenate(([0], np.cumsum(counts))), times, marks
    )


BATCH_MODEL = uniform_model(1.0, rate=3.0, low=-0.5, high=1.0, label="batch")
# samples of up to 12 atoms in draw order: reductions switch to pairwise sums at 8
SAMPLES = st.lists(
    st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(-2.0, 2.0).filter(lambda v: v != 0.0)),
        max_size=12,
        unique_by=lambda a: a[0],
    ),
    min_size=1,
    max_size=6,
)


class TestBatchProtocol:
    def test_config_sorts_each_sample_by_time(self):
        batch = sample_batch(BATCH_MODEL, 300, seed=3)
        for i in range(batch.nsamples):
            lo, hi = batch.offsets[i], batch.offsets[i + 1]
            order = np.argsort(batch.times[lo:hi], kind="stable")
            cfg = batch.config(i)
            assert np.array_equal(cfg.times, batch.times[lo:hi][order])
            assert np.array_equal(cfg.marks, batch.marks[lo:hi][order])

    @given(samples=SAMPLES, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_with_atom_rows_equal_add_particle(self, samples, data):
        batch = batch_of(BATCH_MODEL, samples)
        taken = {t for s in samples for t, _ in s}
        ts = data.draw(st.lists(st.floats(0.0, 1.0).filter(lambda t: t not in taken),
                                min_size=batch.nsamples, max_size=batch.nsamples))
        xs = data.draw(st.lists(st.floats(-2.0, 2.0).filter(lambda v: v != 0.0),
                                min_size=batch.nsamples, max_size=batch.nsamples))
        grown = batch.with_atom(np.array(ts), np.array(xs).reshape(-1, 1))
        for i in range(batch.nsamples):
            assert grown.config(i) == add_particle(batch.config(i), Atom(ts[i], [xs[i]]))

    @given(samples=SAMPLES)
    @settings(max_examples=60, deadline=None)
    def test_leave_one_out_rows_equal_remove_index(self, samples):
        batch = batch_of(BATCH_MODEL, samples)
        loo = batch.leave_one_out()
        assert loo.nsamples == batch.times.size
        for i in range(batch.nsamples):
            cfg = batch.config(i)
            for r in range(cfg.n_atoms):
                assert loo.config(batch.offsets[i] + r) == remove_index(cfg, r)

    @given(samples=SAMPLES)
    @settings(max_examples=60, deadline=None)
    def test_reduce_per_sample_has_the_bits_of_each_config(self, samples):
        batch = batch_of(BATCH_MODEL, samples)
        values = np.sin(7.0 * batch.marks[:, 0]) * 1e3 ** batch.times
        sums = batch.reduce_per_sample(np.add, values)
        prods = batch.reduce_per_sample(np.multiply, 1.0 + values / 2e3)
        for i in range(batch.nsamples):
            cfg = batch.config(i)
            v = np.sin(7.0 * cfg.marks[:, 0]) * 1e3 ** cfg.times
            assert sums[i] == np.sum(v)
            assert prods[i] == np.prod(1.0 + v / 2e3)

    def test_with_atom_time_collision(self):
        batch = batch_of(BATCH_MODEL, [[(0.3, 0.5), (0.1, 0.2)], [(0.6, -0.4)]])
        with pytest.raises(ConfigurationError, match="time collision"):
            batch.with_atom(np.array([0.9, 0.6]), np.array([[0.1], [0.7]]))
        # the atom already in the support leaves its sample as it is
        grown = batch.with_atom(np.array([0.3, 0.8]), np.array([[0.5], [0.7]]))
        assert grown.config(0) == batch.config(0)
        assert grown.config(1).n_atoms == 2

    def test_with_atom_rejects_bad_atoms(self):
        batch = batch_of(BATCH_MODEL, [[(0.3, 0.5)]])
        for ts, xs in [([1.5], [[0.1]]), ([0.5], [[0.0]]), ([0.5], [[0.1, 0.2]])]:
            with pytest.raises(ConfigurationError):
                batch.with_atom(np.array(ts), np.array(xs))

    def test_samples_block_keeps_configs(self):
        batch = sample_batch(BATCH_MODEL, 50, seed=8)
        part = batch.samples(20, 35)
        assert all(part.config(i) == batch.config(20 + i) for i in range(15))
        # its rows are in time order, which duality_check's in-order sums rely on
        assert np.array_equal(part.time_order, np.arange(part.times.size))

    def test_row_maps_computed_once(self):
        batch = sample_batch(BATCH_MODEL, 50, seed=9)
        assert batch.sample_index is batch.sample_index and batch.time_order is batch.time_order
        # a built batch starts with the time order of its rows cached
        loo = batch.with_atom(np.full(50, 0.5), np.full((50, 1), 0.25)).leave_one_out()
        owner = np.repeat(np.arange(loo.nsamples), loo.counts)
        assert np.array_equal(loo.time_order, np.lexsort((loo.times, owner)))


class TestIntegrals:
    """N(f) is the batch's per-sample sum; (N - nu)(f) subtracts the quadrature nu(f)."""

    TWO = [(0.3, 0.5), (0.7, -0.2)]

    def test_sum_of_marks(self):
        batch = batch_of(BATCH_MODEL, [self.TWO])
        assert batch.sum_per_sample(batch.marks[:, 0])[0] == pytest.approx(0.3)

    def test_empty_is_zero(self):
        batch = batch_of(BATCH_MODEL, [[]])
        assert batch.sum_per_sample(batch.marks[:, 0] ** 2)[0] == 0.0

    def test_constant_counts_atoms(self):
        batch = batch_of(BATCH_MODEL, [self.TWO, [], [(0.5, 1.0)]])
        assert batch.sum_per_sample(np.ones(batch.times.size)).tolist() == [2.0, 0.0, 1.0]

    def test_compensated_zero_mean_model(self):
        model = uniform_model(1.0, rate=2.0, low=-0.9, high=0.9)
        batch = batch_of(model, [self.TWO])
        val = batch.sum_per_sample(batch.marks[:, 0])[0] - model.nu_integrate(lambda xs: xs[:, 0])
        assert val == pytest.approx(0.3, abs=1e-12)

    def test_compensated_centering_mc(self):
        model = uniform_model(1.0, rate=3.0, low=-0.5, high=1.0)
        n = 100_000
        batch = sample_batch(model, n, seed=31)
        f = lambda xs: np.tanh(xs[:, 0])
        sums = batch.sum_per_sample(f(batch.marks)) - model.nu_integrate(f)
        assert abs(sums.mean()) <= 4.0 * sums.std(ddof=1) / math.sqrt(n)

    def test_compensated_variance_matches_quadrature(self):
        model = uniform_model(1.0, rate=3.0, low=-0.5, high=1.0)
        n = 100_000
        batch = sample_batch(model, n, seed=32)
        f = lambda xs: np.tanh(xs[:, 0])
        sums = batch.sum_per_sample(f(batch.marks)) - model.nu_integrate(f)
        ref = model.nu_integrate(lambda xs: np.tanh(xs[:, 0]) ** 2)
        sq = sums**2
        assert abs(sq.mean() - ref) <= 4.0 * sq.std(ddof=1) / math.sqrt(n)

    def test_sum_per_sample_columns_match_one_column_at_a_time(self):
        model = uniform_model(1.0, rate=3.0)
        batch = sample_batch(model, 2_000, seed=34)
        vals = np.log1p(-0.5 * np.random.default_rng(34).random((batch.times.size, 32)))
        sums = batch.sum_per_sample(vals)
        assert sums.shape == (2_000, 32)
        for k in range(32):
            assert sums[:, k].tobytes() == batch.sum_per_sample(vals[:, k]).tobytes()

    def test_independent_windows(self):
        model = uniform_model(1.0, rate=3.0)
        n = 100_000
        batch = sample_batch(model, n, seed=33)
        early = batch.times < 0.5
        c1 = np.bincount(batch.sample_index[early], minlength=n)
        c2 = np.bincount(batch.sample_index[~early], minlength=n)
        prod = (c1 - 1.5) * (c2 - 1.5)
        assert abs(prod.mean()) <= 4.0 * prod.std(ddof=1) / math.sqrt(n)


class TestSerialization:
    def test_roundtrip(self):
        two = cfg_1d([(0.3, 0.5), (0.7, -0.2)])
        assert read_configuration(write_configuration(two)) == two

    def test_rejects_unsorted(self):
        text = "1 1 2\n0.7 1.0\n0.3 2.0\n"
        with pytest.raises(ConfigurationError):
            read_configuration(text)

    def test_rejects_duplicate_times(self):
        text = "1 1 2\n0.3 1.0\n0.3 2.0\n"
        with pytest.raises(ConfigurationError):
            read_configuration(text)

    @given(
        st.lists(
            st.tuples(
                st.floats(0.001, 0.999, allow_nan=False),
                st.floats(-3.0, 3.0).filter(lambda v: v != 0.0),
            ),
            max_size=6,
            unique_by=lambda p: p[0],
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, pairs):
        pairs = sorted(pairs)
        cfg = cfg_1d(pairs)
        assert read_configuration(write_configuration(cfg)) == cfg


MODELS = {
    "uniform": lambda: uniform_model(1.0, rate=2.0, low=-0.7, high=1.0),
    "uniform2d": lambda: uniform_model(1.0, rate=2.0, low=-0.5, high=0.5, dim=2),
    "gauss": lambda: gauss_model(1.0, rate=2.0, scale=0.8),
    "power": lambda: power_model(1.0, c=0.5, a=0.5, epsilon=0.02),
    "power_a1": lambda: power_model(1.0, c=0.5, a=1.0, epsilon=0.05),
    "power_sym": lambda: power_model(1.0, c=0.5, a=0.5, epsilon=0.02, symmetric=True),
    "polar": lambda: polar_model(1.0, epsilon=0.05),
    "polar_sectors": lambda: polar_model(1.0, epsilon=0.05, g_values=[0.1, 0.3, 0.2, 0.4]),
    "curve": lambda: curve_model(1.0, c=0.5, a=0.5, epsilon=0.05),
    "dyadic": lambda: dyadic_model(1.0, 0, 12),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sampler_matches_quadrature(name):
    """MC mean of the probe set over 1e6 draws agrees with sigma_integrate / rate."""
    model = MODELS[name]()
    rng = np.random.default_rng(99)
    draws = model.sample_marks(rng, 1_000_000)
    probes = {
        "one": lambda xs: np.ones(len(xs)),
        "x1": lambda xs: xs[:, 0],
        "norm2": lambda xs: np.sum(xs**2, axis=1),
        "cos_x1": lambda xs: np.cos(xs[:, 0]),
    }
    for pname, f in probes.items():
        vals = f(draws)
        ref = model.sigma_integrate(f) / model.rate
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - ref) <= 5.0 * se + 1e-9, (name, pname)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_mean_matches_coordinate_quadrature(name):
    model = MODELS[name]()
    quad_mean = np.array(
        [model.sigma_integrate(lambda xs, j=j: xs[:, j]) for j in range(model.dim)]
    )
    np.testing.assert_allclose(model.mean, quad_mean, rtol=1e-10, atol=1e-10)


# sigma_integrate pinned against the nested scalar quad it replaced: each
# family at its benchmark defaults plus a symmetric power model and a polar
# model with an empty sector; the indicator probe runs in dimension 1 only.
# The gauss values, also at scales 0.3 and 2.5, are cubature over R^d, so
# they check the finite gauss box against the unbounded integral.
QUAD_FAMILIES = {
    "uniform_d1": lambda: uniform_model(1.0, rate=3.0),
    "uniform_d2": lambda: uniform_model(1.0, rate=3.0, dim=2),
    "gauss_d1": lambda: gauss_model(1.0, rate=3.0),
    "gauss_d2": lambda: gauss_model(1.0, rate=3.0, dim=2),
    "gauss_0.3_d1": lambda: gauss_model(1.0, rate=3.0, scale=0.3),
    "gauss_0.3_d2": lambda: gauss_model(1.0, rate=3.0, scale=0.3, dim=2),
    "gauss_2.5_d1": lambda: gauss_model(1.0, rate=3.0, scale=2.5),
    "gauss_2.5_d2": lambda: gauss_model(1.0, rate=3.0, scale=2.5, dim=2),
    "power": lambda: power_model(1.0),
    "power_sym": lambda: power_model(1.0, c=0.3, a=0.5, epsilon=0.05, symmetric=True),
    "polar": lambda: polar_model(1.0),
    "polar_sectors": lambda: polar_model(1.0, g_values=[0.1, 0.0, 0.3]),
    "curve": lambda: curve_model(1.0),
    "dyadic": lambda: dyadic_model(1.0),
}


def _laplace_probe(xs):
    """The benchmark's 0.3 x_1 (+ 0.2 x_2 in dimension 2)."""
    out = 0.3 * xs[:, 0]
    return out + 0.2 * xs[:, 1] if xs.shape[1] > 1 else out


QUAD_PROBES = {
    "probe": _laplace_probe,
    "probe_1_minus_cos": lambda xs: 1.0 - np.cos(_laplace_probe(xs)),
    "probe_minus_sin": lambda xs: _laplace_probe(xs) - np.sin(_laplace_probe(xs)),
    "x1_sq": lambda xs: xs[:, 0] ** 2,
    "abs_x1": lambda xs: np.abs(xs[:, 0]),
    "quadratic": lambda xs: 0.4 * xs[:, 0] + 0.3 * xs[:, 0] ** 2,
    "lorentz": lambda xs: 1.0 / (1.0 + xs[:, 0] ** 2),
    "indicator": lambda xs: 0.7 * (xs[:, 0] > 0.2),
}

# values in QUAD_PROBES order
QUAD_REFERENCE = {
    "uniform_d1": (
        0.0, 0.04479793338660422, 0.0, 1.0, 1.5, 0.30000000000000004, 2.3561944901923453,
        0.8399999999999996
    ),
    "uniform_d2": (
        0.0, 0.06445991530867375, 0.0, 1.0, 1.4999999999999998, 0.30000000000000004,
        2.3561944901923453
    ),
    "gauss_d1": (
        0.0, 0.13200755450070029, 0.0, 3.000000000000001, 2.393653682408596, 0.9000000000000001,
        1.9670386272563958, 0.8835546101778833
    ),
    "gauss_d2": (
        0.0, 0.1887976098677897, 0.0, 3.0000000000000013, 2.3936536824085963,
        0.9000000000000005, 1.967038627256396
    ),
    "gauss_0.3_d1": (
        4.163463893594793e-17, 0.012125429431459467, -5.082197683525802e-20, 0.2700000000000001,
        0.7180961047225791, 0.08099999999999996, 2.7819890838729426
    ),
    "gauss_0.3_d2": (
        3.1349668863124495e-17, 0.01749876620458618, -2.0328790734103208e-20, 0.2699999999999998,
        0.7180961047225792, 0.08100000000000004, 2.7819890838729417
    ),
    "gauss_2.5_d1": (
        8.830826694894434e-17, 0.7354811940329776, -1.0408340855860843e-17, 18.75,
        5.984134206021491, 5.624999999999998, 1.1228005336708526
    ),
    "gauss_2.5_d2": (
        -1.5620642800084905e-16, 1.0015691678895384, -1.951563910473908e-17, 18.74999999999999,
        5.984134206021485, 5.625000000000003, 1.1228005336708526
    ),
    "power": (
        0.5399999999999999, 0.029873755312330223, 0.0017954886694516933, 0.6659999999999999,
        1.7999999999999998, 0.9198000000000001, 17.513171143697694, 1.7304951684997008
    ),
    "power_sym": (
        0.0, 0.017741008680786114, 0.0, 0.3955278640450004, 0.9316718427000252,
        0.11865835921350015, 3.8785332013496516, 0.519148550549912
    ),
    "polar": (
        1.734723475976807e-17, 0.016182518060301812, 0.0, 0.24997500000000003,
        0.6302535746439056, 0.07499249999999998, 4.4169687785910465
    ),
    "polar_sectors": (
        0.04348381796959117, 0.010245341422703901, 0.00023710921968316787, 0.16612162622609256,
        0.44905394010136224, 0.18701491182728272, 3.731328351778203
    ),
    "curve": (
        0.6732, 0.05915635643654459, 0.005906084932921169, 0.6659999999999999,
        1.7999999999999998, 0.9198000000000001, 17.513171143697694
    ),
    "dyadic": (
        0.5999999997206032, 0.05964102693944262, 0.005121997597281045, 1.3333333333333333,
        1.9999999990686774, 1.1999999996274708, 30.220599737594043, 2.0999999999999996
    ),
}


@pytest.mark.parametrize(
    "family,probe",
    [(f, p) for f, vals in QUAD_REFERENCE.items() for p in list(QUAD_PROBES)[: len(vals)]],
)
def test_sigma_integrate_matches_pinned_quad_values(family, probe):
    ref = QUAD_REFERENCE[family][list(QUAD_PROBES).index(probe)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = QUAD_FAMILIES[family]().sigma_integrate(QUAD_PROBES[probe])
    assert abs(val - ref) <= 1e-12 + 1e-11 * abs(ref)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("scale", [0.3, 1.0, 2.5])
def test_gauss_box_ends_where_the_density_is_zero(scale, dim):
    [(fn, lo, hi)] = _boxes(gauss_model(1.0, rate=3.0, scale=scale, dim=dim), lambda xs: np.ones(len(xs)))
    cut = hi[0]
    assert lo == [-cut] * dim and hi == [cut] * dim and 0.0 < cut < math.inf
    # each face of the box: one coordinate at +-cut, the others at the mode
    faces = np.vstack([cut * np.eye(dim), -cut * np.eye(dim)])
    assert np.all(fn(faces) == 0.0)
    assert np.all(fn(np.zeros((1, dim))) > 0.0)


def test_gauss_integrand_that_overflows_outside_the_box():
    """exp(0.1 x) overflows far out on R, where the density is already 0.0: inf * 0 gave nan."""
    sigma = 2.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = gauss_model(1.0, rate=3.0, scale=sigma).sigma_integrate(
            lambda xs: np.cos(xs[:, 0] + 0.7) * np.exp(0.1 * xs[:, 0])
        )
    ref = 3.0 * (np.exp(0.7j) * np.exp(sigma**2 * (0.1 + 1j) ** 2 / 2.0)).real
    assert ref == pytest.approx(0.03309148107017027, rel=1e-15)
    assert val == pytest.approx(ref, rel=1e-12)


def test_sigma_integrate_warns_on_a_nan_integrand():
    model = uniform_model(1.0, rate=1.0)
    with pytest.warns(IntegrationWarning, match="estimate nan"):
        val = model.sigma_integrate(lambda xs: np.full(len(xs), np.nan))
    assert math.isnan(val)


def test_gauss_scale_whose_box_overflows_is_rejected():
    # the box [-38.61 scale, 38.61 scale]^d: its width overflows from about 2.3e306, its area from 1.7e152
    for scale, dim in ((1e306, 1), (1e152, 2)):
        val = gauss_model(1.0, rate=3.0, scale=scale, dim=dim).sigma_integrate(lambda xs: np.ones(len(xs)))
        assert val == pytest.approx(3.0, rel=1e-15)
    for scale, dim in ((1e307, 1), (1e308, 1), (2e152, 2)):
        with pytest.raises(InvalidModelError, match=re.escape(f"got {scale:g} (box volume")):
            gauss_model(1.0, rate=3.0, scale=scale, dim=dim)


@pytest.mark.parametrize("family", ["uniform_d2", "gauss_d2", "power_sym", "polar_sectors", "curve"])
def test_quadrature_warning_reports_the_returned_value(monkeypatch, family):
    """Each warning names factor x estimate and |factor| x error of its box, factor the density or g_i."""
    model, probe = QUAD_FAMILIES[family](), QUAD_PROBES["indicator"]
    monkeypatch.setattr(intensities, "_MAX_SUBDIVISIONS", 1)
    with pytest.warns(IntegrationWarning) as caught:
        val = model.sigma_integrate(probe)
    factors = []
    monkeypatch.setattr(
        intensities, "_integrate", lambda fn, lo, hi, factor=1.0: factors.append(factor) or 0.0
    )
    model.sigma_integrate(probe)
    parts = []
    for (fn, lo, hi), factor, warning in zip(_boxes(model, probe), factors, caught, strict=True):
        est, err, status = intensities._cubature(fn, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        parts.append(float(factor * est))
        want = f"cubature {status} with estimate {parts[-1]!r}, error estimate {abs(factor) * err:.3g}"
        assert str(warning.message) == want
    assert sum(parts) == val and len(parts) == (2 if family == "polar_sectors" else 1)


def _boxes(model, f):
    """The (fn, lo, hi) of every _integrate call model.sigma_integrate(f) makes."""
    boxes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intensities, "_integrate", lambda fn, lo, hi, factor=1.0: boxes.append((fn, lo, hi)) or 0.0)
        model.sigma_integrate(f)
    return boxes


def _assert_cubature_bits(boxes, cap=10_000):
    """intensities._cubature returns scipy's cubature estimate, error and status bit for bit."""
    assert boxes
    for fn, lo, hi in boxes:
        res = cubature(fn, lo, hi, rtol=1e-12, atol=1e-12, max_subdivisions=cap)
        est, err, status = intensities._cubature(fn, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        assert np.float64(est).tobytes() == np.float64(res.estimate).tobytes(), (est, float(res.estimate))
        assert np.float64(err).tobytes() == np.float64(res.error).tobytes(), (err, float(res.error))
        assert status == res.status


# every quadrature family (dyadic sums its atoms) x every probe; a 2-d
# indicator jumps along a line and would exhaust 10,000 subdivisions, so
# those pairs run both sides capped at 60 and end not converged
@pytest.mark.parametrize("family", [f for f in QUAD_FAMILIES if f != "dyadic"])
@pytest.mark.parametrize("probe", list(QUAD_PROBES))
def test_integrate_is_scipy_cubature_bit_for_bit(monkeypatch, family, probe):
    model = QUAD_FAMILIES[family]()
    cap = 10_000 if probe != "indicator" or model.dim == 1 else 60
    monkeypatch.setattr(intensities, "_MAX_SUBDIVISIONS", cap)
    _assert_cubature_bits(_boxes(model, QUAD_PROBES[probe]), cap)


def test_integrate_is_scipy_cubature_on_overflow_and_nan_integrands():
    gauss = gauss_model(1.0, rate=3.0, scale=2.5)
    _assert_cubature_bits(_boxes(gauss, lambda xs: np.cos(xs[:, 0] + 0.7) * np.exp(0.1 * xs[:, 0])))
    _assert_cubature_bits(_boxes(uniform_model(1.0, rate=1.0), lambda xs: np.full(len(xs), np.nan)))


@pytest.mark.parametrize("cap", [1, 2, 7])
@pytest.mark.parametrize("family", ["uniform_d1", "gauss_d2", "polar"])
def test_integrate_not_converged_is_scipy_cubature(monkeypatch, family, cap):
    monkeypatch.setattr(intensities, "_MAX_SUBDIVISIONS", cap)
    boxes = _boxes(QUAD_FAMILIES[family](), QUAD_PROBES["indicator"])
    _assert_cubature_bits(boxes, cap)
    fn, lo, hi = boxes[0]
    with pytest.warns(IntegrationWarning, match="not_converged"):
        intensities._integrate(fn, lo, hi)


def test_sample_marks_redraws_only_all_zero_rows():
    """Rows with some zero coordinates stay; all-zero rows are redrawn, one draw per bad row."""

    def coin_marks(rng, n):
        return rng.integers(0, 2, size=(n, 2)).astype(float)

    model = IntensityModel("coins", "test", 1.0, 2, 1.0, coin_marks, lambda f: 0.0, np.zeros(2))
    out = model.sample_marks(substream(7), 400)
    rng = substream(7)
    want = coin_marks(rng, 400)
    bad = np.all(want == 0.0, axis=1)
    while bad.any():
        want[bad] = coin_marks(rng, int(bad.sum()))
        bad = np.all(want == 0.0, axis=1)
    assert np.array_equal(out, want)
    assert np.any(out == 0.0) and not np.any(np.all(out == 0.0, axis=1))


def test_dyadic_flagged_non_diffuse():
    model = dyadic_model(1.0, 0, 8)
    # an atomic jump measure: marks repeat among its 9 atoms
    assert np.unique(model.sample_marks(substream(5), 1000)).size <= 9
    assert model.rate == 9.0
    assert model.mean[0] == pytest.approx(2.0 - 2.0**-8, abs=1e-15)
