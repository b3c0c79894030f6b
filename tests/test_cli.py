import ast
import inspect
import json
import math
import platform
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from lentparticle import chaos, cli, configuration, suite
from lentparticle.cli import EXPERIMENTS, ConfigParseError, main, parse_config
from lentparticle.configuration import read_configuration, sample_configuration
from lentparticle.diagnostics import KDE_GRID_2D, dyadic_modulus_limit, kde
from lentparticle.functionals import FUNCTIONAL_BUILDERS, make_pair_doleans
from lentparticle.intensities import MODEL_FAMILIES, uniform_model
from lentparticle.lent_particle import GAMMA_BUILDERS, det_positivity_survey, diag_squares_gamma

GAMMA_CFG = """\
# exponential pair on the pinned two-atom configuration
[model]
family = uniform
horizon = 1.0
rate = 2.0
low = -0.9
high = 0.9

[functional]
label = pair_doleans
t = 1.0

[gamma]
label = diag_x2
dim = 1

[experiment]
kind = gamma
seed = 7
fixture = exp_pair
"""

SURVEY_CFG = """\
[model]
family = uniform
horizon = 1.0
rate = 6.0
low = -0.9
high = 0.9

[functional]
label = pair_doleans
t = 1.0

[gamma]
label = diag_x2
dim = 1

[experiment]
kind = survey
seed = 3
nsamples = 400
min_frequency = 0.9
"""


class TestParser:
    def test_sections_and_types(self):
        cfg = parse_config(
            '[a]\nx = 1\ny = 2.5e-3\nz = "hi there"\nw = plain\nflag = true\narr = [1, 2.0, 3]\n'
        )
        assert cfg["a"]["x"] == 1 and isinstance(cfg["a"]["x"], int)
        assert cfg["a"]["y"] == pytest.approx(2.5e-3)
        assert cfg["a"]["z"] == "hi there"
        assert cfg["a"]["w"] == "plain"
        assert cfg["a"]["flag"] is True
        assert cfg["a"]["arr"] == [1, 2.0, 3]

    def test_comments_stripped(self):
        cfg = parse_config("[a]\nx = 1  # trailing\n# full line\n")
        assert cfg["a"]["x"] == 1

    @pytest.mark.parametrize(
        "text,line",
        [
            ("[a\nx = 1\n", 1),
            ("[a]\nx 1\n", 2),
            ("x = 1\n", 1),
            ("[a]\nx = \n", 2),
            ("[a]\nx = [1, 2\n", 2),
            ("[a]\nx = 1\nx = 2\n", 3),
        ],
    )
    def test_errors_carry_position(self, text, line):
        with pytest.raises(ConfigParseError) as err:
            parse_config(text)
        assert err.value.line == line
        assert err.value.col >= 1


class TestRun:
    def test_gamma_fixture_prints_pinned_matrix(self, tmp_path, capsys):
        path = tmp_path / "gamma.cfg"
        path.write_text(GAMMA_CFG)
        code = main(["--out-dir", str(tmp_path), "run", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.29" in out and "0.0049" in out and "RESULT: PASS" in out
        payload = json.loads((tmp_path / "gamma.json").read_text())
        np.testing.assert_allclose(
            payload["matrix"], [[0.29, 0.26], [0.26, 0.25]], atol=1e-12
        )
        assert payload["det"] == pytest.approx(0.0049, abs=1e-12)
        assert payload["provenance"]["seed"] == 7

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[model\nfamily = uniform\n")
        assert main(["run", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_unknown_family_exits_3(self, tmp_path, capsys):
        path = tmp_path / "miss.cfg"
        path.write_text(
            "[model]\nfamily = nosuch\nhorizon = 1.0\n\n[experiment]\nkind = gamma\nseed = 1\n"
        )
        assert main(["run", str(path)]) == 3

    def test_unknown_experiment_kind_exits_3(self, tmp_path):
        path = tmp_path / "kind.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 1.0\n\n[experiment]\nkind = solve\nseed = 1\n"
        )
        assert main(["run", str(path)]) == 3

    def test_unknown_functional_parameter_exits_2(self, tmp_path, capsys):
        path = tmp_path / "badparam.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 1.0\n\n"
            "[functional]\nlabel = doleans\nbogus = 3\n\n"
            "[gamma]\nlabel = diag_x2\n\n[experiment]\nkind = gamma\nseed = 1\n"
        )
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("out_dim", ["-1", "2"])
    def test_time_integral_out_dim_key_exits_2(self, tmp_path, capsys, out_dim):
        """time_integral reads its output size off g; an out_dim key is a bad parameter."""
        path = tmp_path / "outdim.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 3.0\n\n"
            f"[functional]\nlabel = time_integral\nout_dim = {out_dim}\n\n"
            "[gamma]\nlabel = diag_x2\n\n[experiment]\nkind = gamma\nseed = 3\n"
        )
        assert main(["--out-dir", str(tmp_path / "out"), "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad [functional] parameters" in err and "out_dim" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_unknown_experiment_key_exits_2(self, tmp_path):
        path = tmp_path / "extra.cfg"
        path.write_text(GAMMA_CFG.replace("fixture = exp_pair", "fixture = exp_pair\nwat = 1"))
        assert main(["--out-dir", str(tmp_path), "run", str(path)]) == 2

    def test_functional_flag_overrides_label(self, tmp_path):
        path = tmp_path / "gamma.cfg"
        path.write_text(GAMMA_CFG)
        code = main(["--out-dir", str(tmp_path), "--functional", "doleans", "run", str(path)])
        assert code == 0
        payload = json.loads((tmp_path / "gamma.json").read_text())
        assert payload["functional"].startswith("doleans")
        assert np.asarray(payload["matrix"]).shape == (1, 1)

    def test_seed_flag_overrides(self, tmp_path):
        path = tmp_path / "gamma.cfg"
        path.write_text(GAMMA_CFG)
        main(["--seed", "99", "--out-dir", str(tmp_path), "run", str(path)])
        payload = json.loads((tmp_path / "gamma.json").read_text())
        assert payload["provenance"]["seed"] == 99

    def test_identity_floor_suite(self, tmp_path, capsys):
        path = tmp_path / "ident.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 2.0\n\n"
            "[experiment]\nkind = identity\nseed = 1\nscale = 0\n"
        )
        assert main(["--out-dir", str(tmp_path), "run", str(path)]) == 0
        payload = json.loads((tmp_path / "identity.json").read_text())
        assert payload["pass"] and len(payload["reports"]) == 40
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith(("PASS  z = ", "FAIL  z = ")) for line in lines) == 40
        assert "pass fraction: 1.000 over 40 checks" in lines

    @pytest.mark.parametrize(
        "kind,key,value",
        [
            ("identity", "out", "nodir/x.json"),
            ("identity", "out", "../x.json"),
            ("identity", "out", ""),
            ("identity", "out", "."),
            ("identity", "out", ".."),
            ("rajchman", "summary_out", "sub/x.json"),
        ],
    )
    def test_artifact_name_outside_out_dir_exits_2_before_running(self, tmp_path, capsys, kind, key, value):
        path = tmp_path / "names.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 2.0\n\n"
            f'[experiment]\nkind = {kind}\nseed = 1\n{key} = "{value}"\n'
            + ("scale = 0\n" if kind == "identity" else "")
        )
        assert main(["--out-dir", str(tmp_path / "out"), "run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"line 9, column 1: {key} must be a file name in --out-dir, got {value!r}" in captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists() and not (tmp_path / "x.json").exists()

    def test_rajchman_experiment(self, tmp_path, capsys):
        path = tmp_path / "raj.cfg"
        path.write_text(
            "[model]\nfamily = dyadic\nhorizon = 1.0\nn_start = 0\nn_max = 30\n\n"
            "[experiment]\nkind = rajchman\nseed = 1\nk_max = 8\n"
        )
        code = main(["--out-dir", str(tmp_path), "run", str(path)])
        assert code == 0
        payload = json.loads((tmp_path / "rajchman.json").read_text())
        closed = np.asarray(payload["closed_modulus"])
        assert np.abs(closed - payload["limit"]).max() <= 2e-3

    @pytest.mark.parametrize(
        "model_keys",
        ["horizon = 0.3", "horizon = 2.0", "horizon = 1.0\nn_start = 2", "horizon = 1.0\nn_max = 14"],
        ids=["horizon_0.3", "horizon_2", "n_start_2", "n_max_14"],
    )
    def test_rajchman_limit_scales_with_horizon_and_rows_start_at_n_start(self, tmp_path, capsys, model_keys):
        # nu = horizon x sigma, so the limit is limit^horizon; the rows k < n_start miss the n = k atom
        path = tmp_path / "raj.cfg"
        path.write_text(f"[model]\nfamily = dyadic\n{model_keys}\n\n[experiment]\nkind = rajchman\nk_max = 10\n")
        assert main(["--out-dir", str(tmp_path), "run", str(path)]) == 0
        payload = json.loads((tmp_path / "rajchman.json").read_text())
        horizon = float(re.search(r"horizon = (\S+)", model_keys).group(1))
        assert payload["limit"] == dyadic_modulus_limit() ** horizon
        closed = np.asarray(payload["closed_modulus"])
        assert np.abs(closed - payload["limit"]).max() <= 7e-4
        n_start = 2 if "n_start" in model_keys else 0
        ks = [int(line.split(",")[0]) for line in (tmp_path / "rajchman.csv").read_text().splitlines()[2:]]
        assert ks == list(range(n_start, 11))

    @pytest.mark.parametrize(
        "model_keys,k_max,error",
        [
            ("n_max = 30", "k_max = 27", "line 9, column 1: k_max must be in [n_start, n_max - 4] = [0, 26], got 27"),
            # the default k_max = 8, reported at the [experiment] header
            ("n_max = 11", "", "line 6, column 1: k_max must be in [n_start, n_max - 4] = [0, 7], got 8"),
            ("n_start = 3", "k_max = 2", "line 9, column 1: k_max must be in [n_start, n_max - 4] = [3, 26], got 2"),
        ],
        ids=["above_n_max_minus_4", "default_above_bound", "below_n_start"],
    )
    def test_rajchman_k_max_outside_the_atoms_exits_2(self, tmp_path, capsys, model_keys, k_max, error):
        path = tmp_path / "raj.cfg"
        path.write_text(
            f"[model]\nfamily = dyadic\n{model_keys}\nhorizon = 1.0\n\n"
            f"[experiment]\nkind = rajchman\nseed = 1\n{k_max}\n"
        )
        assert main(["--out-dir", str(tmp_path / "out"), "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert error in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_chaos_experiment(self, tmp_path, capsys):
        path = tmp_path / "chaos.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 5.0\nlow = -1.0\nhigh = 1.0\n\n"
            "[experiment]\nkind = chaos\nseed = 4\nnconfigs = 5\nngamma = 2\nnsamples = 20000\n"
        )
        assert main(["--out-dir", str(tmp_path), "run", str(path)]) == 0
        payload = json.loads((tmp_path / "chaos.json").read_text())
        assert payload["pass"]
        assert payload["series_residual"] <= 1e-8
        assert payload["gamma_agreement"] <= 1e-6
        assert len(payload["orthogonality"]) == 4

    def test_chaos_configurations_are_keyed_by_path(self, tmp_path, monkeypatch):
        # series/product configurations come from (seed, 0, i) and gamma ones from (seed, 1, i),
        # so runs at different seeds share none
        keys = []

        def recording(model, seed, *path):
            keys.append((seed, *path))
            return sample_configuration(model, seed, *path)

        monkeypatch.setattr(cli, "sample_configuration", recording)
        path = tmp_path / "chaos.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 5.0\n\n"
            "[experiment]\nkind = chaos\nnconfigs = 3\nngamma = 2\nnsamples = 200\n"
        )
        for seed in (0, 1):
            assert main(["--seed", str(seed), "--out-dir", str(tmp_path / str(seed)), "run", str(path)]) in (0, 1)
        assert keys == [(s, k, i) for s in (0, 1) for k, n in ((0, 3), (1, 2)) for i in range(n)]

    def test_chaos_experiment_on_polar_model(self, tmp_path, capsys):
        # the kernels read the first mark coordinate; their gradients are (n, 2) here
        path = tmp_path / "chaos.cfg"
        path.write_text(
            "[model]\nfamily = polar\nhorizon = 1.0\n\n"
            "[experiment]\nkind = chaos\nseed = 1\nnconfigs = 2\nngamma = 1\nnsamples = 2000\n"
        )
        assert main(["--out-dir", str(tmp_path), "run", str(path)]) == 0
        payload = json.loads((tmp_path / "chaos.json").read_text())
        assert payload["pass"]
        assert payload["gamma_agreement"] <= 1e-6

    def test_density_experiment(self, tmp_path):
        path = tmp_path / "dens.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 20.0\nlow = -1.0\nhigh = 1.0\n\n"
            "[functional]\nlabel = path_eval\nt = 1.0\n\n"
            "[experiment]\nkind = density\nseed = 2\nnsamples = 1500\n"
        )
        assert main(["--out-dir", str(tmp_path), "run", str(path)]) == 0
        assert (tmp_path / "density_kde.csv").exists()
        assert (tmp_path / "density_ecf.csv").exists()
        first = (tmp_path / "density_kde.csv").read_text().splitlines()[0]
        assert first.startswith("# config_sha256=")

    def test_provenance_names_python_and_numpy_and_no_scipy(self, tmp_path):
        path = tmp_path / "dens.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 5.0\n\n"
            "[functional]\nlabel = path_eval\nt = 1.0\n\n"
            "[experiment]\nkind = density\nseed = 3\nnsamples = 300\n"
        )
        assert main(["--out-dir", str(tmp_path), "run", str(path)]) == 0
        want = {"python": platform.python_version(), "numpy": np.__version__}
        prov = json.loads((tmp_path / "density.json").read_text())["provenance"]
        assert {key: prov[key] for key in want} == want
        keys = ("config_sha256", "seed", "version", "python", "numpy")
        assert sorted(prov) == sorted(keys)
        header = (tmp_path / "density_ecf.csv").read_text().splitlines()[0]
        assert header == "# " + " ".join(f"{key}={prov[key]}" for key in keys)
        assert "scipy" not in header


# [functional] keys and mark dimension of each registered functional on criterion 1's uniform models
CONFORMANCE = {
    "path_eval": ("t = 1.0", 1),
    "doleans": ("t = 1.0", 1),
    "pair_doleans": ("t = 1.0", 1),
    "time_integral": ("t = 1.0", 1),
    "sup": ("t = 1.0", 1),
    "nearest": ("", 1),
    "area": ("t = 1.0", 2),
    "gou": ("x0 = 0.5\nt = 1.0", 2),
    "jump_sde": ("t = 1.0", 2),
}


@pytest.mark.parametrize("label", sorted(FUNCTIONAL_BUILDERS) + ["curve"])
def test_every_registered_functional_runs_kind_gamma_on_a_sampled_configuration(tmp_path, capsys, label):
    """Closed against fd through the CLI at criterion 1's tolerance (area 1e-4; jump_sde fd-only, 1e-4)."""
    assert set(CONFORMANCE) == set(FUNCTIONAL_BUILDERS)
    if label == "curve":
        model = "family = curve\nhorizon = 1.0\nc = 3.0\nepsilon = 0.05"
        functional, gamma = "label = path_eval\nt = 1.0", "label = curve"
    else:
        keys, dim = CONFORMANCE[label]
        model = f"family = uniform\nhorizon = 1.0\nrate = 10.0\nlow = -0.3\nhigh = 0.8\ndim = {dim}"
        functional, gamma = f"label = {label}\n{keys}", f"label = diag_x2\ndim = {dim}"
    tolerance = "tolerance = 1e-4\n" if label == "area" else ""
    path = tmp_path / "gamma.cfg"
    path.write_text(
        f"[model]\n{model}\n\n[functional]\n{functional}\n\n[gamma]\n{gamma}\n\n"
        f"[experiment]\nkind = gamma\nseed = 3\n{tolerance}"
    )
    assert main(["--out-dir", str(tmp_path), "run", str(path)]) == 0
    payload = json.loads((tmp_path / "gamma.json").read_text())
    assert payload["pass"]
    assert payload["closed_vs_fd"] <= (1e-4 if label in ("area", "jump_sde") else 1e-6)
    assert re.search(r", n=[1-9]\d*,", capsys.readouterr().out)  # a sampled configuration with atoms


def test_density_experiment_on_a_two_output_functional(tmp_path):
    path = tmp_path / "dens2.cfg"
    path.write_text(
        "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 6.0\nlow = -0.9\nhigh = 0.9\n\n"
        "[functional]\nlabel = pair_doleans\nt = 1.0\n\n"
        "[experiment]\nkind = density\nseed = 2\nnsamples = 400\n"
    )
    assert main(["--out-dir", str(tmp_path), "run", str(path)]) == 0
    assert not (tmp_path / "density_ecf.csv").exists()  # the characteristic function is for scalars
    lines = (tmp_path / "density_kde.csv").read_text().splitlines()
    assert lines[1] == "x,y,density" and len(lines) == 2 + KDE_GRID_2D**2
    model = uniform_model(1.0, rate=6.0, low=-0.9, high=0.9)
    curve = kde(make_pair_doleans(model, 1.0), model, 400, seed=2)
    (gx, gy), dens = curve.grid, curve.density
    for row, (i, j) in ((2, (0, 0)), (3, (0, 1)), (2 + KDE_GRID_2D, (1, 0)), (len(lines) - 1, (-1, -1))):
        assert lines[row] == f"{gx[i]:.17g},{gy[j]:.17g},{dens[i, j]:.17g}"


class TestExitCodes:
    @pytest.mark.parametrize(
        "old,new,error",
        [
            ("horizon = 1.0", "horizon = -1", "InvalidModelError"),
            ("t = 1.0", "t = 5", "FunctionalError"),
            ("seed = 7", "seed = abc", "seed = 'abc' is not an integer"),
            ("seed = 7", "seed = -1", "seed must be >= 0"),
            ("fixture = exp_pair", "fixture = area", "EngineError"),
            ("fixture = exp_pair", "nsamples = 5", "line 20, column 1: kind=gamma reads no [experiment] key"),
            ("horizon = 1.0", "horizon = abc", "line 2, column 1: bad [model] parameters"),
            ("[gamma]\nlabel = diag_x2\ndim = 1\n", "", "config error: kind=gamma needs [gamma]"),
        ],
    )
    def test_invalid_values_exit_2_with_one_line(self, tmp_path, capsys, old, new, error):
        path = tmp_path / "bad.cfg"
        path.write_text(GAMMA_CFG.replace(old, new))
        assert main(["--out-dir", str(tmp_path), "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert error in err
        assert err.count("\n") == 1
        assert "line 0" not in err

    @pytest.mark.parametrize(
        "kind,extra,error",
        [
            ("density", "nsamples = 0", "nsamples must be >= 1"),
            ("chaos", "nsamples = 0", "nsamples must be >= 2"),
            ("chaos", "nsamples = 1", "nsamples must be >= 2"),
            ("rajchman", "k_max = -1", "k_max must be >= 0"),
        ],
    )
    def test_counts_below_their_bound_exit_2(self, tmp_path, capsys, kind, extra, error):
        path = tmp_path / "count.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 5.0\n\n"
            "[functional]\nlabel = path_eval\nt = 1.0\n\n"
            f"[experiment]\nkind = {kind}\nseed = 1\n{extra}\n"
        )
        assert main(["--out-dir", str(tmp_path / "out"), "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert error in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old,new,error",
        [
            ("rate = 2.0", "rate = 1e308", "InvalidModelError): rate * horizon = 1e+308 exceeds the Poisson sampler's range"),
            ("high = 0.9", "high = inf", "InvalidModelError): uniform family needs finite bounds with high > low"),
            ("dim = 1", "dim = -2", "EngineError): mark dimension must be >= 1, got -2"),
        ],
        ids=["poisson_mean_too_large", "infinite_bound", "negative_gamma_dim"],
    )
    def test_values_numpy_rejects_exit_2_without_artifacts(self, tmp_path, capsys, old, new, error):
        # each once escaped from numpy as a traceback with exit 1
        path = tmp_path / "numpy.cfg"
        path.write_text(GAMMA_CFG.replace(old, new))
        assert main(["--out-dir", str(tmp_path / "out"), "run", str(path)]) == 2
        captured = capsys.readouterr()
        assert error in captured.err and captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_rate_beyond_the_batch_cap_exits_2_before_drawing(self, tmp_path, capsys, monkeypatch):
        # rate = 1e15 once ended in numpy's _ArrayMemoryError, exit 1; no stream may be opened
        monkeypatch.setattr(configuration, "substream", lambda *a: pytest.fail("a stream was opened"))
        path = tmp_path / "dense.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 1e15\n\n"
            "[functional]\nlabel = path_eval\nt = 1.0\n\n[gamma]\nlabel = diag_x2\ndim = 1\n\n"
            "[experiment]\nkind = gamma\nseed = 1\n"
        )
        assert main(["--out-dir", str(tmp_path / "out"), "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "invalid value (ConfigurationError): rate * horizon = 1e+15 over nsamples = 1 expects 1e+15 atoms, "
            "above the cap of 50,000,000 atoms per batch\n"
        )
        assert not (tmp_path / "out").exists()

    def test_chaos_meets_the_batch_cap_before_any_loop(self, tmp_path, capsys, monkeypatch):
        # the orthogonality grid runs first, so its 6e7-atom batch exits 2 before a series check runs
        calls, series = [], cli.exp_series_check
        monkeypatch.setattr(cli, "exp_series_check", lambda *a, **k: calls.append(a) or series(*a, **k))
        path = tmp_path / "dense.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 200\n\n"
            "[experiment]\nkind = chaos\nnconfigs = 3\nngamma = 0\nnsamples = 300000\n"
        )
        assert main(["--out-dir", str(tmp_path / "out"), "run", str(path)]) == 2
        assert capsys.readouterr().err == (
            "invalid value (ConfigurationError): rate * horizon = 200 over nsamples = 3e+05 expects 6e+07 atoms, "
            "above the cap of 50,000,000 atoms per batch\n"
        )
        assert calls == [] and not (tmp_path / "out").exists()

    def test_rajchman_on_a_model_that_is_not_dyadic_exits_2(self, tmp_path, capsys):
        # the moduli are read off the [model]'s own atoms, so no other family is swapped for a dyadic one
        path = tmp_path / "raj.cfg"
        path.write_text("[model]\nfamily = uniform\nhorizon = 1.0\nrate = 2\n\n[experiment]\nkind = rajchman\n")
        assert main(["--out-dir", str(tmp_path / "out"), "run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error at line 1, column 1: kind=rajchman needs [model] family = dyadic, got 'uniform'\n"
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_gauss_scale_whose_box_overflows_exits_2_with_one_line(self, tmp_path, capsys):
        # the sampler's overflow warning once came before the line
        path = tmp_path / "wide.cfg"
        path.write_text(
            "[model]\nfamily = gauss\nhorizon = 1.0\nrate = 2.0\nscale = 1e308\n\n"
            "[functional]\nlabel = path_eval\nt = 1.0\n\n[gamma]\nlabel = diag_x2\ndim = 1\n\n"
            "[experiment]\nkind = gamma\nseed = 2\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--out-dir", str(tmp_path / "out"), "run", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and not caught
        assert "InvalidModelError): gauss family needs a finite scale > 0, got 1e+308 (box volume" in err
        assert err.count("\n") == 1 and not (tmp_path / "out").exists()

    def test_identity_reads_no_model(self, tmp_path, capsys):
        path = tmp_path / "identity.cfg"
        path.write_text("[experiment]\nkind = identity\nscale = 0\n")
        assert main(["--out-dir", str(tmp_path), "run", str(path)]) == 0
        assert "pass fraction:" in capsys.readouterr().out
        assert len(json.loads((tmp_path / "identity.json").read_text())["reports"]) == 40

    @pytest.mark.parametrize("kind", sorted(EXPERIMENTS))
    def test_missing_model_exits_2_with_one_line(self, tmp_path, capsys, kind):
        # identity alone runs without [model]; a [functional] is built on a model whatever the kind
        path = tmp_path / "nomodel.cfg"
        out = ["--out-dir", str(tmp_path / "out"), "run", str(path)]
        if kind != "identity":
            path.write_text(f"[experiment]\nkind = {kind}\n")
            assert main(out) == 2
            assert re.fullmatch(rf"config error: kind={kind} needs \[model\][^\n]*\n", capsys.readouterr().err)
        path.write_text(f"[functional]\nlabel = path_eval\nt = 1.0\n\n[experiment]\nkind = {kind}\n")
        assert main(out) == 2
        assert capsys.readouterr().err == "config error at line 1, column 1: [functional] needs [model]\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [2, 6])
    def test_non_finite_gamma_exits_2_with_one_line(self, tmp_path, capsys, seed):
        # marks near 1e308: x^2 in the bottom carre du champ overflows; one line on stderr and no warning
        path = tmp_path / "huge.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 2.0\nhigh = 1e308\n\n"
            "[functional]\nlabel = path_eval\nt = 1.0\n\n[gamma]\nlabel = diag_x2\ndim = 1\n\n"
            f"[experiment]\nkind = gamma\nseed = {seed}\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--out-dir", str(tmp_path / "out"), "run", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "EngineError): atom 0 at" in err and "the carre du champ turns non-finite" in err
        assert err.count("\n") == 1 and not caught
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "sections,error",
        [
            (
                "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 2.0\n\n"
                "[experiment]\nkind = chaos\nseed = 1\nnconfigs = 1\nnsamples = 2.7\n",
                "line 10, column 1: [experiment] nsamples = 2.7 is not an integer",
            ),
            (
                "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 2.0\n\n"
                "[experiment]\nkind = identity\nseed = 1\nscale = -1\n",
                "line 9, column 1: scale must be >= 0",
            ),
            (
                "[model]\nfamily = curve\nhorizon = 1.0\n\n[functional]\nlabel = area\nt = 1.0\n\n"
                "[experiment]\nkind = density\nseed = 1\nnsamples = 200\n",
                "FunctionalError): kernel density estimates ship for out_dim <= 2",
            ),
            (
                "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 2.0\n\n[functional]\nlabel = nearest\n\n"
                "[experiment]\nkind = density\nseed = 1\nnsamples = 200\n",
                "FunctionalError): non-finite functional values",
            ),
        ],
        ids=["fractional_count", "negative_scale", "kde_out_dim_3", "kde_non_finite"],
    )
    def test_domain_errors_exit_2_without_artifacts(self, tmp_path, capsys, sections, error):
        path = tmp_path / "domain.cfg"
        path.write_text(sections)
        assert main(["--out-dir", str(tmp_path / "out"), "run", str(path)]) == 2
        captured = capsys.readouterr()
        assert error in captured.err and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text,error",
        [
            (GAMMA_CFG + "tolerance = -1\n", "line 21, column 1: tolerance must be >= 0, got -1.0"),
            (SURVEY_CFG + "tolerance = nan\n", "line 21, column 1: [experiment] tolerance = nan is not a finite number"),
            (
                SURVEY_CFG.replace("min_frequency = 0.9", "min_frequency = 1.5"),
                "line 20, column 1: min_frequency must be <= 1, got 1.5",
            ),
            (
                "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 2.0\n\n"
                "[experiment]\nkind = identity\nseed = 1\nmin_pass_fraction = -0.5\n",
                "line 9, column 1: min_pass_fraction must be >= 0, got -0.5",
            ),
            (
                "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 2.0\n\n"
                "[experiment]\nkind = chaos\nseed = 1\nseries_tol = inf\ngamma_tol = -1e-6\n",
                "line 9, column 1: [experiment] series_tol = inf is not a finite number",
            ),
            (
                "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 2.0\n\n"
                "[experiment]\nkind = chaos\nseed = 1\nproduct_tol = -1\n",
                "line 9, column 1: product_tol must be >= 0, got -1.0",
            ),
            (
                # 2^k pi overflows past k = 1022
                "[model]\nfamily = dyadic\nhorizon = 1.0\n\n[experiment]\nkind = rajchman\nseed = 1\nk_max = 1024\n",
                "line 8, column 1: k_max must be <= 1022, got 1024",
            ),
            (
                "[experiment]\nkind = identity\nseed = 1\nscale = 1e308\n",
                "line 4, column 1: scale must be <= 10.0, got 1e+308",
            ),
            (
                "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 2.0\n\n"
                "[experiment]\nkind = chaos\nseed = 1\nngamma = 1e308\n",
                "line 9, column 1: ngamma must be <= 50000000, got 1e+308",
            ),
        ],
        ids=["gamma_negative_tol", "survey_nan_tol", "survey_frequency_above_1", "identity_negative_fraction",
             "chaos_infinite_tol", "chaos_negative_tol", "rajchman_k_max_overflow", "identity_scale_budget",
             "chaos_count_budget"],
    )
    def test_thresholds_out_of_range_exit_2(self, tmp_path, capsys, text, error):
        path = tmp_path / "threshold.cfg"
        path.write_text(text)
        assert main(["--out-dir", str(tmp_path / "out"), "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert error in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "keys,error",
        [
            ("euler_step = nan", "euler step must be finite and positive, got nan"),
            ("euler_step = inf", "euler step must be finite and positive, got inf"),
            ("z0 = [1.0, 2.0]", "c must broadcast over leading axes, (2, 2) and (2, 2) -> (2, 2)"),
            ("euler_step = 1e-300", "euler_step = 1e-300 needs t / euler_step = 1e+300 Euler steps, above the cap of 1,000,000"),
        ],
        ids=["nan_step", "infinite_step", "short_state", "step_budget"],
    )
    def test_jump_sde_inputs_exit_2(self, tmp_path, capsys, keys, error):
        path = tmp_path / "sde.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 10.0\nlow = -0.3\nhigh = 0.8\ndim = 2\n\n"
            f"[functional]\nlabel = jump_sde\nt = 1.0\n{keys}\n\n[gamma]\nlabel = diag_x2\ndim = 2\n\n"
            "[experiment]\nkind = gamma\nseed = 3\n"
        )
        assert main(["--out-dir", str(tmp_path / "out"), "run", str(path)]) == 2
        captured = capsys.readouterr()
        assert "FunctionalError" in captured.err and error in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "model,error",
        [
            ("family = gauss\nrate = 2.0\nscale = 0", "gauss family needs a finite scale > 0, got 0"),
            ("family = dyadic\nn_start = 1100\nn_max = 1100", "n_max >= n_start in [-1022, 1074], got 1100..1100"),
            ("family = dyadic\nn_max = 1e308", "n_max >= n_start in [-1022, 1074], got 0..1e+308"),
            (
                "family = uniform\nrate = 2.0\nlow = -1e200\nhigh = 1e200\ndim = 2",
                "uniform family needs a finite positive density rate / (high - low)^2, got rate 2.0 on (-1e+200, 1e+200)",
            ),
            (
                "family = uniform\nrate = 2.0\nlow = 0\nhigh = 1e-200\ndim = 2",
                "uniform family needs a finite positive density rate / (high - low)^2, got rate 2.0 on (0, 1e-200)",
            ),
        ],
        ids=["gauss_zero_scale", "dyadic_atoms_underflow", "dyadic_range_too_large", "uniform_volume_overflows", "uniform_volume_underflows"],
    )
    def test_mark_laws_that_cannot_be_sampled_exit_2(self, tmp_path, capsys, model, error):
        # the first two drew only the excluded zero mark and hung in its redraw; np.arange raised on the third;
        # the uniform box volume raised OverflowError (a message without the bounds) or ZeroDivisionError (exit 1)
        path = tmp_path / "law.cfg"
        path.write_text(
            f"[model]\n{model}\nhorizon = 1.0\n\n[functional]\nlabel = path_eval\nt = 1.0\n\n"
            "[gamma]\nlabel = diag_x2\ndim = 1\n\n[experiment]\nkind = gamma\nseed = 3\n"
        )
        assert main(["--out-dir", str(tmp_path / "out"), "run", str(path)]) == 2
        captured = capsys.readouterr()
        assert "InvalidModelError" in captured.err and error in captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_integral_float_count_and_zero_scale_accepted(self, tmp_path, capsys):
        path = tmp_path / "ok.cfg"
        base = "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 2.0\n\n[experiment]\nkind = identity\nseed = 1\n"
        path.write_text(base.replace("identity", "chaos") + "nconfigs = 0\nngamma = 0\nnsamples = 1e3\n")
        assert main(["--out-dir", str(tmp_path / "chaos"), "run", str(path)]) == 0
        payload = json.loads((tmp_path / "chaos" / "chaos.json").read_text())
        assert [r["n"] for r in payload["orthogonality"]] == [1000] * 4
        # scale 0 runs every check at its floor sample count
        path.write_text(base + "scale = 0\nmin_pass_fraction = 0.0\n")
        assert main(["--out-dir", str(tmp_path / "suite"), "run", str(path)]) == 0
        payload = json.loads((tmp_path / "suite" / "identity.json").read_text())
        assert len(payload["reports"]) == 40
        assert min(r["n"] for r in payload["reports"]) == 100

    @pytest.mark.parametrize("key", ["probe = \"laplace_zero\"", "nsamples = 1000"])
    def test_identity_reads_no_probe_or_nsamples(self, tmp_path, capsys, key):
        # the suite's size is set by scale alone; scale = 0 is its smoke run
        path = tmp_path / "ident.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 2.0\n\n"
            f"[experiment]\nkind = identity\nseed = 1\n{key}\n"
        )
        assert main(["--out-dir", str(tmp_path / "out"), "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"line 9, column 1: kind=identity reads no [experiment] key '{key.split()[0]}'" in err
        assert err.count("\n") == 1 and not (tmp_path / "out").exists()

    def test_unknown_choice_exits_3_without_running(self, tmp_path, capsys):
        path = tmp_path / "choice.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 2.0\n\n"
            '[experiment]\nkind = chaos\nseed = 1\nu = "nosuch"\n'
        )
        assert main(["--out-dir", str(tmp_path), "run", str(path)]) == 3
        captured = capsys.readouterr()
        assert "line 9, column 1: unknown u 'nosuch'" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "chaos.json").exists()

    def test_unknown_key_reports_its_line(self, tmp_path, capsys):
        path = tmp_path / "key.cfg"
        path.write_text(
            "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 2.0\n\n"
            "[experiment]\nkind = chaos\nseed = 1\n  wat = 3\n"
        )
        assert main(["--out-dir", str(tmp_path), "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 9, column 3" in err and "'wat'" in err

    @pytest.mark.parametrize("nsamples", [0, -5])
    def test_survey_without_samples_exits_2(self, tmp_path, capsys, nsamples):
        path = tmp_path / "survey.cfg"
        path.write_text(SURVEY_CFG.replace("nsamples = 400", f"nsamples = {nsamples}"))
        assert main(["--out-dir", str(tmp_path), "run", str(path)]) == 2
        assert "nsamples must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "survey.csv").exists()


def _survey_rows(tmp_path, sub, cfg_text, *flags):
    path = tmp_path / f"{sub}.cfg"
    path.write_text(cfg_text)
    assert main(["--out-dir", str(tmp_path / sub), *flags, "run", str(path)]) == 0
    return (tmp_path / sub / "survey.csv").read_text().splitlines()[2:]


class TestSurveyStreams:
    CFG = SURVEY_CFG.replace("seed = 3", "seed = 5").replace("nsamples = 400", "nsamples = 500")

    def test_cli_rows_equal_library_rows(self, tmp_path):
        rows = _survey_rows(tmp_path, "cli", self.CFG)
        model = uniform_model(1.0, rate=6.0, low=-0.9, high=0.9)
        F, spec = make_pair_doleans(model, 1.0), diag_squares_gamma(1)
        res = det_positivity_survey(F, model, spec, 500, seed=5)
        assert rows == res.to_csv().splitlines()[1:]

    def test_seeds_do_not_share_rows_across_chunks(self, tmp_path):
        seed5 = _survey_rows(tmp_path, "s5", self.CFG)
        seed255 = _survey_rows(tmp_path, "s255", self.CFG.replace("seed = 5", "seed = 255"))
        drop_index = lambda rows: [r.split(",", 1)[1] for r in rows]
        assert drop_index(seed5[250:500]) != drop_index(seed255[0:250])

    def test_seed_flag_keys_the_rows(self, tmp_path):
        flagged = _survey_rows(tmp_path, "flag", self.CFG, "--seed", "255")
        configured = _survey_rows(tmp_path, "cfg", self.CFG.replace("seed = 5", "seed = 255"))
        assert flagged == configured


class TestReproducibility:
    def test_survey_byte_identical_across_jobs(self, tmp_path):
        path = tmp_path / "survey.cfg"
        path.write_text(SURVEY_CFG)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["--out-dir", str(d1), "--jobs", "1", "run", str(path)]) == 0
        assert main(["--out-dir", str(d2), "--jobs", "4", "run", str(path)]) == 0
        assert (d1 / "survey.csv").read_bytes() == (d2 / "survey.csv").read_bytes()
        assert (d1 / "survey.json").read_bytes() == (d2 / "survey.json").read_bytes()

    def test_repeat_run_byte_identical(self, tmp_path):
        path = tmp_path / "gamma.cfg"
        path.write_text(GAMMA_CFG)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        main(["--out-dir", str(d1), "run", str(path)])
        main(["--out-dir", str(d2), "run", str(path)])
        assert (d1 / "gamma.json").read_bytes() == (d2 / "gamma.json").read_bytes()


class TestListAndFixtures:
    def test_list_functionals_includes_required_labels(self, capsys):
        assert main(["list", "functionals"]) == 0
        out = capsys.readouterr().out
        for label in ("doleans", "pair_doleans", "area", "time_integral", "gou", "sup", "nearest", "jump_sde"):
            assert label in out

    def test_list_gammas(self, capsys):
        assert main(["list", "gammas"]) == 0
        out = capsys.readouterr().out
        for label in ("diag_x2", "identity", "polar", "curve"):
            assert label in out

    def test_list_experiments(self, capsys):
        assert main(["list", "experiments"]) == 0
        out = capsys.readouterr().out
        for kind in ("gamma", "survey", "identity", "chaos", "density", "rajchman"):
            assert kind in out
        assert "nsamples=1000, tolerance=1e-12" in out and "out=gamma.json" in out

    def test_list_unknown_registry_exits_3(self, capsys):
        assert main(["list", "wat"]) == 3

    def test_list_stable_ordering(self, capsys):
        main(["list", "models"])
        first = capsys.readouterr().out
        main(["list", "models"])
        assert capsys.readouterr().out == first

    def test_fixtures_roundtrip(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "fixtures"]) == 0
        cfg = read_configuration((tmp_path / "fixture_exp_pair.txt").read_text())
        assert cfg.n_atoms == 2
        np.testing.assert_allclose(cfg.times, [0.2, 0.6])
        np.testing.assert_allclose(cfg.marks[:, 0], [0.5, -0.2])
        gou = read_configuration((tmp_path / "fixture_gou.txt").read_text())
        assert gou.marks[0, 0] == pytest.approx(math.log(2.0), rel=1e-15)


def test_readme_config_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```\n(.*?)```", readme, re.S)
    (config,) = [b for b in blocks if "[experiment]" in b]
    path = tmp_path / "readme.cfg"
    path.write_text(config)
    assert main(["--out-dir", str(tmp_path), "run", str(path)]) == 0
    payload = json.loads((tmp_path / "gamma.json").read_text())
    np.testing.assert_allclose(payload["matrix"], [[0.29, 0.26], [0.26, 0.25]], atol=1e-12)


def test_readme_library_example_prints_its_commented_values():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace: dict = {}
    exec(code, namespace)
    checks = re.findall(r"^print\((.+?)\)\s*# (.+)$", code, re.M)
    assert [expr for expr, _ in checks] == ["cdc.matrix", "cdc.det"]
    for expr, comment in checks:
        # the comment rounds each entry to its printed decimals
        decimals = max(len(d) for d in re.findall(r"\.(\d+)", comment))
        np.testing.assert_allclose(eval(expr, namespace), ast.literal_eval(comment), rtol=0, atol=0.5 * 10.0**-decimals)


# ---------------------------------------------------------------------------
# the config grammar swept: every key of every registry entry set to malformed values
# ---------------------------------------------------------------------------

SWEEP_VALUES = ("0", "-1", "nan", "inf", "1e308", "-1e-300", '"x"', "[1]")
# a zero tolerance asks for exact agreement, so the kind's pass rule may fail (exit 1)
SWEEP_MAY_FAIL = {("experiment", key, "0") for key in ("tolerance", "series_tol", "product_tol", "gamma_tol")}
SWEEP_MODEL_KEYS = {"uniform": {"rate": "2.0"}, "gauss": {"rate": "2.0"}, "dyadic": {"n_max": "12"}}
SWEEP_MODEL_DIM = {"polar": 2, "curve": 2}
SWEEP_FUNCTIONAL_KEYS = {"nearest": {}, "gou": {"x0": "0.5", "t": "1.0"}, "jump_sde": {"t": "1.0", "euler_step": "0.05"}}
SWEEP_KIND_KEYS = {
    # seed 2 draws atoms on every swept model (seed 1 draws none on uniform rate 2), so values reach the engine
    "gamma": {"seed": "2"},
    "survey": {"nsamples": "3"},
    "identity": {"scale": "0"},
    "chaos": {"nconfigs": "1", "ngamma": "1", "nsamples": "1000"},
    "density": {"nsamples": "200"},
    "rajchman": {"k_max": "2"},
}


def _declared_keys(params) -> list[str]:
    """The keys a registry entry reads: its experiment keys, or its "a, b=1" parameter line ("(...)": none)."""
    if isinstance(params, dict):
        return ["seed", *params]
    return [] if params.startswith("(") else [p.split("=")[0].strip() for p in params.split(",")]


def _sweep_sections(family="uniform", functional="path_eval", gamma="diag_x2", kind="gamma") -> dict:
    """A cheap valid config with the named registry entries, as {section: {key: value text}}."""
    d = SWEEP_MODEL_DIM.get(family, 2 if functional in ("area", "gou", "jump_sde") else 1)
    model = {"family": family, "horizon": "1.0", **SWEEP_MODEL_KEYS.get(family, {})}
    if family == "uniform" and d == 2:
        model["dim"] = "2"
    return {
        "model": model,
        "functional": {"label": functional, **SWEEP_FUNCTIONAL_KEYS.get(functional, {"t": "1.0"})},
        "gamma": {"label": gamma} if gamma == "curve" else {"label": gamma, "dim": str(d)},
        "experiment": {"kind": kind, "seed": "1", **SWEEP_KIND_KEYS[kind]},
    }


def _sweep_cases():
    """(section, registry entry, key, sections) for every key that every registry entry reads."""
    # an entry that reads no key is swept on one it does not read
    for family, entry in MODEL_FAMILIES.items():
        for key in inspect.signature(entry["builder"]).parameters:
            yield "model", family, key, _sweep_sections(family=family)
    for label, entry in FUNCTIONAL_BUILDERS.items():
        for key in _declared_keys(entry["params"]) or ["t"]:
            yield "functional", label, key, _sweep_sections(functional=label)
    for label, entry in GAMMA_BUILDERS.items():
        for key in _declared_keys(entry["params"]) or ["dim"]:
            yield "gamma", label, key, _sweep_sections(family="curve" if label == "curve" else "uniform", gamma=label)
    for kind, entry in EXPERIMENTS.items():
        for key in _declared_keys(entry["params"]):
            yield "experiment", kind, key, _sweep_sections(family="dyadic" if kind == "rajchman" else "uniform", kind=kind)


SWEEP_CASES = list(_sweep_cases())


def test_sweep_covers_every_registry_entry():
    registries = {"model": MODEL_FAMILIES, "functional": FUNCTIONAL_BUILDERS, "gamma": GAMMA_BUILDERS,
                  "experiment": EXPERIMENTS}
    swept = {(section, entry) for section, entry, _, _ in SWEEP_CASES}
    assert swept == {(section, entry) for section, registry in registries.items() for entry in registry}


def test_every_count_and_scale_is_capped_by_the_one_budget_above_its_default():
    # a count of 1e308 exits 2 before anything is allocated or looped
    budget = configuration._BATCH_ATOMS_MAX
    capped = 0
    for kind, spec in EXPERIMENTS.items():
        for key, default in spec["params"].items():
            if key == "scale" or (type(default) is int and key != "k_max"):
                assert spec["high"][key] == (budget / 5_000_000 if key == "scale" else budget), (kind, key)
                assert default <= spec["high"][key]
                capped += 1
    assert capped == 7
    # the benchmark's suite scale 0.25 and criterion 8's scale 1 sit below the cap
    assert EXPERIMENTS["identity"]["high"]["scale"] >= 1.0


def test_identity_scale_cap_fills_the_suites_largest_batch_to_the_budget(monkeypatch):
    # the orthogonality group's batch at the cap expects exactly the batch sampler's atom budget, so no
    # scale the parser accepts makes a suite check trip the sampler's cap after earlier checks have run
    expected = []

    def record(model, nsamples, seed, *path):
        expected.append(model.rate * model.horizon * nsamples)
        raise StopIteration

    monkeypatch.setattr(chaos, "sample_batch", record)
    with pytest.raises(StopIteration):
        suite._orthogonality_group(0, EXPERIMENTS["identity"]["high"]["scale"])
    assert expected == [configuration._BATCH_ATOMS_MAX]


def test_callers_draw_the_cell_streams(monkeypatch, tmp_path):
    # the grid's cells, m-major: the suite's from seed + 40 + 3m + n and the chaos kind's from seed + 5000 + 3m + n
    drawn = []

    def recording(model, nsamples, seed, *path):
        drawn.append((seed, *path))
        return configuration.sample_batch(model, nsamples, seed, *path)

    monkeypatch.setattr(chaos, "sample_batch", recording)
    for s in (0, 3):
        drawn.clear()
        suite._orthogonality_group(s, 0)
        assert drawn == [(s + 40 + 3 * m + n,) for m in (1, 2, 3) for n in (1, 2, 3)]
    path = tmp_path / "chaos.cfg"
    path.write_text(
        "[model]\nfamily = uniform\nhorizon = 1.0\nrate = 5.0\n\n"
        "[experiment]\nkind = chaos\nseed = 7\nnconfigs = 1\nngamma = 1\nnsamples = 200\n"
    )
    drawn.clear()
    assert main(["--out-dir", str(tmp_path), "run", str(path)]) in (0, 1)
    assert drawn == [(7 + 5000 + 3 * m + n,) for m in (1, 2) for n in (1, 2)]


def test_sweep_gamma_cases_run_on_configurations_with_atoms():
    for sections in {repr(secs): secs for _, _, _, secs in SWEEP_CASES if secs["experiment"]["kind"] == "gamma"}.values():
        text = "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items())
        built = cli._build_from_sections(parse_config(text))
        assert sample_configuration(built["model"], seed=int(sections["experiment"]["seed"])).n_atoms > 0, sections


@pytest.mark.parametrize(
    "section,entry,key,sections", SWEEP_CASES, ids=[f"{sec}-{entry}-{key}" for sec, entry, key, _ in SWEEP_CASES]
)
def test_malformed_values_exit_0_2_or_3_with_at_most_one_line(tmp_path, capsys, section, entry, key, sections):
    """No value escapes as a traceback or exit 1, and none prints more than one line (warnings included)."""
    path = tmp_path / "sweep.cfg"
    for value in SWEEP_VALUES:
        swept = {name: dict(keys) for name, keys in sections.items()}
        swept[section][key] = value
        path.write_text("\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                                  for name, keys in swept.items()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--out-dir", str(tmp_path / "out"), "run", str(path)])
        err = capsys.readouterr().err
        allowed = (0, 1, 2, 3) if (section, key, value) in SWEEP_MAY_FAIL else (0, 2, 3)
        assert code in allowed, (key, value, err)
        assert err.count("\n") + len(caught) <= 1, (key, value, err, [str(w.message) for w in caught])
