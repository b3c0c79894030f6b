"""Experiment runner: reproducible configured runs emitting tables and artifacts.

Configs are a single nested key-value text file: sections in brackets,
``key = value`` pairs, arrays in brackets, ``#`` comments.  Numbers parse
as decimals with exponent.  Subcommands:

    run <config>    execute the configured experiment (exit 0 iff all pass
                    rules hold, 2 on config errors and invalid model,
                    functional or domain values, 3 on registry misses)
    list <registry> print one of models | functionals | gammas | experiments
                    with its parameters (for experiments: keys and defaults)
    fixtures        write the pinned example configurations to --out-dir

Artifacts (CSV and JSON) carry a provenance header (config hash, seed,
package, Python and numpy versions) and are byte-identical for
identical (config, seed) at any worker count: survey row i is drawn from
the stream (seed, i) whichever worker computes it, and rows merge in
index order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__
from .chaos import (
    ChaosError,
    MarkFunction,
    exp_series_check,
    multiple_integral_functional,
    orthogonality_mc,
    product_formula_check,
)
from .configuration import (
    _BATCH_ATOMS_MAX,
    Configuration,
    ConfigurationError,
    InvalidModelError,
    csv_text,
    sample_configuration,
    write_configuration,
)
from .diagnostics import ecf, kde, rajchman_demo
from .functionals import FUNCTIONAL_BUILDERS, FunctionalError, build_functional, stack_functionals
from .intensities import MODEL_FAMILIES, build_model
from .lent_particle import (
    GAMMA_BUILDERS,
    EngineError,
    SurveyResult,
    build_gamma,
    carre_du_champ,
    diag_squares_gamma,
    survey_row,
)
from .rng import chunk_ranges, parallel_map
from .suite import standard_suite, suite_pass_fraction

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_REGISTRY = 3

#: invalid model, configuration, functional or domain values: exit 2
DOMAIN_ERRORS = (InvalidModelError, ConfigurationError, FunctionalError, EngineError, ChaosError)

#: survey configurations per worker task; rows are keyed by global index
SURVEY_CHUNK = 250


class ConfigParseError(Exception):
    """A config error, placed at the line and column of its key or section when it has one."""

    def __init__(self, msg: str, line: int | None = None, col: int | None = None) -> None:
        super().__init__(msg)
        self.line = line
        self.col = col

    def where(self) -> str:
        return "" if self.line is None else f" at line {self.line}, column {self.col}"


class RegistryMiss(ConfigParseError):
    """A name outside its registry, or a value outside its key's allowed set (exit 3)."""


class Section(dict):
    """One config section's keys and values; ``at`` is the header's (line, column), ``pos`` each key's."""

    def __init__(self, at: tuple = ()) -> None:
        super().__init__()
        self.at = at
        self.pos: dict[str, tuple[int, int]] = {}


# ---------------------------------------------------------------------------
# config text format
# ---------------------------------------------------------------------------

def _strip_comment(raw: str) -> str:
    out = []
    quoted = False
    for ch in raw:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out)


def _parse_scalar(tok: str, line: int, col: int):
    tok = tok.strip()
    if not tok:
        raise ConfigParseError("empty value", line, col)
    if tok.startswith('"') and tok.endswith('"') and len(tok) >= 2:
        return tok[1:-1]
    if tok in ("true", "false"):
        return tok == "true"
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    if any(c.isspace() for c in tok):
        raise ConfigParseError(f"unquoted value with spaces: {tok!r}", line, col)
    return tok


def _parse_value(tok: str, line: int, col: int):
    tok = tok.strip()
    if tok.startswith("["):
        if not tok.endswith("]"):
            raise ConfigParseError("unterminated array", line, col)
        inner = tok[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(p, line, col) for p in inner.split(",")]
    return _parse_scalar(tok, line, col)


def parse_config(text: str) -> dict[str, Section]:
    """Parse the bracketed-section key-value format; raises with line/column.

    Each section keeps the position of its header and of each of its keys.
    """
    sections: dict[str, Section] = {}
    current: Section | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw).rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = raw.index(stripped[0]) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigParseError("unterminated section header", lineno, col)
            name = stripped[1:-1].strip()
            if not name:
                raise ConfigParseError("empty section name", lineno, col)
            if name in sections:
                raise ConfigParseError(f"duplicate section [{name}]", lineno, col)
            current = Section((lineno, col))
            sections[name] = current
            continue
        if "=" not in stripped:
            raise ConfigParseError("expected 'key = value'", lineno, col)
        if current is None:
            raise ConfigParseError("key outside any [section]", lineno, col)
        key, _, val = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigParseError("empty key", lineno, col)
        if key in current:
            raise ConfigParseError(f"duplicate key {key!r}", lineno, col)
        vcol = raw.index("=") + 2
        current[key] = _parse_value(val, lineno, vcol)
        current.pos[key] = (lineno, col)
    return sections


# ---------------------------------------------------------------------------
# registries, fixtures, kernels
# ---------------------------------------------------------------------------

FIXTURE_CONFIGS = {
    "exp_pair": lambda: Configuration(1.0, 1, [0.2, 0.6], [[0.5], [-0.2]], "fixture"),
    "area": lambda: Configuration(1.0, 2, [0.2, 0.6], [[1.0, 0.0], [0.0, 1.0]], "fixture"),
    "gou": lambda: Configuration(
        1.0, 2, [0.3, 0.6], [[math.log(2.0), 0.0], [0.0, 1.0]], "fixture"
    ),
    "triangular": lambda: Configuration(1.0, 2, [0.2, 0.6], [[0.5, 0.0], [0.0, 0.3]], "fixture"),
}


def _first_coordinate_kernel(fn, dfn, sup_bound: float, label: str) -> MarkFunction:
    """A kernel fn(x1) of the first mark coordinate; its (n, d) gradient is dfn(x1), then zeros."""
    def grad(xs):
        out = np.zeros(xs.shape)
        out[:, 0] = dfn(xs[:, 0])
        return out

    return MarkFunction(lambda xs: fn(xs[:, 0]), sup_bound=sup_bound, grad=grad, label=label)


KERNELS = {
    "half_x": _first_coordinate_kernel(lambda x: 0.5 * x, lambda x: 0.5, 0.5, "x/2"),
    "skew": _first_coordinate_kernel(lambda x: 0.4 * x + 0.3 * x**2, lambda x: 0.4 + 0.6 * x, 0.7, "0.4x+0.3x^2"),
    "square": _first_coordinate_kernel(lambda x: x**2, lambda x: 2.0 * x, 1.0, "x^2"),
    "inv_quad": _first_coordinate_kernel(
        lambda x: 1.0 / (1.0 + x**2), lambda x: -2.0 * x / (1.0 + x**2) ** 2, 1.0, "1/(1+x^2)"
    ),
}


def _write_artifacts(out_dir: str, files: dict, passed: bool, params: dict, config_text: str) -> None:
    """Write each artifact under the file name its key holds in params.

    A CSV body follows a provenance header line; a JSON summary gains the
    provenance and pass fields.  The provenance names numpy, the one
    runtime dependency, and no other package.
    """
    prov = {
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "seed": params["seed"],
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    os.makedirs(out_dir, exist_ok=True)
    header = "# " + " ".join(f"{key}={value}" for key, value in prov.items()) + "\n"
    for key, content in files.items():
        with open(os.path.join(out_dir, params[key]), "w") as fh:
            if isinstance(content, str):
                fh.write(header + content)
            else:
                json.dump({**content, "provenance": prov, "pass": bool(passed)}, fh, sort_keys=True, indent=2)
                fh.write("\n")


#: (section, name key, registry, builder(name, params, model))
SECTIONS = (
    ("model", "family", MODEL_FAMILIES, lambda name, params, model: build_model(name, **params)),
    (
        "functional", "label", FUNCTIONAL_BUILDERS,
        lambda name, params, model: build_functional(name, model, **params),
    ),
    ("gamma", "label", GAMMA_BUILDERS, lambda name, params, model: build_gamma(name, **params)),
)


def _build_from_sections(cfg: dict[str, Section]) -> dict:
    """Build the model, functional and gamma spec by section name; an absent section builds None."""
    built: dict = {}
    for section, name_key, registry, build in SECTIONS:
        sec = cfg.get(section)
        if sec is None:
            built[section] = None
            continue
        if section == "functional" and built["model"] is None:
            raise ConfigParseError("[functional] needs [model]", *sec.at)
        params = dict(sec)
        name = params.pop(name_key, None)
        if name is None:
            raise ConfigParseError(f"missing {name_key!r} in [{section}]", *sec.at)
        if not isinstance(name, str) or name not in registry:
            raise RegistryMiss(f"unknown [{section}] {name_key} {name!r}", *sec.pos.get(name_key, ()))
        try:
            built[section] = build(name, params, built.get("model"))
        except DOMAIN_ERRORS:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigParseError(f"bad [{section}] parameters: {exc}", *sec.at) from exc
    return built


# ---------------------------------------------------------------------------
# experiments: each runner returns its pass flag and its artifacts, keyed by
# the parameter that names each file: a JSON summary (dict) or a CSV body (str)
# ---------------------------------------------------------------------------

def _fmt_matrix(m: np.ndarray) -> str:
    rows = ["[" + ", ".join(f"{v:.12g}" for v in row) + "]" for row in np.atleast_2d(m)]
    return "[" + ", ".join(rows) + "]"


def _run_gamma(p, model, functional, gamma, **_):
    if p["fixture"] is not None:
        configuration = FIXTURE_CONFIGS[p["fixture"]]()
    else:
        configuration = sample_configuration(model, seed=p["seed"])
    closed = carre_du_champ(functional, configuration, gamma, mode="closed")
    fd = carre_du_champ(functional, configuration, gamma, mode="fd")
    denom = max(float(np.linalg.norm(closed.matrix)), 1e-300)
    agreement = float(np.linalg.norm(closed.matrix - fd.matrix)) / denom
    tol = p["tolerance"]
    if tol is None:  # criterion 1's tolerance: closed derivatives 1e-6, fd-only functionals 1e-4
        tol = 1e-6 if functional.has_closed_derivative else 1e-4
    passed = agreement <= tol
    print(f"carre du champ for {functional.label} on {configuration!r}")
    print(f"  matrix = {_fmt_matrix(closed.matrix)}")
    print(f"  det = {closed.det:.12g}  trace = {closed.trace:.12g}")
    print(f"  closed-vs-fd relative difference = {agreement:.3e} (tol {tol:g})")
    summary = {
        "functional": functional.label,
        "matrix": closed.matrix.tolist(),
        "det": closed.det,
        "trace": closed.trace,
        "fd_matrix": fd.matrix.tolist(),
        "closed_vs_fd": agreement,
    }
    return passed, {"out": summary}


def _survey_chunk(args):
    # workers rebuild the model, functional and gamma from the sections: closures do not pickle
    sections, seed, tol, lo, hi = args
    built = _build_from_sections(sections)
    return [
        survey_row(built["functional"], built["model"], built["gamma"], seed, i, tol) for i in range(lo, hi)
    ]


def _run_survey(p, functional, sections, jobs, **_):
    tol = p["tolerance"]
    tasks = [(sections, p["seed"], tol, lo, hi) for lo, hi in chunk_ranges(p["nsamples"], SURVEY_CHUNK)]
    scored = [item for part in parallel_map(_survey_chunk, tasks, jobs) for item in part]
    result = SurveyResult.collect(functional.label, scored)
    threshold = p["min_frequency"]
    passed = result.frequency >= threshold
    print(
        f"det-positivity frequency: {result.frequency:.6f} over {result.nsamples} samples "
        f"(threshold {threshold:g})"
    )
    summary = {"functional": functional.label, "frequency": result.frequency, "nsamples": result.nsamples}
    return passed, {"out": result.to_csv(), "summary_out": summary}


def _report_line(rep) -> str:
    return f"{'PASS' if rep.passed else 'FAIL'}  z = {rep.z:5.2f}  {rep.name}"


def _run_identity(p, **_):
    reports = standard_suite(seed=p["seed"], scale=p["scale"])
    frac = suite_pass_fraction(reports)
    for r in reports:
        print(_report_line(r))
    print(f"pass fraction: {frac:.3f} over {len(reports)} checks")
    passed = frac >= p["min_pass_fraction"]
    return passed, {"out": {"reports": [r.to_dict() for r in reports], "pass_fraction": frac}}


def _run_chaos(p, model, **_):
    seed = p["seed"]
    u, v = KERNELS[p["u"]], KERNELS[p["v"]]
    spec = diag_squares_gamma(model.dim)
    # the grid first: its batches are the kind's largest, so the batch cap trips before any loop runs
    reports = orthogonality_mc(model, u, v, (1, 2), p["nsamples"], seed + 5000)
    series_worst = 0.0
    product_worst = 0.0
    for i in range(p["nconfigs"]):
        configuration = sample_configuration(model, seed, 0, i)
        series_worst = max(series_worst, exp_series_check(configuration, model, u, t=0.12, n_max=12))
        product_worst = max(
            product_worst, product_formula_check(configuration, model, u, v, s=0.2, t=0.2)
        )
    gamma_worst = 0.0
    fu = {d: multiple_integral_functional(model, u, d) for d in (1, 2)}
    fv = {d: multiple_integral_functional(model, v, d) for d in (1, 2)}
    pairs = [stack_functionals([fu[deg_i], fv[deg_j]]) for deg_i in (1, 2) for deg_j in (1, 2)]
    for i in range(p["ngamma"]):
        configuration = sample_configuration(model, seed, 1, i)
        for pair in pairs:
            closed = carre_du_champ(pair, configuration, spec, mode="closed").matrix[0, 1]
            fd = carre_du_champ(pair, configuration, spec, mode="fd").matrix[0, 1]
            gamma_worst = max(gamma_worst, abs(closed - fd) / (1.0 + abs(closed)))
    orth_ok = sum(r.passed for r in reports)
    passed = (
        series_worst <= p["series_tol"]
        and product_worst <= p["product_tol"]
        and gamma_worst <= p["gamma_tol"]
        and orth_ok >= len(reports) - 1
    )
    print(f"series residual (worst): {series_worst:.3e}")
    print(f"product-formula residual (worst): {product_worst:.3e}")
    print(f"chaos-gamma vs fd (worst relative): {gamma_worst:.3e}")
    print(f"orthogonality cells passed: {orth_ok}/{len(reports)}")
    summary = {
        "series_residual": series_worst,
        "product_residual": product_worst,
        "gamma_agreement": gamma_worst,
        "orthogonality": [r.to_dict() for r in reports],
    }
    return passed, {"out": summary}


def _run_density(p, model, functional, **_):
    seed, nsamples = p["seed"], p["nsamples"]
    curve = kde(functional, model, nsamples, seed=seed)
    ok = curve.degenerate or abs(curve.integral - 1.0) <= 1e-3
    files = {} if curve.degenerate else {"out": curve.to_csv()}
    if functional.out_dim == 1:
        u_grid = np.linspace(0.5, p["u_max"], 40)
        files["ecf_out"] = ecf(functional, model, min(nsamples, 20000), u_grid, seed=seed + 1).to_csv()
    print(f"kde integral: {curve.integral:.6f} (degenerate: {curve.degenerate})")
    files["summary_out"] = {
        "kde_integral": curve.integral,
        "degenerate": curve.degenerate,
        "bandwidth": list(curve.bandwidth),
    }
    return ok, files


def _run_rajchman(p, model, sections, **_):
    given = sections["model"]
    if model.family != "atomic-dyadic":
        raise ConfigParseError(f"kind=rajchman needs [model] family = dyadic, got {given['family']!r}", *given.at)
    # the atoms 2^-n, n = n_start..n_max: the [model] keys, or dyadic_model's defaults
    n_start, n_max = int(given.get("n_start", 0)), int(given.get("n_max", 30))
    if not n_start <= p["k_max"] <= n_max - 4:
        # from k = n_max - 3 the missing atoms below 2^-n_max move the modulus off its limit
        exp = sections["experiment"]
        raise ConfigParseError(
            f"k_max must be in [n_start, n_max - 4] = [{n_start}, {n_max - 4}], got {p['k_max']}",
            *exp.pos.get("k_max", exp.at),
        )
    demo = rajchman_demo(model, p["k_max"], p["nsamples"], p["seed"], k_min=n_start)
    closed, limit = np.array(demo["closed_modulus"]), demo["limit"]
    passed = bool(np.all(np.abs(closed - limit) <= p["tolerance"]))
    body = csv_text(
        "k,u,closed_modulus", ((k, 2.0**k * math.pi, c) for k, c in zip(demo["u_exponents"], closed))
    )
    print(f"constant modulus {limit:.6f}; max deviation {np.abs(closed - limit).max():.2e}")
    summary = {
        "closed_modulus": demo["closed_modulus"],
        "mc_modulus": demo.get("mc_modulus"),
        "limit": limit,
    }
    return passed, {"out": body, "summary_out": summary}


#: The experiment contract, by kind:
#:   run      runner(params, *, model, functional, gamma, sections, jobs) -> (pass, artifacts)
#:   needs    the sections it reads
#:   params   the [experiment] keys it reads besides kind and seed, each with its
#:            default; a key's type is its default's (None: an optional number),
#:            and the keys ending in "out" name artifact files
#:   low      the least value of a count or threshold (every float must also be finite)
#:   high     the greatest value of a fraction or a count; every count's is one budget, the batch
#:            sampler's atom cap _BATCH_ATOMS_MAX, so an infeasible count exits 2 before it runs
#:   choices  the allowed values of each named-choice key (others: exit 3)
EXPERIMENTS: dict[str, dict] = {
    "gamma": {
        "run": _run_gamma,
        "needs": ("model", "functional", "gamma"),
        # tolerance None: criterion 1's tolerance for the functional
        "params": {"fixture": None, "tolerance": None, "out": "gamma.json"},
        "low": {"tolerance": 0},
        "choices": {"fixture": FIXTURE_CONFIGS},
    },
    "survey": {
        "run": _run_survey,
        "needs": ("model", "functional", "gamma"),
        "params": {
            "nsamples": 1000, "tolerance": 1e-12, "min_frequency": 0.0,
            "out": "survey.csv", "summary_out": "survey.json",
        },
        "low": {"nsamples": 1, "tolerance": 0, "min_frequency": 0},
        "high": {"nsamples": _BATCH_ATOMS_MAX, "min_frequency": 1},
    },
    "identity": {
        "run": _run_identity,
        "params": {"scale": 1.0, "min_pass_fraction": 0.95, "out": "identity.json"},
        # scale 0: the floor sample count of every check
        "low": {"scale": 0, "min_pass_fraction": 0},
        # the suite's largest batch, the orthogonality group's 1,000,000 * scale samples at rate 5,
        # expects 5,000,000 * scale atoms
        "high": {"scale": _BATCH_ATOMS_MAX / 5_000_000, "min_pass_fraction": 1},
    },
    "chaos": {
        "run": _run_chaos,
        "needs": ("model",),
        "params": {
            "u": "skew", "v": "square", "nconfigs": 50, "ngamma": 10, "nsamples": 200_000,
            "series_tol": 1e-8, "product_tol": 1e-10, "gamma_tol": 1e-6, "out": "chaos.json",
        },
        # nsamples 2: one sample has no standard error, so no orthogonality cell could pass
        "low": {"nconfigs": 0, "ngamma": 0, "nsamples": 2, "series_tol": 0, "product_tol": 0, "gamma_tol": 0},
        "high": {"nconfigs": _BATCH_ATOMS_MAX, "ngamma": _BATCH_ATOMS_MAX, "nsamples": _BATCH_ATOMS_MAX},
        "choices": {"u": KERNELS, "v": KERNELS},
    },
    "density": {
        "run": _run_density,
        "needs": ("model", "functional"),
        "params": {
            "nsamples": 4000, "u_max": 40.0,
            "out": "density_kde.csv", "ecf_out": "density_ecf.csv", "summary_out": "density.json",
        },
        "low": {"nsamples": 1},
        "high": {"nsamples": _BATCH_ATOMS_MAX},
    },
    "rajchman": {
        "run": _run_rajchman,
        "needs": ("model",),
        # nsamples 0: no Monte Carlo overlay
        "params": {
            "k_max": 8, "nsamples": 0, "tolerance": 2e-3,
            "out": "rajchman.csv", "summary_out": "rajchman.json",
        },
        "low": {"k_max": 0, "nsamples": 0, "tolerance": 0},
        # u = 2^k pi overflows to inf at k = 1023 and raises at 1024
        "high": {"k_max": 1022, "nsamples": _BATCH_ATOMS_MAX},
    },
}


def _experiment_params(sec: Section, seed_flag: int | None) -> tuple[str, dict]:
    """The kind and its parameters: the table's defaults, then the [experiment] keys, then --seed."""
    kind = sec.get("kind")
    if not isinstance(kind, str) or kind not in EXPERIMENTS:
        raise RegistryMiss(f"unknown experiment kind {kind!r}", *sec.pos.get("kind", sec.at))
    spec = EXPERIMENTS[kind]
    defaults = {"seed": 0, **spec["params"]}
    low = {"seed": 0, **spec.get("low", {})}
    high = spec.get("high", {})
    choices = spec.get("choices", {})
    given = {key: (value, sec.pos[key]) for key, value in sec.items() if key != "kind"}
    if seed_flag is not None:
        given["seed"] = (seed_flag, ())
    params = dict(defaults)
    for key, (value, at) in given.items():
        if key not in defaults:
            raise ConfigParseError(
                f"kind={kind} reads no [experiment] key {key!r} (it reads: kind, {', '.join(defaults)})", *at
            )
        if key in choices:
            if not isinstance(value, str) or value not in choices[key]:
                raise RegistryMiss(f"unknown {key} {value!r} (known: {', '.join(sorted(choices[key]))})", *at)
        else:
            cast = float if defaults[key] is None else type(defaults[key])
            try:
                if cast is int and isinstance(value, float) and not value.is_integer():
                    raise ValueError(value)
                value = cast(value)
            except (TypeError, ValueError, OverflowError):
                noun = "an integer" if cast is int else "a number"
                raise ConfigParseError(f"[experiment] {key} = {value!r} is not {noun}", *at) from None
            if cast is float and not math.isfinite(value):
                raise ConfigParseError(f"[experiment] {key} = {value!r} is not a finite number", *at)
            if key in low and value < low[key]:
                raise ConfigParseError(f"{key} must be >= {low[key]}, got {value}", *at)
            if key in high and value > high[key]:
                raise ConfigParseError(f"{key} must be <= {high[key]}, got {given[key][0]}", *at)
            if key.endswith("out") and (value in ("", ".", "..") or "/" in value or os.sep in value):
                raise ConfigParseError(f"{key} must be a file name in --out-dir, got {value!r}", *at)
        params[key] = value
    return kind, params


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            config_text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(config_text)
        if "experiment" not in cfg:
            raise ConfigParseError("missing [experiment] section")
        kind, params = _experiment_params(cfg["experiment"], args.seed)
        spec = EXPERIMENTS[kind]
        if args.functional is not None:
            fsec = cfg.setdefault("functional", Section())
            fsec["label"] = args.functional
            fsec.pos.pop("label", None)
        built = _build_from_sections(cfg)
        missing = [f"[{name}]" for name in spec.get("needs", ()) if built[name] is None]
        if missing:
            raise ConfigParseError(f"kind={kind} needs {' and '.join(missing)}")
        ok, files = spec["run"](params, sections=cfg, jobs=args.jobs, **built)
    except RegistryMiss as exc:
        print(f"registry miss{exc.where()}: {exc}", file=sys.stderr)
        return EXIT_REGISTRY
    except ConfigParseError as exc:
        print(f"config error{exc.where()}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DOMAIN_ERRORS as exc:
        message = " ".join(str(exc).split())
        print(f"invalid value ({type(exc).__name__}): {message}", file=sys.stderr)
        return EXIT_CONFIG
    _write_artifacts(args.out_dir, files, ok, params, config_text)
    print("RESULT: " + ("PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_FAIL


REGISTRIES = {
    "models": MODEL_FAMILIES,
    "functionals": FUNCTIONAL_BUILDERS,
    "gammas": GAMMA_BUILDERS,
    "experiments": EXPERIMENTS,
}


def cmd_list(args) -> int:
    registry = REGISTRIES.get(args.registry)
    if registry is None:
        print(f"unknown registry {args.registry!r}", file=sys.stderr)
        return EXIT_REGISTRY
    for name in sorted(registry):
        params = registry[name]["params"]
        if isinstance(params, dict):  # an experiment's keys, defaults and allowed values
            choices = registry[name].get("choices", {})
            params = ", ".join(
                f"{key}={default}" + (f" ({'|'.join(sorted(choices[key]))})" if key in choices else "")
                for key, default in params.items()
            )
        print(f"{name:14s} {params}")
    return EXIT_OK


def cmd_fixtures(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    for name, builder in sorted(FIXTURE_CONFIGS.items()):
        path = os.path.join(args.out_dir, f"fixture_{name}.txt")
        with open(path, "w") as fh:
            fh.write(write_configuration(builder()))
        print(f"wrote {path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lentparticle", description="Poisson-functional carre-du-champ experiments"
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for parallel loops")
    parser.add_argument("--out-dir", default=".", help="directory for artifacts")
    parser.add_argument(
        "--functional", default=None, help="override the [functional] label (see `list functionals`)"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config")
    p_run.set_defaults(fn=cmd_run)
    p_list = sub.add_parser("list", help="print a registry")
    p_list.add_argument("registry")
    p_list.set_defaults(fn=cmd_list)
    p_fix = sub.add_parser("fixtures", help="emit the pinned example configurations")
    p_fix.set_defaults(fn=cmd_fixtures)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
