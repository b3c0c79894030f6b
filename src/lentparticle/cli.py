"""Experiment runner: reproducible configured runs emitting tables and artifacts.

Configs are a single nested key-value text file: sections in brackets,
``key = value`` pairs, arrays in brackets, ``#`` comments.  Numbers parse
as decimals with exponent.  Subcommands:

    run <config>    execute the configured experiment (exit 0 iff all pass
                    rules hold, 2 on config errors and invalid model,
                    functional or domain values, 3 on registry misses)
    list <registry> print one of models | functionals | gammas | experiments
    fixtures        write the pinned example configurations to --out-dir

Artifacts (CSV and JSON) carry a provenance header (config hash, seed,
version) and are byte-identical for identical (config, seed) at any
worker count: survey row i is drawn from the stream (seed, i) whichever
worker computes it, and rows merge in index order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .chaos import (
    ChaosError,
    MarkFunction,
    chaos_gamma_closed,
    exp_series_check,
    multiple_integral_functional,
    orthogonality_mc,
    product_formula_check,
)
from .configuration import (
    Configuration,
    ConfigurationError,
    InvalidModelError,
    sample_configuration,
    write_configuration,
)
from .diagnostics import ecf, kde, laplace_check, rajchman_demo
from .functionals import FUNCTIONAL_BUILDERS, FunctionalError, build_functional, stack_functionals
from .intensities import MODEL_FAMILIES, build_model, dyadic_model
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

EXPERIMENTS = ("gamma", "survey", "identity", "chaos", "density", "rajchman")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_REGISTRY = 3

#: invalid model, configuration, functional or domain values: exit 2
DOMAIN_ERRORS = (InvalidModelError, ConfigurationError, FunctionalError, EngineError, ChaosError)

#: survey configurations per worker task; rows are keyed by global index
SURVEY_CHUNK = 250


class ConfigParseError(Exception):
    def __init__(self, msg: str, line: int, col: int) -> None:
        super().__init__(msg)
        self.line = line
        self.col = col


class RegistryMiss(Exception):
    pass


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


def parse_config(text: str) -> dict[str, dict]:
    """Parse the bracketed-section key-value format; raises with line/column."""
    sections: dict[str, dict] = {}
    current: dict | None = None
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
            current = {}
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
    return sections


_COMMON_EXP_KEYS = {"kind", "seed", "out", "summary_out", "nsamples", "tolerance"}
EXPERIMENT_KEYS = {
    "gamma": _COMMON_EXP_KEYS | {"fixture"},
    "survey": _COMMON_EXP_KEYS | {"min_frequency"},
    "identity": _COMMON_EXP_KEYS | {"scale", "min_pass_fraction", "probe"},
    "chaos": _COMMON_EXP_KEYS | {"u", "v", "nconfigs", "ngamma", "series_tol", "product_tol", "gamma_tol"},
    "density": _COMMON_EXP_KEYS | {"u_max", "ecf_out"},
    "rajchman": _COMMON_EXP_KEYS | {"k_max"},
}


_INT_KEYS = {"seed", "nsamples", "nconfigs", "ngamma", "k_max"}
_FLOAT_KEYS = {
    "tolerance", "min_frequency", "scale", "min_pass_fraction",
    "series_tol", "product_tol", "gamma_tol", "u_max",
}


def _reject_unknown(section: dict, allowed: set[str], name: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigParseError(
            f"unknown keys in [{name}]: {sorted(unknown)} (allowed: {sorted(allowed)})", 0, 0
        )


def _coerce_numbers(exp: dict) -> None:
    """Cast the numeric [experiment] keys in place; a non-numeric value is a config error."""
    for key in exp.keys() & (_INT_KEYS | _FLOAT_KEYS):
        cast = int if key in _INT_KEYS else float
        try:
            exp[key] = cast(exp[key])
        except (TypeError, ValueError):
            kind = "an integer" if cast is int else "a number"
            raise ConfigParseError(f"[experiment] {key} = {exp[key]!r} is not {kind}", 0, 0) from None


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

KERNELS = {
    "half_x": MarkFunction(
        lambda xs: 0.5 * xs[:, 0], sup_bound=0.5, grad=lambda xs: np.column_stack([np.full(len(xs), 0.5)]), label="x/2"
    ),
    "skew": MarkFunction(
        lambda xs: 0.4 * xs[:, 0] + 0.3 * xs[:, 0] ** 2,
        sup_bound=0.7,
        grad=lambda xs: np.column_stack([0.4 + 0.6 * xs[:, 0]]),
        label="0.4x+0.3x^2",
    ),
    "square": MarkFunction(
        lambda xs: xs[:, 0] ** 2, sup_bound=1.0, grad=lambda xs: np.column_stack([2.0 * xs[:, 0]]), label="x^2"
    ),
    "inv_quad": MarkFunction(
        lambda xs: 1.0 / (1.0 + xs[:, 0] ** 2),
        sup_bound=1.0,
        grad=lambda xs: np.column_stack([-2.0 * xs[:, 0] / (1.0 + xs[:, 0] ** 2) ** 2]),
        label="1/(1+x^2)",
    ),
}


def _provenance(config_text: str, seed: int) -> dict:
    return {
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "seed": int(seed),
        "version": __version__,
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: str, body: str, prov: dict) -> None:
    header = (
        f"# config_sha256={prov['config_sha256']} seed={prov['seed']} version={prov['version']}\n"
    )
    with open(path, "w") as fh:
        fh.write(header)
        fh.write(body)


def _build_from_sections(cfg: dict[str, dict]):
    model_sec = dict(cfg.get("model", {}))
    family = model_sec.pop("family", None)
    if family is None:
        raise ConfigParseError("missing 'family' in [model]", 0, 0)
    if family not in MODEL_FAMILIES:
        raise RegistryMiss(f"unknown model family {family!r}")
    try:
        model = build_model(family, **model_sec)
    except TypeError as exc:
        raise ConfigParseError(f"bad [model] parameters: {exc}", 0, 0) from exc

    functional = None
    if "functional" in cfg:
        fsec = dict(cfg["functional"])
        label = fsec.pop("label", None)
        if label is None:
            raise ConfigParseError("missing 'label' in [functional]", 0, 0)
        if label not in FUNCTIONAL_BUILDERS:
            raise RegistryMiss(f"unknown functional {label!r}")
        try:
            functional = build_functional(label, model, **fsec)
        except TypeError as exc:
            raise ConfigParseError(f"bad [functional] parameters: {exc}", 0, 0) from exc

    gamma = None
    if "gamma" in cfg:
        gsec = dict(cfg["gamma"])
        label = gsec.pop("label", None)
        if label is None:
            raise ConfigParseError("missing 'label' in [gamma]", 0, 0)
        if label not in GAMMA_BUILDERS:
            raise RegistryMiss(f"unknown gamma spec {label!r}")
        try:
            gamma = build_gamma(label, **gsec)
        except TypeError as exc:
            raise ConfigParseError(f"bad [gamma] parameters: {exc}", 0, 0) from exc
    return model, functional, gamma


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _fmt_matrix(m: np.ndarray) -> str:
    rows = ["[" + ", ".join(f"{v:.12g}" for v in row) + "]" for row in np.atleast_2d(m)]
    return "[" + ", ".join(rows) + "]"


def _run_gamma(cfg, model, functional, gamma, exp, prov, out_dir):
    if functional is None or gamma is None:
        raise ConfigParseError("kind=gamma needs [functional] and [gamma] sections", 0, 0)
    fixture = exp.get("fixture")
    if fixture is not None:
        if fixture not in FIXTURE_CONFIGS:
            raise RegistryMiss(f"unknown fixture {fixture!r}")
        configuration = FIXTURE_CONFIGS[fixture]()
    else:
        configuration = sample_configuration(model, seed=exp["seed"])
    closed = carre_du_champ(functional, configuration, gamma, mode="closed")
    fd = carre_du_champ(functional, configuration, gamma, mode="fd")
    denom = max(float(np.linalg.norm(closed.matrix)), 1e-300)
    agreement = float(np.linalg.norm(closed.matrix - fd.matrix)) / denom
    tol = float(exp.get("tolerance", 1e-6 if functional.has_closed_derivative else 1e-4))
    passed = agreement <= tol
    print(f"carre du champ for {functional.label} on {configuration!r}")
    print(f"  matrix = {_fmt_matrix(closed.matrix)}")
    print(f"  det = {closed.det:.12g}  trace = {closed.trace:.12g}")
    print(f"  closed-vs-fd relative difference = {agreement:.3e} (tol {tol:g})")
    payload = {
        "provenance": prov,
        "functional": functional.label,
        "matrix": closed.matrix.tolist(),
        "det": closed.det,
        "trace": closed.trace,
        "fd_matrix": fd.matrix.tolist(),
        "closed_vs_fd": agreement,
        "pass": passed,
    }
    _write_json(os.path.join(out_dir, exp.get("out", "gamma.json")), payload)
    return passed


def _survey_chunk(args):
    # workers rebuild the model and functional from the config text: closures do not pickle
    config_text, functional_label, seed, tol, lo, hi = args
    cfg = parse_config(config_text)
    if functional_label is not None:
        cfg.setdefault("functional", {})["label"] = functional_label
    model, functional, gamma = _build_from_sections(cfg)
    return [survey_row(functional, model, gamma, seed, i, tol) for i in range(lo, hi)]


def _run_survey(cfg, config_text, model, functional, gamma, exp, prov, out_dir, jobs, label=None):
    if functional is None or gamma is None:
        raise ConfigParseError("kind=survey needs [functional] and [gamma] sections", 0, 0)
    tol = float(exp.get("tolerance", 1e-12))
    tasks = [
        (config_text, label, exp["seed"], tol, lo, hi)
        for lo, hi in chunk_ranges(int(exp.get("nsamples", 1000)), SURVEY_CHUNK)
    ]
    rows = [row for part in parallel_map(_survey_chunk, tasks, jobs) for row in part]
    result = SurveyResult(
        functional=functional.label, out_dim=functional.out_dim, tol=tol, rows=tuple(rows)
    )
    _write_csv(os.path.join(out_dir, exp.get("out", "survey.csv")), result.to_csv(), prov)
    threshold = float(exp.get("min_frequency", 0.0))
    passed = result.frequency >= threshold
    print(
        f"det-positivity frequency: {result.frequency:.6f} over {result.nsamples} samples "
        f"(threshold {threshold:g})"
    )
    _write_json(
        os.path.join(out_dir, exp.get("summary_out", "survey.json")),
        {
            "provenance": prov,
            "functional": functional.label,
            "frequency": result.frequency,
            "nsamples": result.nsamples,
            "pass": passed,
        },
    )
    return passed


def _run_identity(exp, prov, out_dir, model):
    if exp.get("probe") == "laplace_zero":
        # trivial smoke probe: f = 0 has both sides exactly 1
        rep = laplace_check(
            model, lambda ts, xs: np.zeros(len(ts)), int(exp.get("nsamples", 1000)), int(exp["seed"])
        )
        print(f"{'PASS' if rep.passed else 'FAIL'}  {rep.name}")
        _write_json(
            os.path.join(out_dir, exp.get("out", "identity.json")),
            {"provenance": prov, "reports": [rep.to_dict()], "pass": rep.passed},
        )
        return rep.passed
    scale = float(exp.get("scale", 1.0))
    reports = standard_suite(seed=int(exp["seed"]), scale=scale)
    frac = suite_pass_fraction(reports)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
    print(f"pass fraction: {frac:.3f} over {len(reports)} checks")
    passed = frac >= float(exp.get("min_pass_fraction", 0.95))
    _write_json(
        os.path.join(out_dir, exp.get("out", "identity.json")),
        {
            "provenance": prov,
            "reports": [r.to_dict() for r in reports],
            "pass_fraction": frac,
            "pass": passed,
        },
    )
    return passed


def _run_chaos(cfg, model, exp, prov, out_dir):
    seed = int(exp["seed"])
    u = KERNELS[exp.get("u", "skew")]
    v = KERNELS[exp.get("v", "square")]
    spec = diag_squares_gamma(model.dim)
    n_cfgs = int(exp.get("nconfigs", 50))
    series_worst = 0.0
    product_worst = 0.0
    for i in range(n_cfgs):
        configuration = sample_configuration(model, seed=seed + i)
        series_worst = max(
            series_worst, exp_series_check(configuration, model, u, t=0.12, n_max=12).residual
        )
        product_worst = max(
            product_worst, product_formula_check(configuration, model, u, v, s=0.2, t=0.2)
        )
    gamma_worst = 0.0
    fu = {d: multiple_integral_functional(model, u, d) for d in (1, 2)}
    fv = {d: multiple_integral_functional(model, v, d) for d in (1, 2)}
    for i in range(int(exp.get("ngamma", 10))):
        configuration = sample_configuration(model, seed=seed + 1000 + i)
        for deg_i in (1, 2):
            for deg_j in (1, 2):
                closed = chaos_gamma_closed(configuration, model, u, v, deg_i, deg_j, spec)
                pair = stack_functionals([fu[deg_i], fv[deg_j]])
                fd = carre_du_champ(pair, configuration, spec, mode="fd").matrix[0, 1]
                gamma_worst = max(gamma_worst, abs(closed - fd) / (1.0 + abs(closed)))
    reports = [
        orthogonality_mc(model, u, v, m, n, int(exp.get("nsamples", 200_000)), seed + 5000 + 3 * m + n)
        for m in (1, 2)
        for n in (1, 2)
    ]
    orth_ok = sum(r.passed for r in reports)
    passed = (
        series_worst <= float(exp.get("series_tol", 1e-8))
        and product_worst <= float(exp.get("product_tol", 1e-10))
        and gamma_worst <= float(exp.get("gamma_tol", 1e-6))
        and orth_ok >= len(reports) - 1
    )
    print(f"series residual (worst): {series_worst:.3e}")
    print(f"product-formula residual (worst): {product_worst:.3e}")
    print(f"chaos-gamma vs fd (worst relative): {gamma_worst:.3e}")
    print(f"orthogonality cells passed: {orth_ok}/{len(reports)}")
    _write_json(
        os.path.join(out_dir, exp.get("out", "chaos.json")),
        {
            "provenance": prov,
            "series_residual": series_worst,
            "product_residual": product_worst,
            "gamma_agreement": gamma_worst,
            "orthogonality": [r.to_dict() for r in reports],
            "pass": passed,
        },
    )
    return passed


def _run_density(cfg, model, functional, exp, prov, out_dir):
    if functional is None:
        raise ConfigParseError("kind=density needs a [functional] section", 0, 0)
    seed = int(exp["seed"])
    nsamples = int(exp.get("nsamples", 4000))
    curve = kde(functional, model, nsamples, seed=seed)
    ok = curve.degenerate or abs(curve.integral - 1.0) <= 1e-3
    if not curve.degenerate:
        _write_csv(os.path.join(out_dir, exp.get("out", "density_kde.csv")), curve.to_csv(), prov)
    if functional.out_dim == 1:
        u_grid = np.linspace(0.5, float(exp.get("u_max", 40.0)), 40)
        e = ecf(functional, model, min(nsamples, 20000), u_grid, seed=seed + 1)
        _write_csv(os.path.join(out_dir, exp.get("ecf_out", "density_ecf.csv")), e.to_csv(), prov)
    print(f"kde integral: {curve.integral:.6f} (degenerate: {curve.degenerate})")
    _write_json(
        os.path.join(out_dir, exp.get("summary_out", "density.json")),
        {
            "provenance": prov,
            "kde_integral": curve.integral,
            "degenerate": curve.degenerate,
            "bandwidth": list(curve.bandwidth),
            "pass": ok,
        },
    )
    return ok


def _run_rajchman(cfg, model, exp, prov, out_dir):
    if model.family != "atomic-dyadic":
        model = dyadic_model(horizon=model.horizon)
    demo = rajchman_demo(
        model, int(exp.get("k_max", 8)), int(exp.get("nsamples", 0)), int(exp["seed"])
    )
    closed, limit = np.array(demo["closed_modulus"]), demo["limit"]
    tol = float(exp.get("tolerance", 2e-3))
    passed = bool(np.all(np.abs(closed - limit) <= tol))
    body = "k,u,closed_modulus\n" + "".join(
        f"{k},{2.0**k * math.pi:.17g},{c:.17g}\n" for k, c in zip(demo["u_exponents"], closed)
    )
    _write_csv(os.path.join(out_dir, exp.get("out", "rajchman.csv")), body, prov)
    print(f"constant modulus {limit:.6f}; max deviation {np.abs(closed - limit).max():.2e}")
    _write_json(
        os.path.join(out_dir, exp.get("summary_out", "rajchman.json")),
        {
            "provenance": prov,
            "closed_modulus": demo["closed_modulus"],
            "mc_modulus": demo.get("mc_modulus"),
            "limit": limit,
            "pass": passed,
        },
    )
    return passed


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    try:
        config_text = open(args.config).read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(config_text)
        if "experiment" not in cfg:
            raise ConfigParseError("missing [experiment] section", 0, 0)
        exp = dict(cfg["experiment"])
        kind = exp.get("kind")
        if kind not in EXPERIMENTS:
            raise RegistryMiss(f"unknown experiment kind {kind!r}")
        _reject_unknown(exp, EXPERIMENT_KEYS[kind], "experiment")
        if args.seed is not None:
            exp["seed"] = args.seed
        exp.setdefault("seed", 0)
        _coerce_numbers(exp)
        if exp["seed"] < 0:
            raise ConfigParseError(f"seed must be >= 0, got {exp['seed']}", 0, 0)
        if args.functional is not None:
            cfg.setdefault("functional", {})["label"] = args.functional
        model, functional, gamma = _build_from_sections(cfg)
        prov = _provenance(config_text, exp["seed"])
        out_dir = args.out_dir
        os.makedirs(out_dir, exist_ok=True)
        if kind == "gamma":
            ok = _run_gamma(cfg, model, functional, gamma, exp, prov, out_dir)
        elif kind == "survey":
            ok = _run_survey(
                cfg, config_text, model, functional, gamma, exp, prov, out_dir, args.jobs,
                label=args.functional,
            )
        elif kind == "identity":
            ok = _run_identity(exp, prov, out_dir, model)
        elif kind == "chaos":
            ok = _run_chaos(cfg, model, exp, prov, out_dir)
        elif kind == "density":
            ok = _run_density(cfg, model, functional, exp, prov, out_dir)
        else:
            ok = _run_rajchman(cfg, model, exp, prov, out_dir)
    except ConfigParseError as exc:
        print(f"config error at line {exc.line}, column {exc.col}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegistryMiss as exc:
        print(f"registry miss: {exc}", file=sys.stderr)
        return EXIT_REGISTRY
    except KeyError as exc:
        print(f"registry miss: {exc}", file=sys.stderr)
        return EXIT_REGISTRY
    except DOMAIN_ERRORS as exc:
        message = " ".join(str(exc).split())
        print(f"invalid value ({type(exc).__name__}): {message}", file=sys.stderr)
        return EXIT_CONFIG
    print("RESULT: " + ("PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_FAIL


def cmd_list(args) -> int:
    reg = args.registry
    if reg == "models":
        for name in sorted(MODEL_FAMILIES):
            print(f"{name:14s} {MODEL_FAMILIES[name]['params']}")
    elif reg == "functionals":
        for name in sorted(FUNCTIONAL_BUILDERS):
            print(f"{name:14s} {FUNCTIONAL_BUILDERS[name]['params']}")
    elif reg == "gammas":
        for name in sorted(GAMMA_BUILDERS):
            print(f"{name:14s} {GAMMA_BUILDERS[name]['params']}")
    elif reg == "experiments":
        for name in EXPERIMENTS:
            print(name)
    else:
        print(f"unknown registry {args.registry!r}", file=sys.stderr)
        return EXIT_REGISTRY
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
