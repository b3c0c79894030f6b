"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lentparticle import functionals, lent_particle  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b", 6.0, 7.0, 3],   # nested in a span of its own layer
        ["a", 11.0, 12.0, -1],
    ]
    tot = spans.layer_totals(tree)
    assert tot["a"] == {"calls": 2, "busy_s": 11.0, "self_s": 3.0 + 1.0}
    assert tot["b"] == {"calls": 3, "busy_s": 3.0 + 4.0, "self_s": 2.0 + 3.0 + 1.0}
    assert tot["c"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    assert spans.root_time(tree) == 11.0
    assert spans.child_counts(tree, "b", ("a",)) == 2
    assert spans.child_counts(tree, "c", ("a",)) == 0


def test_tracing_changes_no_result_and_uninstalls():
    patched = [*spans.PATCHES, *spans.MODEL_FACTORIES, *spans.FUNCTIONAL_FACTORIES]
    modules = {m: sys.modules[f"lentparticle.{m}"] for m, _ in patched}
    originals = {key: getattr(modules[key[0]], key[1]) for key in patched}
    inputs = workloads.SURVEY.build()
    seeds = [3, 17, 29]
    plain = [workloads.SURVEY.call(inputs, s) for s in seeds]
    tracer = spans.Tracer()
    traced_inputs = tracer.inputs(inputs)
    tracer.install()
    try:
        traced = [workloads.SURVEY.call(traced_inputs, s) for s in seeds]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(getattr(modules[m], a) is f for (m, a), f in originals.items())
    tot = spans.layer_totals(tracer.spans)
    assert tot["lent_particle.det_positivity_survey"]["calls"] == len(seeds)
    atoms = sum(row[1] for row in plain)
    assert tot["configuration.lend"]["calls"] == atoms
    assert tracer.counts["atoms_sampled"] == atoms


def test_nan_derivative_is_counted_as_failed():
    inputs = workloads.SURVEY.build()
    F = inputs["F"]
    inputs["F"] = functionals.Functional(
        "nan", F.out_dim, F.mark_dim, F.value,
        lambda cfg, t, x: np.full((F.out_dim, F.mark_dim), np.nan),
    )
    args = [5, 6, 7, 8]
    timed = run.Timed()
    results = run.run_pass(workloads.SURVEY, inputs, args, timed)
    assert all(isinstance(r, lent_particle.EngineError) for r in results)
    run.gate(workloads.SURVEY, inputs, args, results, timed)
    assert timed.attempted == len(args)
    assert timed.failed == len(args)
    assert timed.raised == len(args)
    assert not timed.verdict()


def test_tail_is_highest_percentile_with_ten_items_beyond():
    assert run.tail(list(range(100)))[0] == 90.0
    assert run.tail(list(range(1000)))[0] == 99.0
    assert run.tail(list(range(10_000)))[0] == 99.9


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_every_metric_emitted_with_a_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    declared = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(res["metrics"]) == declared
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for name, m in res["metrics"].items():
        assert m["unit"] == units[name]
        assert isinstance(m["value"], float) and np.isfinite(m["value"])
    assert res["correct"] and res["attempted"] >= 1
    assert res["failed"] / res["attempted"] == 0.0
    assert "fail_frac 0 " in proc.stdout
    if trace:
        assert res["metrics"]["trace.coverage"]["value"] >= 0.9


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "survey", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
