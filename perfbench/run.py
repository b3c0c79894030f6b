"""Benchmark of the lent-particle engine: four workloads, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
runs each pass untraced and traced, and prints per-layer metrics from spans
recorded around the package's public functions.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads, metrics and how they relate.
"""

from __future__ import annotations

import argparse
import array
import bisect
import gzip
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("survey", "oracle", "identity", "families")
SETUP_RUNS = 5          # fresh interpreters timed per run for setup_s
TAIL_LADDER = (90.0, 99.0, 99.9, 99.99)
PROBE_TIMEOUT_S = 60
STAT_PASS_FRACTION = 0.95  # the identity experiment's pass rule for 4-SE checks
# The machine's speed drifts by up to 2x over seconds (shared host), for the
# package and any other code alike.  items_per_s is therefore quoted at a
# nominal speed, from calibration bursts sampled on a timer through the run
# (see Speedometer).  REF_RATE, a typical calibration rate on a 2-vCPU Xeon
# VM with Python 3.11 and numpy 2.4, only sets the scale.  Set-up (a fresh
# interpreter importing from disk) does not track the calibration loop, so
# setup_s stays wall time.
REF_RATE = 1000.0        # calibration loops per second
TICK_S = 0.25            # one calibration burst per tick
BURST_S = 0.01
clock = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# --------------------------------------------------------------------------
# set-up: import, build inputs, one untimed warm-up item
# --------------------------------------------------------------------------

def set_up(name: str, seed: int):
    """Import the package, build the workload's inputs and warm up once."""
    t0 = clock()
    import numpy as np
    import workloads

    t1 = clock()
    wl = workloads.WORKLOADS[name]
    rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(name)])
    inputs = wl.build()
    first = wl.next_pass(rng)
    t2 = clock()
    (wl.warmup or wl.call)(inputs, first[0])
    t3 = clock()
    parts = {"import_s": t1 - t0, "build_s": t2 - t1, "warmup_s": t3 - t2}
    return wl, inputs, rng, first, parts


def setup_probe(args) -> int:
    _, _, _, _, parts = set_up(args.workload, args.seed)
    print(json.dumps(parts), flush=True)
    return 0


def time_setups(args) -> list[dict]:
    """Launch fresh interpreters; time each from launch to its warm-up done."""
    out = []
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    for _ in range(SETUP_RUNS):
        t0 = clock()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                total = clock() - t0
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        out.append({"total_s": total, **json.loads(line)})
    return out


# --------------------------------------------------------------------------
# timed passes
# --------------------------------------------------------------------------

class Timed:
    """Timings and gate counts of one sequence of passes.

    Results are gated pass by pass and then dropped, so memory does not grow
    with the number of items a run gets through.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.call_s = array.array("d")
        self.pass_items: list[int] = []
        self.pass_span: list[tuple[float, float]] = []
        self.pass_s: list[float] = []
        self.nominal_s: list[float] = []  # pass_s at REF_RATE machine speed
        self.ref_rate: list[float] = []   # calibration loops per second, per burst
        self.wall_s = 0.0
        self.gate_s = 0.0
        self.attempted = self.failed = self.raised = 0
        self.statistical = self.statistical_ok = 0

    def verdict(self) -> bool:
        """No deterministic gate failed, and the 4-SE checks meet the pass rule."""
        deterministic_failed = self.failed - (self.statistical - self.statistical_ok)
        return deterministic_failed == 0 and (
            self.statistical == 0 or self.statistical_ok / self.statistical >= STAT_PASS_FRACTION
        )


def calibration_loop(a) -> float:
    """Fixed interpreter and small-array work that does not touch the package."""
    import numpy as np

    acc = 0.0
    for i in range(100):
        acc += float(np.delete(a, i % 16).sum()) + len({"k": i, "acc": acc})
    return acc


class Speedometer:
    """Samples the machine's speed with short calibration bursts on a timer.

    A SIGALRM handler runs a burst every TICK_S seconds, between bytecodes of
    whatever the main thread is executing.  Burst time is excluded from the
    timings, and each stretch of work between two bursts is converted to
    nominal time with the mean calibration rate of those bursts.
    """

    def __init__(self) -> None:
        import numpy as np

        self._a = np.arange(16.0)
        self.bursts: list[tuple[float, float, float]] = []  # start, end, loops/s
        self.burst_s = 0.0

    def _burst(self, *_):
        n, t0 = 0, clock()
        while True:
            calibration_loop(self._a)
            n += 1
            t = clock()
            if t - t0 >= BURST_S:
                break
        self.bursts.append((t0, t, n / (t - t0)))
        self.burst_s += t - t0

    def __enter__(self):
        self._burst()
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._burst()

    def nominal(self, a: float, b: float) -> tuple[float, float]:
        """Work time in [a, b] without bursts, and that time at REF_RATE speed."""
        bursts = self.bursts
        i = bisect.bisect_right([e for _, e, _ in bursts], a) - 1
        t, work, nominal = a, 0.0, 0.0
        while True:
            nxt = bursts[i + 1] if i + 1 < len(bursts) else None
            end = b if nxt is None else min(b, nxt[0])
            rate = bursts[i][2] if nxt is None else 0.5 * (bursts[i][2] + nxt[2])
            work += end - t
            nominal += (end - t) * rate / REF_RATE
            if nxt is None or nxt[0] >= b:
                return work, nominal
            t, i = nxt[1], i + 1


def run_pass(wl, inputs, args: list, out: Timed, meter: Speedometer | None = None) -> list:
    """Run one pass and return its results; an item that raises yields its exception."""
    results = []
    t_pass = clock()
    for arg in args:
        paused, t0 = meter.burst_s if meter else 0.0, clock()
        try:
            result = wl.call(inputs, arg)
        except Exception as exc:
            result = exc
        out.call_s.append(clock() - t0 - ((meter.burst_s - paused) if meter else 0.0))
        results.append(result)
    out.pass_span.append((t_pass, clock()))
    out.pass_items.append(len(args) * wl.items_per_call)
    return results


def gate(wl, inputs, args: list, results: list, out: Timed) -> None:
    """Correctness gates for one pass, run outside its timed region."""
    t0 = clock()
    for arg, result in zip(args, results):
        index, out.calls = out.calls, out.calls + 1
        out.attempted += wl.items_per_call
        if isinstance(result, Exception):
            out.failed += wl.items_per_call
            out.raised += 1
            if out.raised <= 3:
                traceback.print_exception(result, file=sys.stderr)
            continue
        for ok, is_stat in wl.check(inputs, index, arg, result):
            out.failed += not ok
            out.statistical += is_stat
            out.statistical_ok += is_stat and ok
    out.gate_s += clock() - t0


def run_passes(wl, inputs, pass_source, seconds: float) -> Timed:
    """Run and gate whole passes until `seconds` of work, sampling the machine's speed."""
    out = Timed()
    start = clock()
    with Speedometer() as meter:
        for args in pass_source:
            if out.pass_span and clock() - start - out.gate_s >= seconds:
                break
            gate(wl, inputs, args, run_pass(wl, inputs, args, out, meter), out)
    out.wall_s = clock() - start
    for a, b in out.pass_span:
        work, nominal = meter.nominal(a, b)
        out.pass_s.append(work)
        out.nominal_s.append(nominal)
    out.ref_rate = [r for _, _, r in meter.bursts]
    return out


def run_traced(wl, inputs, pass_source, seconds: float, tracer) -> tuple[Timed, Timed]:
    """Run each pass untraced and traced, alternating which goes first.

    Both sides see the same inputs and the same stretch of machine noise, so
    their difference is the tracing overhead.  A traced result that differs
    from its untraced twin counts as failed.
    """
    plain, traced = Timed(), Timed()
    tinputs = tracer.inputs(inputs)
    start = clock()
    for k, args in enumerate(pass_source):
        if plain.pass_span and clock() - start - plain.gate_s >= seconds:
            break
        if k % 2:
            ours = run_pass(wl, inputs, args, plain)
        tracer.install()
        try:
            theirs = run_pass(wl, tinputs, args, traced)
        finally:
            tracer.uninstall()
        if not k % 2:
            ours = run_pass(wl, inputs, args, plain)
        gate(wl, inputs, args, ours, plain)
        mismatched = sum(
            1 for a, b in zip(ours, theirs)
            if isinstance(a, Exception) or isinstance(b, Exception) or wl.fingerprint(a) != wl.fingerprint(b)
        )
        if mismatched:
            print(f"traced results differ from untraced on {mismatched} calls", file=sys.stderr)
            plain.failed += mismatched * wl.items_per_call
    for t in (plain, traced):
        t.pass_s = [b - a for a, b in t.pass_span]
        t.wall_s = sum(t.pass_s)
    return plain, traced


def fresh_passes(wl, rng, first):
    yield first
    while True:
        yield wl.next_pass(rng)


def tail(values_ms) -> tuple[float, float]:
    """The highest ladder percentile with at least ten items beyond it."""
    import numpy as np

    n = len(values_ms)
    ok = [p for p in TAIL_LADDER if round(n * (100.0 - p), 6) >= 1000.0]
    p = ok[-1] if ok else 50.0
    return p, float(np.percentile(values_ms, p, method="higher"))


def end_to_end(wl, timed: Timed, setups: list[dict]) -> tuple[dict, list[str]]:
    rates = [n / s for n, s in zip(timed.pass_items, timed.pass_s)]
    nominal = [n / s for n, s in zip(timed.pass_items, timed.nominal_s)]
    metrics = {
        "setup_s": (statistics.median(s["total_s"] for s in setups), "s"),
        "items_per_s": (statistics.median(nominal), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"items_per_s_wall {statistics.median(rates):.6g} 1/s (median over {len(rates)} passes, "
        f"calibration median {statistics.median(timed.ref_rate):.6g} loops/s "
        f"over {len(timed.ref_rate)} bursts)"
    ]
    if wl.latency:
        import numpy as np

        ms = np.asarray(timed.call_s) * 1e3
        p, t = tail(ms)
        notes.append(f"item_p50_ms {np.median(ms):.4f} ms (n={len(ms)})")
        notes.append(f"item_tail_ms {t:.4f} ms (p{p:g}, n={len(ms)})")
    return metrics, notes


# --------------------------------------------------------------------------
# traced run
# --------------------------------------------------------------------------

DIAGNOSTICS = ("laplace_check", "duality_check", "marked_moment_check", "mark_identities_check")
CHAOS = ("orthogonality_mc", "second_quantization_check", "mehler_exponential_check",
         "pt_symmetry_check", "chaos_gamma_closed")
GROUPS = ("laplace", "duality", "marked_moment", "mark_identities", "orthogonality",
          "second_quantization", "semigroup", "gradient_moment", "configuration")


def layer_metrics(tracer, traced: Timed, plain: Timed, setups: list[dict]) -> dict:
    import spans as sp
    from workloads import FAMILY_KEYS

    tot = sp.layer_totals(tracer.spans)
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def layer(name):
        return tot.get(name, zero)

    def ratio(a, b):
        return a / b if b else 0.0

    cdc = layer("lent_particle.carre_du_champ")
    engine = ("lent_particle.carre_du_champ", "lent_particle.sharp_sample_many")
    atoms_lent = sp.child_counts(tracer.spans, "configuration.lend", engine)
    fd = layer("functionals.fd")
    quads = {k: v for k, v in tot.items() if k.startswith("intensities.quad[")}
    q_calls = sum(v["calls"] for v in quads.values())
    points = tracer.counts["quad.points"]
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    for key in ("calls", "busy_s", "self_s"):
        put(f"lent_particle.carre_du_champ.{key}", cdc[key], "count" if key == "calls" else "s")
    put("lent_particle.atoms_lent", atoms_lent, "count")
    put("lent_particle.self_us_per_atom", 1e6 * ratio(cdc["self_s"], atoms_lent), "us")
    put("lent_particle.det_positivity_survey.self_s", layer("lent_particle.det_positivity_survey")["self_s"], "s")
    put("lent_particle.sharp_sample_many.busy_s", layer("lent_particle.sharp_sample_many")["busy_s"], "s")
    for name in ("functionals.add_derivative", "functionals.value", "functionals.fd",
                 "configuration.lend", "configuration.sample", "rng.substream"):
        put(f"{name}.calls", layer(name)["calls"], "count")
        put(f"{name}.busy_s", layer(name)["busy_s"], "s")
    values_in_fd = sp.child_counts(tracer.spans, "functionals.value", ("functionals.fd",))
    put("functionals.fd.values_per_jacobian", ratio(values_in_fd, fd["calls"]), "count")
    put("configuration.atoms_sampled", tracer.counts["atoms_sampled"], "count")
    put("intensities.quad.calls", q_calls, "count")
    put("intensities.quad.busy_s", sum(v["busy_s"] for v in quads.values()), "s")
    put("intensities.quad.points", points, "count")
    put("intensities.quad.points_per_call", ratio(points, q_calls), "count")
    for key in FAMILY_KEYS:
        q = quads.get(f"intensities.quad[{key}]", zero)
        put(f"intensities.quad_ms.{key}", 1e3 * ratio(q["busy_s"], q["calls"]), "ms")
    for name in DIAGNOSTICS:
        put(f"diagnostics.{name}.busy_s", layer(f"diagnostics.{name}")["busy_s"], "s")
        put(f"diagnostics.{name}.self_s", layer(f"diagnostics.{name}")["self_s"], "s")
    for name in CHAOS:
        put(f"chaos.{name}.busy_s", layer(f"chaos.{name}")["busy_s"], "s")
    for name in GROUPS:
        put(f"suite.group.{name}.busy_s", layer(f"suite.group.{name}")["busy_s"], "s")
    for key in ("import_s", "build_s", "warmup_s"):
        put(f"setup.{key}", statistics.median(s[key] for s in setups), "s")
    put("trace.items", sum(traced.pass_items), "count")
    put("trace.spans", len(tracer.spans), "count")
    put("trace.wall_s", traced.wall_s, "s")
    put("trace.untraced_wall_s", plain.wall_s, "s")
    put("trace.overhead_s", traced.wall_s - plain.wall_s, "s")
    put("trace.overhead_frac", ratio(traced.wall_s - plain.wall_s, plain.wall_s), "ratio")
    put("trace.coverage", ratio(sp.root_time(tracer.spans), traced.wall_s), "ratio")
    return m


def write_trace(path: str, tracer, meta: dict) -> None:
    """Write the spans, gzipped, as [name index, start us, end us, parent]."""
    names: dict[str, int] = {}
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[names.setdefault(n, len(names)), round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3), p]
            for n, s, e, p in tracer.spans]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump({**meta, "names": list(names), "span_fields": ["name", "start_us", "end_us", "parent"],
                   "spans": rows}, fh)


# --------------------------------------------------------------------------
# provenance and output
# --------------------------------------------------------------------------

def provenance(root: str, args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "lentparticle")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def emit(prov: dict, metrics: dict, notes: list[str], timed: Timed) -> None:
    print("provenance " + json.dumps(prov))
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    frac = timed.failed / timed.attempted
    print(f"  fail_frac {frac:.6g} ({timed.failed}/{timed.attempted}, raised {timed.raised})")
    print(json.dumps({
        "correct": timed.verdict(),
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_workload(args, root: str) -> int:
    setups = time_setups(args)
    wl, inputs, rng, first, _ = set_up(args.workload, args.seed)
    prov = provenance(root, args)
    if not args.trace:
        timed = run_passes(wl, inputs, fresh_passes(wl, rng, first), args.seconds)
        metrics, notes = end_to_end(wl, timed, setups)
        emit(prov, metrics, notes, timed)
        return 0

    import spans as sp

    tracer = sp.Tracer()
    plain, traced = run_traced(wl, inputs, fresh_passes(wl, rng, first), args.seconds, tracer)
    metrics = layer_metrics(tracer, traced, plain, setups)
    # one file per workload, replaced by the next traced run, so disk use stays bounded
    out = os.path.join(HERE, "out", f"trace-{args.workload}.json.gz")
    write_trace(out, tracer, {"provenance": prov, "metrics": {k: v for k, (v, _) in metrics.items()}})
    emit(prov, metrics, [f"spans written to {os.path.relpath(out, root)}"], plain)
    return 0


def run_all(args) -> int:
    """Run each workload in its own process; print its lines, then one JSON of them all."""
    summary, ok, attempted, failed = {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        ok &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, v in res["metrics"].items():
            summary[f"{name}.{metric}"] = v
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lentparticle", "__init__.py")):
        print(f"perfbench: no src/lentparticle under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
