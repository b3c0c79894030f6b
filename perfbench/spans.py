"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent]``: the layer it belongs to, two
``time.perf_counter`` readings and the index of the enclosing span (-1 at
the root).  Spans are recorded by wrapping the package's public functions
where their callers look them up -- a module attribute, or a field of a
frozen ``Functional``/``IntensityModel`` swapped with ``dataclasses.replace``
-- so the package source is never edited.  Everything stays in memory until
the run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import replace

from lentparticle.configuration import IntensityModel
from lentparticle.functionals import Functional

# (module, attribute) -> span name.  The same function is patched in every
# module that imported it by name, because that module's globals are where
# its callers look it up.
PATCHES: dict[tuple[str, str], str] = {
    ("lent_particle", "det_positivity_survey"): "lent_particle.det_positivity_survey",
    ("lent_particle", "carre_du_champ"): "lent_particle.carre_du_champ",
    ("suite", "carre_du_champ"): "lent_particle.carre_du_champ",
    ("suite", "sharp_sample_many"): "lent_particle.sharp_sample_many",
    ("lent_particle", "finite_difference_add_derivative"): "functionals.fd",
    ("lent_particle", "remove_index"): "configuration.lend",
    ("diagnostics", "remove_index"): "configuration.lend",
    ("diagnostics", "add_particle"): "configuration.lend",
    ("functionals", "add_particle"): "configuration.lend",
    ("configuration", "sample_configuration"): "configuration.sample",
    ("lent_particle", "sample_configuration"): "configuration.sample",
    ("suite", "sample_configuration"): "configuration.sample",
    ("suite", "sample_batch"): "configuration.sample",
    ("diagnostics", "sample_batch"): "configuration.sample",
    ("chaos", "sample_batch"): "configuration.sample",
    ("configuration", "substream"): "rng.substream",
    ("lent_particle", "substream"): "rng.substream",
    ("diagnostics", "substream"): "rng.substream",
    ("chaos", "substream"): "rng.substream",
    ("diagnostics", "laplace_check"): "diagnostics.laplace_check",
    ("suite", "laplace_check"): "diagnostics.laplace_check",
    ("suite", "duality_check"): "diagnostics.duality_check",
    ("suite", "marked_moment_check"): "diagnostics.marked_moment_check",
    ("suite", "mark_identities_check"): "diagnostics.mark_identities_check",
    ("suite", "orthogonality_mc"): "chaos.orthogonality_mc",
    ("suite", "second_quantization_check"): "chaos.second_quantization_check",
    ("suite", "mehler_exponential_check"): "chaos.mehler_exponential_check",
    ("suite", "pt_symmetry_check"): "chaos.pt_symmetry_check",
    ("chaos", "chaos_gamma_closed"): "chaos.chaos_gamma_closed",
    ("suite", "standard_suite"): "suite.standard_suite",
    ("suite", "_laplace_group"): "suite.group.laplace",
    ("suite", "_duality_group"): "suite.group.duality",
    ("suite", "_marked_moment_group"): "suite.group.marked_moment",
    ("suite", "_mark_identities_group"): "suite.group.mark_identities",
    ("suite", "_orthogonality_group"): "suite.group.orthogonality",
    ("suite", "_second_quantization_group"): "suite.group.second_quantization",
    ("suite", "_semigroup_group"): "suite.group.semigroup",
    ("suite", "_gradient_moment_group"): "suite.group.gradient_moment",
    ("suite", "_configuration_group"): "suite.group.configuration",
}

# factories the suite calls to build its own models and functionals; their
# products are wrapped like the benchmark's own inputs
MODEL_FACTORIES = (("suite", "uniform_model"), ("suite", "power_model"))
FUNCTIONAL_FACTORIES = (("suite", "make_doleans"), ("suite", "with_fd_derivative"))


def _atoms(result) -> int:
    """Atoms in a sampled Configuration or BatchedConfigurations."""
    return int(result.times.size)


COUNTED = {"configuration.sample": ("atoms_sampled", _atoms)}


class Tracer:
    """Records spans and counts; installs and removes its own wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counted = COUNTED.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counted:
                counts[counted[0]] += counted[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def functional(self, F):
        """A copy of Functional F whose value and derivative record spans."""
        return replace(
            F,
            value=self.wrap("functionals.value", F.value),
            add_derivative=self.wrap("functionals.add_derivative", F.add_derivative),
        )

    def model(self, m, key: str):
        """A copy of IntensityModel m whose quadrature records a span and its points."""
        integrate, counts = m.sigma_integrate, self.counts

        def sigma_integrate(f):
            def counted(xs):
                counts["quad.points"] += len(xs)
                return f(xs)

            return integrate(counted)

        return replace(m, sigma_integrate=self.wrap(f"intensities.quad[{key}]", sigma_integrate))

    def inputs(self, inputs: dict) -> dict:
        """A workload's inputs with every Functional and IntensityModel wrapped.

        A model's quadrature spans are keyed by its entry in `inputs`.
        """

        def wrap(key, v):
            if isinstance(v, Functional):
                return self.functional(v)
            if isinstance(v, IntensityModel):
                return self.model(v, key)
            if isinstance(v, tuple):
                return tuple(wrap(key, x) for x in v)
            return v

        return {k: wrap(k, v) for k, v in inputs.items()}

    def install(self) -> None:
        """Wrap every entry of PATCHES and the suite's factories in place."""
        modules = {m: importlib.import_module(f"lentparticle.{m}") for m, _ in PATCHES}
        for (mod, attr), name in PATCHES.items():
            self._set(modules[mod], attr, self.wrap(name, getattr(modules[mod], attr)))
        for mod, attr in MODEL_FACTORIES:
            build = getattr(modules[mod], attr)
            self._set(modules[mod], attr, lambda *a, _b=build, **k: self.model(_b(*a, **k), "suite"))
        for mod, attr in FUNCTIONAL_FACTORIES:
            build = getattr(modules[mod], attr)
            self._set(modules[mod], attr, lambda *a, _b=build, **k: self.functional(_b(*a, **k)))

    def _set(self, module, attr: str, value) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


def layer_totals(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy time and self time.

    Busy time counts only spans with no ancestor of the same name, so a
    recursive layer is not counted twice.  Self time is a span's duration
    minus the durations of its direct children, which are nested inside it
    and do not overlap in a single thread.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        t = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            t["busy_s"] += end - start
    return out


def child_counts(spans: list, name: str, parents: tuple[str, ...]) -> int:
    """Number of spans called `name` whose direct parent is one of `parents`."""
    return sum(1 for s in spans if s[0] == name and s[3] >= 0 and spans[s[3]][0] in parents)


def root_time(spans: list) -> float:
    """Total duration of root spans: the wall time attributed to named layers."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)
