"""Spans around the calls into each layerfem module, installed from outside src/.

A `Tracer` wraps the module functions named in TARGETS.  Each function is
looked up by other modules through their own namespaces (``cli`` holds its
own ``galerkin_solve`` name, for example), so a wrapper replaces the
function in every ``layerfem`` namespace that holds it, and `uninstall`
puts the original objects back.  Nothing under src/ is edited.

Self time is a span's duration minus the part covered by its child spans.
Work the benchmark does inside a span's interval for its own bookkeeping
(residuals, mesh statistics) runs under `Tracer.excluded` and is removed
from every open span's duration.
"""

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# owner module -> functions wrapped in spans named "<module>.<function>"
TARGETS = {
    "problem": ("get_scenario", "builtin_scenarios"),
    "calculus": ("integrate", "layer_integral", "invert_monotone"),
    "mesh": ("build_mesh", "compute_tau_star"),
    "fem": ("galerkin_solve", "assemble", "solve_tridiagonal"),
    "analysis": ("convergence_study", "error_report"),
    "verify": ("check_integral_lemma_random", "check_integral_lemma",
               "check_barrier_operator", "check_bound_uniformity",
               "reference_solution", "check_solution_bounds",
               "check_transformed_bounds"),
    "cli": ("main",),
}


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "layerfem" or name.startswith("layerfem."))]


def target_functions():
    """(span name, function) for every target the imported package defines."""
    out = []
    for owner, names in TARGETS.items():
        mod = sys.modules[f"layerfem.{owner}"]
        for fname in names:
            fn = getattr(mod, fname, None)
            if fn is not None:
                out.append((f"{owner}.{fname}", fn))
    return out


def replace_everywhere(original, replacement):
    """Rebind every layerfem module attribute that is `original`.

    Returns the (module, attribute, original) triples needed to undo it.
    """
    patches = []
    for mod in _namespaces():
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                patches.append((mod, attr, original))
    return patches


def restore(patches):
    for mod, attr, original in reversed(patches):
        setattr(mod, attr, original)


def snapshot():
    """Identity map of every module attribute that refers to a target."""
    originals = {id(fn) for _, fn in target_functions()}
    return {(mod.__name__, attr): val
            for mod in _namespaces()
            for attr, val in vars(mod).items() if id(val) in originals}


def untouched(snap) -> bool:
    """True iff every attribute in `snap` still is the same object."""
    return all(vars(sys.modules[mod]).get(attr) is val
               for (mod, attr), val in snap.items())


class CountingIntegral:
    """Proxy for a CumulativeIntegral e(x) that counts calls and points.

    A points-per-call near 1 means callers hit e one scalar at a time.
    """

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def __call__(self, x):
        counters = self._tracer.counters
        counters["calculus.e.calls"] += 1
        counters["calculus.e.points"] += np.size(x)
        return self._inner(x)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """In-memory span statistics: calls, duration and self time per name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.top_level_s = 0.0    # raw duration of spans with no parent
        self._stack = []          # child time accumulated per open span
        self._excluded = 0.0
        self._patches = []

    @contextmanager
    def excluded(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - t0

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            ex0 = self._excluded
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                raw = time.perf_counter() - t0
                child = self._stack.pop()
                dur = raw - (self._excluded - ex0)
                self.calls[name] += 1
                self.self_s[name] += dur - child
                if self._stack:
                    self._stack[-1] += dur
                else:
                    self.top_level_s += raw
        return wrapper

    def counting(self, e):
        return CountingIntegral(e, self)

    def _hooks(self):
        """Post-call bookkeeping per span name, run outside the span."""
        from layerfem.mesh import predict_cardinality

        def solve_tridiagonal(result, system):
            x = np.asarray(result)
            ax = system.diag * x
            ax[1:] += system.sub * x[:-1]
            ax[:-1] += system.sup * x[1:]
            norm_a = np.abs(system.diag).max()
            if system.size > 1:
                norm_a += np.abs(system.sub).max() + np.abs(system.sup).max()
            scale = norm_a * np.abs(x).max() + np.abs(system.rhs).max()
            rel = np.abs(ax - system.rhs).max() / max(scale, 1e-300)
            self.counters["fem.unknowns"] += system.size
            self.maxima["fem.residual_max"] = max(self.maxima["fem.residual_max"], rel)

        def build_mesh(result, coeffs, e, h, *rest, **kw):
            self.counters["mesh.nodes"] += result.node_count
            ratio = result.node_count / predict_cardinality(coeffs, h)
            self.maxima["mesh.nodes_over_predicted"] = max(
                self.maxima["mesh.nodes_over_predicted"], ratio)

        def layer_integral(result, coeffs, kind, *rest, **kw):
            return self.counting(result) if kind == "e" else result

        return {"fem.solve_tridiagonal": solve_tridiagonal,
                "mesh.build_mesh": build_mesh,
                "calculus.layer_integral": layer_integral}

    def _with_hook(self, span, hook):
        def wrapper(*args, **kwargs):
            result = span(*args, **kwargs)
            with self.excluded():
                replaced = hook(result, *args, **kwargs)
            return result if replaced is None else replaced
        return wrapper

    def install(self):
        hooks = self._hooks()
        for name, fn in target_functions():
            wrapped = self._span(name, fn)
            if name in hooks:
                wrapped = self._with_hook(wrapped, hooks[name])
            self._patches += replace_everywhere(fn, wrapped)

    def uninstall(self):
        restore(self._patches)
        self._patches = []
