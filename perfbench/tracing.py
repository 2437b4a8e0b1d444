"""Spans around the public functions of each gbm_hitfun layer.

The tracer replaces each traced function in every module namespace that
holds it (the layers import each other's functions by name, so a call is
only seen where the calling module looks the function up), records a
span per call, and puts the original functions back on exit.  Spans stay
in memory; ``layer_metrics`` turns them into the per-layer figures.

Layers are the package's modules: bessel, weight, quadrature, density
and poisson.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (layer module, function) pairs wrapped wherever they are looked up
FUNCTIONS = (
    ("bessel", "k_zero_set"),
    ("weight", "build_w"),
    ("weight", "w_moment"),
    ("weight", "w_kappa_moment_tail"),
    ("weight", "w_power_moment_tail"),
    ("quadrature", "integrate_finite"),
    ("quadrature", "integrate_semi_infinite"),
    ("density", "build_evaluator"),
    ("density", "q_density"),
    ("density", "survival"),
    ("density", "total_mass"),
    ("density", "tail_constant"),
    ("poisson", "kernel_closed"),
    ("poisson", "kernel_tail"),
)
# (layer module, class, method) wrapped on the class
METHODS = (("weight", "WLambdaRep", "w2_exact"),)

QUADRATURE = frozenset({"quadrature.integrate_finite",
                        "quadrature.integrate_semi_infinite"})
MOMENT_TAILS = frozenset({"weight.w_moment", "weight.w_kappa_moment_tail",
                          "weight.w_power_moment_tail"})


@dataclass
class Span:
    name: str    # "<layer>.<function>"
    via: str     # module whose namespace the caller looked the name up in
    phase: str
    parent: int  # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


def _kernel_nodes(rep) -> int:
    """Nodes of a kernel representation's continuous-part grid (0 if none)."""
    kern = getattr(rep, "_kernel", None)
    return 0 if kern is None else int(np.size(kern.u))


def _args_info(name, args):
    if name == "weight.w2_exact":
        rep, v = args[0], args[1]
        return {"rows": int(np.size(v)), "nodes": _kernel_nodes(rep)}
    if name == "density.q_density":
        ev, ts = args[0], np.asarray(args[1], dtype=float)
        return {"points": int(ts.size),
                "direct": int(np.count_nonzero(ts <= ev.t_switch)),
                "nodes": _kernel_nodes(ev.w)}
    return {}


class Tracer:
    """Context manager that records spans for the layers of ``package``."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, via):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, via, self.phase, stack[-1] if stack else -1,
                        0.0, info=_args_info(name, args))
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if name in QUADRATURE:
                span.info["neval"] = int(out.neval)
                span.info["converged"] = bool(out.converged)
            elif name == "bessel.k_zero_set":
                span.info["zeros"] = int(out.count)
            return out

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        prefix = self.package.__name__
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None
                   and (k == prefix or k.startswith(prefix + "."))]
        for layer, attr in FUNCTIONS:
            fn = getattr(sys.modules[f"{prefix}.{layer}"], attr)
            for mod in modules:
                if mod.__dict__.get(attr) is fn:
                    via = mod.__name__.rpartition(".")[2]
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(fn, f"{layer}.{attr}", via))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{prefix}.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, f"{layer}.{meth}", layer))
        return self

    def __exit__(self, *exc):
        while self._saved:
            obj, attr, fn = self._saved.pop()
            setattr(obj, attr, fn)
        return False


# ---------------------------------------------------------------------
# per-layer figures

PER_LAYER = (
    ("bessel.zero_set_calls", "count", "lower"),
    ("bessel.zero_set_ms", "ms", "lower"),
    ("weight.build_w_self_ms", "ms", "lower"),
    ("weight.w2_rows", "count", "lower"),
    ("weight.w2_madds", "count", "lower"),
    ("weight.w2_ms", "ms", "lower"),
    ("weight.moment_tail_calls", "count", "lower"),
    ("weight.moment_tail_ms", "ms", "lower"),
    ("quadrature.calls", "count", "lower"),
    ("quadrature.neval", "count", "lower"),
    ("quadrature.unconverged", "count", "lower"),
    ("quadrature.self_ms", "ms", "lower"),
    ("density.q_points", "count", "lower"),
    ("density.direct_points", "count", "lower"),
    ("density.substituted_points", "count", "lower"),
    ("density.direct_share", "ratio", "higher"),
    ("density.erfcx_evals", "count", "lower"),
    ("density.q_density_self_ms", "ms", "lower"),
    ("density.tail_constant_ms", "ms", "lower"),
    ("density.survival_ms", "ms", "lower"),
    ("poisson.kernel_closed_ms", "ms", "lower"),
    ("poisson.kernel_closed_neval", "count", "lower"),
    ("poisson.kernel_tail_ms", "ms", "lower"),
)


def _ancestors(spans, i):
    p = spans[i].parent
    while p >= 0:
        yield spans[p]
        p = spans[p].parent


def _nearest(spans, i, name):
    """Index of the closest enclosing span called name, or -1."""
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return p
        p = spans[p].parent
    return -1


def layer_totals(spans, phase: str) -> dict:
    """Counts and times summed over the spans of one phase.

    direct_share is left out: it is a ratio, formed from the totals.
    fallbacks counts direct-route points handed to the substituted route.
    """
    tot = {name: 0.0 for name, _, _ in PER_LAYER if name != "density.direct_share"}
    tot["density.fallbacks"] = 0.0
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ms[s.parent] += s.ms
    subst_in = {}
    for i, s in enumerate(spans):
        if s.phase != phase:
            continue
        self_ms = s.ms - child_ms[i]
        if s.name == "bessel.k_zero_set":
            # below mu = 3/2 the set is empty and returned without a search
            tot["bessel.zero_set_calls"] += s.info.get("zeros", 0) > 0
            tot["bessel.zero_set_ms"] += s.ms
        elif s.name == "weight.build_w":
            tot["weight.build_w_self_ms"] += self_ms
        elif s.name == "weight.w2_exact":
            tot["weight.w2_rows"] += s.info["rows"]
            tot["weight.w2_madds"] += s.info["rows"] * s.info["nodes"]
            tot["weight.w2_ms"] += s.ms
        elif s.name in MOMENT_TAILS:
            tot["weight.moment_tail_calls"] += 1
            tot["weight.moment_tail_ms"] += s.ms
        elif s.name in QUADRATURE:
            tot["quadrature.self_ms"] += self_ms
            q = _nearest(spans, i, "density.q_density")
            if s.via == "density" and q >= 0:
                tot["density.substituted_points"] += 1
                subst_in[q] = subst_in.get(q, 0) + 1
            anc = list(_ancestors(spans, i))
            if any(a.name in QUADRATURE for a in anc):
                continue  # its evaluations count in the enclosing call
            tot["quadrature.calls"] += 1
            tot["quadrature.neval"] += s.info["neval"]
            tot["quadrature.unconverged"] += not s.info["converged"]
            if any(a.name == "poisson.kernel_closed" for a in anc):
                tot["poisson.kernel_closed_neval"] += s.info["neval"]
        elif s.name == "density.q_density":
            tot["density.q_points"] += s.info["points"]
            tot["density.direct_points"] += s.info["direct"]
            tot["density.erfcx_evals"] += s.info["direct"] * s.info["nodes"]
            tot["density.q_density_self_ms"] += self_ms
        elif s.name == "density.tail_constant":
            tot["density.tail_constant_ms"] += s.ms
        elif s.name == "density.survival":
            tot["density.survival_ms"] += s.ms
        elif s.name == "poisson.kernel_closed":
            tot["poisson.kernel_closed_ms"] += s.ms
        elif s.name == "poisson.kernel_tail":
            tot["poisson.kernel_tail_ms"] += s.ms
    for q, n_sub in subst_in.items():
        info = spans[q].info
        # points beyond t_switch take the substituted route by design
        tot["density.fallbacks"] += n_sub - (info["points"] - info["direct"])
    return tot


def layer_metrics(spans, setup_rounds: int, passes: int) -> dict:
    """Per-layer figures for one set-up round plus one pass of operations."""
    setup = layer_totals(spans, "setup")
    ops = layer_totals(spans, "ops")
    tot = {k: setup[k] / setup_rounds + ops[k] / passes for k in setup}
    direct = tot["density.direct_points"]
    tot["density.direct_share"] = (1.0 - tot["density.fallbacks"] / direct
                                   if direct else 1.0)
    return {name: (tot[name], unit) for name, unit, _ in PER_LAYER}
