"""Operation lists, tracing wrappers and the known faults."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gbm_hitfun as g  # noqa: E402
import gbm_hitfun.poisson  # noqa: E402,F401
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_operation_list(name):
    a = workloads.operations(name, 7)
    assert a == workloads.operations(name, 7)
    b = workloads.operations(name, 8)
    assert a != b
    # the mix of a pass and the faulty operations do not depend on the seed
    assert sorted(o["kind"] for o in a) == sorted(o["kind"] for o in b)
    assert _faults(a) == _faults(b)


def _faults(ops):
    return sorted((o for o in ops if o["fault"]), key=lambda o: o["fault"])


def test_faults_only_in_poisson_survival():
    faults = {name: _faults(workloads.operations(name, 1))
              for name in workloads.WORKLOADS}
    assert faults == {"density_low_drift": [], "density_high_drift": [],
                      "poisson_survival": _faults(workloads.FAULTS)}


def _sample_ops():
    """Cheap operations touching every traced layer."""
    ops = [workloads.operations("density_low_drift", 3)[0]]
    ops += [o for o in workloads.operations("density_high_drift", 3)
            if o["mu"] == 2.5][:3]
    poisson = workloads.operations("poisson_survival", 3)
    ops += [next(o for o in poisson if o["kind"] == kind and o["mu"] == 1.2)
            for kind in ("kernel_closed", "survival", "total_mass")]
    return ops


def _evaluate(ops):
    evs = {}
    out = []
    for op in ops:
        key = (op["mu"], op["x"])
        if key not in evs:
            evs[key] = g.density.build_evaluator(g.ModelParams(*key))
        out.append(np.asarray(run.run_op(op, evs, g), dtype=float).tobytes())
    return out


def test_tracing_is_bit_identical_and_restores():
    ops = _sample_ops()
    plain = _evaluate(ops)
    originals = {(m, a): getattr(sys.modules[f"gbm_hitfun.{m}"], a)
                 for m, a in tracing.FUNCTIONS}
    method = g.weight.WLambdaRep.__dict__["w2_exact"]
    with tracing.Tracer(g) as tr:
        tr.phase = "ops"
        assert g.density.q_density is not originals[("density", "q_density")]
        traced = _evaluate(ops)
    assert traced == plain
    for (m, a), fn in originals.items():
        for mod in (sys.modules[f"gbm_hitfun.{m}"], g):
            if a in mod.__dict__:
                assert mod.__dict__[a] is fn
    assert g.weight.__dict__["integrate_finite"] is g.quadrature.integrate_finite
    assert g.poisson.__dict__["q_density"] is g.density.q_density
    assert g.weight.WLambdaRep.__dict__["w2_exact"] is method
    names = {s.name for s in tr.spans}
    assert {"bessel.k_zero_set", "weight.build_w", "weight.w2_exact",
            "quadrature.integrate_finite", "density.q_density",
            "poisson.kernel_closed", "density.survival"} <= names
    metrics = tracing.layer_metrics(tr.spans, 1, 1)
    assert set(metrics) == {m for m, _, _ in tracing.PER_LAYER}
    # the half-integer curves have no continuous kernel and no fallbacks
    assert metrics["density.q_points"][0] > 1000


def test_low_drift_takes_only_the_direct_route():
    op = workloads.operations("density_low_drift", 5)[0]
    with tracing.Tracer(g) as tr:
        tr.phase = "ops"
        _evaluate([op])
    m = tracing.layer_metrics(tr.spans, 1, 1)
    assert m["quadrature.calls"][0] == 0
    assert m["bessel.zero_set_calls"][0] == 0
    assert m["density.direct_share"][0] == 1.0
    assert m["density.erfcx_evals"][0] > 0


def test_exactly_the_named_faults_fail():
    table = reference.load_table()
    evs = {(7.0, 2.0): g.density.build_evaluator(g.ModelParams(7.0, 2.0))}
    for op in workloads.FAULTS:
        try:
            result = np.asarray(run.run_op(op, evs, g), dtype=float)
        except g.ConvergenceError:
            continue
        assert not run.check(op, result, table)[0], op
    # neighbours of the faults pass: n = 4 at mu = 0, kernel_tail at
    # mu = 1.2, survival at mu = 7 up to T = 1.5
    for op in (dict(kind="kernel_closed", mu=0.0, x=2.0, n=4, args=(7.0,)),
               dict(kind="kernel_tail", mu=1.2, x=2.0, n=4, args=()),
               dict(kind="survival", mu=7.0, x=2.0, n=0, args=(0.2, 1.5))):
        result = np.asarray(run.run_op(op, evs, g), dtype=float)
        assert run.check(op, result, table)[0], op
