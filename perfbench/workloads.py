"""Workloads of the benchmark: parameter sets, reference points and the
seeded operation lists.

This module is pure data and does not import the program, so that the
reference builder can use it too.  An operation is a dict with

    kind    one of q_density, tail_constant, survival, total_mass,
            kernel_closed, kernel_tail
    mu, x   model parameters;  n  the hyperbolic dimension (0 if none)
    args    tuple of floats: t-points, survival times or one radius
    fault   the name of a known program fault the operation exhibits,
            or None

A pass is the whole list; a run repeats whole passes, so every run does
the same operations in the same proportions, whatever its length.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("density_low_drift", "density_high_drift", "poisson_survival")

T_RANGE = (1e-2, 1e3)

LOW_PAIRS = tuple((mu, x) for mu in (0.0, 0.3, 0.8, 1.2)
                  for x in (1.5, 2.0, 3.0))
LOW_CURVE_POINTS = 1000

HIGH_PAIRS = tuple((mu, x) for mu in (2.2, 2.5, 3.7, 5.3, 7.0)
                   for x in (2.0, 3.0))
HIGH_CURVE_POINTS = 100
HIGH_OPS_PER_CURVE = 10
TARGET_PAIR = (9.3, 1.5)
TARGET_POOL = ((0.1, 0.2), (0.4, 0.7), (2.0, 5.0), (20.0, 60.0))

POISSON_X = 2.0
POISSON_MUS = (0.0, 0.3, 1.2, 2.2, 2.5, 3.7, 7.0)
DIMS = (3, 4, 5)
# radius strata for lam = 1; the seed takes one radius from each
RADIUS_POOL = ((0.0, 0.7), (1.3, 2.0), (3.5, 5.0), (7.0, 9.5),
               (14.0, 18.0))
# at mu = 7 kernel_closed loses accuracy past rho ~ 12 (relative error
# 4e-7 at 12, 1e-4 at 20), so its radii stop at the fourth stratum
RADIUS_STRATA = {7.0: 4}
SURVIVAL_POOL = ((0.1, 0.2), (0.6, 1.5), (5.0, 15.0), (60.0, 600.0))
# at mu = 7 survival fails past T ~ 5 (the fourth fault), so the seeded
# survival times stop at the second stratum
SURVIVAL_STRATA = {7.0: 2}
CAUCHY_RADII_PER_DIM = 3
CAUCHY_RHO_MAX = 20.0
KERNEL_TAIL_CASES = ((0.3, 4), (0.3, 5), (1.2, 3), (1.2, 4), (1.2, 5),
                     (2.2, 4))

# Operations that fail on every run because of faults in the program;
# their inputs do not depend on the seed.
FAULTS = (
    dict(kind="kernel_closed", mu=0.0, x=POISSON_X, n=3, args=(6.0,),
         fault="kernel_closed drops the z^-m tail past v_hi at n = 3, "
               "mu < 1/2"),
    dict(kind="kernel_tail", mu=3.7, x=POISSON_X, n=4, args=(),
         fault="kernel_tail raises ConvergenceError at mu = 3.7"),
    dict(kind="kernel_tail", mu=2.5, x=POISSON_X, n=4, args=(),
         fault="kernel_tail is 0.7 % high at mu = 2.5, n = 4"),
    dict(kind="survival", mu=7.0, x=POISSON_X, n=0, args=(5.0, 60.0),
         fault="survival at mu = 7 is 7e-7 off at T = 5 and 6 % at T = 60"),
)


def _sig(v: float, digits: int = 4) -> float:
    return float(f"{v:.{digits}g}")


def q_pool(mu: float, x: float):
    """Twelve t-points where q is checked against Talbot, in six pairs.

    The pool starts where e^{-lam^2/4t} is e^{-5}, so that every checked
    value is a sizeable part of the curve.
    """
    lam = x - 1.0
    lo = max(T_RANGE[0], lam * lam / 20.0)
    pts = [_sig(v) for v in np.geomspace(lo, T_RANGE[1], 12)]
    return tuple(zip(pts[0::2], pts[1::2]))


def pairs(name: str):
    """The (mu, x) pairs whose evaluators a workload builds."""
    if name == "density_low_drift":
        return LOW_PAIRS
    if name == "density_high_drift":
        return HIGH_PAIRS + (TARGET_PAIR,)
    if name == "poisson_survival":
        return tuple((mu, POISSON_X) for mu in POISSON_MUS)
    raise ValueError(f"unknown workload {name!r}")


def _radius_pool(mu: float):
    return RADIUS_POOL[:RADIUS_STRATA.get(mu, len(RADIUS_POOL))]


def _survival_pool(mu: float):
    return SURVIVAL_POOL[:SURVIVAL_STRATA.get(mu, len(SURVIVAL_POOL))]


def _kernel_cases():
    """(mu, n) pairs swept by kernel_closed; n = 3 with mu < 1/2 is the
    first fault and enters only through FAULTS."""
    return tuple((mu, n) for mu in POISSON_MUS for n in DIMS
                 if not (n == 3 and mu < 0.5))


def reference_keys():
    """Every (kind, mu, x, n, arg) the reference table must hold."""
    keys = set()
    for mu, x in LOW_PAIRS + HIGH_PAIRS:
        keys.update(("q", mu, x, 0, t) for s in q_pool(mu, x) for t in s)
    mu, x = TARGET_PAIR
    keys.update(("q", mu, x, 0, t) for s in TARGET_POOL for t in s)
    for mu in POISSON_MUS:
        keys.update(("survival", mu, POISSON_X, 0, t)
                    for s in SURVIVAL_POOL for t in s)
    for mu, n in _kernel_cases():
        keys.update(("kernel", mu, POISSON_X, n, r)
                    for s in _radius_pool(mu) for r in s)
    for op in FAULTS:
        if op["kind"] == "kernel_closed":
            keys.add(("kernel", op["mu"], op["x"], op["n"], op["args"][0]))
    return keys


def _pick(rng, strata):
    """One value from each stratum."""
    return [s[rng.integers(len(s))] for s in strata]


def _stratified_t(rng, count: int):
    """count log-uniform t-points, one in each of count equal log-bins."""
    lo, hi = np.log10(T_RANGE[0]), np.log10(T_RANGE[1])
    u = (np.arange(count) + rng.random(count)) / count
    return 10.0 ** (lo + (hi - lo) * u)


def _curve(rng, mu, x, count):
    """count t-points: the whole reference pool, the rest seeded."""
    pool = [t for s in q_pool(mu, x) for t in s]
    ts = np.concatenate([pool, _stratified_t(rng, count - len(pool))])
    return np.sort(ts)


def _op(kind, mu, x, n=0, args=(), fault=None):
    return dict(kind=kind, mu=mu, x=x, n=n,
                args=tuple(float(a) for a in args), fault=fault)


def operations(name: str, seed: int):
    """The seeded operation list of one pass of a workload."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    ops = []
    if name == "density_low_drift":
        for mu, x in LOW_PAIRS:
            ops.append(_op("q_density", mu, x,
                           args=_curve(rng, mu, x, LOW_CURVE_POINTS)))
    elif name == "density_high_drift":
        for mu, x in HIGH_PAIRS:
            ts = _curve(rng, mu, x, HIGH_CURVE_POINTS)
            for k in range(HIGH_OPS_PER_CURVE):
                ops.append(_op("q_density", mu, x,
                               args=ts[k::HIGH_OPS_PER_CURVE]))
            ops.append(_op("tail_constant", mu, x))
        mu, x = TARGET_PAIR
        ops.append(_op("q_density", mu, x, args=_pick(rng, TARGET_POOL)))
        ops.append(_op("tail_constant", mu, x))
    elif name == "poisson_survival":
        x = POISSON_X
        for mu, n in _kernel_cases():
            for r in _pick(rng, _radius_pool(mu)):
                ops.append(_op("kernel_closed", mu, x, n, (r,)))
        for n in DIMS:
            for r in rng.uniform(0.0, CAUCHY_RHO_MAX, CAUCHY_RADII_PER_DIM):
                ops.append(_op("kernel_closed", 0.5, x, n, (r,)))
        for mu in POISSON_MUS:
            ops.append(_op("survival", mu, x,
                           args=_pick(rng, _survival_pool(mu))))
            ops.append(_op("total_mass", mu, x))
        for mu, n in KERNEL_TAIL_CASES:
            ops.append(_op("kernel_tail", mu, x, n))
        ops.extend(_op(**f) for f in FAULTS)
    else:
        raise ValueError(f"unknown workload {name!r}")
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]
