"""Poisson kernel of half-spaces for hyperbolic Brownian motion with drift.

In the half-space model of H^n, Brownian motion with drift (generator
x_n^2 Laplacian - (2 mu - 1) x_n d/dx_n) started at height x > 1 exits
the region {x_n > 1} at a boundary point whose distribution P_1(x, y)
subordinates an (n-1)-dimensional Gaussian to the stopped functional
A(tau) of the height process:

    P_1(x, y) = (4 pi)^{-(n-1)/2} int_0^infty e^{-|y|^2/4t} q(t)
                t^{-(n-1)/2} dt.

The module evaluates this kernel by a closed single-integral form
against the kernel w from :mod:`.weight`, obtained by integrating out t
(n >= 3; the prefactor degenerates at n = 2), and by the subordination
integral above (adaptive t-quadrature of q, any n >= 2; the only route
at n = 2).  At mu = 1/2 the functional is one-sided 1/2-stable and the
kernel collapses to the (n-1)-dimensional Cauchy density.

Also here: the rho -> infinity tail constant of the kernel, by
extrapolation over a geometric radius grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .bessel import gamma_fn
from .density import DensityEvaluator, cached_evaluator, q_density
from .errors import ConvergenceError, DomainError
from .quadrature import (
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
)
from .weight import (
    ModelParams,
    w_kappa_moment_tail,
    w_power_moment_tail,
)


@dataclass(frozen=True)
class PoissonParams:
    """Dimension, height-process parameters and boundary distance.

    n is the hyperbolic dimension (the boundary is R^{n-1}); model
    carries the drift mu and starting height x of the height process;
    rho = |y| is the distance of the boundary point from the
    projection of the start.  The hyperbolic drift alpha and mu are
    linked by alpha = 2 mu - n + 1.
    """

    n: int
    model: ModelParams
    rho: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise DomainError(f"dimension must be an integer >= 2, "
                              f"got {self.n}")
        if not np.isfinite(self.rho) or self.rho < 0.0:
            raise DomainError(f"boundary distance must be finite and >= 0, "
                              f"got {self.rho}")

    @property
    def alpha(self) -> float:
        return 2.0 * self.model.mu - self.n + 1.0


def cauchy_kernel(n: int, lam: float, rho) -> float:
    """(n-1)-dimensional Cauchy density at radius rho, scale lam.

    The exact Poisson kernel at mu = 1/2, and the limit law the rest of
    the family is tested against there.
    """
    if n < 2:
        raise DomainError("dimension must be >= 2")
    if not (lam > 0.0):
        raise DomainError("scale must be positive")
    rho = np.asarray(rho, dtype=float)
    out = (gamma_fn(0.5 * n) * lam
           / (math.pi ** (0.5 * n) * (lam * lam + rho * rho) ** (0.5 * n)))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------
# subordination route

def kernel_subordination(p: PoissonParams,
                         ev: Optional[DensityEvaluator] = None) -> float:
    """Poisson kernel by subordinating the Gaussian to the functional.

    Adaptive time integral of e^{-rho^2/4t} q(t) t^{-(n-1)/2}; the
    large-t power tail is integrated on a log scale, where it decays
    exponentially.  Valid for every n >= 2, and the only route at
    n = 2, where the closed form degenerates.
    """
    if ev is None:
        ev = cached_evaluator(p.model.mu, p.model.x)
    a = 0.5 * (p.n - 1.0)
    mu = p.model.mu
    lam = p.model.lam
    rho = p.rho
    c0 = lam * lam + rho * rho

    def integrand(ts):
        ts = np.asarray(ts, dtype=float)
        # fold t^{-a} into the exponent so the t -> 0 end underflows
        # cleanly instead of forming 0 * inf
        return q_density(ev, ts) * np.exp(-rho * rho / (4.0 * ts)
                                          - a * np.log(ts))

    t_mid = max(4.0, 4.0 * lam * lam, 2.0 * c0)
    splits = tuple(sorted({s for s in (c0 / 40.0, c0 / 8.0, c0 / 2.0,
                                       lam * lam / 8.0, lam * lam)
                           if 0.0 < s < t_mid}))
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-11,
                          max_subdivisions=768)
    head = integrate_finite(integrand, 0.0, t_mid,
                            replace(spec, split_points=splits or None))

    def log_tail(ys):
        ys = np.asarray(ys, dtype=float)
        ts = np.exp(ys)
        return q_density(ev, ts) * np.exp(-rho * rho / (4.0 * ts)
                                          + (1.0 - a) * ys)

    rate = 0.8 * (mu + a) if mu > 0.0 else 0.7 * a
    tail = integrate_semi_infinite(log_tail, math.log(t_mid), rate, spec)
    return ((head.value + tail.value)
            / (4.0 * math.pi) ** (0.5 * (p.n - 1.0)))


# ---------------------------------------------------------------------
# closed route (n >= 3)

def _pow_shortfall(z: np.ndarray, m: float) -> np.ndarray:
    """(1+z)^{-m} - 1 for z >= 0, without cancellation at small z."""
    return np.expm1(-m * np.log1p(z))


def _pow_shortfall_linear(z: np.ndarray, m: float) -> np.ndarray:
    """(1+z)^{-m} - 1 + m z for z >= 0, stably.

    The direct form loses the leading m(m+1)z^2/2 to roundoff for
    small z, so below z = 1/2 the binomial remainder series is summed
    instead (term ratio -z (m+k)/(k+1), immediately decreasing).
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z < 0.5
    if small.any():
        zs = z[small]
        term = 0.5 * m * (m + 1.0) * zs * zs
        acc = term.copy()
        for k in range(2, 90):
            term = term * (-zs) * (m + k) / (k + 1.0)
            acc += term
            if np.all(np.abs(term) <= 1e-17 * np.abs(acc) + 1e-320):
                break
        out[small] = acc
    if (~small).any():
        zb = z[~small]
        out[~small] = np.expm1(-m * np.log1p(zb)) + m * zb
    return out


def kernel_closed(p: PoissonParams) -> float:
    """Poisson kernel as a single integral of w against rational terms.

    Integrating out t in the subordination formula leaves, for n >= 3,

        P = C lam c0^{-m} [ (n-2) x^{mu-1/2} / c0
                            + int w(v) ((1+z)^{-m} - 1) dv ]       (mu < 1/2)
        P = C lam c0^{-m} int w(v) ((1+z)^{-m} - 1 + m z) dv       (mu > 1/2)

    with C = Gamma(n/2-1)/(2 pi^{n/2}), m = n/2 - 1, c0 = lam^2 +
    rho^2 and z = v(2 lam + v)/c0.  At mu = 1/2 the exact Cauchy form
    is returned; at n = 2 the prefactor degenerates and only the
    subordination route exists.
    """
    n = p.n
    model = p.model
    mu, lam, x = model.mu, model.lam, model.x
    rho = p.rho
    if n == 2:
        raise DomainError(
            "the closed form degenerates at n = 2; use the subordination "
            "route there")
    if abs(mu - 0.5) <= 1e-12:
        return cauchy_kernel(n, lam, rho)
    ev = cached_evaluator(mu, x)
    m = 0.5 * n - 1.0
    c0 = lam * lam + rho * rho
    sub = mu > 0.5
    shortfall = _pow_shortfall_linear if sub else _pow_shortfall

    def integrand(v):
        v = np.asarray(v, dtype=float)
        z = v * (2.0 * lam + v) / c0
        return ev.w.eval(v) * shortfall(z, m)

    # structure sits at the w scales (v ~ 1 + lam) and at the bracket
    # saturation scale v ~ sqrt(c0); past v_hi the bracket is -1 (or
    # m z - 1), whose kernel tail integrals are exact
    sq = math.sqrt(c0)
    v_hi = max(80.0 * (1.0 + lam), 40.0 * sq)
    splits = tuple(sorted({s for s in (0.5, 1.0 + lam, 5.0 * (1.0 + lam),
                                       20.0 * (1.0 + lam), 0.3 * sq, sq,
                                       3.0 * sq, 10.0 * sq)
                           if 0.0 < s < v_hi}))
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-11,
                          max_subdivisions=1200, split_points=splits or None)
    quad_part = integrate_finite(integrand, 0.0, v_hi, spec).value

    comp = -w_power_moment_tail(ev.w, 0, v_hi)
    if sub:
        comp += (m / c0) * w_kappa_moment_tail(ev.w, 1, v_hi)

    const = gamma_fn(0.5 * n - 1.0) * lam / (2.0 * math.pi ** (0.5 * n))
    bracket = quad_part + comp
    if not sub:
        bracket += (n - 2.0) * x ** (mu - 0.5) / c0
    return const * c0 ** (-m) * bracket


# ---------------------------------------------------------------------
# tail constant

@dataclass(frozen=True)
class PoissonTail:
    """Limit constant of the boundary kernel's radial tail.

    regime "power": P ~ value * rho^{-(n + 2 mu - 1)} (mu > 0);
    regime "log": P ~ value / (rho^{n-1} log^2 rho) (mu = 0).
    """

    n: int
    mu: float
    value: float
    regime: str


def _accelerated_limit(g: np.ndarray) -> Tuple[float, float]:
    """Limit of a sequence sampled on a geometric grid, two sweeps.

    Each sweep estimates the geometric decay factor of consecutive
    differences (robustly, from the last few ratios) and applies one
    Richardson elimination with it.
    """
    seq = np.asarray(g, dtype=float)
    for _ in range(2):
        if seq.size < 4:
            break
        d = np.diff(seq)
        scale = float(np.max(np.abs(seq)))
        if np.max(np.abs(d[-3:])) <= 1e-11 * scale:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            rhos = d[:-1] / d[1:]
        rhos = rhos[np.isfinite(rhos)][-3:]
        if rhos.size == 0:
            break
        rho = float(np.median(rhos))
        if not (rho > 1.05):
            break
        seq = seq[1:] + d / (rho - 1.0)
    err = abs(float(seq[-1]) - float(seq[-2])) if seq.size >= 2 else np.inf
    return float(seq[-1]), err


def kernel_tail(p: PoissonParams) -> PoissonTail:
    """Tail constant by extrapolation over a geometric radius grid.

    Uses the closed route for n >= 3 and subordination at n = 2.  The
    boundary distance in p is ignored; the limit is over rho ->
    infinity.
    """
    n = p.n
    model = p.model
    mu, lam = model.mu, model.lam
    rho0 = max(100.0, 30.0 * (1.0 + lam))
    rhos = rho0 * 4.0 ** np.arange(10)
    if n >= 3:
        ps = np.array([kernel_closed(replace(p, rho=float(r)))
                       for r in rhos])
    else:
        ps = np.array([kernel_subordination(replace(p, rho=float(r)))
                       for r in rhos])
    if mu == 0.0:
        g = np.log(rhos) ** 2 * rhos ** (n - 1.0) * ps
        xi = 1.0 / np.log(rhos[-8:])
        val = float(np.polyfit(xi, g[-8:], 2)[-1])
        err = abs(val - float(np.polyfit(xi, g[-8:], 1)[-1]))
        regime = "log"
    else:
        g = rhos ** (n + 2.0 * mu - 1.0) * ps
        val, err = _accelerated_limit(g)
        regime = "power"
    if not (val > 0.0) or not np.isfinite(val):
        raise ConvergenceError(
            "kernel tail extrapolation did not stabilize",
            estimate=val, err_est=err)
    if err > 0.05 * abs(val):
        raise ConvergenceError(
            "kernel tail extrapolation spread exceeds 5 percent",
            estimate=val, err_est=err)
    return PoissonTail(n=n, mu=mu, value=val, regime=regime)
