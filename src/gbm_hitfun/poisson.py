"""Poisson kernel of half-spaces for hyperbolic Brownian motion with drift.

In the half-space model of H^n, Brownian motion with drift (generator
x_n^2 Laplacian - (2 mu - 1) x_n d/dx_n) started at height x > 1 exits
the region {x_n > 1} at a boundary point whose distribution P_1(x, y)
subordinates an (n-1)-dimensional Gaussian to the stopped functional
A(tau) of the height process:

    P_1(x, y) = (4 pi)^{-(n-1)/2} int_0^infty e^{-|y|^2/4t} q(t)
                t^{-(n-1)/2} dt.

Integrating out t first leaves one formula for every n >= 2 and
mu >= 0, :func:`kernel_closed`: a lead term, present when l_terms = 0,
plus the density module's pattern int w(v) R_j(z) dv, z = kappa/c0,
R_j the Taylor remainder of (1+z)^{-m} (at n = 2 of its log limit).
The caller states only its f, its reach and its lead term:
:func:`.density.table_integral` owns the table and its reach, and
:func:`.density.far_integral` the far part past the table's top by
panels.  At mu = 1/2 the kernel w is empty and the lead term alone is
the (n-1)-dimensional Cauchy density.  At n >= 3 the integral still
runs :func:`.density.adaptive_integral`, far part left out.

Also here: the rho -> infinity tail constant of the kernel, closed at
mu = 0 and by extrapolation over a geometric radius grid for mu > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .bessel import gamma_fn
from .density import (adaptive_integral, cached_evaluator, far_integral,
                      q_density, table_integral)
from .errors import ConvergenceError, DomainError
from .weight import ModelParams


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
# closed route

# Taylor coefficients (-1)^{i+1} / i of log(1+z), for taylor_remainder
_LOG1P_COEFS = np.r_[0.0, -(-1.0) ** np.arange(1.0, 128.0)
                     / np.arange(1.0, 128.0)]


def _binomial_coefs(m: float) -> np.ndarray:
    """Taylor coefficients C(-m, i) of (1+z)^{-m}, by the product rule."""
    return np.cumprod(np.r_[1.0, -(m + np.arange(127.0))
                            / np.arange(1.0, 128.0)])


def kernel_closed(p: PoissonParams) -> float:
    """Poisson kernel as one integral of w, for every n >= 2 and mu >= 0.

    Integrating out t in the subordination formula leaves

        P = lam c0^{-m} / (2 pi^{n/2}) [ [l = 0] G (n-2) x^{mu-1/2} / c0
                                         + int w(v) G R_j(z) dv ]

    with m = n/2 - 1, G = Gamma(m), c0 = lam^2 + rho^2, z = v(2 lam +
    v)/c0 and R_j = (1+z)^{-m} minus its Taylor polynomial through
    degree j, the same for every min(1, l) <= j <= l = l_terms.  At
    n = 2 the m -> 0 limits hold: G (n-2) = 2, G R_j = the remainder of
    -log(1+z).  At mu = 1/2, w is empty, l = 0 and the lead term alone
    is the (n-1)-dimensional Cauchy density.

    Only the integrator depends on n.  At n = 2 it is
    :func:`.density.table_integral` at sigma = c0 with reach z = 4, so
    that its polynomial tail and the far part by
    :func:`.density.far_integral` do not cancel; the tests hold it
    within 1e-11 of a Fourier inversion at x = 2, mu <= 7, rho <= 3,
    within 5e-9 of subordination at rho = 6-20 and within 1e-12 of the
    tail law at rho >= 1e9.  At n >= 3 it is
    :func:`.density.adaptive_integral` (j = min(1, l)) up to a cut v_hi,
    without the far part int_v_hi^infty w (1+z)^{-m} dv.
    """
    n, model, rho = p.n, p.model, p.rho
    mu, lam, x = model.mu, model.lam, model.x
    ev = cached_evaluator(mu, x)
    c0 = lam * lam + rho * rho
    if n == 2:
        m, gam, lead = 0.0, 1.0, 2.0
        val, norm, top = (float(a[0]) for a in table_integral(
            ev, np.array([c0]), lambda z: -np.log1p(z), -_LOG1P_COEFS,
            lambda j: 0.5, 4.0))
        bracket = val + far_integral(ev, top, lambda k: -np.log1p(k / c0),
                                     norm)
    else:
        m = 0.5 * n - 1.0
        gam, lead = gamma_fn(m), n - 2.0
        # splits at the w scales and the bracket's v ~ sqrt(c0); the far
        # part left out is the mu < 1/2 bias perfbench pins (n = 3,
        # mu = 0, rho = 6)
        sq = math.sqrt(c0)
        bracket = adaptive_integral(
            ev, c0, lambda y: np.expm1(-m * np.log1p(y)), _binomial_coefs(m),
            min(1, ev.l_terms), 0.5, max(80.0 * (1.0 + lam), 40.0 * sq),
            (0.5, 1.0 + lam, 5.0 * (1.0 + lam), 20.0 * (1.0 + lam),
             0.3 * sq, sq, 3.0 * sq, 10.0 * sq), 1e-11, 1200)[0]
    if ev.l_terms == 0:
        bracket += lead * x ** (mu - 0.5) / c0
    return gam * lam / (2.0 * math.pi ** (0.5 * n)) * c0 ** (-m) * bracket


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
    """Tail constant of the kernel as rho -> infinity; the boundary
    distance in p is ignored.

    At mu = 0 it is closed: q ~ 2 log x / (t log^2 t) subordinates to
    P ~ log x Gamma(a) / (2 pi^a) / (rho^{n-1} log^2 rho), a = (n-1)/2.
    For mu > 0 it is extrapolated from :func:`kernel_closed` at ten
    radii on a geometric grid.
    """
    n = p.n
    model = p.model
    mu, lam = model.mu, model.lam
    if mu == 0.0:
        a = 0.5 * (n - 1.0)
        return PoissonTail(n=n, mu=mu, regime="log", value=math.log(model.x)
                           * gamma_fn(a) / (2.0 * math.pi ** a))
    rho0 = max(100.0, 30.0 * (1.0 + lam))
    rhos = rho0 * 4.0 ** np.arange(10)
    ps = np.array([kernel_closed(replace(p, rho=float(r))) for r in rhos])
    val, err = _accelerated_limit(rhos ** (n + 2.0 * mu - 1.0) * ps)
    if not (val > 0.0) or not np.isfinite(val):
        raise ConvergenceError(
            "kernel tail extrapolation did not stabilize",
            estimate=val, err_est=err)
    if err > 0.05 * abs(val):
        raise ConvergenceError(
            "kernel tail extrapolation spread exceeds 5 percent",
            estimate=val, err_est=err)
    return PoissonTail(n=n, mu=mu, value=val, regime="power")
