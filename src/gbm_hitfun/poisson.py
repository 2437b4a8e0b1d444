"""Poisson kernel of half-spaces for hyperbolic Brownian motion with drift.

In the half-space model of H^n, Brownian motion with drift (generator
x_n^2 Laplacian - (2 mu - 1) x_n d/dx_n) started at height x > 1 exits
the region {x_n > 1} at a boundary point whose distribution P_1(x, y)
subordinates an (n-1)-dimensional Gaussian to the stopped functional
A(tau) of the height process:

    P_1(x, y) = (4 pi)^{-(n-1)/2} int_0^infty e^{-|y|^2/4t} q(t)
                t^{-(n-1)/2} dt.

Integrating out t first leaves the density module's one pattern:
int w(v) R_j(z) dv, z = kappa/c0, R_j a function minus its Taylor
polynomial, by one of its two integrators, plus a far part stated here.
For n >= 3 R_j is the remainder of (1+z)^{-m}, by
:func:`.density.adaptive_integral`, far part left out; at n = 2, where
the prefactor degenerates, of its log limit, by
:func:`.density.table_integral`, far part by panels.  At mu = 1/2 the
kernel is the (n-1)-dimensional Cauchy density.

Also here: the rho -> infinity tail constant of the kernel, by
extrapolation over a geometric radius grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .bessel import gamma_fn
from .density import (adaptive_integral, cached_evaluator, q_density,
                      table_integral)
from .errors import ConvergenceError, DomainError
from .quadrature import gauss_legendre_panels
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


def _kernel_plane(p: PoissonParams) -> float:
    """The n = 2 kernel on the density evaluator's v-table.

    Integrating out t leaves P = (lam / 2 pi) ([l = 0] 2 x^{mu-1/2} / c0
    - int w g_j(z) dv), g_j(z) = log(1+z) - sum_{i <= j}
    (-1)^{i+1} z^i / i the Taylor remainder of log1p, exact for every
    min(1, l) <= j <= l = l_terms by the kernel moment identities.  The
    integral is :func:`table_integral` at sigma = c0, which picks j by
    the l1 norm of its summands, completed past the table's top by
    20-point ratio-2 panels of w log(1+z), eight at a time, until a
    panel adds under 1e-17 of that norm.  The table is extended until z
    reaches 4 at its top, so the two completions do not cancel.
    """
    model = p.model
    mu, lam, x = model.mu, model.lam, model.x
    ev = cached_evaluator(mu, x)
    c0 = lam * lam + p.rho * p.rho
    v_need = math.sqrt(lam * lam + 4.0 * c0) - lam
    table = ev.extended_table(
        max(0, math.ceil(math.log2(v_need / ev.table[2]))))
    integral, scale = (float(a[0]) for a in table_integral(
        table, np.array([c0]), np.log1p, _LOG1P_COEFS, lambda j: 0.5,
        ev.l_terms))
    top = table[2]
    while True:
        v, wts = gauss_legendre_panels(top * 2.0 ** np.arange(9.0), 20)
        parts = (wts * ev.w.eval(v)
                 * np.log1p(v * (2.0 * lam + v) / c0)).reshape(8, 20)
        integral += parts.sum()
        if abs(parts[-1].sum()) <= 1e-17 * scale:
            break
        top *= 256.0
    lead = 2.0 * x ** (mu - 0.5) / c0 if ev.l_terms == 0 else 0.0
    return lam / (2.0 * math.pi) * (lead - integral)


def kernel_closed(p: PoissonParams) -> float:
    """Poisson kernel as a single integral of w, for every n >= 2.

    Integrating out t in the subordination formula leaves, for n >= 3,

        P = C lam c0^{-m} [ [l = 0] (n-2) x^{mu-1/2} / c0
                            + int w(v) R_j(z) dv ]

    with C = Gamma(n/2-1)/(2 pi^{n/2}), m = n/2 - 1, c0 = lam^2 +
    rho^2, z = v(2 lam + v)/c0 and R_j = (1+z)^{-m} minus its Taylor
    polynomial through degree j = min(1, l_terms), by
    :func:`.density.adaptive_integral` up to a cut v_hi, without the far
    part int_v_hi^infty w (1+z)^{-m} dv.
    At n = 2 the prefactor degenerates; the m -> 0 limit of the bracket
    is a log, and :func:`_kernel_plane` sums it on the density
    evaluator's v-table.  The tests hold it within 1e-11 of a Fourier
    inversion at x = 2, mu <= 7, rho <= 3 (4.1e-13 at worst there),
    within 5e-9 of subordination at rho = 6-20 and within 1e-12 of the
    tail law at rho >= 1e9.
    At mu = 1/2 the exact Cauchy form is returned.
    """
    n = p.n
    model = p.model
    mu, lam, x = model.mu, model.lam, model.x
    rho = p.rho
    if abs(mu - 0.5) <= 1e-12:
        return cauchy_kernel(n, lam, rho)
    if n == 2:
        return _kernel_plane(p)
    ev = cached_evaluator(mu, x)
    m = 0.5 * n - 1.0
    c0 = lam * lam + rho * rho
    j = min(1, ev.l_terms)
    # splits at the w scales and the bracket's v ~ sqrt(c0); the far part
    # left out is the mu < 1/2 bias perfbench pins (n = 3, mu = 0, rho = 6)
    sq = math.sqrt(c0)
    v_hi = max(80.0 * (1.0 + lam), 40.0 * sq)
    bracket = adaptive_integral(
        ev, c0, lambda y: np.expm1(-m * np.log1p(y)), _binomial_coefs(m), j,
        0.5, v_hi, (0.5, 1.0 + lam, 5.0 * (1.0 + lam), 20.0 * (1.0 + lam),
                    0.3 * sq, sq, 3.0 * sq, 10.0 * sq), 1e-11, 1200)
    const = gamma_fn(0.5 * n - 1.0) * lam / (2.0 * math.pi ** (0.5 * n))
    if not j:
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

    Evaluates :func:`kernel_closed` at ten radii.  The boundary
    distance in p is ignored; the limit is over rho -> infinity.
    """
    n = p.n
    model = p.model
    mu, lam = model.mu, model.lam
    rho0 = max(100.0, 30.0 * (1.0 + lam))
    rhos = rho0 * 4.0 ** np.arange(10)
    ps = np.array([kernel_closed(replace(p, rho=float(r))) for r in rhos])
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
