"""Poisson kernel of half-spaces for hyperbolic Brownian motion with drift.

In the half-space model of H^n, Brownian motion with drift (generator
x_n^2 Laplacian - (2 mu - 1) x_n d/dx_n) started at height x > 1 exits
the region {x_n > 1} at a boundary point whose distribution P_1(x, y)
subordinates an (n-1)-dimensional Gaussian to the stopped functional
A(tau) of the height process:

    P_1(x, y) = (4 pi)^{-(n-1)/2} int_0^infty e^{-|y|^2/4t} q(t)
                t^{-(n-1)/2} dt.

The module evaluates this kernel two independent ways: the
subordination integral above (the source of truth, any n >= 2), and a
closed single-integral form against the kernel w from :mod:`.weight`
obtained by integrating out t (n >= 3; the prefactor degenerates at
n = 2).  At mu = 1/2 the functional is one-sided 1/2-stable and the
kernel collapses to the (n-1)-dimensional Cauchy density.

Also here: the rho -> infinity tail constant of the kernel and the
total-probability check by radial integration, with the fat tail
(power law, or log-corrected for mu = 0) completed analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np
from scipy import special as sp

from .bessel import gamma_fn
from .density import (
    DensityEvaluator,
    cached_evaluator,
    q_density,
    survival,
    tail_constant,
)
from .errors import ConvergenceError, DomainError
from .quadrature import integrate_finite, integrate_semi_infinite
from .weight import (
    ModelParams,
    w_kappa_moment_tail,
    w_power_moment_tail,
)

_SQRT_PI = math.sqrt(math.pi)


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
    exponentially.  Valid for every n >= 2 and the reference the closed
    route is compared against.
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
    spec = replace(ev.quad, abs_tol=1e-300, rel_tol=1e-11,
                   split_points=splits or None)
    head = integrate_finite(integrand, 0.0, t_mid, spec)

    def log_tail(ys):
        ys = np.asarray(ys, dtype=float)
        ts = np.exp(ys)
        return q_density(ev, ts) * np.exp(-rho * rho / (4.0 * ts)
                                          + (1.0 - a) * ys)

    rate = 0.8 * (mu + a) if mu > 0.0 else 0.7 * a
    tail = integrate_semi_infinite(log_tail, math.log(t_mid), rate,
                                   replace(ev.quad, abs_tol=1e-300,
                                           rel_tol=1e-11))
    return ((head.value + tail.value)
            / (4.0 * math.pi) ** (0.5 * (p.n - 1.0)))


def _q_tail_power_integral(ev: DensityEvaluator, a: float,
                           big_t: float) -> float:
    """int_T^infty q(t) t^{-a} dt from the tail law of q.

    Power regime: constant * T^{-mu-a}/(mu+a).  Log regime (mu = 0):
    integrate constant/(t^{1+a} log^2 t) by parts, keeping two
    correction orders.
    """
    tc = tail_constant(ev)
    if tc.regime == "power":
        mu = ev.params.mu
        return tc.value * big_t ** (-mu - a) / (mu + a)
    lt = math.log(big_t)
    return (tc.value * big_t ** (-a) / (a * lt * lt)
            * (1.0 + 2.0 / (a * lt) + 6.0 / (a * lt) ** 2))


def _subordination_grid(ev: DensityEvaluator, n: int,
                        rhos: np.ndarray, rho_cap: float) -> np.ndarray:
    """Kernel values on an array of radii from one shared t-grid.

    Tabulates q once on log-spaced panels covering every radius up to
    rho_cap, so each kernel value is a dot product; the truncated
    large-t tail (where e^{-rho^2/4t} is already 1) is completed from
    the tail law of q.  Serves the radial integrals, where the scalar
    adaptive route would re-integrate q thousands of times.
    """
    a = 0.5 * (n - 1.0)
    lam = ev.params.lam
    t_lo = min(1.0, lam * lam) / 300.0
    t_hi = max(rho_cap * rho_cap, lam * lam, 1.0) * 2e4
    decades = math.log10(t_hi / t_lo)
    edges = np.geomspace(t_lo, t_hi, int(12 * decades) + 2)
    nodes, wts = np.polynomial.legendre.leggauss(16)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    ts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    tw = (half[:, None] * wts[None, :]).ravel()
    qs = q_density(ev, ts)
    base = qs * tw * ts ** (-a)
    rhos = np.asarray(rhos, dtype=float)
    vals = np.exp(-rhos[:, None] * rhos[:, None] / (4.0 * ts[None, :])) @ base
    vals += _q_tail_power_integral(ev, a, t_hi)
    return vals / (4.0 * math.pi) ** (0.5 * (n - 1.0))


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
    spec = replace(ev.quad, abs_tol=1e-300, rel_tol=1e-11,
                   split_points=splits or None, max_subdivisions=1200)
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
# tail constant and normalization

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


def kernel_normalization(model: ModelParams, n: int,
                         r_head: Optional[float] = None) -> float:
    """Total boundary mass: sphere area times the radial integral of P.

    The head [0, R] integrates the kernel pipeline itself (closed for
    n >= 3, shared-grid subordination at n = 2).  The tail beyond R is
    completed exactly by swapping the radial integral inside the
    subordination formula, which turns it into int q(t) Q((n-1)/2,
    R^2/4t) dt with Q the regularized upper gamma; that integral is
    taken adaptively up to T and finished with the exact survival
    function plus the first-order correction of Q's approach to 1.
    Should equal 1 to well under 1e-4.
    """
    if n < 2:
        raise DomainError("dimension must be >= 2")
    ev = cached_evaluator(model.mu, model.x)
    lam = model.lam
    a = 0.5 * (n - 1.0)
    big_r = r_head if r_head is not None else 30.0 * (1.0 + lam)
    if not (big_r > 0.0):
        raise DomainError("head radius must be positive")
    sphere = 2.0 * math.pi ** a / gamma_fn(a)

    if n >= 3:
        def radial(r):
            r = np.asarray(r, dtype=float)
            flat = r.reshape(-1)
            ps = np.array([kernel_closed(PoissonParams(n, model, float(v)))
                           for v in flat])
            return (flat ** (n - 2.0) * ps).reshape(r.shape)
    else:
        def radial(r):
            r = np.asarray(r, dtype=float)
            flat = r.reshape(-1)
            ps = _subordination_grid(ev, n, flat, big_r)
            return ps.reshape(r.shape)

    spec = replace(ev.quad, abs_tol=1e-12, rel_tol=1e-9,
                   split_points=tuple(s for s in (0.5 * lam, 1.0 + lam,
                                                  5.0 * (1.0 + lam),
                                                  0.5 * big_r)
                                      if 0.0 < s < big_r))
    head = sphere * integrate_finite(radial, 0.0, big_r, spec).value

    # exact swap of the tail: sphere * int_R^inf r^{n-2} P dr
    #   = int_0^inf q(t) Q(a, R^2/4t) dt
    big_t = 1e4 * big_r * big_r
    y_lo = math.log(big_r * big_r / 180.0)
    y_hi = math.log(big_t)

    def swap_integrand(ys):
        ys = np.asarray(ys, dtype=float)
        ts = np.exp(ys)
        return (q_density(ev, ts)
                * sp.gammaincc(a, big_r * big_r / (4.0 * ts)) * ts)

    sspec = replace(ev.quad, abs_tol=1e-12, rel_tol=1e-10,
                    split_points=tuple(np.linspace(y_lo, y_hi, 9)[1:-1]))
    tail = integrate_finite(swap_integrand, y_lo, y_hi, sspec).value
    tail += survival(ev, big_t)
    # Q(a, z) = 1 - z^a/Gamma(a+1) + O(z^{a+1}) for the t beyond T
    tail -= ((big_r * big_r / 4.0) ** a / gamma_fn(a + 1.0)
             * _q_tail_power_integral(ev, a, big_t))
    return head + tail
