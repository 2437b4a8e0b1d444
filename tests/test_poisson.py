"""Poisson-kernel tests: both routes, the radial tail constant, the mass.

Oracles used here, all independent of the code under test:

* the (n-1)-dimensional Cauchy density at mu = 1/2,
* a scipy radial Fourier inversion of the Laplace transform
  x^mu K_mu(x k)/K_mu(k) of the density at r = k, which is the Fourier
  transform of the kernel in the boundary variable,
* the closed tail constant C_P = (x^{2 mu} - 1) Gamma(mu + a)
  / (Gamma(mu) pi^a), a = (n-1)/2, obtained by subordinating the
  Gaussian to the density's tail law C t^{-mu-1},
* total probability: the kernel integrates to one over the boundary
  (``boundary_mass`` below, a radial integral of the kernel routes
  completed by an exact swap of the far tail).
"""

import math

import numpy as np
import pytest
from scipy import integrate as sint
from scipy import special as sp

from gbm_hitfun.density import (
    build_evaluator,
    q_density,
    survival,
    tail_constant,
)
from gbm_hitfun.poisson import (
    PoissonParams,
    cauchy_kernel,
    kernel_closed,
    kernel_subordination,
    kernel_tail,
)
from gbm_hitfun.quadrature import QuadratureSpec, integrate_finite
from gbm_hitfun.weight import ModelParams


def fourier_kernel_n4(mu: float, x: float, rho: float) -> float:
    """Kernel at n = 4 by inverting its 3-dimensional Fourier transform.

    P(rho) = (2 pi^2)^{-1} int_0^inf L(k) k^2 sin(k rho)/(k rho) dk with
    L(k) = x^mu K_mu(x k)/K_mu(k), which decays like e^{-(x-1) k}.
    """
    lam = x - 1.0

    def integrand(k):
        lap = x ** mu * sp.kve(mu, x * k) / sp.kve(mu, k) * math.exp(-lam * k)
        return lap * k * k * np.sinc(k * rho / math.pi)

    val, _ = sint.quad(integrand, 0.0, 60.0 / lam, epsabs=0.0, epsrel=1e-12,
                       limit=400)
    return val / (2.0 * math.pi ** 2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_closed_route_is_cauchy_at_half_drift(n):
    model = ModelParams(0.5, 2.0)
    for rho in (0.0, 1.5, 12.0):
        got = kernel_closed(PoissonParams(n, model, rho))
        assert got == cauchy_kernel(n, model.lam, rho)


@pytest.mark.parametrize("rho", [0.0, 1.5, 4.0])
def test_closed_route_matches_fourier_inversion(rho):
    got = kernel_closed(PoissonParams(4, ModelParams(1.2, 2.0), rho))
    assert got == pytest.approx(fourier_kernel_n4(1.2, 2.0, rho), rel=1e-6)


# at (0.3, 4) the last radii integrate the kernel past v = 1e8
@pytest.mark.parametrize("mu,n,rel", [(1.2, 4, 1e-4), (0.3, 4, 4e-7)])
def test_kernel_tail_matches_closed_constant(mu, n, rel):
    x = 2.0
    a = 0.5 * (n - 1.0)
    want = ((x ** (2.0 * mu) - 1.0) * sp.gamma(mu + a)
            / (sp.gamma(mu) * math.pi ** a))
    tail = kernel_tail(PoissonParams(n, ModelParams(mu, x), 0.0))
    assert tail.regime == "power"
    assert tail.value == pytest.approx(want, rel=rel)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_subordination_is_cauchy_at_half_drift(n):
    model = ModelParams(0.5, 2.0)
    for rho in (0.0, 1.5, 12.0):
        got = kernel_subordination(PoissonParams(n, model, rho))
        assert got == pytest.approx(cauchy_kernel(n, model.lam, rho),
                                    rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rho", [0.0, 1.5, 4.0])
def test_subordination_matches_fourier_inversion(rho):
    got = kernel_subordination(PoissonParams(4, ModelParams(1.2, 2.0), rho))
    assert got == pytest.approx(fourier_kernel_n4(1.2, 2.0, rho), rel=1e-10,
                                abs=0.0)


# ---------------------------------------------------------------------
# total probability

def q_tail_power_integral(ev, a: float, big_t: float) -> float:
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


def subordination_grid(ev, n: int, rhos, rho_cap: float):
    """Kernel values on an array of radii from one shared t-grid.

    Tabulates q once on log-spaced panels covering every radius up to
    rho_cap, so each kernel value is a dot product; the truncated
    large-t tail (where e^{-rho^2/4t} is already 1) is completed from
    the tail law of q.  Serves the radial integral at n = 2, where the
    scalar subordination route would re-integrate q thousands of times.
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
    base = q_density(ev, ts) * tw * ts ** (-a)
    rhos = np.asarray(rhos, dtype=float)
    vals = np.exp(-rhos[:, None] * rhos[:, None] / (4.0 * ts[None, :])) @ base
    vals += q_tail_power_integral(ev, a, t_hi)
    return vals / (4.0 * math.pi) ** (0.5 * (n - 1.0))


def boundary_mass(model: ModelParams, n: int) -> float:
    """Total boundary mass: sphere area times the radial integral of P.

    The head [0, R] integrates the kernel itself (closed for n >= 3,
    shared-grid subordination at n = 2).  The tail beyond R is
    completed exactly by swapping the radial integral inside the
    subordination formula, which turns it into int q(t) Q((n-1)/2,
    R^2/4t) dt with Q the regularized upper gamma; that integral is
    taken adaptively up to T and finished with the survival function
    plus the first-order correction of Q's approach to 1.
    """
    ev = build_evaluator(model)
    lam = model.lam
    a = 0.5 * (n - 1.0)
    big_r = 30.0 * (1.0 + lam)
    sphere = 2.0 * math.pi ** a / sp.gamma(a)

    def radial(r):
        if n == 2:
            return subordination_grid(ev, n, r, big_r)
        ps = [kernel_closed(PoissonParams(n, model, float(v))) for v in r]
        return r ** (n - 2.0) * np.array(ps)

    splits = tuple(s for s in (0.5 * lam, 1.0 + lam, 5.0 * (1.0 + lam),
                               0.5 * big_r) if 0.0 < s < big_r)
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-9, max_subdivisions=768,
                          split_points=splits)
    head = sphere * integrate_finite(radial, 0.0, big_r, spec).value

    # exact swap of the tail: sphere * int_R^inf r^{n-2} P dr
    #   = int_0^inf q(t) Q(a, R^2/4t) dt
    big_t = 1e4 * big_r * big_r
    y_lo = math.log(big_r * big_r / 180.0)
    y_hi = math.log(big_t)

    def swap_integrand(ys):
        ts = np.exp(ys)
        return (q_density(ev, ts)
                * sp.gammaincc(a, big_r * big_r / (4.0 * ts)) * ts)

    sspec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10, max_subdivisions=768,
                           split_points=tuple(np.linspace(y_lo, y_hi, 9)[1:-1]))
    tail = integrate_finite(swap_integrand, y_lo, y_hi, sspec).value
    tail += survival(ev, big_t)
    # Q(a, z) = 1 - z^a/Gamma(a+1) + O(z^{a+1}) for the t beyond T
    tail -= ((big_r * big_r / 4.0) ** a / sp.gamma(a + 1.0)
             * q_tail_power_integral(ev, a, big_t))
    return head + tail


@pytest.mark.parametrize("mu,n", [(1.2, 2), (1.2, 3), (0.3, 4)])
def test_boundary_mass_is_one(mu, n):
    assert boundary_mass(ModelParams(mu, 2.0), n) == pytest.approx(1.0,
                                                                   abs=1e-7)
