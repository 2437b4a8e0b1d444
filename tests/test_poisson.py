"""Poisson-kernel tests: the closed route, the radial tail constant, the mass.

Oracles used here, all independent of the code under test:

* the (n-1)-dimensional Cauchy density at mu = 1/2,
* scipy Fourier inversions (radial at n = 4, cosine at n = 2) of the
  Laplace transform x^mu K_mu(x k)/K_mu(k) of the density at r = k,
  which is the Fourier transform of the kernel in the boundary
  variable,
* the closed tail constant C_P = (x^{2 mu} - 1) Gamma(mu + a)
  / (Gamma(mu) pi^a), a = (n-1)/2, obtained by subordinating the
  Gaussian to the density's tail law C t^{-mu-1},
* total probability: the kernel integrates to one over the boundary
  (``boundary_mass`` below, a radial integral of the closed route
  completed by an exact swap of the far tail),
* the subordination integral over t (``kernel_subordination`` below,
  adaptive t-quadrature of q), which shares only q with the closed
  route.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate as sint
from scipy import special as sp

from gbm_hitfun import poisson
from gbm_hitfun.density import (
    adaptive_integral,
    build_evaluator,
    cached_evaluator,
    q_density,
    survival,
    table_integral,
    tail_constant,
)
from gbm_hitfun.errors import DomainError
from gbm_hitfun.poisson import (
    PoissonParams,
    cauchy_kernel,
    kernel_closed,
    kernel_tail,
)
from gbm_hitfun.quadrature import (
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
)
from gbm_hitfun.weight import ModelParams


def kernel_subordination(p: PoissonParams) -> float:
    """Poisson kernel by subordinating the Gaussian to the functional.

    Adaptive time integral of (4 pi)^{-(n-1)/2} e^{-rho^2/4t} q(t)
    t^{-(n-1)/2}; the large-t power tail is integrated on a log scale,
    where it decays exponentially.  Valid for every n >= 2 and shares
    only q with the closed route.
    """
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


def laplace_of_q(mu: float, x: float, k):
    """x^mu K_mu(x k)/K_mu(k), the Fourier transform of the kernel in
    the boundary variable at |frequency| k."""
    lam = x - 1.0
    return x ** mu * sp.kve(mu, x * k) / sp.kve(mu, k) * np.exp(-lam * k)


def fourier_kernel_n2(mu: float, x: float, rho: float) -> float:
    """Kernel at n = 2 by inverting its 1-dimensional Fourier transform,
    P(rho) = pi^{-1} int_0^inf L(k) cos(k rho) dk."""
    lam = x - 1.0
    val, _ = sint.quad(lambda k: laplace_of_q(mu, x, k) * math.cos(k * rho),
                       0.0, 60.0 / lam, epsabs=0.0, epsrel=1e-12, limit=400)
    return val / math.pi


def fourier_kernel_n4(mu: float, x: float, rho: float) -> float:
    """Kernel at n = 4 by inverting its 3-dimensional Fourier transform.

    P(rho) = (2 pi^2)^{-1} int_0^inf L(k) k^2 sin(k rho)/(k rho) dk with
    L(k) = x^mu K_mu(x k)/K_mu(k), which decays like e^{-(x-1) k}.
    """
    lam = x - 1.0

    def integrand(k):
        return laplace_of_q(mu, x, k) * k * k * np.sinc(k * rho / math.pi)

    val, _ = sint.quad(integrand, 0.0, 60.0 / lam, epsabs=0.0, epsrel=1e-12,
                       limit=400)
    return val / (2.0 * math.pi ** 2)


# at mu = 1/2 the kernel w is empty and l_terms = 0: the lead term alone
# is the Cauchy density (3.3e-16 apart at most)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_route_is_cauchy_at_half_drift(n):
    model = ModelParams(0.5, 2.0)
    for rho in (0.0, 1.5, 12.0):
        got = kernel_closed(PoissonParams(n, model, rho))
        assert got == pytest.approx(cauchy_kernel(n, model.lam, rho),
                                    rel=1e-15, abs=0.0)


# within is_half_integer's tolerance of 1/2 the kernel is still empty;
# the lead term's x^{mu-1/2} moves the value by about 7e-14
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("mu", [0.5 - 1e-13, 0.5 + 1e-13])
def test_closed_route_next_to_half_drift_is_cauchy(mu, n):
    model = ModelParams(mu, 2.0)
    for rho in (0.0, 1.5, 12.0):
        got = kernel_closed(PoissonParams(n, model, rho))
        assert got == pytest.approx(cauchy_kernel(n, model.lam, rho),
                                    rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rho", [0.0, 1.5, 4.0])
def test_closed_route_matches_fourier_inversion(rho):
    got = kernel_closed(PoissonParams(4, ModelParams(1.2, 2.0), rho))
    assert got == pytest.approx(fourier_kernel_n4(1.2, 2.0, rho), rel=1e-6)


# at rho = 3 and high mu the oscillating integrand cancels down to the
# kernel's size, which quad reports as roundoff; it still lands within
# 1e-13 of the kernel
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("mu", [0.0, 0.3, 0.5, 1.2, 2.2, 2.5, 3.7, 5.3, 7.0])
@pytest.mark.parametrize("rho", [0.0, 0.5, 1.5, 3.0])
def test_plane_kernel_matches_fourier_inversion(mu, rho):
    got = kernel_closed(PoissonParams(2, ModelParams(mu, 2.0), rho))
    assert got == pytest.approx(fourier_kernel_n2(mu, 2.0, rho), rel=1e-11,
                                abs=0.0)


# past rho = 3 the cosine inversion loses relative accuracy; every
# order j of the table sum agrees there, so the gap is the oracle's
@pytest.mark.parametrize("mu", [0.0, 0.3, 0.5, 1.2, 2.2, 2.5, 3.7, 5.3, 7.0])
@pytest.mark.parametrize("rho", [6.0, 12.0, 20.0])
def test_plane_kernel_matches_subordination(mu, rho):
    p = PoissonParams(2, ModelParams(mu, 2.0), rho)
    assert kernel_closed(p) == pytest.approx(kernel_subordination(p),
                                             rel=5e-9, abs=0.0)


# past rho of about 5e7 the v-table gets more ratio-2 panels; beyond
# rho = 1e9 the corrections to the tail law, relative rho^{-2} for
# mu >= 1, are below roundoff
def plane_tail_law(mu: float, x: float, rho: float) -> float:
    """C_P rho^{-(1 + 2 mu)}, the n = 2 kernel's tail law."""
    a = 0.5
    c_p = ((x ** (2.0 * mu) - 1.0) * sp.gamma(mu + a)
           / (sp.gamma(mu) * math.pi ** a))
    return c_p * rho ** (-1.0 - 2.0 * mu)


@pytest.mark.parametrize("mu", [1.2, 3.7, 7.0])
@pytest.mark.parametrize("rho", [1e9, 1e12])
def test_plane_kernel_far_radius_meets_tail_law(mu, rho):
    got = kernel_closed(PoissonParams(2, ModelParams(mu, 2.0), rho))
    assert got == pytest.approx(plane_tail_law(mu, 2.0, rho), rel=1e-12,
                                abs=0.0)


# farther out w leaves double range (from v = 1e80 at mu = 1.2, 5e18 at
# mu = 7) while W_k w(v_k) on the table's far panels does not, and the
# table forms that product without the underflow.  Formed from w, it
# was 8.9e-7 off at (0.3, 1e120), 2.8e6 times too small at (0.3, 1e140),
# 0.89 off at (1.2, 1e80) and 2e-7 off at (7, 1e19); now at most 7e-14.
# At mu = 9.3 the kappa-moment tails at the table's top took c_k v^-b,
# which underflows there, before Gamma(b): 3.0e-10 off at 1e15 and
# 1.8e-3 at 3e15 (law 1.9e-297); now 1.2e-13 and 8.4e-14
@pytest.mark.parametrize("mu,rho", [
    (0.3, 1e30), (0.3, 1e100), (0.3, 1e120), (0.3, 1e140),
    (1.2, 1e30), (1.2, 1e60), (1.2, 1e80),
    (7.0, 1e17), (7.0, 1e19), (7.0, 10.0 ** 19.5),
    (9.3, 1e15), (9.3, 3e15)])
def test_plane_kernel_meets_tail_law_where_the_kernel_underflows(mu, rho):
    got = kernel_closed(PoissonParams(2, ModelParams(mu, 2.0), rho))
    assert got == pytest.approx(plane_tail_law(mu, 2.0, rho), rel=1e-12,
                                abs=0.0)


# farther out kappa = v (2 lam + v) leaves double range on the table's
# extension panels (rho from about 3e153) or on the far part's (here
# from 1e145), and DomainError names the radius; before, overflow
# warnings came first, then a DomainError naming a v, and numpy's
# ValueError from rho = 1.3e154
@pytest.mark.parametrize("rho", [1e145, 1e150, 1e154, 1e160, 1e300])
def test_plane_kernel_meets_tail_law_or_names_the_radius(rho):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = kernel_closed(PoissonParams(2, ModelParams(0.3, 2.0), rho))
        except DomainError as err:
            assert f"rho = {rho:g}" in str(err)
            return
    assert got == pytest.approx(plane_tail_law(0.3, 2.0, rho), rel=1e-10,
                                abs=0.0)


# at (0.3, 4) the last radii integrate the kernel past v = 1e8
@pytest.mark.parametrize("mu,n,rel", [
    (1.2, 4, 1e-4), (0.3, 4, 4e-7),
    (0.3, 2, 2e-8), (1.2, 2, 2e-8), (2.2, 2, 2e-8), (3.7, 2, 2e-8),
])
def test_kernel_tail_matches_closed_constant(mu, n, rel):
    x = 2.0
    a = 0.5 * (n - 1.0)
    want = ((x ** (2.0 * mu) - 1.0) * sp.gamma(mu + a)
            / (sp.gamma(mu) * math.pi ** a))
    tail = kernel_tail(PoissonParams(n, ModelParams(mu, x), 0.0))
    assert tail.regime == "power"
    assert tail.value == pytest.approx(want, rel=rel)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_driftless_kernel_tail_is_closed(n):
    x, a = 2.0, 0.5 * (n - 1.0)
    tail = kernel_tail(PoissonParams(n, ModelParams(0.0, x), 0.0))
    assert tail.regime == "log"
    assert tail.value == pytest.approx(
        math.log(x) * sp.gamma(a) / (2.0 * math.pi ** a), rel=1e-14, abs=0.0)


def test_driftless_plane_kernel_meets_log_tail_constant():
    # independent of the closed constant: rho log^2 rho P(rho) fitted by a
    # quintic in 1/log rho over rho = 1e12 ... 1e30 (2.4e-7 off)
    model = ModelParams(0.0, 2.0)
    rhos = 10.0 ** np.arange(12.0, 31.0)
    g = [math.log(r) ** 2 * r * kernel_closed(PoissonParams(2, model, r))
         for r in rhos]
    limit = np.polyfit(1.0 / np.log(rhos), g, 5)[-1]
    assert limit == pytest.approx(
        kernel_tail(PoissonParams(2, model, 0.0)).value, rel=1e-5, abs=0.0)


# past a large cut the kappa-moment tails met 0 * inf (NaN at rho = 1e15,
# (9.3, 1.5)) and Python's OverflowError; now the far kernel is finite
# or raises DomainError
@pytest.mark.parametrize("mu,x", [(3.7, 2.0), (5.3, 2.0), (7.0, 2.0),
                                  (9.3, 1.5), (9.3, 3.0)])
def test_far_plane_kernel_is_finite_or_raises_domain_error(mu, x):
    for rho in (1e14, 1e15, 1e20, 1e30, 1e45, 1e60):
        try:
            got = kernel_closed(PoissonParams(2, ModelParams(mu, x), rho))
        except DomainError:
            continue
        assert math.isfinite(got), rho


# with kernel_closed's arguments the adaptive integrator gives the n >= 3
# bracket the table integrator gives where both far parts vanish (2e-15
# to 7.4e-11 apart here); they part by 2e-7 at (mu, n, rho) = (0.3, 4, 2)
# and 1.4e-4 at (0, 3, 6), the far part int w (1+z)^{-m} past v_hi that
# kernel_closed leaves out
@pytest.mark.parametrize("mu,n,rho", [(1.2, 4, 2.0), (2.2, 5, 6.0),
                                      (3.7, 3, 2.0), (7.0, 4, 6.0)])
def test_adaptive_and_table_integrals_agree(mu, n, rho):
    ev = cached_evaluator(mu, 2.0)
    lam, m = ev.params.lam, 0.5 * n - 1.0
    c0 = lam * lam + rho * rho
    sq = math.sqrt(c0)
    coefs = poisson._binomial_coefs(m)

    def f0(z):
        return np.expm1(-m * np.log1p(z))

    splits = (0.5, 1.0 + lam, 5.0 * (1.0 + lam), 20.0 * (1.0 + lam),
              0.3 * sq, sq, 3.0 * sq, 10.0 * sq)
    got = adaptive_integral(ev, c0, f0, coefs, min(1, ev.l_terms), 0.5,
                            max(80.0 * (1.0 + lam), 40.0 * sq), splits,
                            1e-11, 1200)[0]
    # reach 4 adds no panel: z at the table's top is above 1e14 here
    want = table_integral(ev, np.array([c0]), f0, coefs, lambda j: 0.5,
                          4.0)[0][0]
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)


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


def boundary_mass(model: ModelParams, n: int) -> float:
    """Total boundary mass: sphere area times the radial integral of P.

    The head [0, R] integrates :func:`kernel_closed` itself.  The tail
    beyond R is completed exactly by swapping the radial integral inside
    the subordination formula, which turns it into int q(t) Q((n-1)/2,
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
