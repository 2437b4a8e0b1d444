"""Density pipeline tests: both routes, transforms, mass, tails, rescaling.

Oracles used here, all independent of the code under test:

* the exact closed density at mu = 1/2 (elementary one-sided stable
  form) and its erf survival function,
* closed densities for mu = 3/2 (scaled complementary error function)
  and mu = 5/2 (scipy quadrature of the explicit damped-oscillation
  kernel against the twice-subtracted exponential),
* scipy's scaled Bessel ratio for the Laplace transform,
* scipy.stats.invgamma for the unstopped limit law,
* tail constants from the finite kappa-moment identities at
  half-integer drift, and high-precision extrapolation limits frozen
  from an mpmath study for the rest.

The Laplace transform of q is checked twice: by the exact order swap
of its t-integral, which leaves the transform of the kernel's tail mass
(``laplace_by_tail_mass`` below), and by adaptive quadrature of q
itself (``laplace_by_quadrature``).  Survival far in the tail is checked
against a Talbot inversion of the Laplace transform.

The two internal evaluation routes (closed error-function dot products
for moderate t, the fixed v-grid table for large t and for the points
the first one hands over) share no code past the kernel
representation, so their pointwise agreement checked below is itself a
strong oracle.  The interpolant of log J that serves handed-over points
is checked against the table it is built from, to the table's own
roundoff.  The table route is also checked against adaptive
quadrature of the same integral in s = kappa/4t (``q_substituted``
below), and the closed kernel moment identities against a variant that
integrates the moments numerically (``q_density_basic``).
"""

import functools
import itertools
import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from scipy import integrate as sint
from scipy import special as sp
from scipy import stats as sstats

from gbm_hitfun import density, poisson, weight
from gbm_hitfun.density import (
    DensityEvaluator,
    TailConstant,
    _j_direct_with_handover,
    _j_direct_with_loss,
    _j_series,
    _j_table,
    _lagrange_basis,
    _match_tol,
    _prefactor,
    build_evaluator,
    cached_evaluator,
    dufresne_density,
    laplace_ratio,
    q_density,
    rescale,
    survival,
    tail_constant,
    taylor_remainder,
    total_mass,
)
from gbm_hitfun.errors import ConvergenceError, DomainError
from gbm_hitfun.quadrature import (
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
)
from gbm_hitfun.weight import (
    ModelParams,
    w_kappa_moment_tail,
    w_moment,
    w_power_moment_tail,
)

SQRT_PI = math.sqrt(math.pi)

_EVALUATORS = {}


def ev_for(mu: float, x: float):
    key = (mu, x)
    if key not in _EVALUATORS:
        _EVALUATORS[key] = build_evaluator(ModelParams(mu, x))
    return _EVALUATORS[key]


def prefactor(lam: float, t):
    return lam * np.exp(-lam * lam / (4.0 * t)) / np.sqrt(np.pi * t)


def exp_remainder(s, j):
    """E_j(s): e^{-s} minus its Taylor polynomial through degree j."""
    return taylor_remainder(lambda z: np.expm1(-z), density._EXP_COEFS, s,
                            j, 0.5 * (j + 1.0))


def q_substituted(ev, t: float) -> float:
    """Density by adaptive quadrature of J in s = kappa/4t.

    The s-integrand w(v(s)) E_l(s) 2t/sqrt(4st + lam^2) is O(1)-scaled
    for any t; past s = 512, which leaves e^{-s} far below underflow,
    the purely polynomial rest of E_l is completed by the exact
    kappa-moment tails of the kernel.  Asked for 1e-11, it lands within
    about 1e-10: at (mu, x, t) = (0, 10, 1e17) it is 8.8e-11 off, where
    scipy's quad in v agrees with the table route to roundoff.  E_j
    gives the same J for every min(1, l) <= j <= l by the kernel moment
    identities; where the integrand's l1 norm on a log grid of s is 4
    times smaller for some j than for l, the j with the least is taken,
    so that at small t and high drift the integral does not cancel
    (with j = l it is 4.2e-10 off Talbot at (8.6, 1.1, 0.316)).
    """
    p = ev.params
    mu, lam, x = p.mu, p.lam, p.x
    l = ev.l_terms
    s_cut = 512.0

    def integrand(s, j):
        s = np.asarray(s, dtype=float)
        root = np.sqrt(4.0 * s * t + lam * lam)
        v = 4.0 * s * t / (root + lam)
        return ev.w.eval(v) * exp_remainder(s, j) * (2.0 * t / root)

    grid = np.geomspace(1e-8, s_cut, 400)
    norm = {i: np.abs(integrand(grid, i) * grid).sum()
            for i in range(min(1, l), l + 1)}
    j = min(norm, key=norm.get)
    j = j if norm[j] < 0.25 * norm[l] else l
    splits = (1e-6, 1e-4, 1e-2, 0.25, 1.0, 4.0, 16.0, 64.0, 256.0)
    res = integrate_finite(lambda s: integrand(s, j), 0.0, s_cut,
                           QuadratureSpec(abs_tol=1e-300, rel_tol=1e-11,
                                          max_subdivisions=768,
                                          split_points=splits))
    root_cut = math.sqrt(4.0 * s_cut * t + lam * lam)
    v_cut = 4.0 * s_cut * t / (root_cut + lam)
    j_val = res.value
    for i in range(j + 1):
        j_val += ((-1) ** (i + 1) / (math.factorial(i) * (4.0 * t) ** i)
                  * w_kappa_moment_tail(ev.w, i, v_cut))
    if mu <= 0.5:
        j_val += x ** (mu - 0.5) / (2.0 * t)
    return float(prefactor(lam, t) * j_val)


def q_density_basic(ev, t):
    """Direct-route density with the kernel moments int w dv and
    int kappa w dv taken from the kernel (plain form for mu <= 1/2,
    once-subtracted for mu > 1/2) instead of the closed identities."""
    p = ev.params
    mu, lam, x = p.mu, p.lam, p.x
    ts = np.asarray(t, dtype=float)
    w0 = w_moment(ev.w, 0)
    s_val, _ = ev.w.exp_weighted_integral(ts)
    if mu <= 0.5:
        j_val = x ** (mu - 0.5) / (2.0 * ts) - w0 + s_val
    else:
        j_val = w_moment(ev.w, 1) / (4.0 * ts) - w0 + s_val
    return prefactor(lam, ts) * j_val


def laplace_by_tail_mass(ev, r: float) -> float:
    """int_0^infty e^{-r^2 t} q(t) dt by the exact swap of the t-integral.

    Each piece of the direct route's J integrates in t in closed form,
    which leaves e^{-lam r} [x^{mu-1/2} - lam int_0^infty e^{-r v} W(v)
    dv], W(v) = int_v^infty w the kernel's exact tail mass.  Nothing
    cancels as r -> 0, and only the kernel is shared with laplace_ratio;
    the v-integral is scipy's quad over [0, 1/r, 10/r, 100/r, infinity).
    """
    p = ev.params
    edges = (0.0, 1.0 / r, 10.0 / r, 100.0 / r, np.inf)
    tail = sum(sint.quad(
        lambda v: math.exp(-r * v) * w_power_moment_tail(ev.w, 0, v),
        lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:]))
    return math.exp(-p.lam * r) * (p.x ** (p.mu - 0.5) - p.lam * tail)


def laplace_by_quadrature(ev, r: float) -> float:
    """int_0^infty e^{-r^2 t} q(t) dt by adaptive quadrature of q.

    The q-side of the Laplace check, sharing with
    :func:`laplace_by_tail_mass` only the kernel; asked for 1e-10, it is
    3.6e-7 off at (mu, x, r) = (1.2, 2, 50), where the integrand is a
    narrow peak.
    """
    rr = r * r
    lam = ev.params.lam

    def integrand(ts):
        ts = np.asarray(ts, dtype=float)
        return np.exp(-rr * ts) * q_density(ev, ts)

    # the integrand rises from (essentially) zero through a peak near
    # t = lam/2r before decaying like e^{-r^2 t}; cover the whole rise
    # and peak with the finite engine so the tail scan only ever sees
    # the decaying side
    t_mid = max(2.0, 2.0 * lam * lam, 2.0 * lam / r)
    splits = tuple(sorted({s for s in (lam * lam / 8.0, lam * lam / 2.0,
                                       0.5 * lam / r, 2.0 * lam / r)
                           if 0.0 < s < t_mid}))
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10, max_subdivisions=768)
    head = integrate_finite(integrand, 0.0, t_mid,
                            replace(spec, split_points=splits or None))
    tail = integrate_semi_infinite(integrand, t_mid, 0.9 * rr, spec)
    return head.value + tail.value


def q_half_closed(lam: float, t):
    # exact density at mu = 1/2: one-sided 1/2-stable at scale lam
    t = np.asarray(t, dtype=float)
    return lam * np.exp(-lam * lam / (4.0 * t)) / (2.0 * SQRT_PI * t ** 1.5)


def q_three_halves_oracle(lam: float, t: float) -> float:
    # w = e^{-v} makes the kernel integral elementary:
    # J = sqrt(pi t) e^{z^2} erfc(z) - 1 + (lam + 1)/(2t) with
    # z = (lam + 2t)/(2 sqrt t); the pieces cancel to O(t^{-2}) as t
    # grows, so evaluate in extended precision
    with mp.workdps(40):
        tt = mp.mpf(t)
        lm = mp.mpf(lam)
        z = (lm + 2.0 * tt) / (2.0 * mp.sqrt(tt))
        j = (mp.sqrt(mp.pi * tt) * mp.exp(z * z) * mp.erfc(z)
             - 1.0 + (lm + 1.0) / (2.0 * tt))
        pref = lm * mp.exp(-lm * lm / (4.0 * tt)) / mp.sqrt(mp.pi * tt)
        return float(pref * j)


def q_five_halves_oracle(lam: float, t: float) -> float:
    # extended-precision quadrature of the explicit damped-oscillation
    # kernel against the twice-subtracted exponential of kappa/4t
    with mp.workdps(30):
        tt = mp.mpf(t)
        lm = mp.mpf(lam)
        r3 = mp.sqrt(3)

        def f(v):
            w = (3.0 * mp.exp(-1.5 * v)
                 * ((2.0 * lm + 1.0) * mp.cos(r3 * v / 2.0)
                    + r3 * mp.sin(r3 * v / 2.0)))
            s = v * (2.0 * lm + v) / (4.0 * tt)
            e2 = mp.exp(-s) - 1.0 + s - s * s / 2.0
            return w * e2

        nodes = [0, 2, 4, 6, 9, 12, 16, 22, 30, 45, 80]
        j = mp.quad(f, nodes, maxdegree=8)
        pref = lm * mp.exp(-lm * lm / (4.0 * tt)) / mp.sqrt(mp.pi * tt)
        return float(pref * j)


# ---------------------------------------------------------------------
# evaluator assembly

@pytest.mark.parametrize("mu,l_expected", [
    (0.0, 0), (0.3, 0), (0.5, 0), (0.9, 1), (1.0, 1),
    (1.5, 1), (2.2, 2), (2.5, 2), (3.7, 4),
])
def test_subtraction_depth(mu, l_expected):
    assert ev_for(mu, 2.0).l_terms == l_expected


def test_switch_time_default():
    assert ev_for(1.0, 2.0).t_switch == 1e3
    assert ev_for(1.0, 5.0).t_switch == 1e3 * 16.0


def test_evaluator_holds_only_its_kernel():
    # params, l_terms and t_switch are read off the kernel, by the
    # formulas the evaluator once stored beside it
    assert [f.name for f in fields(DensityEvaluator)] == ["w"]
    for mu, x in itertools.product((0.0, 0.5 - 1e-13, 0.5 + 1e-13, 1.2, 2.5,
                                    9.3), (1.05, 2.0, 10.0)):
        ev = build_evaluator(ModelParams(mu, x))
        assert ev.params is ev.w.params == ModelParams(mu, x)
        half = abs(mu - 0.5 - round(mu - 0.5)) <= 1e-12
        assert ev.l_terms == int(round(mu - 0.5) if half
                                 else math.floor(mu + 0.5))
        assert ev.t_switch == 1e3 * max(1.0, (x - 1.0) ** 2)


# ---------------------------------------------------------------------
# Taylor-remainder primitive

def _pow_family(m):
    return (f"pow{m}", lambda z: np.expm1(-m * np.log1p(z)),
            poisson._binomial_coefs(m), lambda j: 0.5,
            lambda z: (1 + z) ** (-m), lambda i: mp.binomial(-m, i))


# (name, f0, coefs, switch(j), f and c_i in mpmath) for the three
# families the package subtracts: e^{-s}, log(1+z) and (1+z)^{-m}
FAMILIES = [
    ("exp", lambda s: np.expm1(-s), density._EXP_COEFS,
     lambda j: 0.5 * (j + 1.0), lambda z: mp.exp(-z),
     lambda i: mp.mpf(-1) ** i / mp.factorial(i)),
    ("log1p", np.log1p, poisson._LOG1P_COEFS, lambda j: 0.5,
     lambda z: mp.log1p(z),
     lambda i: mp.mpf(-1) ** (i + 1) / i if i else mp.mpf(0)),
] + [_pow_family(m) for m in (0.5, 1.0, 1.5)]


def _survival_family(mu, x, big_t):
    """Survival's R(s) at z0 = lam^2/4T as a family, with the size of the
    pieces its difference route subtracts.

    f0 and the coefficients are the package's; in mpmath f is the
    defining integral int_0^1 r^{-3/2} e^{-z0 r} (e^{-s r} - 1) dr / 2,
    taken in u = sqrt(r) where its integrand is smooth, and
    c_i = (-1)^i gamma(i-1/2, z0) z0^{1/2-i} / (2 i!) exactly.
    """
    lam = x - 1.0
    z0 = lam * lam / (4.0 * big_t)
    closed, coefs = density._survival_remainder(z0)
    zm = mp.mpf(z0)

    def f(s):
        return mp.quad(lambda u: mp.exp(-zm * u * u) * mp.expm1(-s * u * u)
                       / (u * u), [0, 1])

    def c(i):
        if not i:
            return mp.mpf(0)
        a = i - mp.mpf(0.5)
        return ((-1) ** i * mp.gammainc(a, 0, zm) * zm ** -a
                / (2 * mp.factorial(i)))

    def pieces(z, j):
        return (SQRT_PI * (np.sqrt(z0 + z) + math.sqrt(z0)) + 1.0
                + sum(abs(coefs[i]) * z ** i for i in range(1, j + 1)))

    return (f"survival{mu}-{x}-{big_t}", closed, coefs, lambda j: 0.1, f,
            c), pieces


# (j, family, pieces): the constant-coefficient families at j = 0-4, and
# survival's R at (mu, x, T), z0 from 1/80 to 20, at j = l_terms of
# (mu, x) as survival takes it
REMAINDER_CASES = [(j, family, None) for family in FAMILIES
                   for j in range(5)] + [
    (int(math.floor(mu + 0.5)), *_survival_family(mu, x, big_t))
    for mu, x, big_t in ((0.3, 3.0, 0.05), (1.2, 1.5, 5.0), (2.2, 3.0, 5.0),
                         (3.7, 1.5, 0.05), (7.0, 2.0, 0.1))]


@pytest.mark.parametrize(
    "j,family,pieces", REMAINDER_CASES,
    ids=[f"{j}-{family[0]}" for j, family, _ in REMAINDER_CASES])
def test_taylor_remainder_matches_mpmath_reference(j, family, pieces):
    # 100-digit reference on both sides of the series/difference switch
    _, f0, coefs, switch, f, c = family
    sw = switch(j)
    z = np.array([1e-8, 1e-3, 0.1, 0.9 * sw, sw, 1.1 * sw, 3.0, 10.0,
                  40.0])
    got = taylor_remainder(f0, coefs, z, j, sw)
    # the reference cancels ~8(j+1) digits at the smallest z
    with mp.workdps(100):
        ref = np.array([float(f(mp.mpf(zv)) - sum(
            c(i) * mp.mpf(zv) ** i for i in range(j + 1))) for zv in z])
    slack = 0.0
    if pieces is not None:
        # survival's difference route, taken past its pinned switch and
        # at every s for j = 0, rounds off against the pieces it
        # subtracts, which there still cancel down to s^{j+1}/(j+1)!
        slack = 1e-15 * pieces(z, j) * ((z >= sw) | (j == 0))
    assert np.all(np.abs(got - ref) <= 1e-300 + 5e-14 * np.abs(ref) + slack)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
def test_taylor_remainder_has_the_sign_of_its_first_term(family):
    # the (j+1)-th derivative of each family keeps one sign on z > 0,
    # so by Lagrange's remainder R_j has the sign of c_{j+1}
    _, f0, coefs, switch, _, c = family
    z = np.geomspace(1e-6, 60.0, 40)
    for j in range(0, 5):
        vals = taylor_remainder(f0, coefs, z, j, switch(j))
        assert np.all(vals * float(mp.sign(c(j + 1))) > 0.0)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
def test_taylor_remainder_is_continuous_at_the_switch(family):
    _, f0, coefs, switch, _, _ = family
    for j in range(1, 5):
        sw = switch(j)
        below, above = taylor_remainder(
            f0, coefs, np.array([np.nextafter(sw, 0.0), sw]), j, sw)
        assert below == pytest.approx(above, rel=5e-14, abs=0.0)


# ---------------------------------------------------------------------
# domain validation and shape handling

def test_density_domain_errors():
    ev = ev_for(1.0, 2.0)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            q_density(ev, bad)
    with pytest.raises(DomainError):
        q_density(ev, np.array([1.0, -2.0]))


# from the smallest drift ModelParams accepts (subnormal ones raise) up
# to drifts where the small-u law of h is cut short
_TINY_DRIFTS = (2.2250738585072014e-308, 1e-300, 1e-20, 1e-17, 1e-10, 1e-4)


def test_smallest_normal_drift_matches_mu_zero():
    # built without a warning; q moves off mu = 0 by about mu relative
    # (6.9e-5 at mu = 1e-4), and by 7.4e-11 at most below that
    ts = np.array([0.1, 1.0, 10.0, 5e3, 1e5, 1e6])
    want = q_density(ev_for(0.0, 2.0), ts)
    for mu in _TINY_DRIFTS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = ev_for(mu, 2.0)
        assert q_density(ev, ts) == pytest.approx(
            want, rel=max(1e-10, mu), abs=0.0), mu


def test_density_shape_passthrough():
    ev = ev_for(1.0, 2.0)
    scalar = q_density(ev, 1.5)
    assert isinstance(scalar, float)
    grid = np.array([[0.5, 1.5, 4.0], [2.0, 8.0, 30.0]])
    out = q_density(ev, grid)
    assert out.shape == grid.shape
    assert out[0, 1] == pytest.approx(scalar, rel=1e-14)


def test_transform_domain_errors():
    ev = ev_for(1.0, 2.0)
    with pytest.raises(DomainError):
        laplace_ratio(-0.5, 2.0, 1.0)
    with pytest.raises(DomainError):
        laplace_ratio(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        laplace_ratio(1.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        survival(ev, -1.0)
    with pytest.raises(DomainError):
        survival(ev, np.inf)
    with pytest.raises(DomainError):
        dufresne_density(0.0, 1.0)
    with pytest.raises(DomainError):
        dufresne_density(1.0, -1.0)
    with pytest.raises(DomainError):
        rescale(1.0, 0.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        rescale(1.0, 3.0, 2.0, 1.0)


# ---------------------------------------------------------------------
# exact closed form at mu = 1/2

@pytest.mark.parametrize("x", [1.2, 2.0, 5.0])
def test_half_drift_closed_form(x):
    ev = ev_for(0.5, x)
    ts = np.geomspace(1e-3, 1e6, 60)
    got = q_density(ev, ts)
    want = q_half_closed(x - 1.0, ts)
    assert np.allclose(got, want, rtol=5e-15, atol=0.0)


def test_half_drift_reference_value():
    # lam = 1, t = 1: e^{-1/4} / (2 sqrt(pi)), frozen from mpmath
    val = q_density(ev_for(0.5, 2.0), 1.0)
    assert val == pytest.approx(0.21969564473386119852, rel=1e-15)


# ---------------------------------------------------------------------
# unstopped limit law

def test_dufresne_reference_point():
    # mu = 1, t = 1/4: 2^{-2} e^{-1} / (1/4)^2 = 4/e
    assert dufresne_density(1.0, 0.25) == pytest.approx(4.0 / math.e,
                                                        rel=1e-15)


@pytest.mark.parametrize("mu", [0.3, 0.5, 1.0, 2.2])
def test_dufresne_matches_inverse_gamma(mu):
    # the limit law is inverse-gamma with shape mu and scale 1/4
    ts = np.geomspace(1e-2, 1e3, 25)
    want = sstats.invgamma.pdf(ts, mu, scale=0.25)
    got = dufresne_density(mu, ts)
    assert np.allclose(got, want, rtol=1e-12)


def test_dufresne_normalizes():
    val, _ = sint.quad(lambda t: dufresne_density(1.3, t), 0.0, np.inf)
    assert val == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------
# Laplace transform closed form

def test_laplace_ratio_basic_shape():
    rs = np.geomspace(1e-3, 50.0, 40)
    for mu, x in [(0.0, 2.0), (0.3, 1.2), (1.0, 2.0), (2.5, 5.0)]:
        vals = laplace_ratio(mu, x, rs)
        assert np.all(vals > 0.0) and np.all(vals < 1.0)
        assert np.all(np.diff(vals) < 0.0)


def test_laplace_ratio_small_r_limit():
    for mu, x in [(0.7, 2.0), (1.5, 3.0), (3.0, 1.5)]:
        assert laplace_ratio(mu, x, 1e-8) > 1.0 - 1e-6


def test_laplace_ratio_half_drift_exponential():
    rs = np.geomspace(1e-3, 100.0, 30)
    got = laplace_ratio(0.5, 3.0, rs)
    assert np.allclose(got, np.exp(-2.0 * rs), rtol=5e-15)


def test_laplace_ratio_driftless_reference():
    # K_0(2)/K_0(1), frozen from mpmath
    assert laplace_ratio(0.0, 2.0, 1.0) == pytest.approx(
        0.270516061313329193, rel=1e-13)
    # and against scipy's unscaled Bessel quotient directly
    assert laplace_ratio(0.0, 2.0, 1.0) == pytest.approx(
        sp.kv(0, 2.0) / sp.kv(0, 1.0), rel=1e-13)


# scipy's kve is nan from z = 2^30, where the transform has underflowed
# to 0 unless x is within about 7e-7 of 1 (as the last x here is), and
# K_mu(r) overflows at small r for mu > 1, where the transform is 1 to
# double precision (it gave nan or 0 at both); kve itself is inf below
# about 3e-305, where the small-z law serves (it gave nan)
@pytest.mark.parametrize("mu", [0.0, 0.3, 1.2, 2.2, 7.0, 10.0])
def test_laplace_ratio_over_the_double_range(mu):
    rs = [5e-324, 1e-310, 1e-305, 1e-300, 1e-100, 1e-43, 1e-20, 1e-8,
          1e-3, 1.0, 10.0, 100.0, 700.0, 1e3, 1e9, 1e100, 1e300]
    cases = [(x, rs) for x in (1.05, 2.0, 10.0)]
    for x, rs in cases + [(1.0 + 1e-7, [1.05e9, 2e9, 4e9])]:
        got = laplace_ratio(mu, x, np.array(rs))
        with mp.workdps(30):
            want = [float(mp.mpf(x) ** mu * mp.besselk(mu, x * mp.mpf(r))
                          / mp.besselk(mu, r)) for r in rs]
        for r, g, w in zip(rs, got, want):
            if w >= 1e-300:
                assert g == pytest.approx(w, rel=1e-13, abs=0.0), (x, r)
            else:
                assert 0.0 <= g <= 1e-300, (x, r)


# the small-z law's log g by its series below nu = 1e-3, where 1 +- nu
# rounds in log Gamma, and next to nu = 1, where g is large
@pytest.mark.parametrize("mu", [1e-12, 5e-4, 2.0005, 0.999, 9.999])
def test_laplace_ratio_small_r_law_at_any_fractional_order(mu):
    rs = [5e-324, 1e-305, 1e-25]
    for x in (1.05, 1e4):
        got = laplace_ratio(mu, x, np.array(rs))
        with mp.workdps(30):
            want = [float(mp.mpf(x) ** mu * mp.besselk(mu, x * mp.mpf(r))
                          / mp.besselk(mu, r)) for r in rs]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), x


def test_laplace_ratio_raises_below_both_reaches():
    # below r = 1e-300 neither scipy's kve nor the small-z law (x r <
    # 1e-20) holds once x passes 1e280
    with pytest.raises(DomainError, match="x = 1e\\+290"):
        laplace_ratio(0.3, 1e290, 1e-301)


def test_laplace_ratio_scalar_and_array():
    out = laplace_ratio(1.0, 2.0, np.array([0.5, 1.0]))
    assert out.shape == (2,)
    assert isinstance(laplace_ratio(1.0, 2.0, 1.0), float)


# ---------------------------------------------------------------------
# internal route agreement

@pytest.mark.parametrize("mu,x", [
    (0.0, 2.0), (0.3, 1.2), (0.3, 5.0), (1.0, 2.0),
    (1.5, 2.0), (2.2, 1.2), (2.5, 2.0),
])
def test_direct_vs_substituted_routes(mu, x):
    # where the direct route keeps its digits, the table route agrees
    ev = ev_for(mu, x)
    ts = np.geomspace(0.3, 0.5 * ev.t_switch, 12)
    direct, loss = _j_direct_with_loss(ev, ts)
    keep = loss <= 1e-11
    assert keep.sum() >= 6
    assert np.allclose(_j_table(ev, ts[keep])[0], direct[keep], rtol=5e-10,
                       atol=0.0)


@pytest.mark.parametrize("mu,x", [(0.3, 2.0), (0.6, 2.0), (1.0, 2.0),
                                  (1.4, 5.0), (2.2, 2.0)])
def test_generic_vs_numeric_moment_route(mu, x):
    # q_density_basic recomputes the kernel moments numerically instead
    # of using the closed identities, so agreement validates those
    # identities inside the full pipeline
    ev = ev_for(mu, x)
    ts = np.geomspace(0.05, 50.0, 20)
    a = q_density(ev, ts)
    b = q_density_basic(ev, ts)
    assert np.allclose(a, b, rtol=1e-8)


@pytest.mark.parametrize("mu,x", [
    (0.0, 2.0), (0.3, 2.0), (0.5, 2.0), (1.0, 1.2), (1.0, 5.0),
    (1.5, 2.0), (2.2, 2.0), (2.5, 2.0),
])
def test_density_positive_on_wide_grid(mu, x):
    ev = ev_for(mu, x)
    ts = np.geomspace(1e-2, 1e6, 33)
    assert np.all(q_density(ev, ts) > 0.0)


def test_cancellation_fallback_engages():
    # below t_lo at (9.3, 10) the direct route loses more than its budget
    # (estimate 2.8e-10 at t = 1.62), and the panel below t_lo does not
    # settle; the dispatcher hands the point to the table route
    ev = ev_for(9.3, 10.0)
    ts = np.array([1.62])
    assert ev.t_min <= ts[0] < ev.t_lo
    assert _j_direct_with_loss(ev, ts)[1][0] > density._DIRECT_LOSS_TOL
    got = q_density(ev, ts)
    assert ev._series_below is None
    assert np.array_equal(got, _prefactor(9.0, ts) * _j_table(ev, ts)[0])
    assert got[0] == pytest.approx(q_substituted(ev, 1.62), rel=1e-10,
                                   abs=0.0)
    # in [t_lo, t_switch] the interpolant serves, also where the direct
    # route cancels (at mu = 5 well below t_switch), within 1e-12 of the
    # table route
    ev = build_evaluator(ModelParams(5.0, 3.0))
    ts = np.array([800.0])
    assert ev.t_lo <= ts[0] < ev.t_switch
    assert _j_direct_with_loss(ev, ts)[1][0] > 2e-10
    got = q_density(ev, ts)
    assert np.array_equal(got, _prefactor(2.0, ts)
                          * _j_series(ev._series, ts))
    assert got[0] == pytest.approx(_prefactor(2.0, ts)[0]
                                   * _j_table(ev, ts)[0][0],
                                   rel=1e-12, abs=0.0)
    assert got[0] == pytest.approx(q_substituted(ev, 800.0), rel=1e-10,
                                   abs=0.0)


def series_tolerance(series, source, ts):
    """A panel's match tolerance at ts (see _log_j_series): the
    source's error there plus the one carried from the nodes."""
    y_lo, y_hi, nodes, _ = series
    node_ts = np.exp(y_lo + 0.5 * (y_hi - y_lo) * (1.0 + nodes))
    z = (2.0 * np.log(ts) - (y_lo + y_hi)) / (y_hi - y_lo)
    return _match_tol(_lagrange_basis(nodes, z), source(node_ts)[1],
                      source(ts)[1])


# the benchmark's high-drift pairs, then large x and x near 1
@pytest.mark.parametrize("mu,x", [
    (2.2, 2.0), (2.2, 3.0), (2.5, 2.0), (2.5, 3.0), (3.7, 2.0), (3.7, 3.0),
    (5.3, 2.0), (5.3, 3.0), (7.0, 2.0), (7.0, 3.0), (9.3, 1.5),
    (2.2, 10.0), (7.0, 1.05), (9.3, 1.1)])
def test_log_j_series_matches_the_table(mu, x):
    ev = ev_for(mu, x)
    assert ev._series is not None
    assert ev._series[2].size in (65, 129, 257, 513)
    ts = np.geomspace(ev.t_lo, ev.t_switch, 200)
    rel = np.abs(_j_series(ev._series, ts) / _j_table(ev, ts)[0] - 1.0)
    source = functools.partial(_j_table, ev)
    assert np.all(rel <= 10.0 * series_tolerance(ev._series, source, ts))


# the benchmark's density pairs, low drift then high
BENCHMARK_DENSITY_PAIRS = [
    *itertools.product((0.0, 0.3, 0.8, 1.2), (1.5, 2.0, 3.0)),
    *itertools.product((2.2, 2.5, 3.7, 5.3, 7.0), (2.0, 3.0)), (9.3, 1.5)]


# the panel below t_lo against the values q took there before it, the
# direct route with its handover: at the benchmark's density pairs, and
# next to the hitting level and far from it; where nodes hand over
# (x = 10, 100 at mu = 7) the table's roundoff widens the match
@pytest.mark.filterwarnings("ignore:x within 0.05")
@pytest.mark.parametrize("mu,x", [
    *BENCHMARK_DENSITY_PAIRS, (0.3, 1.0 + 1e-9), (9.3, 1.0 + 1e-9), (0.3, 1.001), (9.3, 1.001),
    (0.3, 10.0), (7.0, 10.0), (0.3, 100.0), (7.0, 100.0)])
def test_log_j_series_below_t_lo_matches_the_direct_route(mu, x):
    ev = ev_for(mu, x)
    series = ev._series_below
    assert series is not None
    assert series[2].size in (33, 65, 129)
    ts = np.geomspace(ev.t_min, ev.t_lo, 200, endpoint=False)
    source = functools.partial(_j_direct_with_handover, ev)
    rel = np.abs(_j_series(series, ts) / source(ts)[0] - 1.0)
    assert np.all(rel <= 10.0 * series_tolerance(series, source, ts))


# next to an odd half-integer the interpolant's match with the table
# stalls at 2e-7 (1.5 + 1e-9) and 5e-7 (3.5 + 1e-9); the table route
# keeps q there
@pytest.mark.parametrize("mu", [1.5 + 1e-9, 3.5 + 1e-9])
def test_no_series_next_to_odd_half_integer(mu):
    ev = build_evaluator(ModelParams(mu, 2.0))
    ts = np.geomspace(ev.t_lo, ev.t_switch, 60)
    _, loss = _j_direct_with_loss(ev, ts)
    handed = loss > density._DIRECT_LOSS_TOL
    assert handed.any()
    got = q_density(ev, ts)
    assert ev._series is None
    assert np.array_equal(got[handed], _prefactor(1.0, ts[handed])
                          * _j_table(ev, ts[handed])[0])


def test_build_evaluator_leaves_the_series_to_first_use():
    # each panel is built on the first point in its interval only: not
    # in build_evaluator, whose time the benchmark reports as setup, and
    # not for points past t_switch, which the table serves
    ev = build_evaluator(ModelParams(7.0, 2.0))
    assert "_series" not in ev.__dict__
    q_density(ev, np.array([2e3, 1e6]))
    assert "_series" not in ev.__dict__
    q_density(ev, 500.0)
    assert ev._series is not None
    assert "_series_below" not in ev.__dict__
    q_density(ev, 0.01)
    assert ev._series_below is not None


def test_direct_route_unchanged_by_the_series():
    # below t_min q is the direct route's, bit for bit, whether or not
    # either panel has been built, and those points build neither
    ev = build_evaluator(ModelParams(7.0, 3.0))
    ts = np.geomspace(ev.t_min / 2.5, ev.t_min, 40, endpoint=False)
    j_val, loss = _j_direct_with_loss(ev, ts)
    assert np.all(loss <= density._DIRECT_LOSS_TOL)
    before = q_density(ev, ts)
    assert "_series" not in ev.__dict__
    assert "_series_below" not in ev.__dict__
    assert np.array_equal(before, _prefactor(2.0, ts) * j_val)
    q_density(ev, np.geomspace(1e-2, ev.t_switch, 200))
    assert ev._series is not None and ev._series_below is not None
    assert np.array_equal(q_density(ev, ts), before)


# the benchmark's density pairs at both drifts, large x and x near 1;
# at (9.3, 10) the panel below t_lo does not settle
@pytest.mark.parametrize("mu,x", [(0.0, 1.5), (0.3, 2.0), (1.2, 3.0),
                                  (2.2, 2.0), (7.0, 2.0), (9.3, 1.5),
                                  (9.3, 10.0), (7.0, 1.05)])
def test_q_density_takes_its_routes_in_order(mu, x):
    # bit for bit, at points inside each interval and at its ends: below
    # t_min the direct route, or the table where its loss passes 2e-12;
    # on [t_min, t_lo) the panel below t_lo where it exists, and the
    # direct route otherwise; on [t_lo, t_switch] the panel above; past
    # t_switch the table
    ev = ev_for(mu, x)
    lo, hi = ev.t_lo, ev.t_switch
    # from t_min / 2.5 on the prefactor, e^{-lam^2/4t}, is not zero
    ts = np.concatenate([np.geomspace(ev.t_min / 2.5, 10.0 * hi, 300),
                         [ev.t_min, lo, hi]])
    got = q_density(ev, ts)
    pre = _prefactor(ev.params.lam, ts)
    below = ts < ev.t_min
    if ev._series_below is None:
        below = ts < lo
    else:
        at = (ts >= ev.t_min) & (ts < lo)
        assert np.count_nonzero(at) >= 10
        assert np.array_equal(got[at],
                              pre[at] * _j_series(ev._series_below, ts[at]))
    j_val, loss = _j_direct_with_loss(ev, ts[below])
    handed = loss > density._DIRECT_LOSS_TOL
    assert np.count_nonzero(~handed) >= 5
    if handed.any():
        j_val[handed] = _j_table(ev, ts[below][handed])[0]
    assert np.array_equal(got[below], pre[below] * j_val)
    table = ts > hi
    assert np.array_equal(got[table], pre[table] * _j_table(ev, ts[table])[0])
    at = (ts >= lo) & (ts <= hi)
    assert np.array_equal(got[at], pre[at] * _j_series(ev._series, ts[at]))


# z lands exactly on the end nodes at t_lo and t_switch, and on many
# interior nodes at their own t, where 1 / (z - node) is infinite; the
# panel below t_lo meets its bottom node at t_min
@pytest.mark.parametrize("mu,x", [(0.3, 2.0), (7.0, 2.0), (9.3, 1.5)])
def test_q_density_on_interpolant_nodes(mu, x):
    ev = ev_for(mu, x)
    y_lo, y_hi, nodes, folded = ev._series
    want = np.exp(folded[:, 0] / folded[:, 1])
    ends = np.array([ev.t_lo, ev.t_switch])
    got = q_density(ev, ends)
    assert np.array_equal(got, _prefactor(ev.params.lam, ends) * want[[-1, 0]])
    node_ts = np.exp(y_lo + 0.5 * (y_hi - y_lo) * (1.0 + nodes[1:-1]))
    got = q_density(ev, node_ts) / _prefactor(ev.params.lam, node_ts)
    assert np.all(np.isfinite(got))
    assert np.count_nonzero(got == want[1:-1]) >= 10
    assert np.allclose(got, want[1:-1], rtol=1e-13, atol=0.0)
    folded = ev._series_below[3]
    assert q_density(ev, ev.t_min) == (_prefactor(ev.params.lam, ev.t_min)
                                       * np.exp(folded[-1, 0] / folded[-1, 1]))


def test_high_drift_density_never_reaches_the_far_origin_law(monkeypatch):
    # the origin law's far branch (u_lo v >= 1) forms c_k Gamma(b) P v^-b
    # in that order since the n = 2 kernel far out needed it; q on the
    # benchmark's high-drift pairs over its t range never reaches that
    # branch (at 5/2 there is no law), so none of its bits moved
    origin = weight._ContinuousKernel._origin
    reach = []

    def recorded(kernel, a, v):
        if kernel.origin_coefs.size:
            reach.append(kernel.u_lo * np.max(v, initial=0.0))
        return origin(kernel, a, v)

    monkeypatch.setattr(weight._ContinuousKernel, "_origin", recorded)
    for mu, x in itertools.chain(
            itertools.product((2.2, 2.5, 3.7, 5.3, 7.0), (2.0, 3.0)),
            [(9.3, 1.5)]):
        q_density(build_evaluator(ModelParams(mu, x)),
                  np.geomspace(1e-2, 1e3, 200))
    assert reach and max(reach) < 1.0


# mu >= 9.5 is left out: there both routes sit about 1e-8 off the
# Talbot inversion of the Laplace transform, through the error of the
# discrete amplitudes A_i, so agreement there would check nothing more
@pytest.mark.slow
@pytest.mark.parametrize("mu", [0.0, 0.3, 0.8, 1.2, 1.5001, 2.2, 3.7, 5.3,
                                7.0, 8.6])
@pytest.mark.parametrize("x", [1.1, 1.5, 3.0, 10.0])
def test_table_route_matches_adaptive_oracle(mu, x):
    ev = build_evaluator(ModelParams(mu, x))
    grid = np.geomspace(0.01, 1e10, 25)
    _, loss = _j_direct_with_loss(ev, grid)
    fallback = grid[(grid > ev.t_switch) | (loss > 2e-10)]
    ts = np.concatenate([fallback, [1e14, 1e17, 1e20]])
    got = q_density(ev, ts)
    for t, g in zip(ts, got):
        assert g == pytest.approx(q_substituted(ev, t), rel=1e-10, abs=0.0)


def q_talbot(mu: float, x: float, t: float) -> float:
    """q(t) by mpmath's Talbot inversion of the Laplace transform
    x^mu K_mu(x sqrt s) / K_mu(sqrt s), at 40 digits."""
    with mp.workdps(40):
        m, xx = mp.mpf(mu), mp.mpf(x)

        def lap(s):
            r = mp.sqrt(s)
            return xx ** m * mp.besselk(m, xx * r) / mp.besselk(m, r)

        return float(mp.invertlaplace(lap, mp.mpf(t), method="talbot"))


def survival_talbot(mu: float, x: float, big_t: float) -> float:
    """P(A(tau) > T) by mpmath's Talbot inversion of (1 - L(sqrt s))/s,
    L(r) = x^mu K_mu(x r) / K_mu(r), at 40 digits."""
    with mp.workdps(40):
        m, xx = mp.mpf(mu), mp.mpf(x)

        def lap(s):
            r = mp.sqrt(s)
            return (1 - xx ** m * mp.besselk(m, xx * r)
                    / mp.besselk(m, r)) / s

        return float(mp.invertlaplace(lap, mp.mpf(big_t), method="talbot"))


# q_talbot at the fixed (mu, x, t) of the tests below, each printed by
# repr(q_talbot(mu, x, t)) with mpmath 1.3.0; recomputing the 15 takes
# about 13 s on a shared 2-vCPU machine, 6.8 s of it at (3, 1.1, 13)
_Q_TALBOT = {
    (2.2, 10.0, 300.0): 1.173321259762243e-05,
    (1.2, 10.0, 20000.0): 1.778246412965335e-08,
    (3.0, 1.1, 13.0): 1.9508293046929676e-07,
    (7.6, 3.0, 1.056): 0.012267551357960614,
    (1.9, 10.0, 1032.0): 8.363938806269167e-07,
    (3.9, 5.0, 15.68): 0.00021806847019959625,
    (0.0, 2.0, 1e14): 1.263448422341457e-17,
    (0.0, 2.0, 1e16): 9.743715658907595e-20,
    (0.0, 2.0, 1e18): 7.741598555607903e-22,
    (0.0, 2.0, 1e30): 2.8354118048165118e-34,
    (0.3, 2.0, 1e14): 7.176697909162864e-20,
    (0.3, 2.0, 1e16): 1.802609891982518e-22,
    (0.3, 2.0, 1e18): 4.527891314680427e-25,
    (0.3, 2.0, 1e30): 1.1373498200907292e-40,
    (0.0, 2.0, 1e99): 2.6487134934460768e-104,
}


@pytest.mark.slow
def test_density_talbot_literals_recompute():
    # the three cheapest new entries, 0.1-0.2 s each
    assert q_talbot(0.3, 2.0, 1e30) == _Q_TALBOT[(0.3, 2.0, 1e30)]
    assert q_talbot(0.3, 2.0, 1e16) == _Q_TALBOT[(0.3, 2.0, 1e16)]
    assert (survival_talbot(1.5, 2.0, 1e10)
            == _SURVIVAL_TALBOT[(1.5, 2.0, 1e10)])


# q along the x-axis of the domain, from next to the hitting level to x =
# 1e4, at t = f lam^2: q_talbot(mu, x, f * lam * lam) printed by repr
# with mpmath 1.3.0, keyed (mu, x, f); recomputing the 192 takes about
# 670 s on a shared 2-vCPU machine, 60-77 s each at mu = 7, f = 0.1
X_AXIS_MUS = (0.0, 0.3, 2.2, 3.7, 5.5, 7.0, 9.3, 9.5)
X_AXIS_FRACS = (0.1, 1.0, 100.0)
_Q_TALBOT_X_AXIS = {
    (0.0, 1.000001, 0.1): 732248762092.5326,
    (0.0, 1.000001, 1.0): 219695534922.32336,
    (0.0, 1.000001, 100.0): 281390294.96472526,
    (0.3, 1.000001, 0.1): 732248981767.0778,
    (0.3, 1.000001, 1.0): 219695600830.941,
    (0.3, 1.000001, 100.0): 281390379.3792517,
    (2.2, 1.000001, 0.1): 732250373040.4213,
    (2.2, 1.000001, 1.0): 219696018251.72684,
    (2.2, 1.000001, 100.0): 281390913.88755476,
    (3.7, 1.000001, 0.1): 732251471415.6073,
    (3.7, 1.000001, 1.0): 219696347793.89224,
    (3.7, 1.000001, 100.0): 281391335.7250042,
    (5.5, 1.000001, 0.1): 732252789467.5703,
    (5.5, 1.000001, 1.0): 219696743243.83826,
    (5.5, 1.000001, 100.0): 281391841.76363444,
    (7.0, 1.000001, 0.1): 732253887845.6561,
    (7.0, 1.000001, 1.0): 219697072784.91617,
    (7.0, 1.000001, 100.0): 281392263.3239014,
    (9.3, 1.000001, 0.1): 732255572027.9475,
    (9.3, 1.000001, 1.0): 219697578080.27554,
    (9.3, 1.000001, 100.0): 281392909.4716044,
    (9.5, 1.000001, 0.1): 732255718478.7279,
    (9.5, 1.000001, 1.0): 219697622018.9475,
    (9.5, 1.000001, 100.0): 281392965.6443619,
    (0.0, 1.001, 0.1): 731883.2961728747,
    (0.0, 1.001, 1.0): 219585.93401070632,
    (0.0, 1.001, 100.0): 281.25675430705115,
    (0.3, 1.001, 0.1): 732102.7777762938,
    (0.3, 1.001, 1.0): 219651.767020046,
    (0.3, 1.001, 100.0): 281.33861399819364,
    (2.2, 1.001, 0.1): 733494.0509795871,
    (2.2, 1.001, 1.0): 220068.25002862184,
    (2.2, 1.001, 100.0): 281.7418779842581,
    (3.7, 1.001, 0.1): 734593.9177163877,
    (3.7, 1.001, 1.0): 220396.4884692702,
    (3.7, 1.001, 100.0): 281.9193503156603,
    (5.5, 1.001, 0.1): 735915.4983915959,
    (5.5, 1.001, 1.0): 220789.71214734332,
    (5.5, 1.001, 100.0): 281.96785404099273,
    (7.0, 1.001, 0.1): 737018.2672702676,
    (7.0, 1.001, 1.0): 221116.84217219806,
    (7.0, 1.001, 100.0): 281.8711583728626,
    (9.3, 1.001, 0.1): 738711.7450471151,
    (9.3, 1.001, 1.0): 221617.4502607444,
    (9.3, 1.001, 100.0): 281.48113606276314,
    (9.5, 1.001, 0.1): 738859.1508490589,
    (9.5, 1.001, 1.0): 221660.92432503693,
    (9.5, 1.001, 100.0): 281.4334204421677,
    (0.0, 1.05, 0.1): 285.85766372076785,
    (0.0, 1.05, 1.0): 85.80889604248968,
    (0.0, 1.05, 100.0): 0.113441159765844,
    (0.3, 1.05, 0.1): 290.0663840524069,
    (0.3, 1.05, 1.0): 87.05640225043533,
    (0.3, 1.05, 100.0): 0.11378580432552919,
    (2.2, 1.05, 0.1): 317.88497825026747,
    (2.2, 1.05, 1.0): 94.49208135855561,
    (2.2, 1.05, 100.0): 0.06786975684255098,
    (3.7, 1.05, 0.1): 341.30800788584116,
    (3.7, 1.05, 1.0): 99.65242371738186,
    (3.7, 1.05, 100.0): 0.023831281795316996,
    (5.5, 1.05, 0.1): 371.18392470161155,
    (5.5, 1.05, 1.0): 104.80100616092373,
    (5.5, 1.05, 100.0): 0.0033823055787046284,
    (7.0, 1.05, 0.1): 397.60376687822645,
    (7.0, 1.05, 1.0): 108.07765582694499,
    (7.0, 1.05, 100.0): 0.0003935348765074942,
    (9.3, 1.05, 0.1): 440.9015956946093,
    (9.3, 1.05, 1.0): 111.08501155395554,
    (9.3, 1.05, 100.0): 6.674794503659534e-06,
    (9.5, 1.05, 0.1): 444.8299108042781,
    (9.5, 1.05, 1.0): 111.22464659468939,
    (9.5, 1.05, 100.0): 4.50712074551845e-06,
    (0.0, 10.0, 0.1): 0.003231701959285744,
    (0.0, 10.0, 1.0): 0.001327127675302976,
    (0.0, 10.0, 100.0): 5.546748134271574e-06,
    (0.3, 10.0, 0.1): 0.006168369454995118,
    (0.3, 10.0, 1.0): 0.0022547501724728574,
    (0.3, 10.0, 100.0): 5.8598017670479645e-06,
    (2.2, 10.0, 0.1): 0.06097534662385693,
    (2.2, 10.0, 1.0): 0.000614973565567024,
    (2.2, 10.0, 100.0): 3.348255485358266e-10,
    (3.7, 10.0, 0.1): 0.08586425037190902,
    (3.7, 10.0, 1.0): 2.7929945071212023e-05,
    (3.7, 10.0, 100.0): 1.5168085270715976e-14,
    (5.5, 10.0, 0.1): 0.05176611753141183,
    (5.5, 10.0, 1.0): 2.683948880280994e-07,
    (5.5, 10.0, 100.0): 3.658481733207723e-20,
    (7.0, 10.0, 0.1): 0.020368346217816493,
    (7.0, 10.0, 1.0): 3.3466268931488115e-09,
    (7.0, 10.0, 100.0): 4.560465061102135e-25,
    (9.3, 10.0, 0.1): 0.0025390992867950213,
    (9.3, 10.0, 1.0): 2.0945943359746175e-12,
    (9.3, 10.0, 100.0): 7.168001863350359e-33,
    (9.5, 10.0, 0.1): 0.002054036225732979,
    (9.5, 10.0, 1.0): 1.0692409643341784e-12,
    (9.5, 10.0, 100.0): 1.4566909231866864e-33,
    (0.0, 30.0, 0.1): 0.00020988244122674475,
    (0.0, 30.0, 1.0): 0.00010117983518929983,
    (0.0, 30.0, 100.0): 5.260262068279694e-07,
    (0.3, 30.0, 0.1): 0.0005259571714092325,
    (0.3, 30.0, 1.0): 0.00021112257060911785,
    (0.3, 30.0, 100.0): 6.054468635168243e-07,
    (2.2, 30.0, 0.1): 0.006469772778838151,
    (2.2, 30.0, 1.0): 4.5377829310899036e-05,
    (2.2, 30.0, 100.0): 2.3560533432678424e-11,
    (3.7, 30.0, 0.1): 0.007472326864017034,
    (3.7, 30.0, 1.0): 1.6593105873626573e-06,
    (3.7, 30.0, 100.0): 8.613230189276445e-16,
    (5.5, 30.0, 0.1): 0.0034992097629273,
    (5.5, 30.0, 1.0): 1.2319802443402996e-08,
    (5.5, 30.0, 100.0): 1.6062359461181766e-21,
    (7.0, 30.0, 0.1): 0.0011130783095180169,
    (7.0, 30.0, 1.0): 1.2394249266316518e-10,
    (7.0, 30.0, 100.0): 1.615896490149724e-26,
    (9.3, 30.0, 0.1): 0.00010002666790734265,
    (9.3, 30.0, 1.0): 5.58291252109367e-14,
    (9.3, 30.0, 100.0): 1.828285108791905e-34,
    (9.5, 30.0, 0.1): 7.864459309437555e-05,
    (9.5, 30.0, 1.0): 2.7695996281404648e-14,
    (9.5, 30.0, 100.0): 3.6107669985043534e-35,
    (0.0, 100.0, 0.1): 1.2619571815770355e-05,
    (0.0, 100.0, 1.0): 6.995483135439513e-06,
    (0.0, 100.0, 100.0): 4.2820994314563084e-08,
    (0.3, 100.0, 0.1): 4.12867637695433e-05,
    (0.3, 100.0, 1.0): 1.781845520289925e-05,
    (0.3, 100.0, 100.0): 5.4098289213189314e-08,
    (2.2, 100.0, 0.1): 0.0005668368782719349,
    (2.2, 100.0, 1.0): 3.5521698759190733e-06,
    (2.2, 100.0, 100.0): 1.820501105001634e-12,
    (3.7, 100.0, 0.1): 0.000610005902663704,
    (3.7, 100.0, 1.0): 1.2089460751099671e-07,
    (3.7, 100.0, 100.0): 6.195770148346009e-17,
    (5.5, 100.0, 0.1): 0.0002622270453309098,
    (5.5, 100.0, 1.0): 8.236871166989903e-10,
    (5.5, 100.0, 100.0): 1.0603465078062478e-22,
    (7.0, 100.0, 0.1): 7.766096671183254e-05,
    (7.0, 100.0, 1.0): 7.714220465630657e-12,
    (7.0, 100.0, 100.0): 9.930623619435917e-28,
    (9.3, 100.0, 0.1): 6.2543382296572926e-06,
    (9.3, 100.0, 1.0): 3.113682515620361e-15,
    (9.3, 100.0, 100.0): 1.0068341114237754e-35,
    (9.5, 100.0, 0.1): 4.870722032626365e-06,
    (9.5, 100.0, 1.0): 1.5299827606813717e-15,
    (9.5, 100.0, 100.0): 1.9695639031365072e-36,
    (0.0, 1000.0, 0.1): 7.51313939492718e-08,
    (0.0, 1000.0, 1.0): 4.9494510963696175e-08,
    (0.0, 1000.0, 100.0): 3.6809829340340473e-10,
    (0.3, 1000.0, 0.1): 3.741369848654959e-07,
    (0.3, 1000.0, 1.0): 1.7283823633302883e-07,
    (0.3, 1000.0, 100.0): 5.476849985527675e-10,
    (2.2, 1000.0, 0.1): 5.600587358339184e-06,
    (2.2, 1000.0, 1.0): 3.3678580881881866e-08,
    (2.2, 1000.0, 100.0): 1.7181347856925947e-14,
    (3.7, 1000.0, 0.1): 5.866062533995149e-06,
    (3.7, 1000.0, 1.0): 1.1154939992967832e-09,
    (3.7, 1000.0, 100.0): 5.6907643042396435e-19,
    (5.5, 1000.0, 0.1): 2.4409002376609484e-06,
    (5.5, 1000.0, 1.0): 7.356490682820505e-12,
    (5.5, 1000.0, 100.0): 9.427011170829762e-25,
    (7.0, 1000.0, 0.1): 7.03538417558138e-07,
    (7.0, 1000.0, 1.0): 6.705150315467167e-14,
    (7.0, 1000.0, 100.0): 8.592347646440362e-30,
    (9.3, 1000.0, 0.1): 5.4348783830530025e-08,
    (9.3, 1000.0, 1.0): 2.59603513000291e-17,
    (9.3, 1000.0, 100.0): 8.356297213980468e-38,
    (9.5, 1000.0, 0.1): 4.21725503938588e-08,
    (9.5, 1000.0, 1.0): 1.2710147859280435e-17,
    (9.5, 1000.0, 100.0): 1.6287480755400335e-38,
    (0.0, 10000.0, 0.1): 5.30098194169039e-10,
    (0.0, 10000.0, 1.0): 3.8409754413355283e-10,
    (0.0, 10000.0, 100.0): 3.2050872747678665e-12,
    (0.3, 10000.0, 0.1): 3.6449661490638608e-09,
    (0.3, 10000.0, 1.0): 1.7197509539811527e-09,
    (0.3, 10000.0, 100.0): 5.51145079442184e-12,
    (2.2, 10000.0, 0.1): 5.593566951452155e-08,
    (2.2, 10000.0, 1.0): 3.350016070829038e-10,
    (2.2, 10000.0, 100.0): 1.7082690722356817e-16,
    (3.7, 10000.0, 0.1): 5.842906876843077e-08,
    (3.7, 10000.0, 1.0): 1.10659070467901e-11,
    (3.7, 10000.0, 100.0): 5.642822698976015e-21,
    (5.5, 10000.0, 0.1): 2.4233966209063097e-08,
    (5.5, 10000.0, 1.0): 7.274155022607129e-14,
    (5.5, 10000.0, 100.0): 9.317339896053303e-27,
    (7.0, 10000.0, 0.1): 6.9660899123404774e-09,
    (7.0, 10000.0, 1.0): 6.612217494862122e-16,
    (7.0, 10000.0, 100.0): 8.469475514335905e-32,
    (9.3, 10000.0, 0.1): 5.359103501615195e-10,
    (9.3, 10000.0, 1.0): 2.5494717249409764e-19,
    (9.3, 10000.0, 100.0): 8.202752089548393e-40,
    (9.5, 10000.0, 0.1): 4.156959083611896e-10,
    (9.5, 10000.0, 1.0): 1.2477678886475801e-19,
    (9.5, 10000.0, 100.0): 1.5982443993177707e-40,
}


# worst 5.9e-11, at (9.5, 1.05, 100); the amplitudes overflowed to nan
# from x = 300 at mu >= 3.7 while they were formed with unscaled K
@pytest.mark.filterwarnings("ignore:x within 0.05")
@pytest.mark.parametrize("x", [1.0 + 1e-6, 1.001, 1.05, 10.0, 30.0, 100.0,
                               1e3, 1e4])
def test_density_along_x_matches_talbot(x):
    lam = x - 1.0
    ts = np.array([f * lam * lam for f in X_AXIS_FRACS])
    for mu in X_AXIS_MUS:
        want = [_Q_TALBOT_X_AXIS[(mu, x, f)] for f in X_AXIS_FRACS]
        assert q_density(build_evaluator(ModelParams(mu, x)), ts) == (
            pytest.approx(want, rel=1e-10, abs=0.0)), mu


@pytest.mark.slow
def test_density_along_x_literals_recompute():
    # two of the cheapest entries, at both ends of the axis, 0.1 s each
    for mu, x, f in [(0.3, 1.0 + 1e-6, 100.0), (9.5, 1e4, 1.0)]:
        lam = x - 1.0
        assert (q_talbot(mu, x, f * lam * lam)
                == _Q_TALBOT_X_AXIS[(mu, x, f)]), (mu, x)


# q at small times, t = f lam^2 inside [t_min, t_lo), where the panel
# below t_lo serves: q_talbot(mu, x, f * lam * lam) printed by repr with
# mpmath 1.3.0, keyed (mu, x, f), over the x of _Q_TALBOT_X_AXIS but
# 1e3 and six of its mu.  Every entry settled: at 55 digits Talbot
# prints the same double.  The 40- and 55-digit inversions of the 84
# took about 1600 s on a shared 2-vCPU machine, up to 260 s each at
# (7, 10, 0.01).
SMALL_T_XS = (1.0 + 1e-6, 1.001, 1.05, 10.0, 30.0, 100.0, 1e4)
SMALL_T_MUS = (0.0, 0.3, 2.2, 3.7, 7.0, 9.3)
SMALL_T_FRACS = (0.003, 0.01)
_Q_TALBOT_SMALL_T = {
    (0.0, 1.000001, 0.003): 1.1053661058653215e-21,
    (0.0, 1.000001, 0.01): 3917.7146745420987,
    (0.3, 1.000001, 0.003): 1.105366437475037e-21,
    (0.3, 1.000001, 0.01): 3917.715849856086,
    (2.2, 1.000001, 0.003): 1.1053685376721974e-21,
    (2.2, 1.000001, 0.01): 3917.723293519364,
    (3.7, 1.000001, 0.003): 1.1053701957253888e-21,
    (3.7, 1.000001, 0.01): 3917.729170105426,
    (7.0, 1.000001, 0.003): 1.1053738434511122e-21,
    (7.0, 1.000001, 0.01): 3917.7420986251705,
    (9.3, 1.000001, 0.003): 1.1053763858124802e-21,
    (9.3, 1.000001, 0.01): 3917.751109436385,
    (0.0, 1.001, 0.003): 1.1048143900325745e-27,
    (0.0, 1.001, 0.01): 0.0039157592521387756,
    (0.3, 1.001, 0.003): 1.105145718111676e-27,
    (0.3, 1.001, 0.01): 0.003916933565470877,
    (2.2, 1.001, 0.003): 1.1072464240817839e-27,
    (2.2, 1.001, 0.01): 0.003924378901893739,
    (3.7, 1.001, 0.003): 1.1089076794542265e-27,
    (3.7, 1.001, 0.01): 0.003930266594169172,
    (7.0, 1.001, 0.003): 1.1125711671885728e-27,
    (7.0, 1.001, 0.01): 0.003943250004811889,
    (9.3, 1.001, 0.003): 1.1151316190404818e-27,
    (9.3, 1.001, 0.01): 0.003952323895353896,
    (0.0, 1.05, 0.003): 4.314917313098787e-31,
    (0.0, 1.05, 0.01): 1.5293290734947354e-06,
    (0.3, 1.05, 0.003): 4.378536640697945e-31,
    (0.3, 1.05, 0.01): 1.5518752426139505e-06,
    (2.2, 1.05, 0.003): 4.803678417904669e-31,
    (2.2, 1.05, 0.01): 1.7024227072694705e-06,
    (3.7, 1.05, 0.003): 5.168094292957096e-31,
    (3.7, 1.05, 0.01): 1.831301821762447e-06,
    (7.0, 1.05, 0.003): 6.069397932313311e-31,
    (7.0, 1.05, 0.01): 2.149412875076328e-06,
    (9.3, 1.05, 0.003): 6.788357975671425e-31,
    (9.3, 1.05, 0.01): 2.40252516361818e-06,
    (0.0, 10.0, 0.003): 4.340960004470824e-36,
    (0.0, 10.0, 0.01): 1.5581582351250878e-11,
    (0.3, 10.0, 0.003): 8.642961136023541e-36,
    (0.3, 10.0, 0.01): 3.08821852737774e-11,
    (2.2, 10.0, 0.003): 6.137288714871511e-34,
    (2.2, 10.0, 0.01): 1.7277921158574187e-09,
    (3.7, 10.0, 0.003): 1.5756988854409314e-32,
    (3.7, 10.0, 0.01): 2.877249699034042e-08,
    (7.0, 10.0, 0.003): 1.3771593023547173e-29,
    (7.0, 10.0, 0.01): 5.050188586249141e-06,
    (9.3, 10.0, 0.003): 1.155389093539835e-27,
    (9.3, 10.0, 0.01): 9.08607171608479e-05,
    (0.0, 30.0, 0.003): 2.4467034623499516e-37,
    (0.0, 30.0, 0.01): 8.997712931531083e-13,
    (0.3, 30.0, 0.003): 6.740336128622624e-37,
    (0.3, 30.0, 0.01): 2.4459645799101857e-12,
    (2.2, 30.0, 0.003): 2.9935895776477464e-34,
    (2.2, 30.0, 0.01): 5.62238127258289e-10,
    (3.7, 30.0, 0.003): 2.5211367279460254e-32,
    (3.7, 30.0, 0.01): 1.6452635088245614e-08,
    (7.0, 30.0, 0.003): 1.5194086114892528e-28,
    (7.0, 30.0, 0.01): 4.268948746537227e-06,
    (9.3, 30.0, 0.003): 3.1739196535038915e-26,
    (9.3, 30.0, 0.01): 7.405259133162928e-05,
    (0.0, 100.0, 0.003): 1.1964279001526895e-38,
    (0.0, 100.0, 0.01): 4.634213827774384e-14,
    (0.3, 100.0, 0.003): 4.6626786401686907e-38,
    (0.3, 100.0, 0.01): 1.7485728041505664e-13,
    (2.2, 100.0, 0.003): 1.0092686423947947e-34,
    (2.2, 100.0, 0.01): 1.007281324010956e-10,
    (3.7, 100.0, 0.003): 1.690688044075375e-32,
    (3.7, 100.0, 0.01): 3.3410130849075467e-09,
    (7.0, 100.0, 0.003): 2.0041436001224319e-28,
    (7.0, 100.0, 0.01): 8.384992116781093e-07,
    (9.3, 100.0, 0.003): 4.9742117298259545e-26,
    (9.3, 100.0, 0.01): 1.3436424513328319e-05,
    (0.0, 10000.0, 0.003): 2.5062024470780207e-43,
    (0.0, 10000.0, 0.01): 1.2755707252601809e-18,
    (0.3, 10000.0, 0.003): 2.896179103774177e-42,
    (0.3, 10000.0, 0.01): 1.2633674484043917e-17,
    (2.2, 10000.0, 0.003): 3.224276209089868e-38,
    (2.2, 10000.0, 0.01): 1.493173793509517e-14,
    (3.7, 10000.0, 0.003): 6.481519810626618e-36,
    (3.7, 10000.0, 0.01): 4.932298239037086e-13,
    (7.0, 10000.0, 0.003): 8.194657860610358e-32,
    (7.0, 10000.0, 0.01): 1.1732996259340886e-10,
    (9.3, 10000.0, 0.003): 2.0056430794012624e-29,
    (9.3, 10000.0, 0.01): 1.8009924250109632e-09,
}


# worst 1.1e-11, at (9.3, 10, 0.01), where the panel below t_lo does not
# settle and the table takes the point over from the direct route
@pytest.mark.filterwarnings("ignore:x within 0.05")
@pytest.mark.parametrize("x", SMALL_T_XS)
def test_density_at_small_t_matches_talbot(x):
    lam = x - 1.0
    ts = np.array([f * lam * lam for f in SMALL_T_FRACS])
    for mu in SMALL_T_MUS:
        ev = build_evaluator(ModelParams(mu, x))
        assert np.all((ts >= ev.t_min) & (ts < ev.t_lo))
        want = [_Q_TALBOT_SMALL_T[(mu, x, f)] for f in SMALL_T_FRACS]
        assert q_density(ev, ts) == pytest.approx(want, rel=1e-10,
                                                  abs=0.0), mu


@pytest.mark.slow
def test_density_at_small_t_literals_recompute():
    # two of the cheapest entries, 0.1-0.2 s each
    for mu, x, f in [(7.0, 1.0 + 1e-6, 0.01), (9.3, 1.001, 0.003)]:
        lam = x - 1.0
        assert (q_talbot(mu, x, f * lam * lam)
                == _Q_TALBOT_SMALL_T[(mu, x, f)]), (mu, x)


# at half-integer mu the kernel is e^{z v} terms alone, which a single
# quadrature panel from 10 (1 + lam) to 0.5 sqrt(T) used to miss
@pytest.mark.parametrize("mu", [0.3, 1.2, 1.5, 2.5, 3.5])
@pytest.mark.parametrize("big_t", [1e8, 1e10])
def test_far_survival_matches_talbot(mu, big_t):
    assert survival(ev_for(mu, 2.0), big_t) == pytest.approx(
        _SURVIVAL_TALBOT[(mu, 2.0, big_t)], rel=1e-12, abs=0.0)


# past t ~ 6e13 the table reaches beyond v = 1e8, where w2 is carried
# by the small-u law of h below the u-grid
@pytest.mark.parametrize("mu", [0.0, 0.3])
@pytest.mark.parametrize("t", [1e14, 1e16, 1e18, 1e30])
def test_far_tail_matches_talbot(mu, t):
    ev = ev_for(mu, 2.0)
    assert q_density(ev, t) == pytest.approx(_Q_TALBOT[(mu, 2.0, t)],
                                             rel=1e-10, abs=0.0)


@pytest.mark.xfail(strict=True, reason="within about 1e-7 of an odd "
                   "half-integer the density is off by up to 2.1e-6 and "
                   "nothing is raised (ROADMAP items 6 and 9)")
def test_density_next_to_odd_half_integer_matches_talbot():
    mu = 1.5 + 1e-9
    assert q_density(ev_for(mu, 2.0), 5.0) == pytest.approx(
        q_talbot(mu, 2.0, 5.0), rel=1e-8, abs=0.0)


# q_talbot(1.5 + 1e-6, 2, t) printed by repr with mpmath 1.3.0 (55 digits
# agree); there the interpolant above t_lo does not settle, so the
# direct route with its handover serves every t up to t_switch
_Q_TALBOT_NEAR_THREE_HALVES = {
    0.1: 1.3399506269284585,
    1.0: 0.2504509392405929,
    10.0: 0.0024428208115413953,
    100.0: 9.59728771825069e-06,
}


# 8.3e-14, 5.1e-12, 3.3e-10 and 1.3e-13 off at t = 0.1, 1, 10 and 100
@pytest.mark.parametrize("t", [
    0.1, 1.0,
    pytest.param(10.0, marks=pytest.mark.xfail(
        strict=True, reason="3.3e-10 off Talbot at mu = 1.5 + 1e-6, past "
        "the 1e-10 q_density states (ROADMAP items 6 and 9)")),
    100.0])
def test_density_at_three_halves_plus_1e6_matches_talbot(t):
    ev = ev_for(1.5 + 1e-6, 2.0)
    assert q_density(ev, t) == pytest.approx(
        _Q_TALBOT_NEAR_THREE_HALVES[t], rel=1e-10, abs=0.0)
    assert ev._series is None


# the kernel's origin piece divides the absolute error of cos(pi mu) by
# 2 (mu - l + 1/2); with cos(pi mu) from np.cos these were 2.1e-5 to
# 2.1e-4 off (1.5e-6 at 9/2 + 1e-10), by the reduced argument at most
# 7e-16; (1.2, 2, 1000) is 1.3e-15 off
@pytest.mark.parametrize("mu,t", [(0.5 + 2e-12, 3e3), (2.5 + 2e-12, 3e3),
                                  (4.5 + 2e-12, 1e5), (4.5 + 1e-10, 1e5),
                                  (1.2, 1e3)])
def test_density_next_to_even_half_integer_matches_talbot(mu, t):
    assert q_density(ev_for(mu, 2.0), t) == pytest.approx(
        q_talbot(mu, 2.0, t), rel=1e-13, abs=0.0)


# direct values 1.3e-9 to 4.8e-8 off Talbot whose loss estimate read
# under 2e-10 until it counted the error of the kernel product (now
# the roundoff of its terms: 1.5e-10 to 6.7e-10, past the 2e-12 of the
# handover).  The upper panel serves five; at (7.6, 3) it does not
# settle, and the direct route hands t = 1.056 to the table
@pytest.mark.parametrize("mu,x,t", [
    (2.2, 10.0, 300.0), (1.2, 10.0, 2e4), (3.0, 1.1, 13.0),
    (7.6, 3.0, 1.056), (1.9, 10.0, 1032.0), (3.9, 5.0, 15.68)])
def test_direct_loss_estimate_hands_over_at_large_x(mu, x, t):
    assert q_density(ev_for(mu, x), t) == pytest.approx(
        _Q_TALBOT[(mu, x, t)], rel=1e-9, abs=0.0)


def test_direct_loss_overflow_hands_the_point_over():
    # at (7, 1e4) the pieces of J cancel to nearly 0 from t = lam^2 on,
    # and the loss ratio may overflow to inf, without a RuntimeWarning
    ev = ev_for(7.0, 1e4)
    _, loss = _j_direct_with_loss(ev, (1e4 - 1.0) ** 2
                                  * np.array([1.0, 10.0, 1e2, 1e3]))
    assert np.all(loss > density._DIRECT_LOSS_TOL)
    assert np.isinf(loss).any()


@pytest.mark.parametrize("mu,x", [(5.0, 2.0), (7.0, 2.0), (9.3, 2.0),
                                  (8.7, 3.0)])
def test_table_route_holds_at_small_t(mu, x):
    # E_l cancels by up to 1e15 at t = 0.01 and high drift; the table
    # route takes the lower subtraction E_j there and must meet the
    # direct route wherever that one's loss estimate is below 1e-12
    # (with E_l alone: 2.4e-9 off at (5, 2), 1e-5 at (7, 2), 1.6e-2 at
    # (9.3, 2) and 53 % at (8.7, 3); now at most 1.8e-11)
    ev = ev_for(mu, x)
    ts = np.geomspace(1e-2, 3.0, 40)
    direct, loss = _j_direct_with_loss(ev, ts)
    keep = loss <= 1e-12
    assert np.count_nonzero(keep) >= 15
    assert np.allclose(_j_table(ev, ts[keep])[0], direct[keep], rtol=1e-10,
                       atol=0.0)


# each t gets its own ratio-2 panels past the table's top, so one call
# over several t gives each t's single-point value
@pytest.mark.parametrize("mu,x", [(0.3, 2.0), (2.2, 2.0), (7.0, 3.0)])
def test_table_route_value_does_not_depend_on_the_other_points(mu, x):
    ev = ev_for(mu, x)
    ts = np.array([5e3, 1e14, 1e17, 1e20, 1e30])
    assert np.array_equal(q_density(ev, ts), [q_density(ev, t) for t in ts])


def test_table_route_memory_is_chunk_sized():
    # 4000 t past t_switch: one table product over all of them peaked at
    # 406 MB; the table takes 64 t at a time
    ev = ev_for(7.0, 2.0)
    ts = np.geomspace(2e3, 1e9, 4000)
    q_density(ev, ts[0])    # the table is built on first use
    tracemalloc.start()
    try:
        q_density(ev, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# past a large cut the kappa-moment tails met 0 * inf (NaN at t = 1e30,
# (9.3, 1.5)) and Python's OverflowError (t = 1e32); now q meets its
# tail law until the law underflows and raises DomainError only beyond
@pytest.mark.parametrize("mu,x", [(3.7, 2.0), (5.3, 2.0), (7.0, 2.0),
                                  (9.3, 1.5), (9.3, 3.0)])
def test_far_density_meets_tail_law_or_raises_domain_error(mu, x):
    ev = ev_for(mu, x)
    c = tail_constant(ev).value
    for k in range(14, 121):
        t = 10.0 ** k
        law = c * t ** (-mu - 1.0)
        try:
            got = q_density(ev, t)
        except DomainError:
            assert law < 1e-280, t
            continue
        assert not math.isnan(got), t
        if law >= 1e-280:
            assert got == pytest.approx(law, rel=1e-8, abs=0.0), t


@pytest.mark.parametrize("mu,x", [(3.7, 2.0), (5.3, 2.0), (7.0, 2.0),
                                  (9.3, 1.5), (9.3, 3.0)])
def test_far_survival_is_finite_or_raises_domain_error(mu, x):
    ev = ev_for(mu, x)
    for big_t in (1e14, 1e30, 1e32, 1e45, 1e60, 1e75):
        try:
            got = survival(ev, big_t)
        except DomainError:
            continue
        assert math.isfinite(got), big_t


def test_table_integral_underflowed_rows_stay_quiet():
    # every summand of the row underflows (norm 0): the row stays at
    # order l_terms without taking log 0, and the value is the law's 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert q_density(ev_for(5.3, 2.0), 1e56) == 0.0
        assert poisson.kernel_closed(
            poisson.PoissonParams(2, ModelParams(5.3, 2.0), 1e30)) == 0.0


def test_driftless_far_tail_reach():
    # at mu = 0 the u-grid resolves w2 for v up to 1e51, which the
    # table reaches at t of about 2e99 (x = 2); beyond, DomainError
    ev = ev_for(0.0, 2.0)
    assert q_density(ev, 1e99) == pytest.approx(_Q_TALBOT[(0.0, 2.0, 1e99)],
                                                rel=1e-10, abs=0.0)
    with pytest.raises(DomainError):
        q_density(ev, 1e120)


def test_table_route_work_budget(monkeypatch):
    # one product per call on a grid built once per evaluator: no
    # quadrature, kernel rows only for the grid itself, none the
    # second time (per-point quadrature spends about 1000 per point)
    def no_quadrature(*args, **kwargs):
        raise AssertionError("q_density ran adaptive quadrature")

    rows = []
    w2 = weight._ContinuousKernel.w2

    def counted_w2(kernel, v):
        rows.append(np.size(v))
        return w2(kernel, v)

    monkeypatch.setattr(density, "integrate_finite", no_quadrature)
    monkeypatch.setattr(weight._ContinuousKernel, "w2", counted_w2)
    ev = build_evaluator(ModelParams(7.0, 2.0))
    ts = np.geomspace(1.0, 1e3, 100)
    _, loss = _j_direct_with_loss(ev, ts)
    assert np.count_nonzero(loss > 2e-10) >= 50
    first = q_density(ev, ts)
    first_rows = sum(rows)
    second = q_density(ev, ts)
    assert 0 < first_rows <= 4000
    assert sum(rows) == first_rows
    assert np.array_equal(first, second)


def test_benchmark_density_curves_take_only_the_interpolant(monkeypatch):
    # the first curve over the benchmark's t range builds both panels
    # from the direct route and the table; every later point comes from
    # a panel, so neither route runs again
    calls = []

    def counted(f):
        def run(*args):
            calls.append(f.__name__)
            return f(*args)
        return run

    for name in ("_j_direct_with_loss", "_j_table"):
        monkeypatch.setattr(density, name, counted(getattr(density, name)))
    ts = np.geomspace(1e-2, 1e3, 1000)
    for mu, x in BENCHMARK_DENSITY_PAIRS:
        ev = build_evaluator(ModelParams(mu, x))
        q_density(ev, ts)
        assert calls, (mu, x)
        calls.clear()
        q_density(ev, ts)
        assert not calls, (mu, x)


def test_w2_interpolant_is_built_on_first_use():
    # the evaluator's set-up leaves the kernel's interpolant of w2
    # unbuilt; the first value of w builds it, and a half-integer kernel,
    # which has no continuous part, never builds one
    ev = build_evaluator(ModelParams(2.2, 2.0))
    assert "_w2_panels" not in vars(ev.w._kernel)
    ev.w.eval(1.0)
    assert "_w2_panels" in vars(ev.w._kernel)
    half = build_evaluator(ModelParams(2.5, 2.0))
    assert np.all(half.w.w2_exact(np.geomspace(1e-3, 1e13, 50)) == 0.0)
    q_density(half, np.geomspace(1e-2, 1e5, 50))
    assert "_w2_panels" not in vars(half.w._kernel)


@pytest.mark.parametrize("mu,budget,grid_nodes", [(0.3, 130, 1416),
                                                  (0.0, 130, 2377)])
def test_direct_route_work_budget(monkeypatch, mu, budget, grid_nodes):
    # the direct route's erfcx product runs over the grid's live nodes
    # (1196 and 1025 of them here), plus one erfcx per point for the
    # bound on the nodes below them; over a 1000-point curve it serves
    # only the lower panel's 65 nodes, under `budget` erfcx per curve
    # point.  The stored grid ends where its mass does, and w2, the
    # moment tails and the benchmark's tracer all read that one node set
    evals, points = [], []
    erfcx = weight.sp.erfcx
    direct = density._j_direct_with_loss

    def counted_erfcx(z, *args, **kwargs):
        evals.append(np.size(z))
        return erfcx(z, *args, **kwargs)

    def counted_direct(ev, ts):
        points.append(ts.size)
        return direct(ev, ts)

    monkeypatch.setattr(weight.sp, "erfcx", counted_erfcx)
    monkeypatch.setattr(density, "_j_direct_with_loss", counted_direct)
    ev = build_evaluator(ModelParams(mu, 2.0))
    ts = np.geomspace(1e-2, 1e3, 1000)
    assert np.all(ts <= ev.t_switch)
    q_density(ev, ts)
    kern = ev.w._kernel
    assert kern.u.size == grid_nodes
    assert sum(points) == ev._series_below[2].size == 65
    assert sum(evals) == (kern.u[kern.live].size + 1) * sum(points)
    assert sum(evals) <= budget * ts.size


# over mu <= 1.2, x <= 3 the direct route keeps nearly every point up
# to t_switch (not all: at (1.2, 3) it hands over t above about 1.7e3);
# past that range the handover is checked at single points against
# Talbot (test_direct_loss_estimate_hands_over_at_large_x); subnormal
# drifts are outside the domain of ModelParams
@settings(max_examples=40, deadline=None, database=None)
@seed(503060)
@given(mu=st.floats(0.0, 1.2, allow_subnormal=False),
       x=st.floats(1.1, 3.0), frac=st.floats(0.0, 1.0))
def test_direct_route_agrees_with_table_route(mu, x, frac):
    # a point the direct route keeps (loss estimate at most 2e-10) must
    # agree with the table route, which shares only the kernel with it
    assume(abs(mu - 0.5) > 1e-3)
    ev = build_evaluator(ModelParams(mu, x))
    ts = np.array([1e-2 * (ev.t_switch / 1e-2) ** frac])
    got, loss = _j_direct_with_loss(ev, ts)
    assume(loss[0] <= 2e-10)
    assert got[0] == pytest.approx(_j_table(ev, ts)[0][0], rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------
# master consistency: transform of the density vs the closed ratio

_LAPLACE_SPOTS = [
    (0.0, 2.0, 1.0),
    (0.3, 1.2, 0.25),
    (0.5, 2.0, 1.0),
    (1.0, 1.2, 0.5),
    (1.5, 5.0, 4.0),
    (2.2, 5.0, 2.0),
    (2.5, 2.0, 0.5),
]


@pytest.mark.parametrize("mu,x,r", _LAPLACE_SPOTS)
def test_laplace_spot_checks(mu, x, r):
    ev = ev_for(mu, x)
    want = laplace_ratio(mu, x, r)
    assert laplace_by_tail_mass(ev, r) == pytest.approx(want, rel=1e-10,
                                                        abs=0.0)
    assert laplace_by_quadrature(ev, r) == pytest.approx(want, abs=1e-8,
                                                         rel=1e-8)


# at small r the swap takes (M0 - w_hat(r))/r as one transform, that of
# the kernel's tail mass, so nothing cancels; at r = 50 the transform is
# as small as 7e-87 and is still checked relative
@pytest.mark.parametrize("mu,x", [(mu, x) for mu, x, _ in _LAPLACE_SPOTS])
@pytest.mark.parametrize("r", [1e-4, 50.0])
def test_laplace_swap_at_small_and_large_r(mu, x, r):
    got = laplace_by_tail_mass(ev_for(mu, x), r)
    assert got == pytest.approx(laplace_ratio(mu, x, r), rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------
# mass and survival

@pytest.mark.parametrize("mu", [0.0, 0.3, 0.5, 1.0, 1.5, 2.2, 2.5, 3.7, 5.0])
@pytest.mark.parametrize("x", [1.2, 2.0, 5.0])
def test_total_mass_is_one(mu, x):
    assert total_mass(ev_for(mu, x)) == pytest.approx(1.0, abs=1e-10)


# the first moment of w2 draws a share of order one from below the
# u-grid at small drift, where h is far from its leading power law
@pytest.mark.parametrize("mu", [0.001, 0.01, 0.1])
@pytest.mark.parametrize("x", [1.5, 3.0])
def test_total_mass_is_one_at_small_drift(mu, x):
    assert total_mass(ev_for(mu, x)) == pytest.approx(1.0, abs=1e-11)


def test_total_mass_raises_where_the_small_u_law_is_cut():
    # below mu of about 0.00095 the 400 terms kept of the small-u law of
    # h leave out more than 1e-11 of the first moment (1 - 2.6e-3 at
    # mu = 1e-4); the moment comes with the error, also at the smallest
    # drifts, where the bound on the terms left out tends to a limit
    for mu in _TINY_DRIFTS:
        with pytest.raises(ConvergenceError) as info:
            total_mass(ev_for(mu, 2.0))
        assert info.value.err_est > 1e-11
        assert np.isfinite(info.value.estimate), mu


def normalization_check(ev) -> float:
    """Total mass the long way: quadrature of q plus exact completion.

    Integrates the density itself over [0, T] with T past the bulk,
    then adds :func:`survival`.  Unlike :func:`total_mass` this
    exercises the full pointwise density pipeline.
    """
    lam = ev.params.lam
    big_t = 100.0 * max(1.0, lam * lam)
    splits = tuple(s for s in (0.05 * lam * lam, 0.25 * lam * lam,
                               lam * lam, 1.0, 10.0) if 0.0 < s < big_t)
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-10, max_subdivisions=768,
                          split_points=splits)
    res = integrate_finite(lambda ts: q_density(ev, ts), 0.0, big_t, spec)
    return res.value + survival(ev, big_t)


@pytest.mark.parametrize("mu,x", [(0.3, 1.2), (1.0, 2.0), (2.5, 2.0)])
def test_normalization_through_density(mu, x):
    assert normalization_check(ev_for(mu, x)) == pytest.approx(1.0, abs=5e-9)


def test_survival_half_drift_is_erf():
    ev = ev_for(0.5, 3.0)
    for big_t in (0.1, 1.0, 25.0, 1e4):
        want = math.erf(2.0 / (2.0 * math.sqrt(big_t)))
        assert survival(ev, big_t) == pytest.approx(want, rel=1e-13)


# past survival's cut v_hi = 12 sqrt(T) + 50 (1 + lam) erf has
# saturated, so 2 sqrt(T) f there is linear in v and survival's far part
# is two kernel moment tails
@pytest.mark.parametrize("lam,big_t", [(1.0, 5.0), (0.5, 60.0), (9.0, 0.2),
                                       (1.0, 1e4)])
def test_survival_far_part_is_linear(lam, big_t):
    closed, coefs = density._survival_remainder(lam * lam / (4.0 * big_t))
    v = (12.0 * math.sqrt(big_t) + 50.0 * (1.0 + lam)) * np.array(
        [1.0, 1.5, 4.0, 1e3, 1e6])
    got = 2.0 * math.sqrt(big_t) * (closed(v * (2.0 * lam + v)
                                           / (4.0 * big_t)) + coefs[0])
    np.testing.assert_allclose(got, -SQRT_PI * (lam + v), rtol=1e-14, atol=0)


def test_survival_at_zero_is_total_mass():
    ev = ev_for(1.0, 2.0)
    assert survival(ev, 0.0) == total_mass(ev)


# from T = 1e-6 down (z0 = lam^2/4T >= 62500 here) the mass below T is
# under 1e-17, so survival is the total mass, for float and numpy T alike
@pytest.mark.parametrize("mu", [0.0, 1.2, 2.2, 7.0, 9.3])
@pytest.mark.parametrize("x", [1.5, 2.0, 10.0])
def test_survival_at_tiny_t_is_total_mass(mu, x):
    ev = ev_for(mu, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [survival(ev, kind(big_t)) for kind in (float, np.float64)
               for big_t in (1e-6, 1e-50, 1e-163, 1e-300)]
    np.testing.assert_allclose(got, total_mass(ev), rtol=0.0, atol=1e-14)


_SMALL_T_CANCELS = pytest.mark.xfail(
    strict=True, reason="survival's remainder cancels at high drift and "
    "small T; the table route of ROADMAP item 1 mends it")


@pytest.mark.parametrize("mu,big_t", [
    *[(mu, t) for mu in (1.2, 2.2, 3.7, 5.3)
      for t in (0.1, 0.03, 0.01, 3e-3, 1e-3)],
    *[pytest.param(mu, t, marks=_SMALL_T_CANCELS)
      for mu in (7.0, 9.3) for t in (0.03, 0.01)],
])
def test_survival_at_small_t_is_mass_less_density_integral(mu, big_t):
    ev = ev_for(mu, 2.0)
    head = sint.quad(lambda t: q_density(ev, t), 0.0, big_t, epsabs=0.0,
                     epsrel=1e-12, limit=200)[0]
    assert survival(ev, big_t) == pytest.approx(total_mass(ev) - head,
                                                rel=1e-11, abs=0.0)


@pytest.mark.parametrize("mu,x", [(0.3, 2.0), (1.0, 2.0), (2.2, 1.2)])
def test_survival_decreasing(mu, x):
    ev = ev_for(mu, x)
    vals = [survival(ev, t) for t in (0.0, 0.5, 2.0, 10.0, 1e2, 1e4, 1e6)]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


# from s = kappa/4T = 0.1 on survival's remainder takes its difference
# route, which still cancels to the first surviving term s^{l+1}/(l+1)!;
# at high drift that loses digits
_SURVIVAL_CANCELS = pytest.mark.xfail(
    strict=True, reason="survival's closed form cancels at high drift")


@pytest.mark.parametrize("mu,x", [
    (0.3, 2.0), (1.0, 2.0), (2.2, 2.0),
    pytest.param(7.0, 2.0, marks=_SURVIVAL_CANCELS),
])
def test_survival_consistent_with_density_integral(mu, x):
    ev = ev_for(mu, x)
    t_lo, t_hi = 5.0, 50.0
    res = sint.quad(lambda t: q_density(ev, t), t_lo, t_hi,
                    epsabs=1e-13, epsrel=1e-12, limit=200)
    diff = survival(ev, t_lo) - survival(ev, t_hi)
    # relative only: at mu = 7 the mass is 2e-9, under which approx's
    # default absolute tolerance of 1e-12 would pass any error
    assert diff == pytest.approx(res[0], rel=1e-9, abs=0.0)


def test_survival_positive_far_in_high_drift_tail():
    # Talbot inversion of the Laplace transform gives 2.02844e-32 here;
    # the cancellation above leaves the value 4.6e-3 off
    val = survival(ev_for(9.3, 2.0), 600.0)
    assert val > 0.0
    assert val == pytest.approx(2.0284383934089e-32, rel=1e-2, abs=0.0)


# survival_talbot at the (mu, x, T) of the sweep below and of
# test_far_survival_matches_talbot, each printed by
# repr(survival_talbot(mu, x, T)) with mpmath 1.3.0; recomputing the
# sweep's 40 takes about 64 s on a shared 2-vCPU machine, 50-56 s of it
# at (0, 1.5, 0.05) and (0, 3, 0.05), so they are kept as literals
_SURVIVAL_TALBOT = {
    (0.3, 2.0, 1e8): 0.0015126486255029768,
    (0.3, 2.0, 1e10): 0.00037932835686947056,
    (1.2, 2.0, 1e8): 1.8478564895217346e-10,
    (1.2, 2.0, 1e10): 7.356449414831324e-13,
    (1.5, 2.0, 1e8): 6.582211693808768e-13,
    (1.5, 2.0, 1e10): 6.582211806914673e-16,
    (2.5, 2.0, 1e8): 2.914979480350575e-21,
    (2.5, 2.0, 1e10): 2.914979514650279e-26,
    (3.5, 2.0, 1e8): 8.53000908253259e-30,
    (3.5, 2.0, 1e10): 8.530009178856207e-37,
    (0.0, 1.5, 0.05): 0.9065670208262838,
    (0.0, 1.5, 5.0): 0.25418115440011013,
    (0.0, 1.5, 50.0): 0.15737069214863195,
    (0.0, 1.5, 10000.0): 0.07944353057592408,
    (0.0, 3.0, 0.05): 0.9999999998528071,
    (0.0, 3.0, 5.0): 0.6682059322603794,
    (0.0, 3.0, 50.0): 0.42544600121369774,
    (0.0, 3.0, 10000.0): 0.215251826599326,
    (0.3, 1.5, 0.05): 0.8946763817001055,
    (0.3, 1.5, 5.0): 0.1710740783968352,
    (0.3, 1.5, 50.0): 0.07398128964414694,
    (0.3, 1.5, 10000.0): 0.013231124805704595,
    (0.3, 3.0, 0.05): 0.9999999997956289,
    (0.3, 3.0, 5.0): 0.5529305627350513,
    (0.3, 3.0, 50.0): 0.24956223008123227,
    (0.3, 3.0, 10000.0): 0.04482827563598963,
    (1.2, 1.5, 0.05): 0.8524305675529482,
    (1.2, 1.5, 5.0): 0.03201607835447549,
    (1.2, 1.5, 50.0): 0.0024885276474677963,
    (1.2, 1.5, 10000.0): 4.4852192900834905e-06,
    (1.2, 3.0, 0.05): 0.9999999994620128,
    (1.2, 3.0, 5.0): 0.2243316572108741,
    (1.2, 3.0, 50.0): 0.01934172142927132,
    (1.2, 3.0, 10000.0): 3.532673852736175e-05,
    (2.2, 1.5, 0.05): 0.7934781880369765,
    (2.2, 1.5, 5.0): 0.0022865057513933216,
    (2.2, 1.5, 50.0): 1.7351091269140968e-05,
    (2.2, 1.5, 10000.0): 1.5340701434258883e-10,
    (2.2, 3.0, 0.05): 0.9999999984685843,
    (2.2, 3.0, 5.0): 0.0475506263804975,
    (2.2, 3.0, 50.0): 0.0004278327367933268,
    (2.2, 3.0, 10000.0): 3.861156698545237e-09,
    (3.7, 1.5, 0.05): 0.6826278562040842,
    (3.7, 1.5, 5.0): 1.611536572349599e-05,
    (3.7, 1.5, 50.0): 3.72872699229899e-09,
    (3.7, 1.5, 10000.0): 1.1610289199186491e-17,
    (3.7, 3.0, 0.05): 0.9999999930579544,
    (3.7, 3.0, 5.0): 0.0022293966407519687,
    (3.7, 3.0, 50.0): 6.456788060269346e-07,
    (3.7, 3.0, 10000.0): 2.0627653167125936e-15,
}


# worst 2.5e-11, at (3.7, 1.5, 50)
@pytest.mark.parametrize("mu", [0.0, 0.3, 1.2, 2.2, 3.7])
@pytest.mark.parametrize("x", [1.5, 3.0])
@pytest.mark.parametrize("big_t", [0.05, 5.0, 50.0, 1e4])
def test_survival_matches_talbot_sweep(mu, x, big_t):
    assert survival(ev_for(mu, x), big_t) == pytest.approx(
        _SURVIVAL_TALBOT[(mu, x, big_t)], rel=1e-10, abs=0.0)


@pytest.mark.slow
def test_survival_talbot_literals_recompute():
    # the three cheapest entries, about 0.2 s each
    for key in [(1.2, 1.5, 1e4), (2.2, 1.5, 1e4), (3.7, 3.0, 1e4)]:
        assert survival_talbot(*key) == _SURVIVAL_TALBOT[key], key


# within is_half_integer's tolerance of 1/2 the kernel is empty and
# l_terms is 0 on both sides, so the lead term is there on both sides;
# the offset itself moves q by 1e-13 ln t (9.3e-13 at t = 1e5) and
# survival by 7e-14
@pytest.mark.parametrize("mu", [0.5 - 1e-13, 0.5 + 1e-13])
def test_next_to_half_drift_is_levy(mu):
    ev = ev_for(mu, 2.0)
    ts = np.array([0.5, 20.0, 2e3, 1e5])
    assert np.allclose(q_density(ev, ts), q_half_closed(1.0, ts),
                       rtol=1e-12, atol=0.0)
    for big_t in (1.0, 5e3):
        assert survival(ev, big_t) == pytest.approx(
            math.erf(0.5 / math.sqrt(big_t)), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("mu", [0.3, 1.0, 1.5, 2.2])
def test_survival_tail_power_law(mu):
    # P(T) ~ const T^{-mu}: the compensated value stays within a tight
    # band across three decades once T is large
    ev = ev_for(mu, 2.0)
    ts = np.array([1e5, 1e6, 1e7, 1e8])
    comp = np.array([survival(ev, t) * t ** mu for t in ts])
    assert np.all(comp > 0.0)
    assert comp.max() / comp.min() < 1.5


def test_survival_log_decay_driftless():
    # driftless survival decays like 2 log x / log T
    ev = ev_for(0.0, 2.0)
    for big_t in (1e6, 1e8):
        val = survival(ev, big_t) * math.log(big_t)
        assert 0.5 * 2.0 * math.log(2.0) < val < 1.5 * 2.0 * math.log(2.0)


# ---------------------------------------------------------------------
# tail constants

def test_tail_constant_half_drift():
    for x in (1.2, 5.0):
        tc = tail_constant(ev_for(0.5, x))
        assert tc.regime == "power"
        assert tc.value == pytest.approx((x - 1.0) / (2.0 * SQRT_PI),
                                         rel=1e-14)


def test_tail_constant_three_halves_closed():
    # lam = 1: second kappa moment of e^{-v} is 56, so the constant is
    # 56/(32 sqrt(pi)) = 7/(4 sqrt(pi))
    tc = tail_constant(ev_for(1.5, 2.0))
    assert tc.regime == "power"
    assert tc.value == pytest.approx(7.0 / (4.0 * SQRT_PI), rel=1e-12)


def _geometric_limit(g):
    """Limit of g sampled on a geometric grid: two Richardson sweeps,
    each eliminating the decay ratio of the last consecutive differences."""
    for _ in range(2):
        d = np.diff(g)
        if np.max(np.abs(d[-3:])) <= 1e-11 * np.max(np.abs(g)):
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = d[-4:-1] / d[-3:]
        rho = float(np.median(ratios[np.isfinite(ratios)]))
        g = g[1:] + d / (rho - 1.0)
    return float(g[-1])


@pytest.mark.parametrize("mu,x,rel", [
    (0.3, 2.0, 1e-4),
    (1.0, 2.0, 1e-6),
    (2.2, 2.0, 1e-6),
])
def test_tail_constant_extrapolated_matches_limit(mu, x, rel):
    # the density's own large-t law, t^{mu+1} q(t) extrapolated on a
    # ratio-4 grid, reaches the closed (x^{2 mu} - 1)/(4^mu Gamma(mu))
    want = (x ** (2.0 * mu) - 1.0) / (4.0 ** mu * sp.gamma(mu))
    ev = ev_for(mu, x)
    tc = tail_constant(ev)
    assert tc.regime == "power"
    assert tc.value == pytest.approx(want, rel=1e-14)
    ts = max(1e4, 10.0 * ev.t_switch) * 4.0 ** np.arange(12)
    limit = _geometric_limit(ts ** (mu + 1.0) * q_density(ev, ts))
    assert limit == pytest.approx(want, rel=rel)


def test_tail_constant_driftless():
    for x in (2.0, 5.0):
        ev = ev_for(0.0, x)
        tc = tail_constant(ev)
        assert tc.regime == "log"
        assert tc.value == 2.0 * math.log(x)
        # log^2 t * t * q(t) has corrections in powers of 1/log t: a
        # quadratic fit in that variable, read off at 0
        ts = max(1e4, 10.0 * ev.t_switch) * 4.0 ** np.arange(4, 12)
        g = np.log(ts) ** 2 * ts * q_density(ev, ts)
        limit = np.polyfit(1.0 / np.log(ts), g, 2)[-1]
        assert limit == pytest.approx(tc.value, rel=5e-3)


def test_tail_constant_is_frozen_record():
    tc = TailConstant(mu=1.0, value=0.75, regime="power")
    with pytest.raises(Exception):
        tc.value = 1.0


# ---------------------------------------------------------------------
# closed-form pipelines at half-integer drift

@pytest.mark.parametrize("x", [1.2, 2.0, 5.0])
def test_three_halves_closed_form(x):
    ev = ev_for(1.5, x)
    ts = np.geomspace(1e-2, 1e4, 49)
    got = q_density(ev, ts)
    want = np.array([q_three_halves_oracle(x - 1.0, float(t)) for t in ts])
    # worst case sits just before the cancellation handoff, where the
    # direct route's contract allows ~1e-9 relative
    assert np.allclose(got, want, rtol=2e-9, atol=1e-300)


@pytest.mark.parametrize("x", [1.2, 2.0])
def test_five_halves_quadrature_oracle(x):
    ev = ev_for(2.5, x)
    for t in np.geomspace(0.05, 2e3, 9):
        want = q_five_halves_oracle(x - 1.0, float(t))
        got = q_density(ev, float(t))
        assert got == pytest.approx(want, rel=1e-8, abs=0.0)


# ---------------------------------------------------------------------
# rescaling to a general stopping level

def test_rescale_unit_level_matches_density():
    ev = ev_for(1.0, 2.0)
    ts = np.geomspace(0.1, 100.0, 9)
    assert np.allclose(rescale(1.0, 1.0, 2.0, ts), q_density(ev, ts),
                       rtol=1e-14)


def test_rescale_half_drift_closed_form():
    # stop at level a from x: lam' = x/a - 1 and t' = t/a^2
    a, x = 0.5, 2.0
    ts = np.geomspace(0.05, 20.0, 15)
    got = rescale(0.5, a, x, ts)
    want = q_half_closed(x / a - 1.0, ts / a ** 2) / a ** 2
    assert np.allclose(got, want, rtol=5e-15)


def test_rescale_scaling_identity():
    # same law two ways: stop at 2 from 4 vs normalized stop at 1 from
    # 2 with time and density rescaled
    ts = np.geomspace(0.1, 50.0, 9)
    direct = rescale(1.3, 2.0, 4.0, ts)
    normalized = q_density(ev_for(1.3, 2.0), ts / 4.0) / 4.0
    assert np.allclose(direct, normalized, rtol=1e-13)


def test_rescale_shares_evaluator_across_equal_ratios():
    # stop at 0.7 from 1.9 and at 1.4 from 3.8: one evaluator, and the
    # scaling identity holds exactly
    ts = np.geomspace(0.1, 10.0, 5)
    before = cached_evaluator.cache_info()
    small = rescale(1.1, 0.7, 1.9, ts)
    large = rescale(1.1, 1.4, 3.8, 4.0 * ts)
    after = cached_evaluator.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 1
    assert np.array_equal(large, small / 4.0)


def test_rescale_preserves_mass():
    val, _ = sint.quad(lambda t: rescale(1.0, 2.0, 5.0, t), 0.0, np.inf,
                       limit=400)
    assert val == pytest.approx(1.0, abs=1e-7)
