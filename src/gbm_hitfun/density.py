"""Density of the stopped squared-exponential functional.

For X(t) = x exp(B(t) - 2 mu t) with x = 1 + lam > 1 and tau the first
hitting time of level 1, the functional A(tau) = int_0^tau X^2(s) ds
has a density q(t) on (0, infinity) of the form

    q(t) = lam e^{-lam^2/4t} / sqrt(pi t) * J(t),

where J collects an explicit 1/t term and integrals of the kernel w
from :mod:`.weight` against subtracted exponentials of kappa/4t,
kappa = v (2 lam + v).  This module evaluates q by two independent
routes and cross-checks them:

* a direct route for moderate t, where the kernel integral of
  e^{-kappa/4t} reduces to scaled complementary error functions
  (completing the square in v), so J is a closed dot product over the
  kernel representation;
* a substituted route for large t (kappa = 4 s t), where the
  subtracted exponential stays O(1) and the truncated polynomial tails
  are completed exactly by the kernel's kappa-moment tails.

Also here: the Laplace transform of q in closed Bessel form and by
numerical integration of q (the master consistency check), total mass
and survival function through the same exact swaps, the t -> infinity
tail constant, the scaling relation for hitting a general level, and
the density of the unstopped limit functional.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np
from scipy import special as sp

from .bessel import gamma_fn, is_half_integer
from .errors import DomainError
from .quadrature import (
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
)
from .weight import (
    ModelParams,
    WLambdaRep,
    build_w,
    w_kappa_moment_tail,
    w_moment,
    w_power_moment_tail,
)

_SQRT_PI = math.sqrt(math.pi)

# beyond this the e^{-s} part of the subtracted exponential is far
# below underflow against the polynomial part, so the s-integral can
# stop and the remaining pure-polynomial tail is completed exactly
_S_CUT = 512.0

# relative roundoff budget of the direct route before it hands the
# point over to the substituted route (the estimate can undershoot the
# realized error by a small factor, hence the margin under 1e-9)
_DIRECT_LOSS_TOL = 2e-10

_DEFAULT_QUAD = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-10,
                               max_subdivisions=768)


@dataclass(frozen=True)
class DensityEvaluator:
    """Prepared state for density evaluations at fixed (mu, x).

    l_terms is the number of polynomial terms subtracted from the
    exponential inside the kernel integral: floor(mu + 1/2) in general
    and mu - 1/2 when that is a nonnegative integer (the largest
    subtraction the kernel tail can absorb).  t_switch caps the direct
    route; evaluations may fall back to the substituted route earlier
    when the direct route's own cancellation estimate crosses
    _DIRECT_LOSS_TOL (2e-10 relative).
    """

    params: ModelParams
    w: WLambdaRep
    quad: QuadratureSpec
    l_terms: int
    t_switch: float


def build_evaluator(params: ModelParams,
                    quad: Optional[QuadratureSpec] = None,
                    t_switch: Optional[float] = None) -> DensityEvaluator:
    """Assemble the kernel representation and evaluation policy."""
    if quad is None:
        quad = _DEFAULT_QUAD
    mu = params.mu
    if is_half_integer(mu):
        l_terms = int(round(mu - 0.5))
    else:
        l_terms = int(math.floor(mu + 0.5))
    if t_switch is None:
        t_switch = 1e3 * max(1.0, params.lam ** 2)
    if t_switch <= 0:
        raise DomainError("t_switch must be positive")
    return DensityEvaluator(params=params, w=build_w(params), quad=quad,
                            l_terms=l_terms, t_switch=t_switch)


# ---------------------------------------------------------------------
# subtracted exponentials

def _subtracted_exp(s: np.ndarray, l: int) -> np.ndarray:
    """e^{-s} minus its Taylor polynomial through degree l, stably.

    Below s = (l+1)/2 the remainder series converges with immediately
    decreasing terms; above, the direct difference no longer cancels
    deeply because the polynomial part dominates.
    """
    s = np.asarray(s, dtype=float)
    if l == 0:
        return np.expm1(-s)
    out = np.empty_like(s)
    small = s < 0.5 * (l + 1.0)
    if small.any():
        ss = s[small]
        term = (-ss) ** (l + 1) / math.factorial(l + 1)
        acc = term.copy()
        for j in range(l + 2, l + 80):
            term = term * (-ss) / j
            acc += term
            if np.all(np.abs(term) <= 1e-17 * np.abs(acc) + 1e-320):
                break
        out[small] = acc
    if (~small).any():
        sb = s[~small]
        poly = np.ones_like(sb)
        fac = np.ones_like(sb)
        for j in range(1, l + 1):
            fac = fac * (-sb) / j
            poly += fac
        out[~small] = np.exp(-sb) - poly
    return out


# ---------------------------------------------------------------------
# the two evaluation routes

def _prefactor(lam: float, ts: np.ndarray) -> np.ndarray:
    return lam * np.exp(-lam * lam / (4.0 * ts)) / np.sqrt(np.pi * ts)


def _q_direct_with_loss(ev: DensityEvaluator,
                        ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Direct-route density plus its relative roundoff estimate.

    J(t) = x^{mu-1/2}/(2t) - M0 + S(t) with the exact moment
    M0 = x^{mu-1/2}(mu^2 - 1/4)/(2x); for mu <= 1/2 this is the plain
    representation, for mu > 1/2 it is the subtracted representation
    with the closed first-moment identity substituted in.  The three
    pieces cancel as t grows, which the loss estimate tracks.
    """
    p = ev.params
    mu, lam, x = p.mu, p.lam, p.x
    xi = x ** (mu - 0.5)
    m0 = xi * (mu * mu - 0.25) / (2.0 * x)
    lead = xi / (2.0 * ts)
    s_val = ev.w.exp_weighted_integral(ts)
    j_val = lead - m0 + s_val
    scale = np.maximum(np.abs(lead), np.maximum(abs(m0), np.abs(s_val)))
    loss = 2.3e-16 * scale / np.maximum(np.abs(j_val), 1e-300)
    return _prefactor(lam, ts) * j_val, loss


def _q_substituted(ev: DensityEvaluator, t: float) -> float:
    """Density via kappa = 4 s t, for t beyond the direct route.

    The s-integrand w(v(s)) E_l(s) 2t/sqrt(4st + lam^2) is O(1)-scaled
    in s; stopping at s = 512 leaves a purely polynomial tail that the
    exact kernel kappa-moment tails complete, so no accuracy is lost
    however large t is.
    """
    p = ev.params
    mu, lam, x = p.mu, p.lam, p.x
    l = ev.l_terms

    def integrand(s):
        s = np.asarray(s, dtype=float)
        root = np.sqrt(4.0 * s * t + lam * lam)
        v = 4.0 * s * t / (root + lam)
        return ev.w.eval(v) * _subtracted_exp(s, l) * (2.0 * t / root)

    spec = replace(ev.quad,
                   split_points=(1e-6, 1e-4, 1e-2, 0.25, 1.0, 4.0, 16.0,
                                 64.0, 256.0))
    res = integrate_finite(integrand, 0.0, _S_CUT, spec)
    root_cut = math.sqrt(4.0 * _S_CUT * t + lam * lam)
    v_cut = 4.0 * _S_CUT * t / (root_cut + lam)
    j_val = res.value
    for j in range(l + 1):
        j_val += ((-1) ** (j + 1) / (math.factorial(j) * (4.0 * t) ** j)
                  * w_kappa_moment_tail(ev.w, j, v_cut))
    if mu <= 0.5:
        j_val += x ** (mu - 0.5) / (2.0 * t)
    return _prefactor(lam, np.asarray(t))[()] * j_val


def q_density(ev: DensityEvaluator, t):
    """Density of the stopped functional at time(s) t > 0.

    Scalar in, scalar out; any array shape otherwise.  Nonnegative up
    to roundoff, integrates to one, and its Laplace transform matches
    :func:`laplace_ratio` (the package's acceptance checks pin all
    three down numerically).
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError("density defined for finite t > 0")
    flat = arr.reshape(-1)
    out = np.empty_like(flat)
    direct = flat <= ev.t_switch
    if direct.any():
        vals, loss = _q_direct_with_loss(ev, flat[direct])
        bad = np.nonzero(loss > _DIRECT_LOSS_TOL)[0]
        if bad.size:
            # recompute the flagged points on the substituted route
            src = np.nonzero(direct)[0]
            for k in bad:
                vals[k] = _q_substituted(ev, float(flat[src[k]]))
        out[direct] = vals
    for i in np.nonzero(~direct)[0]:
        out[i] = _q_substituted(ev, float(flat[i]))
    out = out.reshape(arr.shape)
    return float(out[0]) if np.ndim(t) == 0 else out


def q_density_basic(ev: DensityEvaluator, t):
    """Density via the representation with numerically integrated moments.

    Uses the plain form for mu <= 1/2 and the once-subtracted form for
    mu > 1/2, with the kernel moments int w dv and int kappa w dv
    computed numerically instead of through the closed identities.
    Pointwise agreement with :func:`q_density` therefore validates the
    moment identities inside the full pipeline.  Direct route only, so
    accuracy degrades for t well beyond t_switch; meant for
    cross-checks at moderate t.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError("density defined for finite t > 0")
    p = ev.params
    mu, lam, x = p.mu, p.lam, p.x
    flat = arr.reshape(-1)
    w0 = w_moment(ev.w, 0)
    s_val = ev.w.exp_weighted_integral(flat)
    if mu <= 0.5:
        j_val = x ** (mu - 0.5) / (2.0 * flat) - w0 + s_val
    else:
        w1m = w_moment(ev.w, 1)
        j_val = w1m / (4.0 * flat) - w0 + s_val
    out = (_prefactor(lam, flat) * j_val).reshape(arr.shape)
    return float(out[0]) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------
# companion closed forms

def dufresne_density(mu: float, t):
    """Density of the unstopped limit functional for drift mu > 0.

    A(infinity) = int_0^infty exp(2 B(s) - 4 mu s) ds has the
    inverse-gamma-type density 2^{-2 mu} e^{-1/4t} / (Gamma(mu)
    t^{1+mu}); the stopped density converges to a multiple of its tail,
    which makes this the natural reference law for tail tests.
    """
    if not (mu > 0.0) or not np.isfinite(mu):
        raise DomainError("limit functional requires mu > 0")
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError("density defined for finite t > 0")
    out = (2.0 ** (-2.0 * mu) * np.exp(-0.25 / arr)
           / (gamma_fn(mu) * arr ** (1.0 + mu)))
    return float(out[0]) if np.ndim(t) == 0 else out


def laplace_ratio(mu: float, x: float, r):
    """Closed form of the Laplace transform E exp(-r^2 A(tau)).

    Equals x^mu K_mu(x r) / K_mu(r), evaluated through scaled Bessel
    functions so that no overflow occurs for large r.  Decreasing in r,
    with limit 1 as r -> 0+.  For a stop at a general level a use the
    scaling identity: the transform is laplace_ratio(mu, x/a, a*r).
    """
    if mu < 0 or not np.isfinite(mu):
        raise DomainError("drift parameter must satisfy mu >= 0")
    if not (x > 1.0) or not np.isfinite(x):
        raise DomainError("starting point must satisfy x > 1")
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError("transform defined for r > 0")
    lam = x - 1.0
    out = (x ** mu * sp.kve(mu, x * arr) / sp.kve(mu, arr)
           * np.exp(-lam * arr))
    return float(out[0]) if np.ndim(r) == 0 else out


def laplace_of_density(ev: DensityEvaluator, r: float) -> float:
    """int_0^infty e^{-r^2 t} q(t) dt by adaptive quadrature.

    The numerical side of the master consistency check against
    :func:`laplace_ratio`; shares nothing with the closed form past the
    kernel itself.
    """
    if not (r > 0.0) or not np.isfinite(r):
        raise DomainError("transform defined for r > 0")
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
    spec = replace(ev.quad, abs_tol=1e-12, split_points=splits or None)
    head = integrate_finite(integrand, 0.0, t_mid, spec)
    tail = integrate_semi_infinite(integrand, t_mid, 0.9 * rr,
                                   replace(ev.quad, abs_tol=1e-12))
    return head.value + tail.value


# ---------------------------------------------------------------------
# mass, survival, tails

def total_mass(ev: DensityEvaluator) -> float:
    """int_0^infty q dt via the exact order swap.

    Integrating the representation in t first leaves
    x^{mu-1/2} - lam int_0^infty v w(v) dv, whose kernel moment the
    weight module evaluates with all-positive terms; the result should
    be 1 to near machine accuracy, so this doubles as the sharpest
    global self-test of the kernel.
    """
    p = ev.params
    v1 = w_power_moment_tail(ev.w, 1, 0.0)
    return p.x ** (p.mu - 0.5) - p.lam * v1


def _survival_coef(j: int, lam: float, z0: float) -> float:
    """Coefficient c_j of kappa^j in the t-integral of the j-th term of
    the subtracted exponential, z0 = lam^2/4T:

        c_j = (-1)^{j+1}/(j! 4^j) (4/lam^2)^{j-1/2} Gamma(j-1/2)
              P(j-1/2, z0),

    with P the regularized lower incomplete gamma.
    """
    return ((-1) ** (j + 1) / math.factorial(j) / 4.0 ** j
            * (4.0 / (lam * lam)) ** (j - 0.5)
            * gamma_fn(j - 0.5) * sp.gammainc(j - 0.5, z0))


def _survival_kernel(ev: DensityEvaluator, v: np.ndarray,
                     big_t: float) -> np.ndarray:
    """G(v) = int_T^infty t^{-1/2} e^{-lam^2/4t} E_l(kappa/4t) dt.

    Closed form through erf and the polynomial sum_{j <= l} c_j kappa^j;
    for kappa << T the alternating remainder -sum_{j > l} c_j kappa^j
    is used instead, because there the closed pieces cancel to the
    first surviving term.
    """
    p = ev.params
    lam = p.lam
    l = ev.l_terms
    v = np.asarray(v, dtype=float)
    sq = math.sqrt(big_t)
    z0 = lam * lam / (4.0 * big_t)
    kap = v * (2.0 * lam + v)
    out = np.empty_like(v)

    series = kap <= 0.4 * big_t
    if series.any():
        ks = kap[series]
        acc = np.zeros_like(ks)
        for j in range(l + 1, l + 60):
            term = -_survival_coef(j, lam, z0) * ks ** j
            acc += term
            if np.all(np.abs(term) <= 1e-17 * np.abs(acc) + 1e-320):
                break
        out[series] = acc

    if (~series).any():
        vb = v[~series]
        kb = kap[~series]
        e_diff = np.exp(-z0) - np.exp(-(lam + vb) ** 2 / (4.0 * big_t))
        erf_part = ((lam + vb) * sp.erf((lam + vb) / (2.0 * sq))
                    - lam * math.erf(lam / (2.0 * sq)))
        g = 2.0 * sq * e_diff - _SQRT_PI * erf_part
        for j in range(1, l + 1):
            g += _survival_coef(j, lam, z0) * kb ** j
        out[~series] = g
    return out


def survival(ev: DensityEvaluator, big_t: float) -> float:
    """P(A(tau) > T) = int_T^infty q dt, by the exact order swap.

    The t-integral under the kernel integral has a closed form, so the
    survival function needs only one v-quadrature up to ~12 sqrt(T)
    plus exact kernel tail moments beyond; accuracy stays near machine
    level even where the survival itself is 1e-14.
    """
    if not np.isfinite(big_t) or big_t < 0.0:
        raise DomainError("survival defined for finite T >= 0")
    if big_t == 0.0:
        return total_mass(ev)
    p = ev.params
    mu, lam, x = p.mu, p.lam, p.x
    l = ev.l_terms
    sq = math.sqrt(big_t)
    z0 = lam * lam / (4.0 * big_t)

    acc = 0.0
    if mu <= 0.5:
        acc += (x ** (mu - 0.5) / lam) * _SQRT_PI * math.erf(lam / (2.0 * sq))

    v_hi = 12.0 * sq + 50.0 * (1.0 + lam)

    def integrand(v):
        v = np.asarray(v, dtype=float)
        return ev.w.eval(v) * _survival_kernel(ev, v, big_t)

    splits = tuple(s for s in (min(1.0, lam), 1.0 + lam, 10.0 * (1.0 + lam),
                               0.5 * sq, sq, 3.0 * sq) if 0.0 < s < v_hi)
    spec = replace(ev.quad, split_points=splits)
    quad_part = integrate_finite(integrand, 0.0, v_hi, spec).value

    # beyond v_hi the Gaussian pieces are dead and erf is saturated:
    # G(v) = a0 - sqrt(pi) v + the j >= 1 polynomial, all of whose
    # kernel tail integrals are exact
    a0 = (2.0 * sq * math.exp(-z0)
          - _SQRT_PI * lam * math.erfc(lam / (2.0 * sq)))
    comp = (a0 * w_power_moment_tail(ev.w, 0, v_hi)
            - _SQRT_PI * w_power_moment_tail(ev.w, 1, v_hi))
    for j in range(1, l + 1):
        comp += _survival_coef(j, lam, z0) * w_kappa_moment_tail(ev.w, j,
                                                                  v_hi)

    return lam / _SQRT_PI * (acc + quad_part + comp)


def normalization_check(ev: DensityEvaluator) -> float:
    """Total mass the long way: quadrature of q plus exact completion.

    Integrates the density itself over [0, T] with T past the bulk,
    then adds :func:`survival`.  Unlike :func:`total_mass` this
    exercises the full pointwise density pipeline, so it is the
    normalization test the acceptance suite runs.
    """
    lam = ev.params.lam
    big_t = 100.0 * max(1.0, lam * lam)
    splits = tuple(s for s in (0.05 * lam * lam, 0.25 * lam * lam,
                               lam * lam, 1.0, 10.0) if 0.0 < s < big_t)
    spec = replace(ev.quad, abs_tol=1e-13, split_points=splits)
    res = integrate_finite(lambda ts: q_density(ev, ts), 0.0, big_t, spec)
    return res.value + survival(ev, big_t)


@dataclass(frozen=True)
class TailConstant:
    """Limit constant of the density's tail law.

    regime "power" means q(t) ~ value * t^{-mu-1} (drift mu > 0);
    regime "log" means q(t) ~ value / (t log^2 t) (driftless case).
    """

    mu: float
    value: float
    regime: str


def tail_constant(ev: DensityEvaluator) -> TailConstant:
    """Constant in the tail law of q, in closed form.

    q(t) ~ C t^{-mu-1} with C = (x^{2 mu} - 1)/(4^mu Gamma(mu)) for
    mu > 0, and q(t) ~ 2 log x / (t log^2 t) for mu = 0.
    """
    mu, x = ev.params.mu, ev.params.x
    if mu == 0.0:
        return TailConstant(mu=mu, value=2.0 * math.log(x), regime="log")
    return TailConstant(mu=mu, value=math.expm1(2.0 * mu * math.log(x))
                        / (4.0 ** mu * gamma_fn(mu)), regime="power")


# ---------------------------------------------------------------------
# general stopping level

@functools.lru_cache(maxsize=32)
def cached_evaluator(mu: float, x: float) -> DensityEvaluator:
    """Default-policy evaluator for (mu, x), built once per process.

    Serves the calls that take no evaluator: :func:`rescale` and the
    Poisson-kernel routes.  The least recently used entries are dropped
    beyond 32 parameter pairs.
    """
    return build_evaluator(ModelParams(mu, x))


def rescale(mu: float, a: float, x: float, t):
    """Density of the functional stopped at level a from x > a.

    Brownian scaling gives q_{mu,a,x}(t) = a^{-2} q_{mu,x/a}(t/a^2),
    so every (a, x) with the same ratio x/a shares one evaluator.  The
    matching Laplace transform is (x/a)^mu K_mu(x r)/K_mu(a r), i.e.
    laplace_ratio(mu, x/a, a*r).
    """
    if not (a > 0.0) or not (x > a) or not np.isfinite(a + x):
        raise DomainError("rescaling requires 0 < a < x")
    ev = cached_evaluator(float(mu), float(x) / float(a))
    vals = q_density(ev, np.asarray(t, dtype=float) / a ** 2)
    return vals / a ** 2
