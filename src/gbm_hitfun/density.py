"""Density of the stopped squared-exponential functional.

For X(t) = x exp(B(t) - 2 mu t) with x = 1 + lam > 1 and tau the first
hitting time of level 1, the functional A(tau) = int_0^tau X^2(s) ds
has a density q(t) on (0, infinity) of the form

    q(t) = lam e^{-lam^2/4t} / sqrt(pi t) * J(t),
    J(t) = [x^{mu-1/2}/(2t), mu <= 1/2] + int_0^infty w(v) E_l(kappa/4t) dv,

with the kernel w from :mod:`.weight`, kappa = v (2 lam + v) and E_l(s)
the exponential e^{-s} minus its Taylor polynomial through degree l.
Every kernel integral of this kind, here and in :mod:`.poisson`, takes
a function minus its Taylor polynomial from :func:`taylor_remainder`;
:func:`table_integral` integrates such a remainder against w on a
fixed v-table.  This module evaluates q by two routes:

* the direct route, for t up to t_switch: the polynomial part of E_l
  integrates to closed kernel moments and the e^{-kappa/4t} part, after
  completing the square in v, to a dot product of scaled complementary
  error functions over the kernel's short rule in log u (32-128 nodes).
  The pieces cancel as t grows, so every point carries a loss estimate:
  roundoff, the rule's measured deviation and a bound on the grid nodes
  left out at small u;
* the table route, for t beyond t_switch and for every point whose
  estimate passes 2e-10: J is :func:`table_integral` of E_l at
  sigma = 4t on one fixed composite Gauss-Legendre grid (0.5-wide
  panels up to v = 32, ratio-2 panels up to v = 1e8, 20 points each).
  Weight times kernel value and kappa at the nodes do not depend on t;
  each evaluator builds them on its first fallback, and all fallback
  points of a call are then one product.  A t too large for the grid
  (t above about 6e13) gets more ratio-2 panels for that call, so the
  route covers every t > 0 (up to 2e99 at mu = 0).  It agrees with
  adaptive quadrature of J to 1e-10 for mu < 9.5.

Also here, each with one route: total mass from the kernel's first
power moment and survival from the exact swap of the t-integral (one
adaptive v-quadrature completed by kernel moment tails); the Laplace
transform of q in closed Bessel form, and by the exact swap of its
t-integral (a sum over the kernel representation) as the consistency
check against it; the closed t -> infinity tail constant, the scaling
relation for hitting a general level, and the density of the unstopped
limit functional.  No t-integral of q is taken numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import special as sp

from .bessel import gamma_fn, is_half_integer
from .errors import DomainError
from .quadrature import (
    QuadratureSpec,
    gauss_legendre_panels,
    geometric_edges,
    integrate_finite,
)
from .weight import (
    ModelParams,
    WLambdaRep,
    build_w,
    w_kappa_moment_tail,
    w_power_moment_tail,
)

_SQRT_PI = math.sqrt(math.pi)

# relative roundoff budget of the direct route before it hands the
# point over to the table route (the estimate can undershoot the
# realized error by a small factor, hence the margin under 1e-9)
_DIRECT_LOSS_TOL = 2e-10

# v-grid of the table route: 0.5-wide panels up to the knee follow w1,
# which decays at least like e^{-1.37 v} for mu >= 3/2; ratio-2 panels
# above follow the power tail of w2 and the turn of E_l(kappa/4t) from
# its Taylor remainder to its polynomial part, both smooth in log v.
# Its top serves t up to about 6e13 (_POLY_S); larger t extend it.
_TABLE_KNEE = 32.0
_TABLE_TOP = 1e8
_TABLE_PTS = 20
# from here on e^{-s} is below 1e-17 of the polynomial part of E_l(s),
# so past a v with kappa/4t >= _POLY_S the kappa-moment tails are exact
_POLY_S = 40.0


@dataclass(frozen=True)
class DensityEvaluator:
    """Prepared state for density evaluations at fixed (mu, x).

    l_terms is the number of polynomial terms subtracted from the
    exponential inside the kernel integral: floor(mu + 1/2) in general
    and mu - 1/2 when that is a nonnegative integer (the largest
    subtraction the kernel tail can absorb).  t_switch caps the direct
    route; points beyond it, and points below it whose direct-route
    cancellation estimate crosses _DIRECT_LOSS_TOL (2e-10 relative),
    take the table route.  The table route's t-independent factors are
    built on the first such point and kept for the evaluator's life.
    """

    params: ModelParams
    w: WLambdaRep
    l_terms: int
    t_switch: float

    @functools.cached_property
    def table(self):
        """(kappa_k, W_k w(v_k), top, T) on the table route's fixed
        v-grid (see the module docstring), built on first use: kappa and
        weight times kernel at the nodes, top = 1e8 and the tails
        T_j = int_top^infty kappa^j w dv, j <= l_terms."""
        edges = np.concatenate([np.arange(0.0, _TABLE_KNEE, 0.5),
                                geometric_edges(_TABLE_KNEE, _TABLE_TOP)])
        return _table_panels(self, edges)

    def extended_table(self, panels: int):
        """:attr:`table` with `panels` more ratio-2 panels past its top,
        its tails moved to the new top; not cached."""
        if not panels:
            return self.table
        kappa, wt, top, _ = self.table
        k_ext, w_ext, top, tails = _table_panels(
            self, top * 2.0 ** np.arange(panels + 1.0))
        return (np.concatenate([kappa, k_ext]), np.concatenate([wt, w_ext]),
                top, tails)


def build_evaluator(params: ModelParams) -> DensityEvaluator:
    """Assemble the kernel representation and the route switch time."""
    mu = params.mu
    if is_half_integer(mu):
        l_terms = int(round(mu - 0.5))
    else:
        l_terms = int(math.floor(mu + 0.5))
    return DensityEvaluator(params=params, w=build_w(params),
                            l_terms=l_terms,
                            t_switch=1e3 * max(1.0, params.lam ** 2))


# ---------------------------------------------------------------------
# Taylor remainders

# Taylor coefficients (-1)^i / i! of e^{-s}, for taylor_remainder
_EXP_COEFS = np.cumprod(np.r_[1.0, -1.0 / np.arange(1.0, 128.0)])


def taylor_remainder(f0, coefs, z: np.ndarray, j: int,
                     switch: float) -> np.ndarray:
    """f(z) minus its Taylor polynomial sum_{i <= j} c_i z^i, for z >= 0.

    coefs holds c_0, c_1, ...; f0(z) = f(z) - c_0 in expm1 or log1p
    form, so that j = 0 is f0 itself.  Below switch, where the
    difference cancels down to its first term, the tail series
    sum_{i > j} c_i z^i is summed until a term falls under 1e-17 of the
    sum; above, the direct difference f0(z) - sum_{1 <= i <= j} c_i z^i
    no longer cancels deeply.
    """
    z = np.asarray(z, dtype=float)
    if j == 0:
        return f0(z)
    out = np.empty_like(z)
    small = z < switch
    zs, zb = z[small], z[~small]
    zp = zs ** (j + 1)
    acc = coefs[j + 1] * zp
    for c in coefs[j + 2:]:
        zp *= zs
        term = c * zp
        acc += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(acc) + 1e-320):
            break
    out[small] = acc
    poly = np.zeros_like(zb)
    for c in coefs[j:0:-1]:
        poly = (poly + c) * zb
    out[~small] = f0(zb) - poly
    return out


def table_integral(table, sigma: np.ndarray, f0, coefs, switch,
                   l: int) -> Tuple[np.ndarray, np.ndarray]:
    """int w(v) R_j(kappa/sigma) dv over a v-table and its polynomial
    tail, at an array of scales sigma, with the l1 norm of the summands.

    R_j = taylor_remainder(f0, coefs, ., j, switch(j)).  The table
    (kappa_k, W_k w(v_k), top, T), T_i = int_top^infty kappa^i w dv,
    gives the product R_j(kappa_k/sigma) @ (W_k w(v_k)) plus the
    polynomial part's exact completion -sum_{i <= j} c_i T_i sigma^{-i};
    f past the top is the caller's.  Every min(1, l) <= j <= l gives
    the same integral by the kernel moment identities; the j whose
    summands have the least l1 norm is taken, so that the sum does not
    cancel (no single j holds its digits both at small and at large
    sigma).
    """
    kap, wt, _, tails = table

    def at(j, sig):
        e = taylor_remainder(f0, coefs, kap[None, :] / sig[:, None], j,
                             switch(j))
        tail = sum(coefs[i] * tails[i] / sig ** i for i in range(j + 1))
        return e @ wt - tail, np.abs(e) @ np.abs(wt)

    val, norm = at(l, sigma)
    rows = np.arange(val.size)
    if l > 1:
        # the summands of R_{l-1} have an l1 norm of at least P - norm,
        # P = sum |W w c_l| (kappa/sigma)^l; where P >= 2 norm, l is least
        lk = l * np.log(kap)
        log_p = (np.log(np.abs(wt) @ np.exp(lk - lk.max())) + lk.max()
                 - l * np.log(sigma) + math.log(abs(coefs[l])))
        rows = rows[log_p < np.log(2.0 * norm)]
    # down from l the norm falls to its least, then rises
    for j in range(l - 1, 0, -1):
        if not rows.size:
            break
        alt, alt_norm = at(j, sigma[rows])
        better = alt_norm < norm[rows]
        rows = rows[better]
        val[rows], norm[rows] = alt[better], alt_norm[better]
    return val, norm


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
    pieces cancel as t grows, which the loss estimate tracks: 2.3e-16 of
    the largest piece plus the error bound that comes with S (see
    WLambdaRep.exp_weighted_integral), over |J|.
    """
    p = ev.params
    mu, lam, x = p.mu, p.lam, p.x
    xi = x ** (mu - 0.5)
    m0 = xi * (mu * mu - 0.25) / (2.0 * x)
    lead = xi / (2.0 * ts)
    s_val, s_err = ev.w.exp_weighted_integral(ts)
    j_val = lead - m0 + s_val
    scale = np.maximum(np.abs(lead), np.maximum(abs(m0), np.abs(s_val)))
    loss = (2.3e-16 * scale + s_err) / np.maximum(np.abs(j_val), 1e-300)
    return _prefactor(lam, ts) * j_val, loss


def _table_panels(ev: DensityEvaluator, edges: np.ndarray):
    """Table-route factors on Gauss-Legendre panels over edges: kappa
    and weight times w at the nodes, the top edge, and the kappa-moment
    tails T_j = int_top^infty kappa^j w dv for j <= l_terms."""
    v, wts = gauss_legendre_panels(edges, _TABLE_PTS)
    lam = ev.params.lam
    top = float(edges[-1])
    tails = np.array([w_kappa_moment_tail(ev.w, j, top)
                      for j in range(ev.l_terms + 1)])
    return v * (2.0 * lam + v), wts * ev.w.eval(v), top, tails


def _q_table(ev: DensityEvaluator, ts: np.ndarray) -> np.ndarray:
    """Density by the table route at an array of t > 0.

    J(t) is :func:`table_integral` of E_l = taylor_remainder of e^{-s}
    at sigma = 4t over the evaluator's v-grid, plus x^{mu-1/2}/(2t) for
    mu <= 1/2.  Past the grid's top e^{-s} is dropped, so a t with
    kappa/4t < _POLY_S at the top gets k ratio-2 panels past it, k the
    fewest that reach _POLY_S, and its tails move to the new top; k
    depends on that t alone, so a value does not depend on the others.
    """
    p = ev.params
    mu, lam, x = p.mu, p.lam, p.x
    v_need = np.sqrt(lam * lam + 4.0 * _POLY_S * ts) - lam
    panels = np.maximum(0.0, np.ceil(np.log2(v_need / ev.table[2])))
    j_val = np.empty_like(ts)
    for k in np.unique(panels):
        rows = panels == k
        j_val[rows] = table_integral(
            ev.extended_table(int(k)), 4.0 * ts[rows],
            lambda s: np.expm1(-s), _EXP_COEFS, lambda j: 0.5 * (j + 1.0),
            ev.l_terms)[0]
    if mu <= 0.5:
        j_val += x ** (mu - 0.5) / (2.0 * ts)
    return _prefactor(lam, ts) * j_val


def q_density(ev: DensityEvaluator, t):
    """Density of the stopped functional at time(s) t > 0.

    Scalar in, scalar out; any array shape otherwise.  Points up to
    ev.t_switch take the direct route; the rest, and direct points
    whose roundoff estimate passes 2e-10, are evaluated together as one
    product on the table route, whose v-grid the evaluator builds on
    its first such point; together they cover every t > 0 (at mu = 0
    up to about 2e99 at x = 2, then DomainError), and the table route
    agrees with adaptive quadrature of J to 1e-10 relative for mu < 9.5.
    End to end the direct route is up to 5.1e-10 off Talbot inversion,
    at (mu, x, t) = (3.7, 2, 4.508), where its loss estimate reads 3e-11.
    Nonnegative up to roundoff, integrates to one, and its Laplace
    transform matches :func:`laplace_ratio`.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError("density defined for finite t > 0")
    flat = arr.reshape(-1)
    out = np.empty_like(flat)
    direct = flat <= ev.t_switch
    if direct.any():
        vals, loss = _q_direct_with_loss(ev, flat[direct])
        out[direct] = vals
        direct[direct] = loss <= _DIRECT_LOSS_TOL
    if not direct.all():
        out[~direct] = _q_table(ev, flat[~direct])
    out = out.reshape(arr.shape)
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
    """int_0^infty e^{-r^2 t} q(t) dt by the exact order swap.

    The t-integral of each piece of the direct route's J is closed:
    e^{-lam r} [x^{mu-1/2} - lam (M0 - w_hat(r)) / r], M0 = int w dv
    and w_hat the kernel's Laplace transform.  The quotient is taken as
    the Laplace transform of the kernel's tail mass, which does not
    cancel as r -> 0.  The numerical side of the master consistency
    check against :func:`laplace_ratio`; the two share only the kernel.
    """
    if not (r > 0.0) or not np.isfinite(r):
        raise DomainError("transform defined for r > 0")
    p = ev.params
    return math.exp(-p.lam * r) * float(
        p.x ** (p.mu - 0.5) - p.lam * ev.w.tail_laplace_transform(r))


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

    # 0.4 T stays while perfbench pins its loss; kappa <= 2(l+1) T mends it
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
    plus exact kernel tail moments beyond.  The closed form takes over
    from its remainder series at kappa = 0.4 T, where it still cancels
    down to the first surviving term s^{l+1}/(l+1)!, s = kappa/4T.  So
    at high drift the result loses digits: relative 7e-7 at
    (mu, x, T) = (5.3, 2, 60), and wrong in sign or by orders of
    magnitude at (9.3, 2) for T >= 60.
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
    if 0.5 * sq > 10.0 * (1.0 + lam):
        # a kernel of e^{z v} terms alone still decays exponentially
        # past 10 (1 + lam); one panel from there to 0.5 sqrt(T) samples
        # none of that and reports convergence, ratio-2 panels follow it
        splits += tuple(geometric_edges(10.0 * (1.0 + lam), 0.5 * sq)[1:-1])
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-10,
                          max_subdivisions=768, split_points=splits)
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
