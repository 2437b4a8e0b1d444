"""Density of the stopped squared-exponential functional.

For X(t) = x exp(B(t) - 2 mu t) with x = 1 + lam > 1 and tau the first
hitting time of level 1, the functional A(tau) = int_0^tau X^2(s) ds
has a density q(t) on (0, infinity) of the form

    q(t) = lam e^{-lam^2/4t} / sqrt(pi t) * J(t),
    J(t) = [x^{mu-1/2}/(2t), l = 0] + int_0^infty w(v) E_l(kappa/4t) dv,

with the kernel w from :mod:`.weight`, kappa = v (2 lam + v) and E_l(s)
the exponential e^{-s} minus its Taylor polynomial through degree
l = l_terms, which alone decides the lead term.  Every kernel integral
here and in :mod:`.poisson` is one pattern, int w R_j(kappa/sigma) dv
with R_j = f minus its Taylor polynomial (:func:`taylor_remainder`);
each caller states only its f, its reach and its lead term.
:func:`table_integral` sums it on one fixed composite Gauss-Legendre
v-grid (0.5-wide panels up to v = 32, ratio-2 panels up to v = 1e8, 20
points each, built per evaluator on first use), completes the
polynomial part by moment tails and owns the reach: a sigma whose
kappa/sigma at the top falls short of it gets the fewest ratio-2
panels past the top that reach it.  :func:`far_integral` owns the far
part, int w f past the top, by more such panels;
:func:`adaptive_integral` is the table's adaptive sibling up to a cut,
for the two callers not yet on the table.  All read w2 from the
kernel's interpolant (:mod:`.weight`).  q takes four routes:

* two panels of one barycentric interpolant of log J in log t
  (:func:`_log_j_series`, 33-513 Chebyshev points), one product per
  call: on [t_lo, t_switch], t_lo = max(lam^2/20, 1e-3), t_switch = 1e3
  max(1, lam^2), from table values, and on [t_min, t_lo), t_min =
  lam^2/1000 (q's Gaussian factor is e^{-250} there), from the direct
  route's, as below t_lo the table is off near x = 1 (1e-7 at (mu, x, t)
  = (9.3, 1.05, 0.02 lam^2)).  Each is built on its first point: the
  upper in 9-170 ms, the lower in 1-1.5 ms at x <= 3, 23-31 ms where
  nodes hand over to the table and 100-130 ms where it does not settle;
* the direct route, below t_min and where a panel does not settle (the
  upper next to odd half-integer mu, the lower at (9.3, 10) and (9.3,
  30)): the polynomial part of E_l integrates to closed kernel moments
  and the e^{-kappa/4t} part, after completing the square in v, to a
  dot product of scaled complementary error functions over the
  kernel's live u-grid nodes.  The pieces cancel as t grows, so every
  point carries a loss estimate: the roundoff of the pieces and of the
  sums' terms, and a bound on the grid nodes left out at small u.  A
  point whose estimate passes 2e-12 is handed over to the table;
* the table route, for t beyond t_switch and for the handed-over points:
  :func:`table_integral` of E_l at sigma = 4t with reach 40, past which
  e^{-s} is below 1e-17 of the polynomial part and the far part is
  nothing.  It covers every t > 0 (up to 2e99 at mu = 0) until the
  moment tails leave double range (DomainError).

Also here, each with one route: total mass from the kernel's first
power moment; survival by the exact swap of the t-integral
(:func:`adaptive_integral` of a remainder in kappa/4T); the Laplace
transform of q in closed Bessel form; the closed t -> infinity tail
constant, the scaling relation for hitting a general level, and the
density of the unstopped limit functional.  No t-integral of q is
taken numerically.
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
    chebyshev_points,
    chebyshev_weights,
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
# point over (the estimate can undershoot the realized error 14-50
# fold, hence the margin under 1e-10; handed-over points cost little)
_DIRECT_LOSS_TOL = 2e-12

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
# t per table_integral call: its summands take 64 x 1720 doubles (0.9
# MB) a call, where 4000 t at once took 406 MB
_TABLE_ROWS = 64


@dataclass(frozen=True)
class DensityEvaluator:
    """Prepared state for density evaluations: the kernel w, which fixes
    params = (mu, x), and what derives from it.

    l_terms is the number of polynomial terms subtracted from the
    exponential inside the kernel integral: floor(mu + 1/2) in general
    and mu - 1/2 when that is a nonnegative integer (the largest
    subtraction the kernel tail can absorb).  Points in [t_lo, t_switch]
    take the upper panel of the interpolant of log J (_series) and those
    in [t_min, t_lo) the lower (_series_below), where each exists; the
    rest up to t_switch take the direct route, which hands a point whose
    cancellation estimate crosses _DIRECT_LOSS_TOL (2e-12 relative) to
    the table route, as it does every point beyond t_switch.  The
    table's t-independent factors and each panel are built on the first
    point that needs them and kept for the evaluator's life.
    """

    w: WLambdaRep

    @property
    def params(self) -> ModelParams:
        return self.w.params

    @functools.cached_property
    def l_terms(self) -> int:
        mu = self.params.mu
        return int(round(mu - 0.5) if is_half_integer(mu)
                   else math.floor(mu + 0.5))

    @functools.cached_property
    def t_min(self) -> float:
        return self.params.lam ** 2 / 1000.0

    @functools.cached_property
    def t_lo(self) -> float:
        return max(self.params.lam ** 2 / 20.0, 1e-3)

    @functools.cached_property
    def t_switch(self) -> float:
        return 1e3 * max(1.0, self.params.lam ** 2)

    @functools.cached_property
    def _w_norm(self) -> float:
        """A bound on int |w| dv, taken on first use: sum |a| / |Re z|
        over the discrete modes a e^{z v}, plus |int w2| (of one sign)."""
        w1_mass = float(np.sum(-self.w.amp / self.w.rate).real)
        return (float(np.sum(np.abs(self.w.amp) / -self.w.rate.real))
                + abs(w_power_moment_tail(self.w, 0, 0.0) - w1_mass))

    @functools.cached_property
    def _table(self):
        """(kappa_k, W_k w(v_k), top, T) on the table route's fixed
        v-grid (see the module docstring), built on first use: kappa and
        weight times kernel at the nodes, top = 1e8 and the tails
        T_j = int_top^infty kappa^j w dv, j <= l_terms."""
        edges = np.concatenate([np.arange(0.0, _TABLE_KNEE, 0.5),
                                geometric_edges(_TABLE_KNEE, _TABLE_TOP)])
        return _table_panels(self, edges)

    @functools.cached_property
    def _series(self):
        """The interpolant's panel on [t_lo, t_switch], from the table."""
        return _log_j_series(self.t_lo, self.t_switch,
                             functools.partial(_j_table, self))

    @functools.cached_property
    def _series_below(self):
        """Its panel on [t_min, t_lo), from the direct route."""
        return _log_j_series(self.t_min, self.t_lo,
                             functools.partial(_j_direct_with_handover, self))


def build_evaluator(params: ModelParams) -> DensityEvaluator:
    """The evaluator on the kernel of params."""
    return DensityEvaluator(build_w(params))


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

    The stop is tested once every 8 terms.  A term under 1e-17 of the
    sum is under half its ulp, and below switch the terms past it only
    fall, so the ones added before the test leave the sum as it was and
    no bit moves.  (The 1e-320 floor passes half an ulp only for sums
    under 2e-304, which the package's series with j <= 10 reach only at
    z under 1e-25, where the terms past the second underflow to 0.)
    """
    z = np.asarray(z, dtype=float)
    if j == 0:
        return f0(z)
    out = np.empty_like(z)
    small = z < switch
    zs, zb = z[small], z[~small]
    zp = zs ** (j + 1)
    acc = coefs[j + 1] * zp
    for i, c in enumerate(coefs[j + 2:], 1):
        zp *= zs
        term = c * zp
        acc += term
        if not i % 8 and np.all(np.abs(term) <= 1e-17 * np.abs(acc)
                                + 1e-320):
            break
    out[small] = acc
    poly = np.zeros_like(zb)
    for c in coefs[j:0:-1]:
        poly = (poly + c) * zb
    out[~small] = f0(zb) - poly
    return out


def table_integral(ev: DensityEvaluator, sigma: np.ndarray, f0, coefs,
                   switch, reach: float):
    """int w(v) R_j(kappa/sigma) dv over the evaluator's v-table and its
    polynomial tail at an array of scales sigma: the value, the l1 norm
    of its summands and the table's top, per sigma.

    R_j = taylor_remainder(f0, coefs, ., j, switch(j)).  Each sigma gets
    the fewest ratio-2 panels past the table's top that bring
    kappa/sigma there to `reach` (DomainError where kappa on them leaves
    double range).  That count is each sigma's own, and the sigmas with
    one count share one product, but BLAS's row blocking of it can move
    a value by its roundoff, which the summands' cancellation amplifies:
    a 70-point call at (mu, x) = (9.3, 10) is up to 8e-12 off its
    one-point calls, and at (7, 2) up to 2e-13.  The sum
    R_j(kappa_k/sigma) @ (W_k w(v_k)) is completed by the polynomial
    part's exact tail -sum_{i <= j} c_i T_i sigma^{-i}, T_i =
    int_top^infty kappa^i w dv; f past the top is the caller's
    (:func:`far_integral`).  Every min(1, l) <= j <= l = l_terms gives
    the same integral by the kernel moment identities; the j whose
    summands have the least l1 norm is taken, so that the sum does not
    cancel (no single j holds its digits at both small and large sigma).
    """
    lam, l, base = ev.params.lam, ev.l_terms, ev._table
    with np.errstate(over="ignore"):    # caught as an infinite top
        v_need = np.sqrt(lam * lam + reach * sigma) - lam
    panels = np.maximum(0.0, np.ceil(np.log2(v_need / base[2])))
    top = float(base[2] * 2.0 ** panels.max())
    if not math.isfinite(top * (2.0 * lam + top)):
        raise DomainError(f"kappa leaves double range below the table's "
                          f"reach, v = {top:g}")
    val, norm, tops = (np.empty_like(sigma) for _ in range(3))
    for k in np.unique(panels):
        rows = np.flatnonzero(panels == k)
        kap, wt, tops[rows], tails = base
        if k:
            k_ext, w_ext, tops[rows], tails = _table_panels(
                ev, base[2] * 2.0 ** np.arange(k + 1.0))
            kap, wt = np.concatenate([kap, k_ext]), np.concatenate([wt, w_ext])

        def at(j, rows):
            sig = sigma[rows]
            e = taylor_remainder(f0, coefs, kap[None, :] / sig[:, None], j,
                                 switch(j))
            tail = sum(coefs[i] * tails[i] / sig ** i for i in range(j + 1))
            return e @ wt - tail, np.abs(e) @ np.abs(wt)

        val[rows], norm[rows] = at(l, rows)
        if l > 1:
            # R_{l-1}'s summands have l1 norm >= P - norm, P = sum |W w c_l|
            # (kappa/sigma)^l; l is least at norm = 0 and where P >= 2 norm
            rows = rows[norm[rows] > 0.0]
            lk = l * np.log(kap)
            log_p = (np.log(np.abs(wt) @ np.exp(lk - lk.max())) + lk.max()
                     - l * np.log(sigma[rows]) + math.log(abs(coefs[l])))
            rows = rows[log_p < np.log(2.0 * norm[rows])]
        # down from l the norm falls to its least, then rises
        for j in range(l - 1, 0, -1):
            if not rows.size:
                break
            alt, alt_norm = at(j, rows)
            better = alt_norm < norm[rows]
            rows = rows[better]
            val[rows], norm[rows] = alt[better], alt_norm[better]
    return val, norm, tops


def far_integral(ev: DensityEvaluator, top: float, f, scale: float) -> float:
    """int_top^infty w(v) f(kappa) dv, kappa = v (2 lam + v), the far
    part past a table's top: 20-point ratio-2 panels, eight at a time,
    until a panel adds under 1e-17 of scale (the l1 norm of the sum it
    completes), or DomainError where kappa on them leaves double range."""
    lam, total = ev.params.lam, 0.0
    while True:
        if not math.isfinite(256.0 * top * (2.0 * lam + 256.0 * top)):
            raise DomainError(f"kappa leaves double range in the far part, "
                              f"past v = {top:g}")
        v, wts = gauss_legendre_panels(top * 2.0 ** np.arange(9.0),
                                       _TABLE_PTS)
        parts = (ev.w.eval_weighted(v, wts)
                 * f(v * (2.0 * lam + v))).reshape(8, _TABLE_PTS)
        total += parts.sum()
        if abs(parts[-1].sum()) <= 1e-17 * scale:
            return total
        top *= 256.0


def adaptive_integral(ev: DensityEvaluator, sigma: float, f0, coefs,
                      j: int, switch: float, v_hi: float, splits,
                      rel_tol: float, budget: int) -> Tuple[float, list]:
    """:func:`table_integral`'s adaptive sibling at one scale sigma:
    int_0^v_hi w(v) R_j(kappa/sigma) dv - sum_{i <= j} c_i T_i sigma^{-i},
    R_j = taylor_remainder(f0, coefs, ., j, switch), T_i = int_v_hi^infty
    kappa^i w dv, and the list of the T_i; the far part
    int_v_hi^infty w f dv is the caller's, which may reuse them.

    Gauss-Kronrod to rel_tol (absolute 1e-300) within `budget`
    subdivisions from the splits in (0, v_hi).  It drops `converged`:
    40 calls of a seed-7 pass of perfbench's poisson_survival spend the
    budget (1 393 440 of its 1 466 610 integrand points), at the
    integrand's own roundoff floor, and raising would fail them.  No
    stop at that floor is taken: a QUADPACK-style 50 eps int |f| stop
    ran 1.7-1.8 times faster but moved pinned results (the workload's
    accuracy_digits 6.0875 -> 5.916, and the adaptive oracle of
    test_table_route_matches_adaptive_oracle at (mu, x) = (8.6, 1.1)
    from 5.9e-11 to 2.3e-10 off Talbot); moving these calls onto the
    table is the mend (ROADMAP item 1).
    """
    def integrand(v):
        return ev.w.eval(v) * taylor_remainder(
            f0, coefs, v * (2.0 * ev.params.lam + v) / sigma, j, switch)

    spec = QuadratureSpec(1e-300, rel_tol, budget, splits)
    tails = [w_kappa_moment_tail(ev.w, i, v_hi) for i in range(j + 1)]
    return integrate_finite(integrand, 0.0, v_hi, spec).value - sum(
        float(coefs[i]) * tails[i] / sigma ** i for i in range(j + 1)), tails


# ---------------------------------------------------------------------
# the two evaluation routes

def _prefactor(lam: float, ts: np.ndarray) -> np.ndarray:
    return lam * np.exp(-lam * lam / (4.0 * ts)) / np.sqrt(np.pi * ts)


def _j_direct_with_loss(ev: DensityEvaluator,
                        ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """J by the direct route plus its relative roundoff estimate.

    J(t) = x^{mu-1/2}/(2t) - M0 + S(t) with the exact moment
    M0 = x^{mu-1/2}(mu^2 - 1/4)/(2x); for l = 0 this is the plain
    representation, for l >= 1 it is the subtracted representation
    with the closed first-moment identity substituted in.  The three
    pieces cancel as t grows, which the loss estimate tracks: 2.3e-16 of
    the largest piece plus the error bound that comes with S (see
    WLambdaRep.exp_weighted_integral), over |J|.
    """
    mu, x = ev.params.mu, ev.params.x
    xi = x ** (mu - 0.5)
    m0 = xi * (mu * mu - 0.25) / (2.0 * x)
    lead = xi / (2.0 * ts)
    s_val, s_err = ev.w.exp_weighted_integral(ts)
    j_val = lead - m0 + s_val
    scale = np.maximum(np.abs(lead), np.maximum(abs(m0), np.abs(s_val)))
    with np.errstate(over="ignore"):    # inf hands the point over
        loss = (2.3e-16 * scale + s_err) / np.maximum(np.abs(j_val), 1e-300)
    return j_val, loss


def _table_panels(ev: DensityEvaluator, edges: np.ndarray):
    """Table-route factors on Gauss-Legendre panels over edges: kappa
    and weight times w at the nodes, the top edge, and the kappa-moment
    tails T_j = int_top^infty kappa^j w dv for j <= l_terms."""
    v, wts = gauss_legendre_panels(edges, _TABLE_PTS)
    lam = ev.params.lam
    top = float(edges[-1])
    tails = np.array([w_kappa_moment_tail(ev.w, j, top)
                      for j in range(ev.l_terms + 1)])
    return v * (2.0 * lam + v), ev.w.eval_weighted(v, wts), top, tails


def _j_table(ev: DensityEvaluator,
             ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """J(t) = [x^{mu-1/2}/(2t), l = 0] + :func:`table_integral` of E_l
    at sigma = 4t, reach _POLY_S, and its roundoff relative to |J| (four
    roundoffs of its summands' l1 norm), at an array of t > 0,
    _TABLE_ROWS t at a time."""
    p = ev.params
    j_val, norm = (np.concatenate(parts) for parts in zip(*(
        table_integral(ev, 4.0 * ts[i:i + _TABLE_ROWS],
                       lambda s: np.expm1(-s), _EXP_COEFS,
                       lambda j: 0.5 * (j + 1.0), _POLY_S)[:2]
        for i in range(0, ts.size, _TABLE_ROWS))))
    if ev.l_terms == 0:
        lead = p.x ** (p.mu - 0.5) / (2.0 * ts)
        j_val += lead
        norm += lead
    with np.errstate(divide="ignore", invalid="ignore"):  # J = 0 far out
        return j_val, 4.0 * 2.2e-16 * norm / np.abs(j_val)


def _j_direct_with_handover(ev: DensityEvaluator,
                            ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """J by the direct route, the points whose loss passes
    _DIRECT_LOSS_TOL by the table, and each value's relative error."""
    j_val, noise = _j_direct_with_loss(ev, ts)
    handed = noise > _DIRECT_LOSS_TOL
    if handed.any():
        j_val[handed], noise[handed] = _j_table(ev, ts[handed])
    return j_val, noise


def _match_tol(basis: np.ndarray, node_noise: np.ndarray,
               noise: np.ndarray) -> np.ndarray:
    """The distance at which an interpolant of log J with Lagrange basis
    rows `basis` matches source values of relative error `noise`: that
    error plus the one it carries from its nodes (node_noise), summed
    through the basis as independent errors, and at least 1e-12."""
    return np.maximum(1e-12, noise + np.sqrt(basis ** 2 @ node_noise ** 2))


def _lagrange_basis(nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row i: the Lagrange basis of the Chebyshev points `nodes` at z_i
    in [-1, 1], by the second barycentric formula, so that basis @ f is
    the interpolant of f; a z_i on a node gets that node's unit row."""
    wts = chebyshev_weights(nodes.size)
    diff = z[:, None] - nodes[None, :]
    hit = diff == 0.0
    c = np.where(hit.any(axis=1)[:, None], hit,
                 wts / np.where(hit, 1.0, diff))
    return c / c.sum(axis=1)[:, None]


def _log_j_series(t_lo: float, t_hi: float, source):
    """A panel of the barycentric interpolant of log J in y = log t on
    [t_lo, t_hi], or None; source(ts) gives J and the relative error of
    each value.

    J is positive and smooth in y.  Nested Chebyshev points of the
    second kind start at 33 and double, so each doubling asks the source
    only for the new midpoints.  The larger interpolant is taken once
    the previous one matches the source at every new node to
    :func:`_match_tol`.  The carried part matters where the table
    cancels: at (mu, x) = (9.3, 1.5) its roundoff is 4e-10 for t >= 0.4,
    and the interpolant spreads a few 1e-12 of it down to t_lo, where
    the table's own is 1e-14.  Past 513 nodes (next to odd half-integer
    mu, where the match stalls at 2e-7 to 5e-7), or where a value is not
    positive, there is none.  Returns (log t_lo, log t_hi, nodes, the
    (n, 2) array (w_k log J_k, w_k) of the barycentric weights w_k folded
    into the values).
    """
    y_lo, y_hi = np.log([t_lo, t_hi])

    def log_j(z):
        j_val, noise = source(np.exp(y_lo + 0.5 * (y_hi - y_lo) * (1.0 + z)))
        if not np.all(j_val > 0.0):
            return None, None
        return np.log(j_val), noise

    n = 32
    nodes = chebyshev_points(n)
    vals, noise = log_j(nodes)
    while vals is not None and n < 512:
        n *= 2
        wider = chebyshev_points(n)
        new, new_noise = log_j(wider[1::2])
        if new is None:
            return None
        basis = _lagrange_basis(nodes, wider[1::2])
        matched = np.all(np.abs(basis @ vals - new)
                         <= _match_tol(basis, noise, new_noise))
        nodes = wider
        vals = np.insert(new, np.arange(vals.size), vals)
        noise = np.insert(new_noise, np.arange(noise.size), noise)
        if matched:
            wts = chebyshev_weights(n + 1)
            return y_lo, y_hi, nodes, np.stack([wts * vals, wts], axis=1)
    return None


def _j_series(series, ts: np.ndarray) -> np.ndarray:
    """J by a panel of the interpolant at an array of t in its interval:
    log J is the ratio of the columns of (1 / (z - nodes)) @ (w_k log
    J_k, w_k), z = -1 and 1 exactly at the ends; a z on a node (its
    ratio is nan) takes that node's value."""
    y_lo, y_hi, nodes, folded = series
    y = np.log(ts)
    z = ((y - y_lo) - (y_hi - y)) / (y_hi - y_lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        num, den = (np.reciprocal(z[:, None] - nodes) @ folded).T
        log_j = num / den
    hit = np.isnan(log_j).nonzero()[0]
    if hit.size:
        node = np.abs(z[hit, None] - nodes).argmin(axis=1)
        log_j[hit] = folded[node, 0] / folded[node, 1]
    return np.exp(log_j)


def _at_points(f, t, what: str):
    """f over the points of t, flattened, each finite and > 0 or
    DomainError(what): scalar in, scalar out; any array shape
    otherwise."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if arr.size and not np.all((arr > 0.0) & (arr < math.inf)):
        raise DomainError(what)
    out = f(arr.reshape(-1)).reshape(arr.shape)
    return float(out[0]) if np.ndim(t) == 0 else out


def q_density(ev: DensityEvaluator, t):
    """Density of the stopped functional at time(s) t > 0.

    Scalar in, scalar out; any array shape otherwise.  The points split
    once into the four routes of the module docstring: the lower panel
    of the interpolant of log J on [t_min, t_lo), the upper on [t_lo,
    t_switch], the table beyond t_switch, and the direct route for the
    rest, which hands a point whose roundoff estimate passes 2e-12 to
    the table.  Each panel and the table's v-grid are built on the
    evaluator's first point that needs them.  Together the routes cover
    every t > 0 (at mu = 0 up to about 2e99 at x = 2, then DomainError).
    The table route agrees with adaptive quadrature of J to 1e-10
    relative for mu <= 8.6; its summands can cancel by 1e5, and at (mu,
    x) = (9.3, 1.1), t = 0.7-6, it is up to 6.2e-10 off Talbot
    inversion, and at (9.3, 10, 1.62), below t_lo, 2.6e-10.  The upper
    panel is within 1e-12 of the table wherever the table does not
    cancel, and within the table's own roundoff where it does, so it
    inherits the table's error: 5.0e-10 off Talbot at (9.3, 1.1, 1.08).
    Over the benchmark's 272 reference points, all in [t_lo, t_switch],
    it is at worst 4.5e-11 off Talbot at (9.3, 1.5, 20) and 8.2e-13 for
    mu <= 7.  The lower panel is within 10 match tolerances of the
    direct route; at t/lam^2 = 0.003 and 0.01 q is within 1.1e-11 of
    Talbot for x from 1 + 1e-6 to 1e4 and mu up to 9.3.  The direct
    route's estimate can undershoot its error 14-50 fold.  Nonnegative
    up to roundoff, integrates to one, and its Laplace transform matches
    :func:`laplace_ratio`.
    """
    def curve(ts):
        j_val = np.empty_like(ts)
        # 0: direct, 1: lower panel, 2: upper (t_switch in it), 3: table
        route = np.searchsorted([ev.t_min, ev.t_lo, math.nextafter(
            ev.t_switch, math.inf)], ts, side="right")
        for k, panel in ((1, "_series_below"), (2, "_series")):
            at = (route == k).nonzero()[0]
            if at.size and getattr(ev, panel) is None:
                route[at] = 0
            elif at.size:
                j_val[at] = _j_series(getattr(ev, panel), ts[at])
        for k, f in ((0, _j_direct_with_handover), (3, _j_table)):
            at = (route == k).nonzero()[0]
            if at.size:
                j_val[at] = f(ev, ts[at])[0]
        return _prefactor(ev.params.lam, ts) * j_val

    return _at_points(curve, t, "density defined for finite t > 0")


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
    return _at_points(lambda a: 2.0 ** (-2.0 * mu) * np.exp(-0.25 / a)
                      / (gamma_fn(mu) * a ** (1.0 + mu)),
                      t, "density defined for finite t > 0")


def _kve(nu: float, z: np.ndarray) -> np.ndarray:
    """e^z K_nu(z) at an array of z > 0, 0 <= nu <= 1: scipy's, which is
    nan from z = 2^30 on, where two Hankel terms hold to 2e-19."""
    near, big = z < 2.0 ** 30, np.maximum(z, 2.0 ** 30)
    return np.where(near, sp.kve(nu, np.where(near, z, 1.0)),
                    np.sqrt(0.5 * np.pi / big)
                    * (1.0 + (nu * nu - 0.25) / (2.0 * big)))


def _small_z_law(nu: float, log_z: np.ndarray) -> np.ndarray:
    """E(z) at an array of log z, 0 <= nu < 1, with K_nu(z) = Gamma(1 +
    nu) (z/2)^{-nu} E(z) (1 + O(z^2 / (1 - nu))) as z -> 0: the two-term
    law E = [1 - g (z/2)^{2 nu}] / (2 nu), g = Gamma(1 - nu) / Gamma(1 +
    nu), by expm1, and E = -log(z/2) - gamma at nu = 0.  Below nu =
    1e-3, where 1 +- nu rounds in log Gamma, log g is its odd series
    2 (gamma nu + zeta(3) nu^3 / 3 + zeta(5) nu^5 / 5)."""
    log_half = log_z - math.log(2.0)
    if nu == 0.0:
        return -(log_half + np.euler_gamma)
    if nu < 1e-3:
        log_g = 2.0 * nu * (np.euler_gamma + nu * nu * (
            sp.zeta(3.0) / 3.0 + nu * nu * sp.zeta(5.0) / 5.0))
    else:
        log_g = sp.gammaln(1.0 - nu) - sp.gammaln(1.0 + nu)
    return -np.expm1(log_g + 2.0 * nu * log_half) / (2.0 * nu)


# below this x r the transform takes its small-z law, exact to double
# precision there; scipy's kve is inf below about z = 3e-305 and loses
# digits near it (1 + 2.2e-14 at (0.3, 2, 1e-304))
_LAW_XR = 1e-20


def laplace_ratio(mu: float, x: float, r):
    """Closed form of the Laplace transform E exp(-r^2 A(tau)).

    Equals x^mu K_mu(x r) / K_mu(r), as x^nu K_nu(x r) / K_nu(r), mu =
    nu + n, 0 <= nu < 1, times n factors s_k(x r) / s_k(r), s_k(z) = z
    K_{nu+k+1}(z) / K_{nu+k}(z) = 2 (nu + k) + z (z / s_{k-1}(z)), s_0 = 2
    nu + z K_{1-nu} / K_nu: no K of order above 1, which overflows at
    small r, is formed, nor 2 (nu + k) / z.  Where x r < 1e-20 the
    order-nu factors come from the small-z law (:func:`_small_z_law`),
    taken in log z so that x r need not be formed: the first is E(x r) /
    E(r) and s_0 = 1 / E.  Elsewhere scipy's kve serves, down to r =
    1e-300 (DomainError below, which needs x > 1e280).  Decreasing in
    r, with limit 1 as r -> 0+.  For a stop at a general level a the
    transform is laplace_ratio(mu, x/a, a*r).
    """
    if mu < 0 or not np.isfinite(mu):
        raise DomainError("drift parameter must satisfy mu >= 0")
    if not (x > 1.0) or not np.isfinite(x):
        raise DomainError("starting point must satisfy x > 1")
    nu, n = mu % 1.0, int(mu // 1.0)

    def transform(a):
        za = np.stack([x * a, a])
        small = za[0] < _LAW_XR
        if np.any(~small & (a < 1e-300)):
            raise DomainError(f"the transform needs x r < {_LAW_XR:g} "
                              f"below r = 1e-300, got x = {x:g}")
        log_a = np.log(np.where(small, a, 1.0))
        law = _small_z_law(nu, np.stack(
            [np.where(small, math.log(x) + log_a, 0.0), log_a]))
        zk = np.where(small, 1.0, za)
        k_nu = _kve(nu, zk)
        out = np.where(small, law[0] / law[1],
                       x ** nu * k_nu[0] / k_nu[1])
        s = np.where(small, 1.0 / law,
                     2.0 * nu + zk * _kve(1.0 - nu, zk) / k_nu)
        for k in range(n):
            if k:
                s = 2.0 * (nu + k) + za * (za / s)
            out *= s[0] / s[1]
        return out * np.exp(-(x - 1.0) * a)

    return _at_points(transform, r, "transform defined for r > 0")


# ---------------------------------------------------------------------
# mass, survival, tails

def total_mass(ev: DensityEvaluator) -> float:
    """int_0^infty q dt via the exact order swap.

    Integrating the representation in t first leaves
    x^{mu-1/2} - lam int_0^infty v w(v) dv, whose kernel moment the
    weight module evaluates with all-positive terms.  The two pieces
    cancel by x^{mu-1/2}, so the relative error of that moment is
    multiplied by it: |mass - 1| is 3e-14 at (mu, x) = (7, 2), but 8e-5
    at (9.3, 10), 3e-3 at (3.7, 1e4) and 2e-2 at (7, 100), where the
    moment itself holds to 1e-13.  Nothing is raised there yet: that
    needs the kernel's relative residual, certified once per evaluator
    (ROADMAP).
    """
    p = ev.params
    v1 = w_power_moment_tail(ev.w, 1, 0.0)
    return p.x ** (p.mu - 0.5) - p.lam * v1


def _survival_remainder(z0: float):
    """R(s) = int_0^1 r^{-3/2} e^{-z0 r} (e^{-s r} - 1) dr / 2 in closed
    form and its Taylor coefficients (-1)^j gamma(j-1/2, z0) z0^{1/2-j}
    / (2 j!), j < 128, the incomplete gamma by Kummer's function so that
    none overflows or underflows as z0 = lam^2/4T falls."""
    j = np.arange(128.0)
    coefs = ((-1.0) ** j * sp.hyp1f1(j - 0.5, j + 0.5, -z0) / (j - 0.5)
             / (2.0 * sp.factorial(j)))
    rz0 = math.sqrt(z0)

    def closed(s):
        rz = np.sqrt(z0 + s)
        return (-math.exp(-z0) * np.expm1(-s)
                - _SQRT_PI * (rz * sp.erf(rz) - rz0 * math.erf(rz0)))

    return closed, coefs


def survival(ev: DensityEvaluator, big_t: float) -> float:
    """P(A(tau) > T) = int_T^infty q dt, by the exact order swap.

    The t-integral under the kernel integral is 2 sqrt(T) R_l(kappa/4T),
    R from :func:`_survival_remainder`: :func:`adaptive_integral` at
    sigma = 4T up to v_hi ~ 12 sqrt(T), where erf has saturated and the
    far part 2 sqrt(T) (R + c_0) = -sqrt(pi) (lam + v) is two moments.
    From s = kappa/4T = 0.1 on, R_l still cancels to s^{l+1}/(l+1)!, so
    at high drift digits are lost: relative 6.5e-8 at (mu, x, T) =
    (5.3, 2, 60), 3.6e-7 at (7, 2, 5) and 3.1e-2 at (7, 2, 60).  At
    (9.3, 2) it is 5.1e-9 off Talbot inversion at T = 0.1, 3.0e-9 at
    T = 0.6 and 4.6e-6 at T = 1.5; it returns 4.0e-18 at T = 60, where
    Talbot gives 4.0e-23, and is 4.6e-3 off at T = 600 (ROADMAP item 1
    mends these).

    It is the total mass where the direct route's |J(t)| <= x^{mu-1/2}
    /2t + 2 int |w| bounds the mass below T, x^{mu-1/2} erfc(sqrt z0) +
    4 lam sqrt(T/pi) e^{-z0} int |w|, z0 = lam^2/4T, by 1e-17.
    """
    if not np.isfinite(big_t) or big_t < 0.0:
        raise DomainError("survival defined for finite T >= 0")
    if big_t == 0.0:
        return total_mass(ev)
    mu, lam, x = ev.params.mu, ev.params.lam, ev.params.x
    big_t = float(big_t)
    sq = math.sqrt(big_t)
    z0 = lam * lam / (4.0 * big_t)
    if (x ** (mu - 0.5) * math.erfc(math.sqrt(z0)) + 4.0 * lam * ev._w_norm
            * math.sqrt(big_t / math.pi) * math.exp(-z0)) <= 1e-17:
        return total_mass(ev)
    closed, coefs = _survival_remainder(z0)
    lead = (x ** (mu - 0.5) / lam * _SQRT_PI * math.erf(lam / (2.0 * sq))
            if ev.l_terms == 0 else 0.0)
    v_hi = 12.0 * sq + 50.0 * (1.0 + lam)
    splits = (min(1.0, lam), 1.0 + lam, 10.0 * (1.0 + lam), 0.5 * sq, sq,
              3.0 * sq)
    if 0.5 * sq > 10.0 * (1.0 + lam):
        # a kernel of e^{z v} terms alone still decays exponentially
        # past 10 (1 + lam); one panel from there to 0.5 sqrt(T) samples
        # none of that and reports convergence, ratio-2 panels follow it
        splits += tuple(geometric_edges(10.0 * (1.0 + lam), 0.5 * sq)[1:-1])
    # s = 0.1 (kappa = 0.4 T) stays while perfbench pins its loss;
    # s <= (l + 1)/2 mends it
    near, tails = adaptive_integral(ev, 4.0 * big_t, closed, coefs,
                                    ev.l_terms, 0.1, v_hi, splits, 1e-10, 768)
    # kappa^0 = v^0: the completion's T_0 is the far part's zeroth moment
    far = -_SQRT_PI * (lam * tails[0] + w_power_moment_tail(ev.w, 1, v_hi))
    return lam / _SQRT_PI * (lead + 2.0 * sq * near + far)


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
