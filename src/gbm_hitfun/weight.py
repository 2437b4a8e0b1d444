"""The kernel w_lam of the hitting-density representation.

For X(t) = x exp(B(t) - 2 mu t) started at x = 1 + lam > 1 and stopped
at 1, the density of the stopped integral functional can be written as
an explicit prefactor plus an integral against a kernel w_lam on
[0, infinity).  The kernel splits into

* a discrete part w1 = sum A_i e^{z_i v} over the zeros z_i of K_mu
  (empty for mu < 3/2), the residues A_i = -(x^mu/lam) z_i e^{lam z_i}
  K_mu(x z_i)/K_{mu-1}(z_i), by one ratio of scaled Bessel functions
  at every order (DomainError where x |z_i| reaches 2^30), taken as
  the real part of one mode 2 A_i e^{z_i v} per conjugate pair of
  zeros, and
* a continuous part w2 = coef int h(u) u e^{-u v} du, h >= 0 a
  Bessel-product ratio; coef carries cos(pi mu), so w2 vanishes when
  mu - 1/2 is a nonnegative integer.

A composite Gauss-Legendre u-grid, ended where the mass of h u ends,
makes w2 a sum of amp_k e^{-u_k v} (an empty sum at half-integer mu)
plus an origin piece, the small-u law of h integrated below the grid.
So both parts are mode sets a e^{z v}, Re z < 0, and every functional of
w taken here (values and the power-moment tails int_vcut^infty v^p w dv)
has one closed form per mode, one array product's real part over either
set, plus the origin piece's own.  Up to v = 2^39, w2 is read from a
piecewise-Chebyshev interpolant of its sum, built on its first value
(10-20 ms): within 7.7e-15 of it for x <= 100, 3.0e-14 at x = 1e4.
Mode sums run the product tile by tile over v, in tiles of about 2^16 (point x
mode) entries and a multiple of 64 points, so that no call writes more
than a cache-sized temporary and each tile sums its rows in the order
one product over all points on one BLAS thread would (OpenBLAS's gemv
sums the rows left over from its row groups in another order).
Integrating the exponentials in v first leaves sums of one sign per set,
which is how the moments reach near machine accuracy.  The density's
direct route takes its erfcx-weighted integral over the same modes,
together with a bound on its error.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
from scipy import special as sp
from scipy.optimize import brentq

from .bessel import KZeroSet, gamma_fn, is_half_integer, k_zero_set
from .errors import ConvergenceError, DomainError
from .quadrature import (
    chebyshev_points,
    chebyshev_weights,
    gauss_legendre_panels,
    geometric_edges,
    integrate_finite,
)

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class ModelParams:
    """Drift and starting point of the stopped geometric Brownian motion.

    The hitting level is fixed at 1 (see the density module for the
    rescaling that handles other levels); lam = x - 1 > 0 measures the
    starting distance.
    """

    mu: float
    x: float

    def __post_init__(self):
        if not np.isfinite(self.mu) or self.mu < 0:
            raise DomainError(f"drift must be finite and >= 0, got {self.mu}")
        if 0.0 < self.mu < np.finfo(float).tiny:  # h would be 0/0
            raise DomainError(f"drift must not be subnormal, got {self.mu}")
        if not np.isfinite(self.x) or self.x <= 1.0:
            raise DomainError(f"start point must exceed 1, got {self.x}")
        if self.x - 1.0 < 0.05:
            warnings.warn(
                "x within 0.05 of the hitting level: survival loses "
                "accuracy to cancellation", stacklevel=2)

    @property
    def lam(self) -> float:
        return self.x - 1.0


def _cos_pi(mu: float) -> float:
    """cos(pi mu) = -(-1)^k sin(pi (mu - 1/2 - k)), k = round(mu - 1/2)."""
    k = round(mu - 0.5)
    return -(-1.0) ** k * math.sin(math.pi * (mu - 0.5 - k))


def _h_values(mu: float, x: float, u: np.ndarray) -> np.ndarray:
    """Vectorized h(u): scaled-Bessel form, overflow-free for mu <= 10.

    Uses exponentially scaled I and K so that every factor stays within
    double range down to u = 1e-12 and out to u ~ hundreds.
    """
    lam = x - 1.0
    xu = x * u
    ive_u = sp.ive(mu, u)
    kve_u = sp.kve(mu, u)
    num = (sp.ive(mu, xu) * kve_u
           - ive_u * sp.kve(mu, xu) * np.exp(-2.0 * lam * u))
    num = num * np.exp(-2.0 * u)
    c = _cos_pi(mu)
    s = np.sin(np.pi * mu)
    damp = kve_u * np.exp(-2.0 * u)
    den = (c * damp) ** 2 + (np.pi * ive_u + s * damp) ** 2
    return num / den


def h_mu_lambda(u, params: ModelParams):
    """Nonnegative kernel h under the continuous-part integral.

    Behaves like x^mu (c_mu/c'_mu)(1 - x^{-2 mu}) u^{2 mu} as u -> 0+
    for mu > 0, with c_mu/c'_mu = 2^{1 - 2 mu} / (Gamma(mu)
    Gamma(mu + 1)), and like log x / (log u)^2 for mu = 0; decays like
    e^{-2u} / (pi sqrt(x)) for large u.  Accepts scalars or arrays,
    u > 0.
    """
    arr = np.asarray(u, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError("h is defined for finite u > 0")
    out = _h_values(params.mu, params.x, arr)
    return float(out) if np.isscalar(u) else out


# ---------------------------------------------------------------------
# discrete part

def _discrete_modes(params: ModelParams,
                    zeros: KZeroSet) -> Tuple[np.ndarray, np.ndarray]:
    """(amp, rate) of w1(v) = Re sum amp_i e^{rate_i v}, one mode per
    conjugate pair of zeros of K_mu: rate is the zero set's zeros (those
    with Im z >= 0) as stored, amp 2 A_i at a complex zero and the real
    A_i at a real one, A_i = -(x^mu/lam) z_i e^{lam z_i} K_mu(x z_i)
    / K_{mu-1}(z_i).  Since lam = x - 1, the K-ratio is the ratio of
    scaled Bessel functions kve(mu, x z) / kve(|mu - 1|, z) at every
    order, which does not overflow at large x.  scipy's kve is nan from
    |x z| = 2^30 on (about x = 1e8 for mu <= 10): DomainError there.
    """
    mu, x, lam = params.mu, params.x, params.lam
    z = np.array(zeros.zeros, dtype=complex)
    if np.any(x * np.abs(z) >= 2.0 ** 30):
        raise DomainError(f"the discrete amplitudes need x |z| < 2^30 at "
                          f"every zero of K_{mu}, got x = {x:g}")
    ratio = sp.kve(mu, x * z) / sp.kve(abs(mu - 1.0), z)
    amp = -(x ** mu / lam) * z * ratio
    return np.where(z.imag == 0.0, amp.real, 2.0 * amp), z


# ---------------------------------------------------------------------
# closed forms per mode a e^{z v}, Re z < 0, for both parts' mode sets;
# the real part of each is the conjugate-closed sum

# entries of one tile's (points x width) temporaries in _tiled, 0.5-1
# MB.  w2's interpolant runs tile by tile too (33 nodes a point,
# 1984-point tiles): at 7680 points one product wrote three 2 MB arrays
_TILE_ENTRIES = 2 ** 16


def _tiled(f, v: np.ndarray, width: int) -> np.ndarray:
    """f over a flat array v, tile by tile, the results stacked; f takes
    n points through (n x width) temporaries.  A tile holds 64 max(1,
    2^16 // (64 width)) points.  OpenBLAS's gemv sums the rows left over
    from its row groups in another order, so tiles of a multiple of 64
    points keep each row's sum as one product over all points on one
    BLAS thread has it (47-point tiles moved 4 % of w2 values, by up to
    2.4e-15).  On two threads the tiles still do, while that one product
    moves the rows at its thread split."""
    rows = 64 * max(1, _TILE_ENTRIES // (64 * max(1, width)))
    if v.size <= rows + 1:
        return f(v)
    # a last point alone would take numpy's one-row product
    return np.concatenate([f(t) for t in np.split(
        v, range(rows, v.size - 1, rows))])


def _modes_value(amp, rate, v) -> np.ndarray:
    """sum over modes a e^{z v} at an array of v (any shape), the real
    part: per tile of v (_tiled), one exp in place and one product."""
    def tile(vt):
        e = np.multiply.outer(vt, rate)
        return (np.exp(e, out=e) @ amp).real

    v = np.asarray(v)
    return _tiled(tile, v.ravel(), rate.size).reshape(v.shape)


def _power_tail_weights(p: int, vcut: float) -> np.ndarray:
    """c_r = p!/r! vcut^r, r = 0..p: for s > 0,
    int_vcut^infty v^p e^{-s v} dv = e^{-s vcut} sum_r c_r s^{r-p-1}.
    DomainError where vcut^p, which bounds them for vcut >= p, leaves
    double range."""
    try:
        return np.array([math.factorial(p) / math.factorial(r) * vcut ** r
                         for r in range(p + 1)])
    except OverflowError:
        raise DomainError(f"v^{p} moment tail weights overflow at "
                          f"vcut = {vcut:g}") from None


def _modes_power_tail(amp, rate, p: int, vcut: float) -> float:
    """sum over modes a e^{z v} of int_vcut^infty v^p a e^{z v} dv =
    a e^{z vcut} sum_r p!/r! vcut^r (-z)^{r-p-1}, the inner sum by
    Horner in -z; the real part.  A mode whose e^{z vcut} underflows
    adds 0, also where its Horner sum has overflowed."""
    s = -rate
    poly = 0.0
    decay = np.exp(rate * vcut)
    with np.errstate(over="ignore", invalid="ignore"):
        for c in _power_tail_weights(p, vcut)[::-1]:
            poly = poly * s + c
        terms = amp * decay * poly * s ** (-p - 1.0)
    return float(np.sum(np.where(decay == 0.0, 0.0, terms)).real)


# ---------------------------------------------------------------------
# continuous part

#: shared u-grid parameters for the tabulated kernel: geometric panels
#: below u = 1 resolve the u^{2 mu + 1} origin behaviour of h(u) u for
#: any mu <= 10, fixed-width panels above resolve the resonance peaks,
#: and the grid is cut back from U_MAX where its mass ends (u = 19.6-26.3).
_U_MIN = 1e-12
_U_MAX = 45.0
_PANEL_PTS = 16

# at mu = 0 the grid starts at u_lo = 1e-60 and the origin piece below
# it is dropped; that stays below double noise while u_lo v does not
# pass this, i.e. for v up to 1e51
_LOG_ORIGIN_REACH = 1e-9
# cap on the terms of the small-u law of h for mu > 0
_ORIGIN_TERMS = 400

# w2's interpolant: panels [0, 1/4] and [2^k, 2^(k+1)], k = -2..38, of
# 33 points (25 were 1.1e-13 off at (9.3, 1.001)); its top stays below
# 1/u_lo = 1e12, so every node takes the origin piece's near series
_W2_EDGES = np.r_[0.0, 2.0 ** np.arange(-2.0, 40.0)]
_W2_NODES = chebyshev_points(32)
_W2_WEIGHTS = chebyshev_weights(_W2_NODES.size)


def _resonance_refinement(mu: float) -> np.ndarray:
    """Extra grid edges resolving the near-cut resonance of h.

    For sin(pi mu) < 0 a shadow zero of K_mu just behind the cut pulls
    the denominator of h toward zero at a single u*, leaving a
    Lorentzian peak of half-width |cos(pi mu)| K / |(pi I + sin(pi mu)
    K)'| there (arbitrarily sharp as mu approaches an odd
    half-integer).  Graded panel edges spanning 24
    half-widths pin the peak to the panel degree; when the peak is
    sharp, edges at doubling distances carry the grading on out to the
    fixed 0.5-wide panels, which cannot follow the Lorentzian's 1/u^2
    flanks from closer in.
    """
    s = math.sin(math.pi * mu)
    if s >= 0.0:
        return np.empty(0)

    def term2(u):
        return (math.pi * sp.ive(mu, u)
                + s * sp.kve(mu, u) * math.exp(-2.0 * u))

    lo, hi = 1e-6, 60.0
    if term2(lo) * term2(hi) >= 0.0:
        return np.empty(0)
    u_star = brentq(term2, lo, hi)
    du = 1e-6 * max(1.0, u_star)
    deriv = (term2(u_star + du) - term2(u_star - du)) / (2.0 * du)
    damp = sp.kve(mu, u_star) * math.exp(-2.0 * u_star)
    width = max(abs(math.cos(math.pi * mu)) * damp / abs(deriv), 1e-8)
    offsets = np.array([0.75, 1.5, 2.5, 4.0, 6.0, 10.0, 16.0, 24.0])
    far = 24.0 * 2.0 ** np.arange(1, 22)    # 24 * 2^21 * 1e-8 > 0.5
    offsets = np.concatenate([offsets, far[far * width < 0.5]])
    return u_star + width * np.concatenate([-offsets[::-1], [0.0], offsets])


def _origin_coefs(mu: float, x: float,
                  u_lo: float) -> Tuple[np.ndarray, float]:
    """Coefficients c_k of h(u) = sum_k c_k u^{2 mu (k + 1)} (1 + O(u))
    as u -> 0, for mu > 0, and a bound on the terms left out.

    K_mu through I_{-mu} - I_mu gives h = S u^{2 mu} e^{-lam u}
    / |1 - rho e^{2 i pi mu}|^2 (1 + O(u^2)), S as in h_mu_lambda and
    rho = g u^{2 mu} = Gamma(1 - mu) (u/2)^{2 mu} / Gamma(1 + mu); the
    Chebyshev U_k(cos 2 pi mu) expand it, c_k = S U_k g^k, with
    e^{-lam u} left out.  Terms run while (k + 1) rho(u_lo)^k passes
    1e-17, at most _ORIGIN_TERMS (reached for mu below about 0.002); for
    mu >= 1, rho is below u^2 and S stands alone.  Also returned:
    B = S sum_{k >= K} (k + 1) rho(u_lo)^k; below u_lo, B u^{2 mu}
    bounds the terms left out after the K kept, since |U_k| <= k + 1.
    As mu -> 0, S and (1 - rho)^2 fall like mu^2 and B tends to
    S/(1 - rho)^2 (9.0e-4 at x = 2), taken as a product of ratios of
    order one so that nothing underflows down to the smallest normal mu
    (to about 4 % below mu = 1e-15, where 1 +- mu rounds in log Gamma).
    """
    lead = x ** mu * 2.0 ** (1.0 - 2.0 * mu) / gamma_fn(mu + 1.0)
    small = -math.expm1(-2.0 * mu * math.log(x))    # 1 - x^{-2 mu}
    scale = lead * small / gamma_fn(mu)
    if mu >= 1.0:
        return np.array([scale]), 0.0
    g = 2.0 ** (-2.0 * mu) * gamma_fn(1.0 - mu) / gamma_fn(1.0 + mu)
    rho = g * u_lo ** (2.0 * mu)
    gap = -math.expm1(2.0 * mu * math.log(0.5 * u_lo)     # 1 - rho
                      + sp.gammaln(1.0 - mu) - sp.gammaln(1.0 + mu))
    k = np.arange(_ORIGIN_TERMS)
    k = k[(k + 1.0) * rho ** k > 1e-17]
    theta = 2.0 * math.pi * mu
    n = k.size
    cut = (lead * (small / gap) / (gamma_fn(mu) * gap) * rho ** n
           * ((n + 1.0) * gap + rho))
    return scale * np.sin((k + 1) * theta) / math.sin(theta) * g ** k, cut


class _ContinuousKernel:
    """The continuous part as a mode set on a fixed u-grid plus its
    origin piece, and an interpolant of w2 in v.

    Holds amp_k = coef W_k h(u_k) u_k on a shared composite
    Gauss-Legendre grid, so that the exact w2 (w2_sum) and tail moments
    of w2 are sums over the modes (amp_k, -u_k), each term of one sign
    (full relative accuracy, no cancellation), and the small-u law of h
    below the grid's first node u_lo for mu > 0.  w2 reads, up to v =
    2^39, a barycentric interpolant of the sum at 33 Chebyshev points on
    [0, 1/4] and on each octave [2^k, 2^(k+1)], built on first use.  At
    half-integer mu the set is empty, has no origin law and builds no
    interpolant.
    """

    def __init__(self, params: ModelParams):
        mu, x = params.mu, params.x
        self.mu, self.x = mu, x
        self.coef = -_cos_pi(mu) * x ** mu / params.lam
        # the small-u law h = sum_k c_k u^{2 mu (k + 1)} for mu > 0; at
        # mu = 0 _h_small_end takes the log law instead.  At half-integer
        # mu, cos(pi mu) = 0: no nodes and no origin law
        self.origin_coefs, self.origin_cut = np.empty(0), 0.0
        self.u_lo, self.u, wts = 1.0, np.empty(0), np.empty(0)
        if not is_half_integer(mu):
            if mu == 0.0:
                # resolve the (log u)^{-2} origin behaviour: graded panels
                # reach much deeper and log-spacing keeps the integrand
                # polynomial-like per panel
                low = geometric_edges(1e-60, 1.0, ratio=4.0)
            else:
                low = geometric_edges(_U_MIN, 1.0, ratio=2.0)
            # h develops narrow resonance peaks above u ~ 1 as mu grows
            # (near-zeros of the denominator shadowing the K_mu zeros), so
            # the mid range gets fixed-width panels instead of octaves
            high = np.arange(1.0, _U_MAX + 0.25, 0.5)
            edges = np.concatenate([low, high[1:]])
            extra = _resonance_refinement(mu)
            extra = extra[(extra > edges[0]) & (extra < edges[-1])]
            edges = np.unique(np.concatenate([edges, extra]))
            self.u_lo = edges[0]
            self.u, wts = gauss_legendre_panels(edges, _PANEL_PTS)
            if mu > 0.0:
                self.origin_coefs, self.origin_cut = _origin_coefs(
                    mu, x, self.u_lo)
        self.origin_steps = 2.0 * mu * np.arange(self.origin_coefs.size)
        # w2(v) = sum_k amp_k e^{-v u_k} + the origin piece
        amp = self.coef * wts * _h_values(mu, x, self.u) * self.u
        # each end of the grid drops its longest run of nodes holding at
        # most 1e-20 of sum |amp|: the top run leaves the grid, as each
        # term has coef's sign and falls with u in every functional taken
        # here; the bottom run leaves the erfcx product (drop_lo its mass)
        mass = np.abs(amp)
        cut = 1e-20 * mass.sum()
        lo, top = (int(np.searchsorted(np.cumsum(m), cut, side="right"))
                   for m in (mass, mass[::-1]))
        self.u, self.amp = self.u[:self.u.size - top], amp[:amp.size - top]
        self.live, self.drop_lo = slice(lo, None), float(mass[:lo].sum())

    def w2(self, v) -> np.ndarray:
        """w2 on an array of v >= 0, flattened: the interpolant up to its
        top 2^39, the exact sum (w2_sum) above it and at half-integer mu,
        where w2 = 0 and nothing is built."""
        v = np.ravel(np.asarray(v, dtype=float))
        near = v <= _W2_EDGES[-1]
        if not (self.u.size and near.any()):
            return self.w2_sum(v)
        if near.all():
            return self._w2_near(v)
        out = np.empty_like(v)
        out[near] = self._w2_near(v[near])
        out[~near] = self.w2_sum(v[~near])
        return out

    @functools.cached_property
    def _w2_panels(self) -> np.ndarray:
        """Row k: the barycentric weights times w2 ((1 + v)/(1 + a))^(2 mu
        + 2) at the nodes of panel k = [a, b], w2 by the exact sum; the
        factor leaves w2's v^-(2 mu + 2) tail nothing to resolve."""
        a, b = _W2_EDGES[:-1, None], _W2_EDGES[1:, None]
        v = a + 0.5 * (b - a) * (1.0 + _W2_NODES)
        return (_W2_WEIGHTS * ((1.0 + v) / (1.0 + a)) ** (2.0 * self.mu + 2.0)
                * self.w2_sum(v).reshape(v.shape))

    def _w2_near(self, v: np.ndarray) -> np.ndarray:
        """The interpolant at a 1-d array of v in [0, 2^39], by the second
        barycentric formula on v's panel [a, b] in z = ((v - a) - (b -
        v))/(b - a), exactly -1 and 1 at the ends; a z on a node (its
        ratio is nan) takes that node's value.  Per tile of v (_tiled,
        1984 points), with z - nodes inverted in place: each point's
        value is its own, and 1984 is a multiple of 64, so the weights'
        product sums every row in the order one product over all points
        does and no bit moves."""
        def tile(vt):
            k = np.searchsorted(_W2_EDGES[1:-1], vt, side="right")
            a, b = _W2_EDGES[k], _W2_EDGES[k + 1]
            z = ((vt - a) - (b - vt)) / (b - a)
            folded = self._w2_panels[k]
            c = np.subtract.outer(z, _W2_NODES)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.reciprocal(c, out=c)
                val = np.einsum("ij,ij->i", c, folded) / (c @ _W2_WEIGHTS)
            hit = np.isnan(val).nonzero()[0]
            if hit.size:
                node = np.abs(z[hit, None] - _W2_NODES).argmin(axis=1)
                val[hit] = folded[hit, node] / _W2_WEIGHTS[node]
            return val / ((1.0 + vt) / (1.0 + a)) ** (2.0 * self.mu + 2.0)

        return _tiled(tile, v, _W2_NODES.size)

    def w2_sum(self, v) -> np.ndarray:
        """w2 on an array of v >= 0, flattened, as the exact sum: the mode
        sum plus the origin piece coef int_0^{u_lo} h(u) u e^{-u v} du,
        which carries w2 once v passes 1/u_lo."""
        v = np.ravel(np.asarray(v, dtype=float))
        if self.mu == 0.0:
            self._check_log_reach(np.max(v, initial=0.0))
        return (_modes_value(self.amp, -self.u, v)
                + self.coef * self._origin(2.0 * self.mu + 2.0, v)[:, 0])

    def _check_log_reach(self, v: float):
        if self.u_lo * v > _LOG_ORIGIN_REACH:
            raise DomainError(
                f"the mu = 0 kernel is resolved for v <= "
                f"{_LOG_ORIGIN_REACH / self.u_lo:g}, got {v:g}")

    def _origin(self, a, v) -> np.ndarray:
        """int_0^{u_lo} h(u) u^{a - 2 mu - 1} e^{-u v} du for an array of
        v >= 0 (rows, flattened) and of a (columns) by the small-u law of
        h (0 where there is none): term by term c_k v^{-b} gamma(b, u_lo
        v), b = a + 2 mu k, taken while z = u_lo v < 1 through its
        all-positive series c_k u_lo^b / b e^{-z} sum_n z^n / ((b + 1)
        ... (b + n)), exact at v = 0.  Per tile of v (_tiled), as its
        (v x a x k) terms reach 400 per point near mu = 0.  A term with
        b <= 0 diverges at 0: DomainError."""
        eps = self.u_lo
        b = np.reshape(a, (-1, 1)) + self.origin_steps
        bmin = float(b.min(initial=np.inf))
        if bmin <= 0.0:
            raise DomainError(f"v^p w is not integrable for mu = {self.mu} "
                              f"(needs p < 2 mu + 1)")

        def tile(vt):
            v = vt.reshape(-1, 1, 1)
            z = eps * v
            near = z < 1.0
            all_near = near.all()
            zn = z if all_near else np.where(near, z, 0.0)
            # the series is >= 1, so once this bound on every term falls
            # to 1e-17 each term is at most 1e-17 of its series, and the
            # terms left out cannot change a bit
            zmax, bound, n_terms = float(zn.max(initial=0.0)), 1.0, 0
            while bound > 1e-17:
                n_terms += 1
                bound *= zmax / (bmin + n_terms)
            term = series = 1.0
            for n in range(1, n_terms + 1):
                term = term * (zn / (b + n))
                series = series + term
            out = self.origin_coefs * eps ** b / b * (np.exp(-zn) * series)
            if not all_near:
                far = ~near[:, 0, 0]
                # v^-b last: far out it nears underflow, c_k v^-b loses bits
                out[far] = (self.origin_coefs * sp.gamma(b)
                            * sp.gammainc(b, z[far]) * v[far] ** -b)
            return out.sum(axis=2)

        return _tiled(tile, np.ravel(v), b.size)

    def weighted(self, v: np.ndarray, w: np.ndarray,
                 wts: np.ndarray) -> np.ndarray:
        """wts w at a 1-d array of v, w the kernel's values there: wts * w
        while w, and the lead term c_0 v^{-(2 mu + 2)} that w2 forms on
        the way to it, are normal doubles.  Past that w has lost bits,
        every mode has long vanished, and w is the origin piece's power
        law coef sum_k c_k Gamma(b) P(b, u_lo v) v^{-b}, b = 2 mu (k + 1)
        + 2, taken with each wts v^{-b} as (wts^{1/b} / v)^b, which
        leaves double range only where it does itself."""
        out = wts * w
        # no origin law, or one that underflows to 0 (mu below 1e-154)
        if not self.origin_coefs.any():
            return out
        tiny = np.finfo(float).tiny
        b = 2.0 * self.mu + 2.0 + self.origin_steps
        v_low = math.exp((math.log(abs(self.origin_coefs[0]))
                          - math.log(tiny)) / b[0])
        low = (np.abs(w) < tiny) | (v > v_low)
        vl, wl = v[low, None], wts[low, None]
        out[low] = self.coef * (self.origin_coefs * sp.gamma(b)
                                * (wl ** (1.0 / b) / vl) ** b
                                * sp.gammainc(b, self.u_lo * vl)).sum(axis=1)
        return out

    def _h_small_end(self, p: int, vcut: float) -> np.ndarray:
        """integrals of h(u) u^{r-p} e^{-u vcut} du over the truncated
        origin (0, u_lo), for r = 0, ..., p.

        Uses the small-u law of h, exact to O(u_lo) relative, so the
        correction itself is accurate far beyond what the completed
        moments need.  For mu = 0 the damping e^{-u vcut} is left out,
        which holds while u_lo vcut stays below 1e-9 (vcut up to 1e51);
        beyond, DomainError.
        """
        mu, x, eps = self.mu, self.x, self.u_lo
        if mu > 0.0:
            return self._origin([2.0 * mu + (r - p + 1)
                                 for r in range(p + 1)], vcut)[0]
        self._check_log_reach(vcut)
        # mu = 0: h ~ log(x) / (L^2 + pi^2), L = log(2/u) - gamma
        if p > 1:
            raise DomainError(
                f"v^{p} w is not integrable for mu = 0 (needs p <= 1)")
        ell = math.log(2.0 / eps) - np.euler_gamma
        log_end = (math.log(x) / math.pi) * (math.pi / 2.0
                                             - math.atan(ell / math.pi))
        power_end = math.log(x) * eps / (ell ** 2 + math.pi ** 2)
        return np.array([log_end, power_end][1 - p:])

    def w2_tail_power_moment(self, p: int, vcut: float) -> float:
        """integral of v^p w2(v) dv over [vcut, infinity), exactly: the
        modes' closed form plus the origin piece, whose u-integrand
        e^{-u vcut} sum_r p!/r! vcut^r u^{r-p-1} h(u) u is all-positive.
        """
        weights = _power_tail_weights(p, vcut)
        value = (_modes_power_tail(self.amp, -self.u, p, vcut)
                 + float(self.coef * (weights @ self._h_small_end(p, vcut))))
        if self.origin_cut > 0.0:
            # the terms the small-u law leaves out move the piece below
            # u_lo of each u^{r-p} term by at most B u_lo^a / (a + 2 mu K)
            a = 2.0 * self.mu + np.arange(1.0 - p, 2.0)
            cut = abs(self.coef) * self.origin_cut * (weights @ (
                self.u_lo ** a / (a + 2.0 * self.mu * self.origin_coefs.size)))
            if cut > 1e-11:
                raise ConvergenceError(
                    f"small-u law of h cut at {_ORIGIN_TERMS} terms: the "
                    f"moment may be off by {cut:.2g}", value, cut)
        return value


# ---------------------------------------------------------------------
# assembled representation

@dataclass(frozen=True, eq=False)  # equal and hashed by identity
class WLambdaRep:
    """Assembled kernel: the discrete modes (amp, rate), one per
    conjugate pair of zeros (see _discrete_modes), and the continuous
    part's mode set with its origin piece.

    ``eval`` sums the discrete part directly at every v >= 0 and takes
    the continuous part from the kernel's interpolant of the grid's mode
    sum plus origin piece up to v = 2^39 (within 3.0e-14 of it), from
    that sum above.
    """

    params: ModelParams
    amp: np.ndarray
    rate: np.ndarray
    _kernel: _ContinuousKernel = field(repr=False)

    def w1(self, v) -> np.ndarray:
        """Discrete part on an array of v (any shape)."""
        return _modes_value(self.amp, self.rate, np.asarray(v, dtype=float))

    def w2_exact(self, v) -> np.ndarray:
        """Continuous part on an array of v, of v's shape: the
        interpolant up to 2^39, the exact sum above (the name stays for
        perfbench's tracer)."""
        return self._kernel.w2(v).reshape(np.shape(v))

    def exp_weighted_integral(self, ts) -> Tuple[np.ndarray, np.ndarray]:
        """(S, err) at a 1-d array of t > 0: S(t) = int_0^infty
        e^{-kappa/4t} w(v) dv, kappa = v (2 lam + v), and a bound on its
        error.

        Completing the square in v turns the discrete part into the real
        part of a dot product of Faddeeva values with amp, and the
        continuous part S2 into a dot product of erfcx with the grid's
        live amplitudes, per tile of t (_tiled); both stay bounded, so S
        is evaluated without overflow at any t.  The nodes cut below the
        live range add at most cut = sqrt(pi t) D_L erfcx(lam / 2 sqrt t),
        D_L their |amp| mass, and the sums' roundoff is eps times their
        l1 norms: sqrt(pi t) sum_i |A_i w_i| over the discrete terms and
        |S2| over the continuous ones, which share one sign.  err = cut +
        eps (sqrt(pi t) sum_i |A_i w_i| + |S2|).
        """
        ts = np.asarray(ts, dtype=float)
        lam = self.params.lam
        sq = np.sqrt(ts)
        # int_0^inf e^{z v} e^{-kappa/4t} dv
        #   = sqrt(pi t) e^{c^2/4t} erfc(c / 2 sqrt t),  c = lam - 2 t z,
        # and e^{c^2/4t} erfc(c/2 sqrt t) = wofz(i c / 2 sqrt t)
        c = lam - 2.0 * ts[:, None] * self.rate
        wz = sp.wofz(0.5j * c / sq[:, None])
        s1 = (wz @ self.amp).real * (_SQRT_PI * sq)
        s1_norm = (np.abs(wz) @ np.abs(self.amp)) * (_SQRT_PI * sq)
        kern = self._kernel
        u, amp = kern.u[kern.live], kern.amp[kern.live]

        def erfcx_product(tt):
            # in place: fresh temporaries here take up to 1.8x the time
            s = np.sqrt(tt)[:, None]
            b = s * u
            b += 0.5 * lam / s
            return sp.erfcx(b, out=b) @ amp

        s2 = (_SQRT_PI * sq) * _tiled(erfcx_product, ts, u.size)
        cut = _SQRT_PI * sq * kern.drop_lo * sp.erfcx(0.5 * lam / sq)
        eps = np.finfo(float).eps
        return s1 + s2, cut + eps * (s1_norm + np.abs(s2))

    def eval_weighted(self, v: np.ndarray, wts: np.ndarray) -> np.ndarray:
        """wts w(v) at a 1-d array of v >= 0 and of weights wts > 0, bit
        for bit wts * eval(v) while w(v) is formed in double range.

        Far out w falls like v^{-(2 mu + 2)} and leaves that range (from
        v = 1e80 at mu = 1.2 and 5e18 at mu = 7, where the lead term of
        its power law does), while the weight of a quadrature node there,
        of order v, keeps wts w in it.  There the law is formed with the
        weight inside (_ContinuousKernel.weighted).
        """
        return self._kernel.weighted(v, self.eval(v), wts)

    def eval(self, v):
        """Kernel value w(v) = w1(v) + w2(v) for any v >= 0, of v's shape
        (a float for a 0-d v).

        At mu = 0 w2 is resolved for v up to 1e51; DomainError beyond.
        """
        arr = np.atleast_1d(np.asarray(v, dtype=float))
        if np.any(arr < 0) or np.any(~np.isfinite(arr)):
            raise DomainError("kernel defined for finite v >= 0")
        out = self.w1(arr) + self.w2_exact(arr)
        return float(out[0]) if np.ndim(v) == 0 else out


def build_w(params: ModelParams) -> WLambdaRep:
    """Construct the kernel representation for 0 <= mu <= 10.

    Half-integer drifts produce a purely discrete kernel (possibly
    empty: identically zero for mu = 1/2), whose continuous mode set is
    empty; otherwise the continuous part is discretized on the shared
    u-grid.
    """
    amp, rate = _discrete_modes(params, k_zero_set(params.mu))
    return WLambdaRep(params=params, amp=amp, rate=rate,
                      _kernel=_ContinuousKernel(params))


# ---------------------------------------------------------------------
# moments

def _power_tail(rep: WLambdaRep, p: int, vcut: float) -> float:
    """integral of v^p w(v) dv over [vcut, infinity), exactly."""
    if not 0.0 <= vcut < math.inf:
        raise DomainError(f"vcut must be finite and >= 0, got {vcut}")
    return (_modes_power_tail(rep.amp, rep.rate, p, vcut)
            + rep._kernel.w2_tail_power_moment(p, vcut))


def w_moment(rep: WLambdaRep, m: int) -> float:
    """Moment integral of the kernel against kappa^m, kappa = v(2lam+v).

    m = 0 gives the plain integral of w (equals
    x^{mu-1/2}(mu^2 - 1/4)/(2x) for every mu >= 0); m = 1 equals
    2 x^{mu-1/2} for mu > 1/2; moments with 2 <= m < mu + 1/2 vanish.
    Integrability requires m <= mu + 1/2 for m >= 1.
    """
    return w_kappa_moment_tail(rep, m, 0.0)


def w_kappa_moment_tail(rep: WLambdaRep, m: int, vcut: float) -> float:
    """integral of kappa^m w(v) dv over [vcut, infinity).

    Expands kappa^m = sum_j C(m,j) (2 lam)^{m-j} v^{m+j} into exact
    power-moment tails; used by the density and Poisson modules to
    complete truncated v-integrals without losing relative accuracy
    (all terms carry one sign).
    """
    if m < 0 or m != int(m):
        raise DomainError("moment order must be a nonnegative integer")
    m = int(m)
    mu, lam = rep.params.mu, rep.params.lam
    if m >= 1 and mu + 0.5 < m:
        raise DomainError(
            f"kappa^{m} w is not integrable for mu = {mu} (needs "
            f"mu + 1/2 >= {m})")
    return sum(math.comb(m, j) * (2.0 * lam) ** (m - j)
               * _power_tail(rep, m + j, vcut) for j in range(m + 1))


def w_power_moment_tail(rep: WLambdaRep, p: int, vcut: float) -> float:
    """integral of v^p w(v) dv over [vcut, infinity).

    Plain power moments of the kernel tail; the survival and total-mass
    routines consume p = 0, 1 (and p = 2 as a cross-check).  For the
    continuous part v^p w2 is integrable when p < 2 mu + 1; p = 1 is
    also allowed at mu = 0, where the (v log v)^{-2} tail converges
    logarithmically and the swapped integral picks the limit up
    analytically.
    """
    if p < 0 or p != int(p):
        raise DomainError("power must be a nonnegative integer")
    return _power_tail(rep, int(p), vcut)
