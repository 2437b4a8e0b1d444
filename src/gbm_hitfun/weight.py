"""The kernel w_lam of the hitting-density representation.

For X(t) = x exp(B(t) - 2 mu t) started at x = 1 + lam > 1 and stopped
at 1, the density of the stopped integral functional can be written as
an explicit prefactor plus an integral against a kernel w_lam on
[0, infinity).  The kernel splits into

* a discrete part w1: a finite combination of exponentials e^{z_i v}
  over the zeros z_i of K_mu (empty for mu < 3/2), and
* a continuous part w2: the Laplace transform at v of a nonnegative
  Bessel-product ratio h(u) times u, present exactly when mu - 1/2 is
  not a nonnegative integer.

Everything downstream (density, tails, Poisson kernels, moment
identities) consumes this module.  Pointwise values of w2 are dot
products over a fixed composite Gauss-Legendre u-grid; below its first
node the small-u law of h integrates to incomplete gamma functions, so
w2 has one formula at every v.  The erfcx-weighted integral the
density's direct route needs runs over a short Gauss rule in log u
(32-128 nodes), built on first use from the grid's live part, which
drops the nodes under 1e-20 of the mass at either end; the rule's
measured deviation and a bound on the low end's share feed the
density's loss estimate.  Integrals of the kernel are computed in
swapped order: integrating the exponentials in v first reduces them to
sums and h-integrals with all-positive terms, which is how the moment
operations reach near machine accuracy.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy import special as sp
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from .bessel import (
    KZeroSet,
    gamma_fn,
    is_half_integer,
    k_zero_set,
    reversed_bessel_theta,
)
from .errors import ConvergenceError, DomainError
from .quadrature import (
    gauss_legendre_panels,
    geometric_edges,
    integrate_finite,
)

_SQRT_PI = math.sqrt(math.pi)
# entries per block of the erfcx product: 0.5 MB stays in cache, where
# 1000 rows of a long grid at once allocate and page-fault tens of MB
_BLOCK_ENTRIES = 65536


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
        if not np.isfinite(self.x) or self.x <= 1.0:
            raise DomainError(f"start point must exceed 1, got {self.x}")
        if self.x - 1.0 < 0.05:
            warnings.warn(
                "x within 0.05 of the hitting level: kernel evaluation "
                "loses accuracy to cancellation", stacklevel=2)

    @property
    def lam(self) -> float:
        return self.x - 1.0


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
    c = np.cos(np.pi * mu)
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

def _discrete_terms(params: ModelParams,
                    zeros: KZeroSet) -> Tuple[Tuple[complex, complex], ...]:
    """Coefficient/rate pairs (A_i, z_i) of w1(v) = sum A_i e^{z_i v}.

    A_i = -(x^mu/lam) z_i e^{lam z_i} K_mu(x z_i) / K_{mu-1}(z_i).  For
    half-integer orders the K-ratio is taken through the reversed
    Bessel polynomials, which cancels the branch-sensitive square-root
    and exponential factors exactly:
        e^{lam z} K_{m+1/2}(x z)/K_{m-1/2}(z)
            = x^{-1/2} theta_m(1/(x z)) / theta_{m-1}(1/z).
    """
    mu, x, lam = params.mu, params.x, params.lam
    half = is_half_integer(mu)
    m = int(round(mu - 0.5))
    terms = []
    # A_i on the closed upper half-plane only: the zero set is closed
    # under conjugation bit for bit, so each lower zero takes the exact
    # conjugate of its mirror's coefficient
    for z in zeros.zeros:
        if z.imag < 0.0:
            continue
        if half:
            ratio = (x ** -0.5 * np.polyval(
                reversed_bessel_theta(m)[::-1], 1.0 / (x * z))
                / np.polyval(reversed_bessel_theta(m - 1)[::-1], 1.0 / z))
        else:
            # zeros of non-half-integer orders are strictly complex, so
            # the principal branch is unambiguous
            ratio = np.exp(lam * z) * sp.kv(mu, x * z) / sp.kv(abs(mu - 1.0), z)
        a = -(x ** mu / lam) * z * ratio
        if z.imag == 0.0:
            terms.append((complex(a.real, 0.0), z))
        else:
            terms += [(a, z), (a.conjugate(), z.conjugate())]
    # keep the zero set's order, by real and then imaginary part
    terms.sort(key=lambda t: (t[1].real, t[1].imag))
    return tuple(terms)


# ---------------------------------------------------------------------
# continuous part

#: shared u-grid parameters for the tabulated kernel: geometric panels
#: below u = 1 resolve the u^{2 mu + 1} origin behaviour of the
#: integrand h(u) u for any mu <= 10, fixed-width panels above resolve
#: the resonance peaks, and e^{-2u} is below double noise at U_MAX.
_U_MIN = 1e-12
_U_MAX = 45.0
_PANEL_PTS = 16

# at mu = 0 the grid starts at u_lo = 1e-60 and the origin piece below
# it is dropped; that stays below double noise while u_lo v does not
# pass this, i.e. for v up to 1e51
_LOG_ORIGIN_REACH = 1e-9
# cap on the terms of the small-u law of h for mu > 0
_ORIGIN_TERMS = 400


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
    """
    scale = (x ** mu * 2.0 ** (1.0 - 2.0 * mu) * (1.0 - x ** (-2.0 * mu))
             / (gamma_fn(mu) * gamma_fn(mu + 1.0)))
    if mu >= 1.0:
        return np.array([scale]), 0.0
    g = 2.0 ** (-2.0 * mu) * gamma_fn(1.0 - mu) / gamma_fn(1.0 + mu)
    rho = g * u_lo ** (2.0 * mu)
    k = np.arange(_ORIGIN_TERMS)
    k = k[(k + 1.0) * rho ** k > 1e-17]
    theta = 2.0 * math.pi * mu
    n = k.size
    cut = scale * rho ** n * ((n + 1.0) / (1.0 - rho)
                              + rho / (1.0 - rho) ** 2)
    return scale * np.sin((k + 1) * theta) / math.sin(theta) * g ** k, cut


class _ContinuousKernel:
    """Fixed-grid discretization of the continuous-part integrals.

    Holds h on a shared composite Gauss-Legendre grid so that w2
    values and tail moments of w2 become dot products with positive
    terms (full relative accuracy, no cancellation), evaluated in
    microseconds.
    """

    def __init__(self, params: ModelParams):
        mu, x = params.mu, params.x
        self.mu = mu
        self.x = x
        self.coef = -np.cos(np.pi * mu) * x ** mu / params.lam
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
        if extra.size:
            extra = extra[(extra > edges[0]) & (extra < edges[-1])]
            edges = np.unique(np.concatenate([edges, extra]))
        self.u_lo = edges[0]
        self.u, self.wts = gauss_legendre_panels(edges, _PANEL_PTS)
        self.h = _h_values(mu, x, self.u)
        if mu > 0.0:
            self.origin_coefs, self.origin_cut = _origin_coefs(mu, x,
                                                               self.u_lo)
            self.origin_steps = 2.0 * mu * np.arange(self.origin_coefs.size)
            # h >= 0, so the origin piece of w2 is largest at v = 0
            self.w2_origin_max = abs(self.coef * self._origin(2.0 * mu + 2.0,
                                                              0.0)[0, 0])
        # w2(v) = sum_k amp_k e^{-v u_k}
        self.amp = self.coef * self.wts * self.h * self.u
        # the erfcx product runs over the live nodes: each end of the grid
        # drops its longest run of nodes holding at most 1e-20 of sum |amp|
        # (drop_lo the mass dropped at small u)
        mass = np.abs(self.amp)
        cut = 1e-20 * mass.sum()
        lo, top = (int(np.searchsorted(np.cumsum(m), cut, side="right"))
                   for m in (mass, mass[::-1]))
        self.live = slice(lo, self.u.size - top)
        self.drop_lo = float(mass[:lo].sum())

    @functools.cached_property
    def rule(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """(u, amp, dev): an n-node Gauss rule in y = log u for the measure
        |amp| on the live nodes, signed as coef, and its largest relative
        deviation from the live nodes' erfcx product at 40 t in [1e-4,
        1e4 max(1, lam^2)], past the density's switch time.

        Discretized Stieltjes (Gautschi, Orthogonal Polynomials, 2004) on
        y mapped onto [-1, 1] gives the Jacobi matrix, whose eigenvectors
        give the weights.  n doubles from 32 until dev <= 1e-14; the live
        nodes stay, with dev 0, if 256 miss or the rule is not shorter.
        """
        u, amp = self.u[self.live], self.amp[self.live]
        if u.size <= 32:
            return u, amp, 0.0
        lam, mass = self.x - 1.0, np.abs(amp)
        sq = np.sqrt(np.geomspace(1e-4, 1e4 * max(1.0, lam * lam), 40))

        def product(nodes, weights):
            # summed pairwise: a BLAS order adds noise near 1e-15
            return (sp.erfcx(0.5 * lam / sq[:, None] + nodes * sq[:, None])
                    * weights).sum(axis=1)

        ref = product(u, amp)
        y = np.log(u)
        s = (2.0 * y - y[0] - y[-1]) / (y[-1] - y[0])
        p_prev, p = np.zeros_like(s), np.full_like(s, mass.sum() ** -0.5)
        alpha, beta = [], [0.0]
        for n in (32, 64, 128, 256):
            if n >= u.size:
                break
            while len(alpha) < n:
                alpha.append(mass @ (s * p * p))
                r = (s - alpha[-1]) * p - beta[-1] * p_prev
                beta.append(math.sqrt(mass @ (r * r)))
                p_prev, p = p, r / beta[-1]
            nodes, vecs = eigh_tridiagonal(alpha, beta[1:n])
            u_n = np.exp(0.5 * (nodes * (y[-1] - y[0]) + y[0] + y[-1]))
            amp_n = np.sign(self.coef) * mass.sum() * vecs[0] ** 2
            dev = float(np.max(np.abs(product(u_n, amp_n) / ref - 1.0)))
            if dev <= 1e-14:
                return u_n, amp_n, dev
        return u, amp, 0.0

    def w2(self, v) -> np.ndarray:
        """w2 on an array of v >= 0: the grid sum plus the origin piece
        coef int_0^{u_lo} h(u) u e^{-u v} du, which carries w2 once v
        passes 1/u_lo."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.exp(-v[:, None] * self.u[None, :]) @ self.amp
        if self.mu == 0.0:
            self._check_log_reach(np.max(v, initial=0.0))
            return out
        # an origin piece under 2^-55 of the grid sum cannot change a bit
        if np.all(np.abs(out) > 2.0 ** 55 * self.w2_origin_max):
            return out
        return out + self.coef * self._origin(2.0 * self.mu + 2.0, v)[:, 0]

    def _check_log_reach(self, v: float):
        if self.u_lo * v > _LOG_ORIGIN_REACH:
            raise DomainError(
                f"the mu = 0 kernel is resolved for v <= "
                f"{_LOG_ORIGIN_REACH / self.u_lo:g}, got {v:g}")

    def _origin(self, a, v) -> np.ndarray:
        """int_0^{u_lo} h(u) u^{a - 2 mu - 1} e^{-u v} du for an array of
        v >= 0 (rows) and of a (columns), for mu > 0: the small-u law of
        h integrates term by term
        to c_k v^{-b} gamma(b, u_lo v), b = a + 2 mu k, taken while
        z = u_lo v < 1 through its all-positive series c_k u_lo^b / b
        e^{-z} sum_n z^n / ((b + 1) ... (b + n)), exact at v = 0."""
        eps = self.u_lo
        v = np.reshape(v, (-1, 1, 1))
        b = np.reshape(a, (-1, 1)) + self.origin_steps
        z = eps * v
        near = z < 1.0
        all_near = near.all()
        zn = z if all_near else np.where(near, z, 0.0)
        # the series is >= 1, so once this bound on every term falls to
        # 1e-17 each term is at most 1e-17 of its series
        zmax, bmin, bound, n_terms = float(zn.max()), float(b.min()), 1.0, 0
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
            out[far] = (self.origin_coefs * v[far] ** -b * sp.gamma(b)
                        * sp.gammainc(b, z[far]))
        return out.sum(axis=2)

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
            if 2.0 * mu - p + 1.0 <= 0.0:
                raise DomainError(
                    f"v^{p} w is not integrable for mu = {mu} (needs "
                    f"p < 2 mu + 1)")
            return self._origin([2.0 * mu + (r - p) + 1.0
                                 for r in range(p + 1)], vcut)[0]
        self._check_log_reach(vcut)
        # mu = 0: h ~ log(x) / (L^2 + pi^2), L = log(2/u) - gamma
        if p > 1:
            raise DomainError(
                f"v^{p} w is not integrable for mu = 0 (needs p <= 1)")
        ell = math.log(2.0 / eps) - np.euler_gamma
        power_end = math.log(x) * eps / (ell ** 2 + math.pi ** 2)
        if p == 0:
            return np.array([power_end])
        log_end = (math.log(x) / math.pi) * (math.pi / 2.0
                                             - math.atan(ell / math.pi))
        return np.array([log_end, power_end])

    def w2_tail_power_moment(self, p: int, vcut: float) -> float:
        """integral of v^p w2(v) dv over [vcut, infinity), exactly.

        Integrating e^{-u v} v^p over [vcut, infinity) first leaves
        e^{-u vcut} sum_r p!/r! vcut^r u^{r-p-1} under the u-integral,
        an all-positive sum.
        """
        u, h, wts = self.u, self.h, self.wts
        weights = np.array([math.factorial(p) / math.factorial(r) * vcut ** r
                            for r in range(p + 1)])
        poly = weights[p]
        for r in range(p - 1, -1, -1):
            poly = poly * u + weights[r]
        inner = poly * u ** (-p - 1) * np.exp(-u * vcut)
        small = weights @ self._h_small_end(p, vcut)
        value = float(self.coef * (wts @ (h * u * inner))
                      + self.coef * small)
        if self.mu > 0.0:
            # the terms the small-u law leaves out move the piece below
            # u_lo of each u^{r-p} term by at most B u_lo^a / (a + 2 mu K)
            a = 2.0 * self.mu + 1.0 + np.arange(p + 1.0) - p
            cut = abs(self.coef) * self.origin_cut * (weights @ (
                self.u_lo ** a / (a + 2.0 * self.mu * self.origin_coefs.size)))
            if cut > 1e-11:
                raise ConvergenceError(
                    f"small-u law of h cut at {_ORIGIN_TERMS} terms: the "
                    f"moment may be off by {cut:.2g}", value, cut)
        return value


# ---------------------------------------------------------------------
# assembled representation

@dataclass(frozen=True)
class WLambdaRep:
    """Assembled kernel: discrete terms and the continuous-part grid.

    ``eval`` is exact to the working accuracy of the u-grid at every
    v >= 0: the discrete part is summed directly and the continuous
    part is the grid dot product plus its exact origin piece.
    """

    params: ModelParams
    discrete_terms: Tuple[Tuple[complex, complex], ...]
    _kernel: Optional[_ContinuousKernel] = field(repr=False, default=None)

    @property
    def has_continuous(self) -> bool:
        return self._kernel is not None

    def w1(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        acc = np.zeros(v.shape, dtype=complex)
        for a, z in self.discrete_terms:
            acc += a * np.exp(z * v)
        return acc.real

    def w2_exact(self, v) -> np.ndarray:
        """Continuous part on an array of v, at quadrature-grid accuracy."""
        v = np.asarray(v, dtype=float)
        if not self.has_continuous:
            return np.zeros(v.shape)
        return self._kernel.w2(v).reshape(v.shape)

    def exp_weighted_integral(self, ts) -> np.ndarray:
        """S(t) = int_0^infty e^{-kappa/4t} w(v) dv for an array of t > 0.

        kappa = v (2 lam + v).  Completing the square in v turns each
        exponential mode of w1 into a Faddeeva value and the continuous
        part into a dot product of erfcx over the kernel's short rule in
        log u; both stay bounded, so S is evaluated without overflow at
        any t.  The product runs in blocks of 65536 entries.  The rule
        is off the product over the grid's live nodes by up to
        :attr:`exp_weighted_deviation` of that part (its largest
        deviation at 40 t, measured when it was built); the nodes cut
        above the live range change it by at most 1e-20 relative, and
        :meth:`exp_weighted_cut` bounds those cut below.
        """
        ts = np.asarray(ts, dtype=float)
        lam = self.params.lam
        sq = np.sqrt(ts)
        out = np.zeros_like(ts)
        for a, z in self.discrete_terms:
            # int_0^inf e^{z v} e^{-kappa/4t} dv
            #   = sqrt(pi t) e^{c^2/4t} erfc(c / 2 sqrt t),  c = lam - 2 t z,
            # and e^{c^2/4t} erfc(c/2 sqrt t) = wofz(i c / 2 sqrt t)
            c = lam - 2.0 * ts * z
            out += (a * sp.wofz(0.5j * c / sq)).real * (_SQRT_PI * sq)
        if self.has_continuous:
            # every term has the sign of coef (h >= 0, W_k > 0) and erfcx
            # decreases on [0, inf), so the nodes dropped at large u add at
            # most D_H / sum_kept |amp| <= 1e-20 of the kept sum at every t
            u, amp, _ = self._kernel.rule
            step = _BLOCK_ENTRIES // max(1, u.size)
            buf = np.empty((min(step, ts.size), u.size))
            for i in range(0, ts.size, step):
                rows = slice(i, i + step)
                b = buf[:sq[rows].size]
                np.multiply(sq[rows, None], u, out=b)
                b += 0.5 * lam / sq[rows, None]
                sp.erfcx(b, out=b)
                out[rows] += (_SQRT_PI * sq[rows]) * (b @ amp)
        return out

    @property
    def exp_weighted_deviation(self) -> float:
        """Largest relative deviation of the continuous part of
        :meth:`exp_weighted_integral` from the product over the grid's
        live nodes, measured when its rule was built (0 if none)."""
        return self._kernel.rule[2] if self.has_continuous else 0.0

    def exp_weighted_cut(self, ts) -> np.ndarray:
        """Bound on the part of :meth:`exp_weighted_integral` at each t
        that its product leaves out below the kernel grid's live range:
        sqrt(pi t) D_L erfcx(lam / 2 sqrt t), D_L the |amp| mass there."""
        sq = np.sqrt(np.asarray(ts, dtype=float))
        drop = self._kernel.drop_lo if self.has_continuous else 0.0
        return _SQRT_PI * sq * drop * sp.erfcx(0.5 * self.params.lam / sq)

    def tail_laplace_transform(self, r) -> np.ndarray:
        """int_0^infty e^{-r v} W(v) dv for r > 0 (any shape), with
        W(v) = int_v^infty w the kernel's tail mass.

        Equals (int w dv - w_hat(r)) / r, w_hat the Laplace transform of
        w, without that difference's cancellation as r -> 0: a mode
        A e^{z v} of w1 gives A / (z (z - r)), w2 the grid sum
        coef int h(u) / (u + r) du plus, for mu > 0, its piece below
        u_lo from the small-u law of h, termwise c_k u_lo^b / (b r)
        2F1(1, b; b + 1; -u_lo / r) with b = 2 mu (k + 1) + 1.
        """
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape)
        for a, z in self.discrete_terms:
            out += (a / (z * (z - r))).real
        kern, rr = self._kernel, r[..., None]
        if kern is None:
            return out
        out += (1.0 / (rr + kern.u)) @ (kern.amp / kern.u)
        if kern.mu > 0.0:
            b = 2.0 * kern.mu + 1.0 + kern.origin_steps
            out += kern.coef * (kern.origin_coefs * kern.u_lo ** b / (b * rr)
                                * sp.hyp2f1(1.0, b, b + 1.0, -kern.u_lo / rr)
                                ).sum(axis=-1)
        return out

    def eval(self, v):
        """Kernel value w(v) = w1(v) + w2(v) for any v >= 0.

        At mu = 0 w2 is resolved for v up to 1e51; DomainError beyond.
        """
        arr = np.atleast_1d(np.asarray(v, dtype=float))
        if np.any(arr < 0) or np.any(~np.isfinite(arr)):
            raise DomainError("kernel defined for finite v >= 0")
        out = self.w1(arr) + self.w2_exact(arr)
        return float(out[0]) if np.isscalar(v) else out


def build_w(params: ModelParams) -> WLambdaRep:
    """Construct the kernel representation for 0 <= mu <= 10.

    Half-integer drifts produce a purely discrete kernel (possibly
    empty: identically zero for mu = 1/2); otherwise the continuous
    part is discretized on the shared u-grid.
    """
    kernel = None if is_half_integer(params.mu) else _ContinuousKernel(params)
    return WLambdaRep(params=params, _kernel=kernel,
                      discrete_terms=_discrete_terms(params,
                                                     k_zero_set(params.mu)))


# ---------------------------------------------------------------------
# moments

def _w1_power_moment(terms, p: int, vcut: float) -> float:
    """integral of v^p w1(v) dv over [vcut, infinity), exactly."""
    acc = 0.0 + 0.0j
    for a, z in terms:
        inner = sum(
            math.factorial(p) / math.factorial(r)
            * vcut ** r * (-z) ** (r - p - 1)
            for r in range(p + 1))
        acc += a * np.exp(z * vcut) * inner
    return float(acc.real)


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
    if vcut < 0:
        raise DomainError("vcut must be >= 0")
    if m < 0 or m != int(m):
        raise DomainError("moment order must be a nonnegative integer")
    m = int(m)
    mu, lam = rep.params.mu, rep.params.lam
    if m >= 1 and mu + 0.5 < m:
        raise DomainError(
            f"kappa^{m} w is not integrable for mu = {mu} (needs "
            f"mu + 1/2 >= {m})")
    val = 0.0
    for j in range(m + 1):
        part = _w1_power_moment(rep.discrete_terms, m + j, vcut)
        if rep.has_continuous:
            part += rep._kernel.w2_tail_power_moment(m + j, vcut)
        val += math.comb(m, j) * (2.0 * lam) ** (m - j) * part
    return val


def w_power_moment_tail(rep: WLambdaRep, p: int, vcut: float) -> float:
    """integral of v^p w(v) dv over [vcut, infinity).

    Plain power moments of the kernel tail; the survival and total-mass
    routines consume p = 0, 1 (and p = 2 as a cross-check).  For the
    continuous part v^p w2 is integrable when p < 2 mu + 1; p = 1 is
    also allowed at mu = 0, where the (v log v)^{-2} tail converges
    logarithmically and the swapped integral picks the limit up
    analytically.
    """
    if vcut < 0:
        raise DomainError("vcut must be >= 0")
    if p < 0 or p != int(p):
        raise DomainError("power must be a nonnegative integer")
    p = int(p)
    val = _w1_power_moment(rep.discrete_terms, p, vcut)
    if rep.has_continuous:
        val += rep._kernel.w2_tail_power_moment(p, vcut)
    return val
