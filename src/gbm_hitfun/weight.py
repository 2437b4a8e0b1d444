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
identities) consumes this module.  Pointwise values of w2, and the
erfcx-weighted integral the density's direct route needs, are dot
products over a fixed composite Gauss-Legendre u-grid; integrals of the
kernel are computed in swapped order: integrating the exponentials in v
first reduces them to sums and h-integrals with all-positive terms,
which is how the moment operations reach near machine accuracy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy import special as sp
from scipy.optimize import brentq

from .bessel import (
    KZeroSet,
    gamma_fn,
    is_half_integer,
    k_zero_set,
    reversed_bessel_theta,
)
from .errors import DomainError
from .quadrature import (
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
    if zeros.count == 0:
        return ()
    terms = []
    if is_half_integer(mu):
        m = int(round(mu - 0.5))
        for z in zeros.zeros:
            ratio = (x ** -0.5 * np.polyval(
                reversed_bessel_theta(m)[::-1], 1.0 / (x * z))
                / np.polyval(reversed_bessel_theta(m - 1)[::-1], 1.0 / z))
            terms.append((-(x ** mu / lam) * z * ratio, z))
    else:
        for z in zeros.zeros:
            # zeros of non-half-integer orders are strictly complex, so
            # the principal branch is unambiguous
            ratio = np.exp(lam * z) * sp.kv(mu, x * z) / sp.kv(abs(mu - 1.0), z)
            terms.append((-(x ** mu / lam) * z * ratio, z))
    # enforce exact conjugate symmetry: average each upper-half term
    # with the conjugate of its mirror
    by_key = {(round(z.real, 9), round(z.imag, 9)): a for a, z in terms}
    fixed = []
    for a, z in terms:
        mirror = by_key.get((round(z.real, 9), round(-z.imag, 9)))
        if z.imag == 0.0:
            fixed.append((complex(a.real, 0.0), z))
        elif mirror is not None:
            fixed.append((0.5 * (a + mirror.conjugate()), z))
        else:
            fixed.append((a, z))
    return tuple(fixed)


def _w1_from_terms(terms, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if not terms:
        return np.zeros(v.shape)
    acc = np.zeros(v.shape, dtype=complex)
    for a, z in terms:
        acc += a * np.exp(z * v)
    return acc.real


def w1_eval(v, params: ModelParams, zeros: KZeroSet):
    """Discrete kernel part w1(v) given the zero set of K_mu.

    Real-valued by conjugate pairing; identically zero when the zero
    set is empty (mu < 3/2).
    """
    if abs(zeros.order - params.mu) > 1e-12:
        raise DomainError(
            f"zero set is for order {zeros.order}, params have {params.mu}")
    arr = np.asarray(v, dtype=float)
    if np.any(arr < 0):
        raise DomainError("w1 is defined for v >= 0")
    out = _w1_from_terms(_discrete_terms(params, zeros), arr)
    return float(out) if np.isscalar(v) else out


# ---------------------------------------------------------------------
# continuous part

#: shared u-grid parameters for the tabulated kernel: geometric panels
#: below u = 1 resolve the u^{2 mu + 1} origin behaviour of the
#: integrand h(u) u for any mu <= 10, fixed-width panels above resolve
#: the resonance peaks, and e^{-2u} is below double noise at U_MAX.
_U_MIN = 1e-12
_U_MAX = 45.0
_PANEL_PTS = 16

# the u-grid resolves e^{-u v} down to u ~ 1/v; past this v the theorem
# tail model of w2 is more accurate than the grid
W2_EXACT_VMAX = 1e8


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
            # h(u) ~ small_u_scale u^{2 mu} as u -> 0
            self.small_u_scale = (x ** mu * 2.0 ** (1.0 - 2.0 * mu)
                                  * (1.0 - x ** (-2.0 * mu))
                                  / (gamma_fn(mu) * gamma_fn(mu + 1.0)))
        # w2(v) = sum_k amp_k e^{-v u_k}
        self.amp = self.coef * self.wts * self.h * self.u

    def w2(self, v) -> np.ndarray:
        """Exact-batch w2 on an array of v >= 0."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return np.exp(-v[:, None] * self.u[None, :]) @ self.amp

    def _h_small_end(self, p: int, vcut: float) -> np.ndarray:
        """integrals of h(u) u^{r-p} e^{-u vcut} du over the truncated
        origin (0, u_lo), for r = 0, ..., p.

        Uses the exact small-u law of h; the relative error of the law
        at u_lo is O(u_lo^{min(1, 2mu)}) for mu > 0 and O(1/log u_lo)
        for mu = 0, so the correction itself is accurate far beyond
        what the completed moments need.  For mu > 0 the law integrates
        to scale vcut^{-a} gamma(a, u_lo vcut), a = 2 mu + r - p + 1,
        taken while z = u_lo vcut < 1 through its series
        u_lo^a / a e^{-z} sum_n z^n / ((a + 1) ... (a + n)), which is
        exactly u_lo^a / a at vcut = 0.  For mu = 0 the damping is left
        out: u_lo is 1e-60 there, far below 1/vcut for every cut the
        callers use.
        """
        mu, x, eps = self.mu, self.x, self.u_lo
        if mu > 0.0:
            if 2.0 * mu - p + 1.0 <= 0.0:
                raise DomainError(
                    f"h(u) u^{-p} is not integrable at the origin for "
                    f"mu = {mu}")
            z = eps * vcut
            out = []
            for r in range(p + 1):
                a = 2.0 * mu + (r - p) + 1.0
                if z < 1.0:
                    term = series = 1.0
                    n = 1
                    while term > 1e-17 * series:
                        term *= z / (a + n)
                        series += term
                        n += 1
                    out.append(self.small_u_scale * eps ** a / a
                               * (math.exp(-z) * series))
                else:
                    out.append(self.small_u_scale * vcut ** -a
                               * math.gamma(a) * sp.gammainc(a, z))
            return np.array(out)
        # mu = 0: h ~ log(x) / (L^2 + pi^2), L = log(2/u) - gamma
        if p > 1:
            raise DomainError(
                f"h(u) u^{-p} is not integrable at the origin for mu = 0")
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
        return float(self.coef * (wts @ (h * u * inner))
                     + self.coef * small)


def w2_tail_constant(params: ModelParams) -> float:
    """Limit constant of the continuous part's power tail.

    v^{2 mu + 2} w2(v) -> -cos(pi mu) Gamma(2 mu + 2)
    (x^{2 mu} - 1) / (2^{2 mu - 1} Gamma(mu) Gamma(mu + 1) lam) for
    mu > 0; for mu = 0 the tail is -(log x)/lam / (v log v)^2 and the
    constant -(log x)/lam is returned.  The constant follows from the
    u -> 0 law of h by Watson's lemma applied to the Laplace integral
    defining the continuous part.
    """
    mu, x, lam = params.mu, params.x, params.lam
    if is_half_integer(mu):
        return 0.0
    if mu == 0.0:
        return -np.log(x) / lam
    return (-np.cos(np.pi * mu) * gamma_fn(2.0 * mu + 2.0)
            * (x ** (2.0 * mu) - 1.0)
            / (2.0 ** (2.0 * mu - 1.0) * gamma_fn(mu)
               * gamma_fn(mu + 1.0) * lam))


# ---------------------------------------------------------------------
# assembled representation

@dataclass(frozen=True)
class WLambdaRep:
    """Assembled kernel: discrete terms, continuous-part grid, tail model.

    ``eval`` is exact to the working accuracy of the u-grid: the
    discrete part is summed directly, the continuous part is the grid
    dot product while the grid still resolves e^{-u v}, and the theorem
    tail model of w2 takes over beyond that.
    """

    params: ModelParams
    discrete_terms: Tuple[Tuple[complex, complex], ...]
    has_continuous: bool
    tail_constant: float
    tail_exponent: Tuple[float, int]
    _kernel: Optional[_ContinuousKernel] = field(repr=False, default=None)

    def w1(self, v) -> np.ndarray:
        return _w1_from_terms(self.discrete_terms, np.asarray(v, float))

    def w2_exact(self, v) -> np.ndarray:
        """Continuous part on an array of v, at quadrature-grid accuracy."""
        v = np.asarray(v, dtype=float)
        if not self.has_continuous:
            return np.zeros(v.shape)
        return self._kernel.w2(v).reshape(v.shape)

    def _w2_tail_model(self, v: np.ndarray) -> np.ndarray:
        power, logpow = self.tail_exponent
        out = self.tail_constant / np.power(v, power)
        if logpow:
            out = out / np.log(v) ** logpow
        return out

    def exp_weighted_integral(self, ts) -> np.ndarray:
        """S(t) = int_0^infty e^{-kappa/4t} w(v) dv for an array of t > 0.

        kappa = v (2 lam + v).  Completing the square in v turns each
        exponential mode of w1 into a Faddeeva value and the continuous
        part into a dot product of erfcx over the kernel grid; both stay
        bounded, so S is evaluated without overflow at any t.
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
            u = self._kernel.u
            arg = (0.5 * lam / sq)[:, None] + u[None, :] * sq[:, None]
            out += (_SQRT_PI * sq) * (sp.erfcx(arg) @ self._kernel.amp)
        return out

    def eval(self, v):
        """Kernel value w(v) = w1(v) + w2(v) for any v >= 0."""
        arr = np.atleast_1d(np.asarray(v, dtype=float))
        if np.any(arr < 0) or np.any(~np.isfinite(arr)):
            raise DomainError("kernel defined for finite v >= 0")
        out = self.w1(arr)
        if self.has_continuous:
            near = arr <= W2_EXACT_VMAX
            if near.any():
                out[near] += self.w2_exact(arr[near])
            if (~near).any():
                out[~near] += self._w2_tail_model(arr[~near])
        return float(out[0]) if np.isscalar(v) else out


def build_w(params: ModelParams) -> WLambdaRep:
    """Construct the kernel representation for 0 <= mu <= 10.

    Half-integer drifts produce a purely discrete kernel (possibly
    empty: identically zero for mu = 1/2); otherwise the continuous
    part is discretized on the shared u-grid, with the theorem tail
    model for v beyond the grid's reach.
    """
    mu = params.mu
    terms = _discrete_terms(params, k_zero_set(mu))
    tail_exp = (2.0 * mu + 2.0, 0) if mu > 0 else (2.0, 2)
    if is_half_integer(mu):
        return WLambdaRep(params=params, discrete_terms=terms,
                          has_continuous=False, tail_constant=0.0,
                          tail_exponent=tail_exp)
    return WLambdaRep(params=params, discrete_terms=terms,
                      has_continuous=True,
                      tail_constant=w2_tail_constant(params),
                      tail_exponent=tail_exp,
                      _kernel=_ContinuousKernel(params))


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
    mu = rep.params.mu
    if rep.has_continuous:
        if mu == 0.0 and p > 1:
            raise DomainError(
                f"v^{p} w is not integrable for mu = 0 (needs p <= 1)")
        if mu > 0.0 and p >= 2.0 * mu + 1.0:
            raise DomainError(
                f"v^{p} w is not integrable for mu = {mu} (needs "
                f"p < 2 mu + 1)")
    val = _w1_power_moment(rep.discrete_terms, p, vcut)
    if rep.has_continuous:
        val += rep._kernel.w2_tail_power_moment(p, vcut)
    return val
