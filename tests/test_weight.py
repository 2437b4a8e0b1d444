"""Kernel representation tests: h, discrete/continuous parts, tails, moments.

Oracles used here:

* closed forms for half-integer drifts (w = e^{-v} at mu = 3/2, the
  damped-oscillation formula at mu = 5/2, w = 0 at mu = 1/2),
* elementary-function substitution of the half-integer Bessel closed
  forms into h,
* analytic moment identities obtained by integrating the exponentials
  in v first (independent of the quadrature grid),
* the discrete amplitudes by mpmath's besselk at the same float zeros,
* the defining Laplace-transform identity of the kernel, checked
  against scipy's scaled Bessel ratio at machine precision.

The tail limits assert the constants that follow from the small-u law
of h (h ~ K u^{2 mu}, K = x^mu 2^{1-2mu}(1-x^{-2mu})/(Gamma(mu)
Gamma(mu+1)); log x/(log u)^2 for mu = 0) via Watson's lemma, far
past the reach of the u-grid, where w2 rests on the exact integral of
the law below the grid.
"""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

import gbm_hitfun
from gbm_hitfun.bessel import k_zero_set
from gbm_hitfun.errors import DomainError
from gbm_hitfun.quadrature import (
    QuadratureSpec,
    gauss_legendre_panels,
    geometric_edges,
    integrate_finite,
    integrate_semi_infinite,
)
from gbm_hitfun.weight import (
    ModelParams,
    WLambdaRep,
    _modes_value,
    build_w,
    h_mu_lambda,
    w_kappa_moment_tail,
    w_moment,
    w_power_moment_tail,
)


def small_u_constant(mu: float, x: float) -> float:
    # x^mu (c_mu/c'_mu)(1 - x^{-2mu}) with c_mu/c'_mu
    # = 2^{1-2mu}/(Gamma(mu) Gamma(mu+1))
    return (x ** mu * 2.0 ** (1.0 - 2.0 * mu)
            / (sp.gamma(mu) * sp.gamma(mu + 1.0))
            * (1.0 - x ** (-2.0 * mu)))


def w2_tail_constant(params: ModelParams) -> float:
    """Limit constant of the continuous part's power tail.

    v^{2 mu + 2} w2(v) -> -cos(pi mu) Gamma(2 mu + 2)
    (x^{2 mu} - 1) / (2^{2 mu - 1} Gamma(mu) Gamma(mu + 1) lam) for
    mu > 0; for mu = 0 the tail is -(log x)/lam / (v log v)^2 and the
    constant -(log x)/lam is returned.  Watson's lemma applied to the
    Laplace integral defining w2, with the u -> 0 law of h.
    """
    mu, x, lam = params.mu, params.x, params.lam
    if mu == 0.0:
        return -np.log(x) / lam
    return (-np.cos(np.pi * mu) * sp.gamma(2.0 * mu + 2.0)
            * (x ** (2.0 * mu) - 1.0)
            / (2.0 ** (2.0 * mu - 1.0) * sp.gamma(mu)
               * sp.gamma(mu + 1.0) * lam))


def w2_adaptive(v: float, params: ModelParams) -> float:
    """w2(v) = -cos(pi mu) (x^mu/lam) int h(u) e^{-v u} u du by adaptive
    semi-infinite quadrature.  For mu = 0 the (0, 1] piece is taken
    after u = e^{-s}, which turns the (log u)^{-2} origin behaviour into
    a smooth exponentially decaying integrand."""
    mu, x, lam = params.mu, params.x, params.lam
    coef = -np.cos(np.pi * mu) * x ** mu / lam

    def integrand(u):
        return h_mu_lambda(u, params) * u * np.exp(-v * u)

    rate = 0.8 * (2.0 + v)
    if mu == 0.0:
        # u = e^{-s} on (0, 1]: du u -> e^{-2s} ds, s over [0, inf)
        def sub(s):
            es = np.exp(-s)
            return h_mu_lambda(es, params) * np.exp(-v * es - 2.0 * s)

        parts = [integrate_semi_infinite(sub, 0.0, 1.5, QuadratureSpec()),
                 integrate_semi_infinite(integrand, 1.0, rate,
                                         QuadratureSpec())]
    else:
        spec = QuadratureSpec(split_points=[1e-8, 1e-4, 1e-2])
        parts = [integrate_semi_infinite(integrand, 0.0, rate, spec)]
    assert all(r.converged for r in parts)
    return coef * sum(r.value for r in parts)


def cor_five_halves(v, lam: float):
    # damped oscillation closed form for mu = 5/2
    v = np.asarray(v, dtype=float)
    return (3.0 * np.exp(-1.5 * v)
            * ((2.0 * lam + 1.0) * np.cos(np.sqrt(3.0) * v / 2.0)
               + np.sqrt(3.0) * np.sin(np.sqrt(3.0) * v / 2.0)))


# ---------------------------------------------------------------------
# model parameters

def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(-0.1, 2.0)
    with pytest.raises(DomainError):
        ModelParams(1.0, 1.0)
    with pytest.raises(DomainError):
        ModelParams(1.0, 0.5)
    assert ModelParams(1.0, 2.5).lam == 1.5


@pytest.mark.parametrize("mu", [5e-324, 1e-310])
def test_params_reject_subnormal_drift(mu):
    # 1 - x^{-2 mu} rounds to 0 there and h turns to 0/0; the smallest
    # normal drift is accepted
    with pytest.raises(DomainError):
        ModelParams(mu, 2.0)
    assert ModelParams(np.finfo(float).tiny, 2.0).mu > 0.0


def test_params_warns_near_level():
    # q holds to 3e-15 of Talbot at x = 1 + 1e-9 to 1.001; what loses
    # accuracy near the level is survival, 7.1e2 off at (7, 1.05, T =
    # 0.1 lam^2)
    with pytest.warns(UserWarning, match="^x within 0.05 .*survival"):
        ModelParams(1.0, 1.01)


# ---------------------------------------------------------------------
# the kernel h under the continuous-part integral

@pytest.mark.parametrize("mu,x,u", [
    (1.0, 2.0, 1e-7),
    (2.2, 1.5, 1e-6),
    (0.3, 2.0, 1e-11),
])
def test_h_small_u_law(mu, x, u):
    # h ~ K u^{2 mu}; the leading relative correction is O(u^{min(1,2mu)})
    # so small mu needs a much smaller probe point
    got = h_mu_lambda(u, ModelParams(mu, x)) / u ** (2.0 * mu)
    assert got == pytest.approx(small_u_constant(mu, x), rel=1e-4)


def test_h_small_u_law_mu_zero():
    # mu = 0: h ~ log x / (log u)^2, corrections O(1/log u)
    for x in (2.0, 1.3):
        got = h_mu_lambda(1e-11, ModelParams(0.0, x))
        assert got * np.log(1e-11) ** 2 / np.log(x) == pytest.approx(1.0,
                                                                     rel=0.05)


def test_h_half_integer_closed_form():
    # K_{1/2}, I_{1/2} substitution collapses h to elementary functions
    x = 2.0
    lam = x - 1.0
    p = ModelParams(0.5, x)
    for u in (0.3, 1.0, 2.5):
        closed = (2.0 / (np.pi * np.sqrt(x))
                  * (np.sinh(x * u) * np.exp(-u)
                     - np.sinh(u) * np.exp(-x * u))
                  * np.exp(-2.0 * u) * np.exp(-lam * u))
        assert h_mu_lambda(u, p) == pytest.approx(closed, rel=1e-12)


def test_h_large_u_envelope():
    p = ModelParams(1.0, 2.0)
    env = lambda u: np.exp(-2.0 * u) / (np.pi * np.sqrt(2.0))
    val = h_mu_lambda(5.0, p)
    assert 0.0 < val <= 1.5 * env(5.0)
    # asymptotic envelope saturates slowly
    assert h_mu_lambda(30.0, p) / env(30.0) == pytest.approx(1.0, rel=0.05)


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0, 2.2, 5.0])
def test_h_nonnegative(mu):
    u = np.geomspace(1e-10, 40.0, 200)
    vals = h_mu_lambda(u, ModelParams(mu, 2.0))
    assert np.all(vals >= 0.0)


def test_h_domain_errors():
    p = ModelParams(1.0, 2.0)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            h_mu_lambda(bad, p)


# ---------------------------------------------------------------------
# discrete part

@pytest.mark.parametrize("x", [2.0, 3.5])
def test_w1_three_halves_is_pure_exponential(x):
    v = np.linspace(0.0, 20.0, 81)
    got = build_w(ModelParams(1.5, x)).w1(v)
    assert np.max(np.abs(got - np.exp(-v))) < 1e-12


def test_w1_five_halves_closed_form():
    rep = build_w(ModelParams(2.5, 2.0))  # lam = 1
    assert rep.w1(0.0) == pytest.approx(9.0, abs=1e-10)
    v = np.linspace(0.0, 20.0, 161)
    sup = np.max(np.abs(rep.w1(v) - cor_five_halves(v, 1.0)))
    assert sup < 1e-8


@pytest.mark.parametrize("mu", [0.3, 1.0])
def test_w1_empty_below_three_halves(mu):
    v = np.linspace(0.0, 10.0, 21)
    assert np.all(build_w(ModelParams(mu, 2.0)).w1(v) == 0.0)


def test_w1_polynomial_decay():
    # every polynomial weight is killed by the exponential decay; the
    # slowest mode for mu = 7/2 decays like e^{-1.84 v}, so by v = 30
    # the weighted values are far below any power growth
    rep = build_w(ModelParams(3.5, 2.0))
    v = np.array([30.0, 50.0, 80.0])
    weighted = np.abs(v ** 8 * rep.w1(v))
    assert np.all(weighted < 1e-6)
    assert weighted[2] < weighted[0]


def discrete_amplitude(mu: float, x: float, z: complex) -> complex:
    """A = -(x^mu/lam) z e^{lam z} K_mu(x z)/K_{mu-1}(z) at one zero z of
    K_mu, taken at z itself, e^{lam z} folded into scaled Bessel
    functions (lam = x - 1)."""
    return (-(x ** mu / (x - 1.0)) * z * sp.kve(mu, x * z)
            / sp.kve(abs(mu - 1.0), z))


def test_discrete_terms_conjugate_pairs():
    # one mode per conjugate pair: rate is the zero set's zeros (one per
    # pair, Im z >= 0), bit for bit and in its order, a real zero carries
    # a real amplitude, and w1 = Re sum amp e^{rate v} meets the sum over
    # every zero, the conjugates below the axis included, of A_i e^{z_i v}
    # within 8 ulp of the sum of |terms|
    v = np.concatenate([[0.0], np.geomspace(1e-3, 60.0, 80)])
    for mu, x in itertools.product((1.5, 2.2, 2.5, 3.5, 3.7, 7.0, 9.3, 9.5),
                                   (1.05, 2.0, 10.0)):
        rep = build_w(ModelParams(mu, x))
        upper = np.array(k_zero_set(mu).zeros, dtype=complex)
        assert rep.rate.tobytes() == upper.tobytes()
        assert np.all(rep.amp[rep.rate.imag == 0.0].imag == 0.0)
        zeros = np.concatenate([upper, upper[upper.imag > 0.0].conj()])
        terms = (np.array([discrete_amplitude(mu, x, z) for z in zeros])
                 * np.exp(v[:, None] * zeros))
        err = np.abs(rep.w1(v) - terms.sum(axis=1).real)
        assert np.all(err <= 8.0 * np.finfo(float).eps
                      * np.abs(terms).sum(axis=1)), (mu, x)


# drifts with zeros next to the cut (1.5, 3.5, 7.5, 9.5) and between,
# from next to the hitting level to far from it
SWEEP_MUS = (1.5, 2.2, 3.5, 5.5, 7.0, 7.5, 9.3, 9.5)
SWEEP_XS = (1.001, 1.05, 2.0, 10.0, 300.0, 1e4)


def amplitude_mpmath(mu: float, x: float, z: complex) -> complex:
    """A at the float zero z by mpmath at 40 digits."""
    with mp.workdps(40):
        m, xx, zz = mp.mpf(mu), mp.mpf(x), mp.mpc(z)
        lam = xx - 1
        return complex(-(xx ** m / lam) * zz * mp.exp(lam * zz)
                       * mp.besselk(m, xx * zz) / mp.besselk(abs(m - 1), zz))


# worst 8.6e-13, at (9.3, 1.001); 3.5 +- 5e-13 sits within the zero
# set's half-integer tolerance, with a real zero on the cut
@pytest.mark.filterwarnings("ignore:x within 0.05")
@pytest.mark.parametrize("mu", SWEEP_MUS + (3.5 - 5e-13, 3.5 + 5e-13))
def test_discrete_amplitudes_match_mpmath(mu):
    for x in SWEEP_XS:
        rep = build_w(ModelParams(mu, x))
        want = np.array([amplitude_mpmath(mu, x, z) for z in rep.rate])
        want = np.where(rep.rate.imag == 0.0, want.real, 2.0 * want)
        assert np.all(np.abs(rep.amp - want) <= 2e-12 * np.abs(want)), x


def test_discrete_amplitudes_raise_where_kve_ends():
    # scipy's kve is nan from |z| = 2^30; the zeros of K_2.2 have
    # modulus 1.5
    with pytest.raises(DomainError, match="x = 1e"):
        build_w(ModelParams(2.2, 1e9))


# ---------------------------------------------------------------------
# continuous part

@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0, 2.2])
def test_w2_adaptive_matches_batch_kernel(mu):
    # two independent integration routes for the same Laplace integral
    p = ModelParams(mu, 2.0)
    rep = build_w(p)
    for v in (0.0, 0.5, 3.0, 10.0):
        adaptive = w2_adaptive(v, p)
        batch = float(rep.w2_exact(np.array([v]))[0])
        assert adaptive == pytest.approx(batch, rel=1e-9, abs=1e-14)


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0, 2.2, 3.0, 5.0])
def test_w2_sign(mu):
    # -cos(pi mu) w2 >= 0 wherever the continuous part exists
    rep = build_w(ModelParams(mu, 2.0))
    v = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 120)])
    vals = -np.cos(np.pi * mu) * rep.w2_exact(v)
    assert np.all(vals >= -1e-12)


# ---------------------------------------------------------------------
# tail asymptotics

def test_tail_constant_values():
    # mu=1, x=2: -cos(pi) Gamma(4)(x^2-1)/(2^1 Gamma(1) Gamma(2) lam) = 9
    assert w2_tail_constant(ModelParams(1.0, 2.0)) == pytest.approx(9.0)
    # mu=0: -(log x)/lam
    assert w2_tail_constant(ModelParams(0.0, 2.0)) == pytest.approx(
        -np.log(2.0))
    # the kernel meets it far out, with an O(1/v) deficit
    v = 1e12
    rep = build_w(ModelParams(1.0, 2.0))
    assert rep.w2_exact(v) * v ** 4 == pytest.approx(9.0, rel=5e-12,
                                                     abs=0.0)


@pytest.mark.parametrize("mu,x", [(0.3, 2.0), (1.0, 2.0), (2.2, 1.5)])
def test_w2_tail_limit(mu, x):
    # v^{2mu+2} w2(v) -> tail constant with a deficit O(1/v), or
    # O(v^{-2mu}) for mu < 1/2; from v = 1e12 on the integrand sits
    # mostly below the u-grid's first node 1e-12
    p = ModelParams(mu, x)
    rep = build_w(p)
    v = np.array([1e10, 1e11, 1e12, 1e13, 1e14])
    got = rep.w2_exact(v) * v ** (2 * mu + 2) / w2_tail_constant(p)
    assert np.all(np.abs(got - 1.0) <= 10.0 * v ** -min(2.0 * mu, 1.0))


def test_w2_tail_limit_mu_zero():
    # (v log v)^2 w2(v) -> -(log x)/lam only with O(1/log v)
    # corrections, so compare with Watson's lemma before the limit: the
    # law h ~ log x e^{-lam u} / (L^2 + pi^2), L = log(2/u) - gamma,
    # exact to O(u^2 log u), integrated in s = u v by mpmath
    x = 2.0
    p = ModelParams(0.0, x)
    rep = build_w(p)
    for v in (1e10, 1e12, 1e14, 1e30, 1e50):
        with mp.workdps(30):
            def f(s):
                ell = mp.log(2 * v / s) - mp.euler
                return (s * mp.exp(-s * (1 + p.lam / v))
                        / (ell ** 2 + mp.pi ** 2))

            law = float(-math.log(x) / p.lam * mp.quad(f, [0, 1, 10, 100])
                        / mp.mpf(v) ** 2)
        assert rep.w2_exact(v) == pytest.approx(law, rel=1e-12, abs=0.0)
    with pytest.raises(DomainError):
        rep.eval(1e52)
    with pytest.raises(DomainError):
        w_power_moment_tail(rep, 0, 1e52)


# ---------------------------------------------------------------------
# assembled representation

def test_build_w_one_half_is_zero():
    rep = build_w(ModelParams(0.5, 2.0))
    assert rep._kernel.u.size == 0 and rep.amp.size == 0
    v = np.linspace(0.0, 100.0, 51)
    assert np.all(rep.eval(v) == 0.0)


def test_build_w_structure_matches_drift_class():
    # purely discrete exactly when mu - 1/2 is a nonnegative integer:
    # the continuous part's mode set is then empty, with no origin law
    empty = build_w(ModelParams(2.5, 2.0))._kernel
    assert empty.u.size == 0 and empty.origin_coefs.size == 0
    assert build_w(ModelParams(2.2, 2.0))._kernel.u.size > 0
    assert build_w(ModelParams(0.0, 2.0))._kernel.u.size > 0


def test_rep_hashes_by_identity():
    # the mode arrays cannot be hashed or compared as one truth value,
    # so a representation (and an evaluator holding it) is keyed by
    # identity
    rep = build_w(ModelParams(2.2, 2.0))
    assert {rep: 1}[rep] == 1 and rep == rep and rep != replace(rep)


def test_build_w_five_halves_closed_form_sup():
    rep = build_w(ModelParams(2.5, 2.0))
    v = np.linspace(0.0, 20.0, 401)
    assert np.max(np.abs(rep.eval(v) - cor_five_halves(v, 1.0))) < 1e-8


def test_build_w_three_halves_closed_form_sup():
    rep = build_w(ModelParams(1.5, 2.0))
    v = np.linspace(0.0, 20.0, 401)
    assert np.max(np.abs(rep.eval(v) - np.exp(-v))) < 1e-8


def test_build_w_mu_zero_nonpositive():
    rep = build_w(ModelParams(0.0, 2.0))
    v = np.concatenate([[0.0], np.geomspace(1e-3, 200.0, 301)])
    assert np.all(-rep.eval(v) >= 0.0)


@pytest.mark.parametrize("mu", [0.3, 2.2])
def test_boundedness_stable_under_refinement(mu):
    # the sup of |w| over [0, 50] is finite and already resolved by a
    # 4001-point sampling: doubling the sampling leaves it in place
    rep = build_w(ModelParams(mu, 2.0))
    m_coarse = np.max(np.abs(rep.eval(np.linspace(0.0, 50.0, 4001))))
    m_fine = np.max(np.abs(rep.eval(np.linspace(0.0, 50.0, 8001))))
    assert np.isfinite(m_coarse)
    assert m_fine == pytest.approx(m_coarse, rel=1e-6)


def test_eval_interpolation_accuracy():
    # one formula at every v: near the origin, through the grid's reach
    # at v ~ 1e12 and far beyond it, where v^4 w2 meets its limit 9
    rep = build_w(ModelParams(1.0, 2.0))
    v = np.concatenate([np.linspace(0.0131, 40.0, 573),
                        np.geomspace(1e8, 1e20, 13)])
    assert np.array_equal(rep.eval(v), rep.w1(v) + rep.w2_exact(v))
    far = np.geomspace(1e10, 1e14, 5)
    assert np.all(np.abs(rep.eval(far) * far ** 4 / 9.0 - 1.0) <= 5.0 / far)


@pytest.mark.parametrize("mu", [0.01, 0.3, 3.7])
def test_w2_skips_only_an_origin_piece_below_roundoff(mu):
    # the exact sum adds the origin piece at every v; where it is under
    # 2^-55 of the grid sum it cannot move a bit, and elsewhere it must
    # be there
    kern = build_w(ModelParams(mu, 2.0))._kernel
    for hi in (1.0, 1e3, 1e6, 1e9, 1e12):
        v = np.geomspace(1e-3, hi, 200)
        grid = np.exp(-v[:, None] * kern.u[None, :]) @ kern.amp
        origin = kern.coef * kern._origin(2.0 * mu + 2.0, v)[:, 0]
        got = kern.w2_sum(v)
        assert np.array_equal(got, grid + origin)
        small = np.abs(origin) < 2.0 ** -55 * np.abs(grid)
        assert np.array_equal(got[small], grid[small])


@pytest.mark.filterwarnings("ignore:x within 0.05")
@pytest.mark.parametrize("mu", [0.0, 0.001, 0.3, 1.2, 2.2, 2.5001, 3.7, 5.3,
                                7.0, 9.3, 9.9])
@pytest.mark.parametrize("x", [1.001, 1.05, 2.0, 10.0, 100.0, 1e4])
def test_w2_interpolant_meets_the_exact_sum(mu, x):
    # up to its top 2^39 w2 comes from the kernel's piecewise-Chebyshev
    # interpolant: measured within 7.7e-15 of the exact sum for x <= 100
    # and 3.0e-14 at (9.9, 1e4), over v from 0 to 5.4e11
    kern = build_w(ModelParams(mu, x))._kernel
    v = np.concatenate([[0.0], np.geomspace(1e-4, 5.4e11, 12000),
                        np.linspace(0.0, 64.0, 3000)])
    exact = kern.w2_sum(v)
    tol = 1e-14 if x <= 100.0 else 4e-14
    assert np.all(np.abs(kern.w2(v) - exact) <= tol * np.abs(exact))


@pytest.mark.parametrize("mu", [0.0, 0.3, 2.2, 9.3])
def test_w2_interpolant_is_continuous_at_its_edges(mu):
    # v = 0, each panel edge 2^k and the top 2^39, past which the exact
    # sum serves, are nodes: w2 there, and one ulp to either side, meets
    # the exact sum's value at the edge; at mu = 0 the exact sum still
    # raises past v = 1e51
    kern = build_w(ModelParams(mu, 2.0))._kernel
    assert kern.w2(np.zeros(1))[0] == pytest.approx(
        kern.w2_sum(np.zeros(1))[0], rel=1e-15, abs=0.0)
    edges = 2.0 ** np.arange(-2.0, 40.0)
    exact = kern.w2_sum(edges)
    for side in (-np.inf, None, np.inf):
        v = edges if side is None else np.nextafter(edges, side)
        assert np.all(np.abs(kern.w2(v) - exact) <= 1e-14 * np.abs(exact))
    if mu == 0.0:
        with pytest.raises(DomainError):
            kern.w2(np.array([1.0, 1e52]))


def test_eval_domain_and_shapes():
    rep = build_w(ModelParams(1.0, 2.0))
    with pytest.raises(DomainError):
        rep.eval(-0.5)
    with pytest.raises(DomainError):
        rep.eval(np.inf)
    assert isinstance(rep.eval(1.0), float)
    assert rep.eval(np.array([0.0, 1.0])).shape == (2,)


@pytest.mark.parametrize("mu", [0.0, 0.3, 7.0])
def test_eval_keeps_the_shape_of_v(mu):
    # the mode sums keep v's shape and the origin piece works on it
    # flattened, so a 2-d v gives the flat call's values in its shape (at
    # a non-half-integer drift it raised a broadcasting error); a 0-d v
    # gives a float
    rep = build_w(ModelParams(mu, 2.0))
    v = np.geomspace(1e-3, 1e4, 10500)
    grid = v.reshape(700, 15)
    assert np.array_equal(rep.eval(grid), rep.eval(v).reshape(700, 15))
    assert np.array_equal(rep.w2_exact(grid),
                          rep.w2_exact(v).reshape(700, 15))
    for scalar in (2.5, np.float64(2.5), np.array(2.5)):
        got = rep.eval(scalar)
        assert isinstance(got, float)
        assert got == rep.eval(np.array([2.5]))[0]


# the tiled mode sum against one product over all points, bit for bit,
# in a child process with one BLAS thread: a threaded product over all
# points splits its rows between threads, and the rows left over at the
# split take another summation order (a few ulp on a few rows).  The
# tiles' values do not depend on the thread count, so the test's own
# process gives the child's
_TILE_CHECK = """
import sys
import numpy as np
from gbm_hitfun.weight import ModelParams, _modes_value, build_w
out = {}
for mu, n_max in ((0.0, 7680), (9.3, 50001)):
    rep = build_w(ModelParams(mu, 2.0))
    amp, rate = ((rep._kernel.amp, -rep._kernel.u) if mu == 0.0
                 else (rep.amp, rep.rate))
    for n in (0, 1, 63, 64, 65, 7680, 50001):
        if n <= n_max:
            v = np.geomspace(1e-3, 1e3, n)
            one = (np.exp(v[..., None] * rate) @ amp).real
            got = _modes_value(amp, rate, v)
            assert got.tobytes() == one.tobytes(), (mu, n)
            out[f"{mu}_{n}"] = got
np.savez(sys.argv[1], **out)
"""


def test_modes_value_tiles_bit_for_bit(tmp_path):
    # the mu = 0 grid's 2377 real rates (64-point tiles) and the four
    # complex ones at mu = 9.3 (6528-point tiles); 50001 points take the
    # complex set alone, as one product over the real grid there would
    # write a 0.95 GB array
    src = str(Path(gbm_hitfun.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "tiles.npz"
    subprocess.run([sys.executable, "-c", _TILE_CHECK, str(out)], env=env,
                   check=True)
    reps = {mu: build_w(ModelParams(mu, 2.0)) for mu in (0.0, 9.3)}
    sets = {0.0: (reps[0.0]._kernel.amp, -reps[0.0]._kernel.u),
            9.3: (reps[9.3].amp, reps[9.3].rate)}
    assert sets[0.0][1].size == 2377 and sets[9.3][1].size == 4
    with np.load(out) as child:
        assert len(child.files) == 13
        for key in child.files:
            mu, n = key.split("_")
            got = _modes_value(*sets[float(mu)],
                               np.geomspace(1e-3, 1e3, int(n)))
            assert got.tobytes() == child[key].tobytes(), key


def origin_untiled(kern, a, v):
    """_ContinuousKernel._origin as one (v x a x k) array, its series
    length bounded over all of v at once."""
    eps = kern.u_lo
    v = np.reshape(v, (-1, 1, 1))
    b = np.reshape(a, (-1, 1)) + kern.origin_steps
    bmin = float(b.min())
    z = eps * v
    near = z < 1.0
    zn = np.where(near, z, 0.0)
    zmax, bound, n_terms = float(zn.max(initial=0.0)), 1.0, 0
    while bound > 1e-17:
        n_terms += 1
        bound *= zmax / (bmin + n_terms)
    term = series = 1.0
    for n in range(1, n_terms + 1):
        term = term * (zn / (b + n))
        series = series + term
    out = kern.origin_coefs * eps ** b / b * (np.exp(-zn) * series)
    far = ~near[:, 0, 0]
    out[far] = (kern.origin_coefs * sp.gamma(b) * sp.gammainc(b, z[far])
                * v[far] ** -b)
    return out.sum(axis=2)


def test_origin_tiles_bit_for_bit():
    # at mu = 0.001 the small-u law keeps 400 terms, so a tile holds 128
    # points; each tile bounds its own series length, and the terms that
    # leaves out are under 1e-17 of a series >= 1, so no bit moves.  v
    # spans both branches (u_lo v below and above 1), and the a-columns
    # are those of w2 and of the v^1 moment tail
    kern = build_w(ModelParams(0.001, 2.0))._kernel
    assert kern.origin_coefs.size == 400
    v = np.concatenate([[0.0], np.geomspace(1e-3, 1e15, 3000)])
    for a in ([2.002], [0.002, 1.002]):
        got = kern._origin(a, v)
        assert got.tobytes() == origin_untiled(kern, a, v).tobytes(), a


@pytest.mark.parametrize("mu", [0.0, 0.001, 0.3, 7.0, 9.3])
def test_eval_memory_is_tile_sized(mu):
    # 7680 points, as the adaptive engine hands over at 512 intervals:
    # one product over all of them peaked at 170-292 MB
    rep = build_w(ModelParams(mu, 2.0))
    v = np.geomspace(1e-3, 1e6, 7680)
    tracemalloc.start()
    try:
        rep.eval(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("mu", [0.3, 1.2, 7.0])
def test_eval_weighted_keeps_the_weight_out_of_underflow(mu):
    # wts w(v) is wts * eval(v), bit for bit, while w is well inside
    # double range; far out, where w loses its bits and then underflows,
    # v w(v) still meets its power law C v^{-(2 mu + 1)} down to 1e-300
    # (for mu < 1 from v = 1e40 on, as the law's next terms add relative
    # v^{-2 mu k})
    params = ModelParams(mu, 2.0)
    rep = build_w(params)
    v = np.geomspace(1e2, 1e200, 1200)
    got = rep.eval_weighted(v, v)
    w = rep.eval(v)
    kept = np.abs(w) >= 1e-280
    assert np.array_equal(got[kept], v[kept] * w[kept])
    law = w2_tail_constant(params) * np.exp(-(2.0 * mu + 1.0) * np.log(v))
    far = (v >= (1e14 if mu >= 1.0 else 1e40)) & (np.abs(law) >= 1e-300)
    assert np.count_nonzero(far & ~kept) >= 10
    assert np.allclose(got[far], law[far], rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------
# moment identities

# next to the odd half-integers 3/2 and 7/2 h has a sharp resonance;
# just above them a pair of zeros also lies just above the cut
NEAR_ODD_HALF = [1.4999, 1.5001, 3.4999, 3.5001]


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0, 1.5, 2.5] + NEAR_ODD_HALF)
def test_moment_zero_identity(mu):
    x = 2.0
    rep = build_w(ModelParams(mu, x))
    expect = x ** (mu - 0.5) * (mu * mu - 0.25) / (2.0 * x)
    assert w_moment(rep, 0) == pytest.approx(expect, abs=1e-8)


def test_moment_zero_examples():
    # mu = 3/2, lam = 1: integral of e^{-v} dv = 1
    rep = build_w(ModelParams(1.5, 2.0))
    assert w_moment(rep, 0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mu", [1.0, 1.5, 2.5] + NEAR_ODD_HALF)
def test_moment_one_identity(mu):
    x = 2.0
    rep = build_w(ModelParams(mu, x))
    assert w_moment(rep, 1) == pytest.approx(2.0 * x ** (mu - 0.5), abs=1e-8)


def test_moment_one_example():
    # mu = 3/2, lam = 1: integral of v(2+v) e^{-v} dv = 4
    rep = build_w(ModelParams(1.5, 2.0))
    assert w_moment(rep, 1) == pytest.approx(4.0, abs=1e-12)


# worst 1.6e-13, at (2.2, 1.001); with unscaled K the moments were nan
# at 5 of these pairs (x >= 300) and 7e-11 off at mu = 9.5
@pytest.mark.filterwarnings("ignore:x within 0.05")
@pytest.mark.parametrize("mu", SWEEP_MUS)
def test_moment_identities_along_x(mu):
    for x in SWEEP_XS:
        rep = build_w(ModelParams(mu, x))
        scale = x ** (mu - 0.5)
        assert w_moment(rep, 0) == pytest.approx(
            scale * (mu * mu - 0.25) / (2.0 * x), rel=1e-12, abs=0.0), x
        assert w_moment(rep, 1) == pytest.approx(
            2.0 * scale, rel=1e-12, abs=0.0), x


# within is_half_integer's 1e-12 the kernel drops its continuous part:
# at x = 1.001 the identities are then 1.0e-10 (M0) and 2.0e-10 (M1)
# off, where they hold to 8e-15 and 2e-14 at 7/2 itself
_DROPS_THE_CONTINUOUS_PART = pytest.mark.xfail(
    strict=True, reason="within 1e-12 of a half-integer the kernel drops "
    "its continuous part (ROADMAP item 9)")


@pytest.mark.filterwarnings("ignore:x within 0.05")
@pytest.mark.parametrize("mu", [
    3.5,
    pytest.param(3.5 - 5e-13, marks=_DROPS_THE_CONTINUOUS_PART),
    pytest.param(3.5 + 5e-13, marks=_DROPS_THE_CONTINUOUS_PART)])
def test_moment_identities_next_to_a_half_integer(mu):
    x = 1.001
    rep = build_w(ModelParams(mu, x))
    scale = x ** (mu - 0.5)
    assert w_moment(rep, 0) == pytest.approx(
        scale * (mu * mu - 0.25) / (2.0 * x), rel=1e-12, abs=0.0)
    assert w_moment(rep, 1) == pytest.approx(2.0 * scale, rel=1e-12, abs=0.0)


def test_moment_two_vanishes_five_halves():
    rep = build_w(ModelParams(2.5, 2.0))
    assert abs(w_moment(rep, 2)) <= 1e-8


def test_moment_two_vanishes_generic():
    # the vanishing holds for every mu with 2 < mu + 1/2
    rep = build_w(ModelParams(2.2, 1.5))
    assert abs(w_moment(rep, 2)) <= 1e-8


def test_moment_integrability_errors():
    rep = build_w(ModelParams(0.3, 2.0))
    with pytest.raises(DomainError):
        w_moment(rep, 1)  # needs mu + 1/2 >= 1
    rep1 = build_w(ModelParams(1.0, 2.0))
    with pytest.raises(DomainError):
        w_moment(rep1, 2)
    with pytest.raises(DomainError):
        w_moment(rep1, -1)


def test_kappa_moment_tail_consistency():
    rep = build_w(ModelParams(2.2, 1.5))
    for m in (0, 1, 2):
        assert w_kappa_moment_tail(rep, m, 0.0) == pytest.approx(
            w_moment(rep, m), rel=1e-12, abs=1e-15)


def test_kappa_moment_tail_vs_quadrature():
    # independent route: integrate kappa w over [vcut, big] directly
    rep = build_w(ModelParams(2.2, 1.5))
    lam = rep.params.lam
    vcut = 5.0

    def f(v):
        kappa = v * (2.0 * lam + v)
        return kappa * (rep.w1(v) + rep.w2_exact(v))

    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    res = integrate_finite(f, vcut, 2000.0, spec)
    assert res.converged
    # beyond 2000 the integrand is ~ v^{-4.4}: truncation under 1e-12
    assert w_kappa_moment_tail(rep, 1, vcut) == pytest.approx(
        res.value, rel=1e-6)


@pytest.mark.parametrize("p", [0, 4, 8])
@pytest.mark.parametrize("lo,hi,rel", [
    (1e4, 1e8, 1e-12),
    # past 1/u_lo = 1e12 the origin part switches from its series to
    # the incomplete gamma (both sides agree to 6e-15 here)
    (1e11, 1e13, 1e-13),
])
def test_power_moment_tail_difference_is_the_integral(p, lo, hi, rel):
    # far cuts reach deep into the origin of the u-integral, where the
    # small-u law of h stands in for the grid: its part must carry the
    # damping e^{-u vcut} too (without it the p = 8 gap over [1e4, 1e8]
    # misses by 8e-9)
    rep = build_w(ModelParams(3.7, 2.0))
    v, wts = gauss_legendre_panels(geometric_edges(lo, hi), 20)
    want = wts @ (v ** p * rep.eval(v))
    got = (w_power_moment_tail(rep, p, lo)
           - w_power_moment_tail(rep, p, hi))
    assert got == pytest.approx(want, rel=rel, abs=0.0)


@pytest.mark.parametrize("mu,want", [(1.5, 56.0), (2.5, -496.0)])
def test_top_moment_of_a_purely_discrete_kernel(mu, want):
    # at m = mu + 1/2 v^{2m} w2 would not be integrable, but the
    # half-integer kernel's continuous part is empty: no origin law, so
    # no DomainError, and the moment is the discrete modes' alone
    rep = build_w(ModelParams(mu, 2.0))
    assert w_moment(rep, int(mu + 0.5)) == pytest.approx(want, rel=1e-14)


def test_kappa_moment_tail_domain():
    # both tails share one check of the cut; a nan or infinite cut
    # returned nan (the infinite one with a warning) until it did
    rep = build_w(ModelParams(2.2, 1.5))
    for tail in (w_kappa_moment_tail, w_power_moment_tail):
        for vcut in (-1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                tail(rep, 1, vcut)


# ---------------------------------------------------------------------
# the defining identity

@pytest.mark.parametrize("mu,x", [
    (0.0, 2.0), (0.3, 2.0), (1.0, 2.0), (1.5, 3.5), (2.2, 1.5),
    (5.0, 3.0), (7.0, 1.2),
])
def test_laplace_transform_identity(mu, x):
    """lam L[w](r) + x^{mu-1/2}(r - (mu^2-1/4) lam/(2x)) equals
    r x^mu K_mu(x r)/K_mu(r) e^{lam r} for every r > 0.

    This is the identity that defines the kernel, so it exercises the
    discrete coefficients and the continuous tabulation jointly against
    nothing but scipy's scaled Bessel ratio.
    """
    p = ModelParams(mu, x)
    rep = build_w(p)
    lam = p.lam
    kern = rep._kernel
    for r in (0.1, 1.0, 5.0):
        # the Laplace transform of each mode a e^{z v} is a / (r - z)
        lhs = lam * (np.sum(rep.amp / (r - rep.rate)).real
                     + np.dot(kern.amp, 1.0 / (kern.u + r)))
        rhs = (r * x ** mu * sp.kve(mu, x * r) / sp.kve(mu, r)
               - x ** (mu - 0.5) * (r - (mu * mu - 0.25) * lam / (2.0 * x)))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


# ---------------------------------------------------------------------
# the density's direct route

@pytest.mark.parametrize("mu", [0.0, 0.3, 1.4999, 1.5001, 3.7, 9.3])
@pytest.mark.parametrize("x", [1.05, 2.0, 10.0])
def test_grid_ends_where_its_mass_ends(mu, x):
    # the build cuts the u-grid's top run of nodes holding at most 1e-20
    # of sum |amp|, and no more.  Rebuilt from h on the 0.5-wide panels
    # from the one holding the last kept node out to u = 45, the dropped
    # nodes hold at most that; the exact sum on the kept set meets the
    # full-grid sum within 1e-20 relative plus roundoff, for v from 0 to
    # 1e9
    params = ModelParams(mu, x)
    kern = build_w(params)._kernel
    top = kern.u[-1]
    u, wts = gauss_legendre_panels(np.arange(math.floor(2.0 * top) / 2.0,
                                             45.25, 0.5), 16)
    kept = u <= top
    assert np.array_equal(u[kept], kern.u[-np.count_nonzero(kept):])
    u, wts = u[~kept], wts[~kept]
    amp = kern.coef * wts * h_mu_lambda(u, params) * u
    total = np.abs(kern.amp).sum() + np.abs(amp).sum()
    assert np.abs(amp).sum() <= 1e-20 * total * (1.0 + 1e-12)
    assert np.abs(amp).sum() + abs(kern.amp[-1]) > 1e-20 * total
    v = np.concatenate([[0.0], np.geomspace(1e-3, 1e9, 300)])
    dropped = np.exp(-v[:, None] * u) @ amp
    got = kern.w2_sum(v)
    assert np.all(np.abs(dropped) <= 1e-20 * (1.0 + 1e-12) * np.abs(got))
    e = np.exp(-v[:, None] * np.concatenate([kern.u, u]))
    origin = kern.coef * kern._origin(2.0 * mu + 2.0, v)[:, 0]
    full = e @ np.concatenate([kern.amp, amp]) + origin
    size = e @ np.abs(np.concatenate([kern.amp, amp])) + np.abs(origin)
    assert np.all(np.abs(got - full)
                  <= (1e-20 + 8.0 * np.finfo(float).eps) * size)


@pytest.mark.parametrize("mu", [0.0, 0.01, 0.3, 0.8, 1.2, 1.4999, 2.2, 3.7,
                                7.0, 9.3])
@pytest.mark.parametrize("x", [1.1, 2.0, 10.0])
def test_exp_weighted_integral_matches_full_grid(mu, x):
    # the erfcx product runs over the grid's live nodes; against the sum
    # over every node it may be off by the error bound it returns (the
    # bound on the nodes cut below the live range plus one ulp of |S2|)
    # and 8 ulp of the sum of |terms|
    lam = x - 1.0
    rep = replace(build_w(ModelParams(mu, x)), amp=np.empty(0),
                  rate=np.empty(0))
    kern = rep._kernel
    mass = np.abs(kern.amp)
    # t up to the density's switch time 1e3 max(1, lam^2)
    ts = np.geomspace(1e-3, 1e3 * max(1.0, lam * lam), 200)
    sq = np.sqrt(ts)[:, None]
    erfcx = sp.erfcx(0.5 * lam / sq + kern.u * sq)
    full = math.sqrt(math.pi) * sq[:, 0] * (erfcx @ kern.amp)
    size = math.sqrt(math.pi) * sq[:, 0] * (erfcx @ mass)
    got, err = rep.exp_weighted_integral(ts)
    # err covers sqrt(pi t) D_L erfcx(lam / 2 sqrt t), D_L the |amp| mass
    # cut below the live range, which bounds those nodes' part
    cut = (math.sqrt(math.pi) * sq[:, 0] * kern.drop_lo
           * sp.erfcx(0.5 * lam / sq[:, 0]))
    below = math.sqrt(math.pi) * sq[:, 0] * np.abs(
        erfcx[:, :kern.live.start] @ kern.amp[:kern.live.start])
    assert np.all(below <= cut) and np.all(cut <= err)
    bound = err + (1e-20 + 8.0 * np.finfo(float).eps) * size
    assert np.all(np.abs(got - full) <= bound)


def check_dense_in_t(rep):
    # between t = 1e-6 and the switch time the returned bound, with 8 ulp
    # of the sum of |terms|, must hold against an extended-precision sum
    # over every mode and every node of the grid, on the same Faddeeva
    # values (scipy's own error is not the sum's)
    lam = rep.params.lam
    kern = rep._kernel
    ts = np.geomspace(1e-6, 1e3 * max(1.0, lam * lam), 2000)
    sq = np.sqrt(ts)[:, None]
    erfcx = sp.erfcx(0.5 * lam / sq + kern.u * sq)
    wz = sp.wofz(0.5j * (lam - 2.0 * ts[:, None] * rep.rate) / sq)
    terms = ((erfcx.astype(np.longdouble) * kern.amp).sum(axis=1)
             + (wz.astype(np.clongdouble) * rep.amp).sum(axis=1).real)
    full = np.sqrt(np.longdouble(math.pi) * ts) * terms
    size = math.sqrt(math.pi) * sq[:, 0] * (
        erfcx @ np.abs(kern.amp) + np.abs(wz) @ np.abs(rep.amp))
    got, err = rep.exp_weighted_integral(ts)
    bound = err + (1e-20 + 8.0 * np.finfo(float).eps) * size
    assert np.all(np.abs(got - full).astype(float) <= bound)


@pytest.mark.parametrize("mu", [0.0, 0.01, 0.3, 1.2, 1.4999, 7.0, 9.3])
@pytest.mark.parametrize("x", [1.1, 2.0, 10.0])
def test_exp_weighted_integral_dense_in_t(mu, x):
    # the continuous part alone
    check_dense_in_t(replace(build_w(ModelParams(mu, x)), amp=np.empty(0),
                             rate=np.empty(0)))


# with the discrete modes kept: just above 3/2 the mode of a pair of
# zeros next to the cut is -2 S2, so S = -S2, and at (9.3, 1.5) the
# discrete terms' l1 norm is 10-12 times |S2|
@pytest.mark.parametrize("mu,x", [(1.5 + 1e-6, 2.0), (9.3, 1.5)])
def test_exp_weighted_integral_dense_in_t_with_the_discrete_modes(mu, x):
    check_dense_in_t(build_w(ModelParams(mu, x)))


@pytest.mark.parametrize("mu,x", [(7.0, 2.0), (9.3, 10.0)])
def test_exp_weighted_integral_error_is_the_roundoff_of_its_terms(mu, x):
    # err = cut + eps (sqrt(pi t) sum_i |A_i w_i| + |S2|): the bound on
    # the nodes cut below the live range, and one ulp of the discrete
    # terms' l1 norm and of the continuous part S2, whose terms share
    # one sign; the stripped kernel keeps only cut + eps |S2|
    rep = build_w(ModelParams(mu, x))
    cont = replace(rep, amp=np.empty(0), rate=np.empty(0))
    ts = np.geomspace(1e-2, 1e3, 30)
    sq = np.sqrt(ts)
    got, err = rep.exp_weighted_integral(ts)
    s2, err2 = cont.exp_weighted_integral(ts)
    wz = sp.wofz(0.5j * (x - 1.0 - 2.0 * ts[:, None] * rep.rate)
                 / sq[:, None])
    l1 = np.sqrt(np.pi * ts) * (np.abs(wz) @ np.abs(rep.amp))
    assert np.all(l1 > np.abs(s2))
    cut = (np.sqrt(np.pi * ts) * rep._kernel.drop_lo
           * sp.erfcx(0.5 * (x - 1.0) / sq))
    eps = np.finfo(float).eps
    assert np.allclose(err2, cut + eps * np.abs(s2), rtol=1e-14, atol=0.0)
    assert np.allclose(err, cut + eps * (l1 + np.abs(s2)), rtol=1e-14,
                       atol=0.0)


def test_exp_weighted_integral_with_an_empty_live_range():
    # at a half-integer drift the continuous part is an empty mode set:
    # its live range is empty, and S is the discrete part alone (one
    # conjugate pair at 5/2; four pairs and a real zero at 19/2), with
    # an error bound of one ulp of its terms' l1 norm
    ts = np.geomspace(1e-2, 1e3, 50)
    sq = np.sqrt(ts)
    for mu in (2.5, 9.5):
        rep = build_w(ModelParams(mu, 2.0))
        kern = rep._kernel
        assert kern.u[kern.live].size == 0 and kern.drop_lo == 0.0
        got, err = rep.exp_weighted_integral(ts)
        empty = replace(rep, amp=np.empty(0), rate=np.empty(0))
        assert np.array_equal(empty.exp_weighted_integral(ts)[0],
                              np.zeros(50))
        # mode by mode in long double on the same Faddeeva values:
        # sqrt(pi t) Re(a w(i c/2 sqrt t)), c = lam - 2 t z, within 4 ulp
        # of the sum of |terms| (scipy's w itself is up to 17 ulp off a
        # 30-digit value at 5/2, so the reference takes it as given)
        terms = [np.clongdouble(a) * sp.wofz(0.5j * (1.0 - 2.0 * ts * z) / sq)
                 * np.sqrt(np.longdouble(np.pi) * ts)
                 for a, z in zip(rep.amp, rep.rate)]
        want, size = sum(terms).real, sum(np.abs(terms))
        assert np.all(np.abs(got - want)
                      <= 4.0 * np.finfo(float).eps * size), mu
        assert np.allclose(err, np.finfo(float).eps * size.astype(float),
                           rtol=1e-14, atol=0.0), mu
