"""Tests for the special-function layer.

The package takes I_nu and K_nu straight from scipy.special; the first
tests pin the values it relies on against closed-form half-integer
reductions, hand-summed series and complex values frozen from a
30-digit arbitrary-precision run (mpmath).  The zero sets are checked
by residuals, by the argument principle (which shares no code with the
zero finder) and by continuity in the order.
"""

import numpy as np
import pytest
from scipy import special as sp

from gbm_hitfun import bessel
from gbm_hitfun.bessel import (
    ORDER_CAP,
    KZeroSet,
    gamma_fn,
    is_half_integer,
    k_zero_count,
    k_zero_set,
    reversed_bessel_theta,
)
from gbm_hitfun.errors import DomainError, ZeroCountError
from gbm_hitfun.quadrature import integrate_semi_infinite


# ---------------------------------------------------------------------
# real-argument values

def test_bessel_i_series_oracle():
    # ascending series at u = 1, summed to machine precision by hand:
    # sum 1/(4^k (k!)^2)
    from math import factorial
    acc = sum(0.25 ** k / factorial(k) ** 2 for k in range(20))
    assert sp.iv(0.0, 1.0) == pytest.approx(acc, rel=1e-14)
    assert sp.iv(0.0, 1.0) == pytest.approx(1.26606587775200833, rel=1e-13)


def test_bessel_i_half_integer_closed_form():
    assert sp.iv(0.5, 1.0) == pytest.approx(
        np.sinh(1.0) * np.sqrt(2.0 / np.pi), rel=1e-13)


def test_bessel_i_small_argument_limit():
    # I_0(u) = 1 + o(1)
    assert sp.iv(0.0, 1e-8) == pytest.approx(1.0, abs=1e-10)


def test_bessel_k_integral_oracle():
    # K_0(u) = int_0^infty exp(-u cosh t) dt, evaluated with the
    # package quadrature engine (a code path disjoint from the Bessel
    # implementation)
    res = integrate_semi_infinite(lambda t: np.exp(-np.cosh(t)), 0.0, 0.9)
    assert res.converged
    assert sp.kv(0.0, 1.0) == pytest.approx(res.value, rel=1e-9)
    assert sp.kv(0.0, 1.0) == pytest.approx(0.42102443824070833, rel=1e-13)


def test_bessel_k_half_integer_closed_forms():
    assert sp.kv(0.5, 1.0) == pytest.approx(
        np.sqrt(np.pi / 2.0) * np.exp(-1.0), rel=1e-13)
    assert sp.kv(1.5, 2.0) == pytest.approx(
        np.sqrt(np.pi / 4.0) * np.exp(-2.0) * 1.5, rel=1e-13)


@pytest.mark.parametrize("mu,u", [(0.3, 1e-11), (1.0, 1e-6), (2.5, 1e-6)])
def test_small_argument_asymptotics(mu, u):
    # I_mu(u) ~ c_mu u^mu, K_mu(u) ~ c'_mu u^{-mu}.  The K-side
    # correction term is O(u^{2 mu}), so small mu needs a smaller u for
    # the leading term to dominate to 1e-6.
    c = 2.0 ** -mu / gamma_fn(mu + 1.0)
    cp = 2.0 ** (mu - 1.0) * gamma_fn(mu)
    assert sp.iv(mu, u) / (c * u ** mu) == pytest.approx(1.0, abs=1e-6)
    assert sp.kv(mu, u) / (cp * u ** -mu) == pytest.approx(1.0, abs=1e-6)


def test_k0_log_form():
    # K_0(u) = log(2/u) I_0(u) + psi(1) + o(1), psi(1) = -euler_gamma
    u = 1e-6
    lead = np.log(2.0 / u) * sp.iv(0.0, u) - np.euler_gamma
    assert sp.kv(0.0, u) == pytest.approx(lead, abs=1e-10)


# ---------------------------------------------------------------------
# invariants

@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 1.5, 2.5])
def test_wronskian_identity(nu):
    # I_nu(u) K_{nu+1}(u) + I_{nu+1}(u) K_nu(u) = 1/u
    for u in np.geomspace(0.01, 20.0, 25):
        lhs = (sp.iv(nu, u) * sp.kv(nu + 1.0, u)
               + sp.iv(nu + 1.0, u) * sp.kv(nu, u))
        assert lhs == pytest.approx(1.0 / u, rel=1e-10)


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0, 2.5])
def test_ratio_monotone_increasing(mu):
    u = np.geomspace(0.01, 30.0, 60)
    r = np.array([sp.iv(mu, ui) / sp.kv(mu, ui) for ui in u])
    assert np.all(np.diff(r) > 0)


# ---------------------------------------------------------------------
# complex argument

def test_complex_half_integer_principal_branch():
    z = -1.0 + 0.5j
    expect = np.sqrt(np.pi / (2.0 * z)) * np.exp(-z)
    got = sp.kv(0.5, z)
    assert got == pytest.approx(expect, rel=1e-10)


def test_complex_real_axis_consistency():
    for u in [0.3, 1.0, 7.0]:
        got = sp.kv(0.5, complex(u))
        assert got.imag == pytest.approx(0.0, abs=1e-12)
        assert got.real == pytest.approx(sp.kv(0.5, u), rel=1e-10)


def test_complex_integer_order_oracle():
    # frozen 30-digit value of K_2(i)
    got = sp.kv(2.0, 1j)
    assert got.real == pytest.approx(-2.59288617549119698, rel=1e-12)
    assert got.imag == pytest.approx(0.18048997206696203, rel=1e-11)


def test_complex_noninteger_order_oracle():
    # frozen 30-digit value of K_2.2(-1+2i)
    got = sp.kv(2.2, -1.0 + 2.0j)
    assert got.real == pytest.approx(-0.95738816719865735, rel=1e-11)
    assert got.imag == pytest.approx(1.48185330245388415, rel=1e-11)


# ---------------------------------------------------------------------
# gamma

def test_gamma_values():
    assert gamma_fn(1.0) == 1.0
    assert gamma_fn(0.5) == pytest.approx(np.sqrt(np.pi), rel=1e-13)
    assert gamma_fn(2.5) == pytest.approx(3.0 * np.sqrt(np.pi) / 4.0,
                                          rel=1e-13)
    with pytest.raises(DomainError):
        gamma_fn(0.0)
    with pytest.raises(DomainError):
        gamma_fn(-1.5)


# ---------------------------------------------------------------------
# zero sets

def test_zero_count_rule():
    table = {0.0: 0, 0.5: 0, 1.0: 0, 1.4: 0, 1.5: 1, 2.0: 2, 2.2: 2,
             2.5: 2, 3.0: 2, 3.5: 3, 5.0: 4, 10.0: 10}
    for mu, want in table.items():
        assert k_zero_count(mu) == want, mu


def test_half_integer_detection():
    assert is_half_integer(0.5) and is_half_integer(3.5)
    assert not is_half_integer(0.0) and not is_half_integer(2.2)


def test_reversed_bessel_polynomials():
    assert np.array_equal(reversed_bessel_theta(2), [1.0, 3.0, 3.0])
    assert np.array_equal(reversed_bessel_theta(3), [1.0, 6.0, 15.0, 15.0])
    # K_{5/2}(z) = sqrt(pi/2z) e^{-z} theta_2(1/z) on the real axis
    for u in [0.5, 2.0, 7.0]:
        expect = np.sqrt(np.pi / (2 * u)) * np.exp(-u) * np.polyval(
            reversed_bessel_theta(2)[::-1], 1 / u)
        assert sp.kv(2.5, u) == pytest.approx(expect, rel=1e-12)


def test_zero_set_empty_below_three_halves():
    for mu in [0.0, 0.5, 1.0, 1.4]:
        zs = k_zero_set(mu)
        assert zs.zeros == () and zs.count == 0


def test_zero_set_three_halves():
    zs = k_zero_set(1.5)
    assert zs.count == 1
    assert zs.zeros[0] == pytest.approx(-1.0, abs=1e-12)


def test_zero_set_five_halves():
    zs = k_zero_set(2.5)
    want = sorted([(-3 + 1j * np.sqrt(3)) / 2, (-3 - 1j * np.sqrt(3)) / 2],
                  key=lambda z: (z.real, z.imag))
    assert zs.count == 2
    for got, exp in zip(zs.zeros, want):
        assert got == pytest.approx(exp, abs=1e-12)


def test_zero_set_seven_halves_matches_cubic():
    # roots of z^3 + 6 z^2 + 15 z + 15
    zs = k_zero_set(3.5)
    assert zs.count == 3
    for z in zs.zeros:
        assert z ** 3 + 6 * z ** 2 + 15 * z + 15 == pytest.approx(0, abs=1e-9)


@pytest.mark.parametrize("mu", [2.0, 2.2, 3.0, 3.49, 3.5, 3.51, 5.0, 5.49,
                                5.51, 7.49, 7.51, 9.3, 9.49, 9.51, 9.99])
def test_zero_set_residuals_and_structure(mu):
    zs = k_zero_set(mu)
    assert zs.count == k_zero_count(mu)
    zlist = list(zs.zeros)
    # conjugation closure holds exactly; real parts strictly negative
    for z in zlist:
        assert z.real < 0
        assert complex(z.real, -z.imag) in zlist
        # a real zero (odd half-integer count) sits on the branch cut;
        # probe it from just above
        ze = z if z.imag != 0 else complex(z.real, 1e-12)
        assert abs(sp.kv(mu, ze)) <= 1e-10
        # no common zeros with K_{mu-1}
        assert abs(sp.kv(abs(mu - 1.0), ze)) > 1e-3
    # deterministic ordering
    assert zlist == sorted(zlist, key=lambda z: (z.real, z.imag))


def test_zero_set_large_order_count():
    zs = k_zero_set(10.0)
    assert zs.count == 10
    scale = np.exp(np.abs(np.real(zs.zeros)))
    res = np.abs([sp.kv(10.0, z) for z in zs.zeros])
    assert np.all(res <= 1e-12 * scale)


def test_zero_set_order_cap():
    with pytest.raises(DomainError):
        k_zero_set(ORDER_CAP + 1.0)


def test_zero_set_inconsistent_count_rejected():
    with pytest.raises(ZeroCountError):
        KZeroSet(order=2.0, zeros=(complex(-1, 1),), count=2)


def winding_zero_count(mu, pts=8000, r0=0.05, eps=1e-12):
    """Zeros of K_mu in {|z| <= 3 mu + 4, Re z < 0, Im z > 0} by the
    argument principle: the winding number of K_mu around the boundary,
    run counterclockwise with the lower edge eps above the cut and a
    small arc of radius r0 around the branch point."""
    big = 3.0 * mu + 4.0
    path = np.concatenate([
        1j * np.linspace(r0, big, pts),
        big * np.exp(1j * np.linspace(np.pi / 2, np.pi - eps / big, pts)),
        np.linspace(-big, -r0, pts) + 1j * eps,
        r0 * np.exp(1j * np.linspace(np.pi - eps / r0, np.pi / 2, pts)),
    ])
    f = sp.kv(mu, path)
    dphase = np.angle(np.roll(f, -1) / f)
    # the path is fine enough to follow the phase
    assert np.max(np.abs(dphase)) < 0.5
    turns = dphase.sum() / (2.0 * np.pi)
    assert turns == pytest.approx(round(turns), abs=1e-6)
    return round(turns)


@pytest.mark.parametrize("mu", [2.2, 3.7, 5.3, 7.0, 9.3])
def test_zero_count_matches_argument_principle(mu):
    zs = k_zero_set(mu)
    assert winding_zero_count(mu) == zs.count // 2
    assert all(abs(z) < 3.0 * mu + 4.0 for z in zs.zeros)


@pytest.mark.parametrize("mu", [2.2, 3.7, 5.3, 7.0, 9.3])
def test_zero_set_continuous_in_order(mu):
    base = np.array(k_zero_set(mu).zeros)
    for nu in (mu - 1e-6, mu + 1e-6):
        near = np.array(k_zero_set(nu).zeros)
        assert near.shape == base.shape
        assert np.max(np.abs(near - base)) <= 1e-5


def test_zero_set_continuous_at_the_seed_order():
    # 4.5 +- 1e-9 are continued from the seed order 4.5; the roots of
    # z^4 theta_4(1/z) are the zeros of K_{9/2}
    want = np.array(sorted(np.roots(reversed_bessel_theta(4)),
                           key=lambda z: (z.real, z.imag)))
    for nu in (4.5 - 1e-9, 4.5 + 1e-9):
        got = np.array(k_zero_set(nu).zeros)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-5


@pytest.mark.parametrize("mu", [3.7, 7.0, 9.3, 9.99])
def test_zero_set_work_budget(mu, monkeypatch):
    # continuation costs a few hundred complex K evaluations; a search
    # grid over the left half-plane would cost 1e5 or more
    kv = sp.kv
    points = []

    def counting_kv(nu, z):
        if np.iscomplexobj(z):
            points.append(np.size(z))
        return kv(nu, z)

    monkeypatch.setattr(bessel.sp, "kv", counting_kv)
    assert k_zero_set(mu).count == k_zero_count(mu)
    assert 0 < sum(points) <= 2000


def test_zero_set_newton_cap_raises(monkeypatch):
    monkeypatch.setattr(bessel, "_NEWTON_MAX_STEPS", 1)
    with pytest.raises(ZeroCountError) as info:
        k_zero_set(3.7)
    assert len(info.value.estimate) == 2


def test_zero_set_path_leaving_the_quadrant_raises(monkeypatch):
    polish = bessel._newton_polish
    monkeypatch.setattr(bessel, "_newton_polish",
                        lambda nu, z: np.conj(polish(nu, z)))
    with pytest.raises(ZeroCountError) as info:
        k_zero_set(3.7)
    assert all(z.imag < 0 for z in info.value.estimate)


def test_zero_set_collapsed_paths_raise(monkeypatch):
    polish = bessel._newton_polish

    def collapse(nu, z):
        z = polish(nu, z)
        return z if nu == 4.5 else np.full_like(z, z[0])

    monkeypatch.setattr(bessel, "_newton_polish", collapse)
    with pytest.raises(ZeroCountError):
        k_zero_set(3.7)


def test_zero_set_within_half_integer_tolerance():
    # orders within is_half_integer's tolerance take the half-integer
    # zero set, polished at the exact half-integer order
    for half in (1.5, 3.5, 9.5):
        for nu in (half - 5e-13, half + 5e-13):
            assert is_half_integer(nu)
            assert k_zero_set(nu).zeros == k_zero_set(half).zeros
