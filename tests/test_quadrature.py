"""Tests for the shared adaptive quadrature engine.

Oracles here are closed-form antiderivatives; the Bessel-kernel case
uses the order-1/2 reduction to hyperbolic functions, derived and
integrated by hand (elementary exponential integrals), so it is fully
independent of the package's own kernel code.
"""

import numpy as np
import pytest

from gbm_hitfun.errors import DomainError, EnvelopeError
from gbm_hitfun.quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    chebyshev_points,
    gauss_legendre_panels,
    geometric_edges,
    integrate_finite,
    integrate_semi_infinite,
)


def test_constant():
    res = integrate_finite(lambda u: np.ones_like(u), 0.0, 1.0)
    assert res.converged
    assert abs(res.value - 1.0) < 1e-14
    assert res.err_est < 1e-12


def test_exponential_finite():
    res = integrate_finite(lambda u: np.exp(-u), 0.0, 10.0)
    assert res.converged
    assert abs(res.value - (1.0 - np.exp(-10.0))) <= 1e-9


def test_inverse_sqrt_endpoint_singularity():
    # antiderivative 2*sqrt(u); the rule never evaluates at the open
    # endpoint itself
    res = integrate_finite(lambda u: u ** -0.5, 0.0, 1.0)
    assert res.converged
    assert abs(res.value - 2.0) <= 2e-9
    assert abs(res.value - 2.0) <= res.err_est


def test_split_points_respected():
    # kink at sqrt(2)/2: |u - c| integrates to a closed form
    c = np.sqrt(2.0) / 2.0
    exact = (c ** 2 + (1 - c) ** 2) / 2.0
    spec = QuadratureSpec(split_points=[c])
    res = integrate_finite(lambda u: np.abs(u - c), 0.0, 1.0, spec)
    assert res.converged
    assert abs(res.value - exact) <= 1e-9


def test_stability_under_added_splits():
    f = lambda u: np.exp(-u) * np.cos(3 * u)
    base = integrate_finite(f, 0.0, 8.0)
    refined = integrate_finite(
        f, 0.0, 8.0, QuadratureSpec(split_points=[0.3, 1.7, 2.2, 5.5]))
    assert base.converged and refined.converged
    assert abs(base.value - refined.value) <= DEFAULT_SPEC.abs_tol


def test_nonconvergence_flag_keeps_estimate():
    spec = QuadratureSpec(max_subdivisions=1)
    res = integrate_finite(
        lambda u: np.exp(-((u - 3.0) ** 2) / 2e-4), 0.0, 10.0, spec)
    assert not res.converged
    assert np.isfinite(res.value) and np.isfinite(res.err_est)


def test_finite_domain_errors():
    with pytest.raises(DomainError):
        integrate_finite(lambda u: u, 1.0, 0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(max_subdivisions=0)


def test_semi_infinite_exponential():
    res = integrate_semi_infinite(lambda u: np.exp(-u), 0.0, 0.9)
    assert res.converged
    assert abs(res.value - 1.0) <= 1e-9


def test_semi_infinite_linear_exponential():
    # Gamma(2)/2^2
    res = integrate_semi_infinite(lambda u: u * np.exp(-2 * u), 0.0, 1.6)
    assert res.converged
    assert abs(res.value - 0.25) <= 1e-9


def test_semi_infinite_half_integer_bessel_kernel():
    # Order-1/2 Bessel functions reduce to hyperbolics.  For x = 2,
    # lam = 1 the kernel under the continuous-part integral becomes
    #   (2/(pi*sqrt(x))) * (sinh(x u) e^{-u} - sinh(u) e^{-x u})
    #     * e^{-2u} * e^{-lam u}
    # and int_0^infty u * kernel du evaluates by elementary exponential
    # integrals to 3*sqrt(2)/(32*pi).
    x = 2.0
    lam = x - 1.0

    def f(u):
        n = np.sinh(x * u) * np.exp(-u) - np.sinh(u) * np.exp(-x * u)
        return (2.0 / (np.pi * np.sqrt(x))) * n * np.exp(-(2.0 + lam) * u) * u

    exact = 3.0 * np.sqrt(2.0) / (32.0 * np.pi)
    res = integrate_semi_infinite(f, 0.0, 0.8)
    assert res.converged
    assert abs(res.value - exact) <= 1e-9


@pytest.mark.parametrize("k", range(7))
@pytest.mark.parametrize("c", [0.1, 0.3, 1.0, 3.0, 10.0])
def test_error_estimate_conservative_on_family(k, c):
    # polynomial-times-exponential family: reported estimate must cover
    # the true error when the asserted rate undercuts the true one
    from math import gamma

    exact = gamma(k + 1) / c ** (k + 1)
    res = integrate_semi_infinite(
        lambda u: u ** k * np.exp(-c * u), 0.0, 0.8 * c)
    assert res.converged
    true_err = abs(res.value - exact)
    assert true_err <= res.err_est + 1e-15 * exact
    assert true_err <= max(1e-9, 1e-9 * exact) * 1.01


def test_envelope_violation_diagnosed():
    with pytest.raises(EnvelopeError):
        integrate_semi_infinite(lambda u: np.exp(-0.05 * u), 0.0, 5.0)


def test_semi_infinite_domain_errors():
    with pytest.raises(DomainError):
        integrate_semi_infinite(lambda u: np.exp(-u), 0.0, 0.0)
    with pytest.raises(DomainError):
        integrate_semi_infinite(lambda u: np.exp(-u), -1.0, 1.0)


def test_gauss_legendre_panels_exactness():
    nodes, weights = gauss_legendre_panels(geometric_edges(1e-12, 45.0), 16)
    val = weights @ np.exp(-nodes)
    assert abs(val - (np.exp(-1e-12) - np.exp(-45.0))) < 1e-13
    # degree-2n-1 exactness per panel on a polynomial
    nodes, weights = gauss_legendre_panels([0.0, 0.5, 1.0], 5)
    assert abs(weights @ nodes ** 9 - 0.1) < 1e-15


def test_geometric_edges_shape():
    edges = geometric_edges(1e-6, 10.0, 2.0)
    assert edges[0] == 1e-6
    assert edges[-1] == pytest.approx(10.0, rel=1e-12)
    ratios = edges[1:] / edges[:-1]
    assert np.all(ratios <= 2.0 + 1e-9)
    with pytest.raises(DomainError):
        geometric_edges(0.0, 1.0)
    with pytest.raises(DomainError):
        geometric_edges(1.0, 2.0, ratio=1.0)


def test_chebyshev_points_nest():
    # each doubling of the log-J interpolant reuses every table value
    for n in (32, 64, 128, 256):
        assert np.array_equal(chebyshev_points(2 * n)[::2],
                              chebyshev_points(n))
