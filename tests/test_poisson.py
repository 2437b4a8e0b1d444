"""Poisson-kernel tests: the closed route and the radial tail constant.

Oracles used here, all independent of the code under test:

* the (n-1)-dimensional Cauchy density at mu = 1/2,
* a scipy radial Fourier inversion of the Laplace transform
  x^mu K_mu(x k)/K_mu(k) of the density at r = k, which is the Fourier
  transform of the kernel in the boundary variable,
* the closed tail constant C_P = (x^{2 mu} - 1) Gamma(mu + a)
  / (Gamma(mu) pi^a), a = (n-1)/2, obtained by subordinating the
  Gaussian to the density's tail law C t^{-mu-1}.
"""

import math

import numpy as np
import pytest
from scipy import integrate as sint
from scipy import special as sp

from gbm_hitfun.poisson import (
    PoissonParams,
    cauchy_kernel,
    kernel_closed,
    kernel_tail,
)
from gbm_hitfun.weight import ModelParams


def fourier_kernel_n4(mu: float, x: float, rho: float) -> float:
    """Kernel at n = 4 by inverting its 3-dimensional Fourier transform.

    P(rho) = (2 pi^2)^{-1} int_0^inf L(k) k^2 sin(k rho)/(k rho) dk with
    L(k) = x^mu K_mu(x k)/K_mu(k), which decays like e^{-(x-1) k}.
    """
    lam = x - 1.0

    def integrand(k):
        lap = x ** mu * sp.kve(mu, x * k) / sp.kve(mu, k) * math.exp(-lam * k)
        return lap * k * k * np.sinc(k * rho / math.pi)

    val, _ = sint.quad(integrand, 0.0, 60.0 / lam, epsabs=0.0, epsrel=1e-12,
                       limit=400)
    return val / (2.0 * math.pi ** 2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_closed_route_is_cauchy_at_half_drift(n):
    model = ModelParams(0.5, 2.0)
    for rho in (0.0, 1.5, 12.0):
        got = kernel_closed(PoissonParams(n, model, rho))
        assert got == cauchy_kernel(n, model.lam, rho)


@pytest.mark.parametrize("rho", [0.0, 1.5, 4.0])
def test_closed_route_matches_fourier_inversion(rho):
    got = kernel_closed(PoissonParams(4, ModelParams(1.2, 2.0), rho))
    assert got == pytest.approx(fourier_kernel_n4(1.2, 2.0, rho), rel=1e-6)


def test_kernel_tail_matches_closed_constant():
    mu, x, n = 1.2, 2.0, 4
    a = 0.5 * (n - 1.0)
    want = ((x ** (2.0 * mu) - 1.0) * sp.gamma(mu + a)
            / (sp.gamma(mu) * math.pi ** a))
    tail = kernel_tail(PoissonParams(n, ModelParams(mu, x), 0.0))
    assert tail.regime == "power"
    assert tail.value == pytest.approx(want, rel=1e-4)
