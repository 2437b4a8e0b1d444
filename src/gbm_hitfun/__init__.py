"""Hitting-time functionals of geometric Brownian motion.

Let X(t) = x exp(B(t) - 2 mu t) with E B(t)^2 = 2t and x > 1, and let
tau be the first time X hits 1.  The package evaluates the density of
the integral functional A(tau) = int_0^tau X(s)^2 ds, its tail
behaviour, and the Poisson kernel of half-spaces in real hyperbolic
space that this functional represents.  Each quantity has one
evaluation route: the density by closed error-function sums for
moderate t and a fixed v-grid table otherwise, survival and total
mass by exact swaps of the t-integral, the tail constant in closed form,
and the Poisson kernel (in :mod:`.poisson`) by a single v-integral for
n >= 3 and by subordination at n = 2.  The Laplace transform of the
density, in closed Bessel form and by quadrature of q, checks them.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    ZeroCountError,
)
from .bessel import (
    KZeroSet,
    k_zero_count,
    k_zero_set,
)
from .weight import (
    ModelParams,
    WLambdaRep,
    build_w,
    h_mu_lambda,
    w_moment,
    w_kappa_moment_tail,
    w_power_moment_tail,
)
from .density import (
    DensityEvaluator,
    TailConstant,
    build_evaluator,
    dufresne_density,
    laplace_of_density,
    laplace_ratio,
    q_density,
    rescale,
    survival,
    tail_constant,
    total_mass,
)

__all__ = [
    "ConvergenceError",
    "DomainError",
    "ZeroCountError",
    "KZeroSet",
    "k_zero_count",
    "k_zero_set",
    "ModelParams",
    "WLambdaRep",
    "build_w",
    "h_mu_lambda",
    "w_moment",
    "w_kappa_moment_tail",
    "w_power_moment_tail",
    "DensityEvaluator",
    "TailConstant",
    "build_evaluator",
    "dufresne_density",
    "laplace_of_density",
    "laplace_ratio",
    "q_density",
    "rescale",
    "survival",
    "tail_constant",
    "total_mass",
]

__version__ = "0.1.0"
