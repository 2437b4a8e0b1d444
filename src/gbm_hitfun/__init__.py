"""Hitting-time functionals of geometric Brownian motion.

Let X(t) = x exp(B(t) - 2 mu t) with E B(t)^2 = 2t and x > 1, and let
tau be the first time X hits 1.  The package evaluates the density of
the integral functional A(tau) = int_0^tau X(s)^2 ds, its tail
behaviour, and the Poisson kernel of half-spaces in real hyperbolic
space that this functional represents.  The test suite checks the
analytic routes against closed forms at half-integer drift, scipy's
Bessel-ratio Laplace transform and independent quadratures.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    EnvelopeError,
    ZeroCountError,
)
from .bessel import (
    KZeroSet,
    k_zero_count,
    k_zero_set,
)
from .quadrature import (
    QuadResult,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
)
from .weight import (
    ModelParams,
    WLambdaRep,
    build_w,
    h_mu_lambda,
    w_moment,
    w_kappa_moment_tail,
    w_power_moment_tail,
    w2_tail_constant,
)
from .density import (
    DensityEvaluator,
    TailConstant,
    build_evaluator,
    dufresne_density,
    laplace_of_density,
    laplace_ratio,
    normalization_check,
    q_density,
    q_density_basic,
    rescale,
    survival,
    tail_constant,
    total_mass,
)

__all__ = [
    "ConvergenceError",
    "DomainError",
    "EnvelopeError",
    "ZeroCountError",
    "KZeroSet",
    "k_zero_count",
    "k_zero_set",
    "QuadResult",
    "QuadratureSpec",
    "integrate_finite",
    "integrate_semi_infinite",
    "ModelParams",
    "WLambdaRep",
    "build_w",
    "h_mu_lambda",
    "w_moment",
    "w_kappa_moment_tail",
    "w_power_moment_tail",
    "w2_tail_constant",
    "DensityEvaluator",
    "TailConstant",
    "build_evaluator",
    "dufresne_density",
    "laplace_of_density",
    "laplace_ratio",
    "normalization_check",
    "q_density",
    "q_density_basic",
    "rescale",
    "survival",
    "tail_constant",
    "total_mass",
]

__version__ = "0.1.0"
