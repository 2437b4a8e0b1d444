"""The gamma function, the reversed Bessel polynomials, and zeros of K_mu.

Real and complex K_nu, I_nu and the gamma function come straight from
scipy's AMOS/Cephes routines; this module adds the domain checking, the
reversed Bessel polynomials of half-integer orders, and the zero set of
K_mu in the cut plane C minus (-inf, 0].

The zero count follows the classical rule (DLMF 10.42): K_mu has no
zeros for |arg z| <= pi/2, and in pi/2 < |arg z| < pi it has k_mu zeros,
where k_mu = mu - 1/2 when that is a nonnegative integer and otherwise
the even integer closest to mu - 1/2; in particular no zeros at all for
0 <= mu < 3/2.  The zeros are simple, never coincide with zeros of
K_{mu-1}, and come in conjugate pairs plus, for odd k_mu, one real zero
on the cut; the zero set keeps one zero per pair, the one with Im z > 0.

Zeros are found by continuation in the order.  At a half-integer order
m + 1/2 they are the roots of z^m theta_m(1/z), a polynomial of degree
m.  For any other mu the count m = k_mu is even and stays m on the
whole order interval (m - 1/2, m + 3/2): zeros depend continuously on
the order and can only enter or leave the cut plane through the cut,
which happens only at the odd half-integers that end the interval.
That interval contains both mu and the seed order m + 1/2, so the m/2
upper-half-plane roots at m + 1/2 are followed to mu by Newton's
method in a short sequence of orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import special as sp

from .errors import DomainError, ZeroCountError

# Largest supported order: the discrete-weight amplitudes A_i built on
# these zeros are verified against independent references only up to
# mu = 10.
ORDER_CAP = 10.0

# Newton stops once every step is this small relative to its zero
_NEWTON_RTOL = 1e-15
_NEWTON_MAX_STEPS = 30

# continued zeros closer than this have collapsed onto one path
_MIN_SEPARATION = 1e-8

# orders this close to an m + 1/2 take the half-integer closed forms
_HALF_TOL = 1e-12


def _check_order(nu: float) -> float:
    nu = float(nu)
    if not np.isfinite(nu) or nu < 0:
        raise DomainError(f"order must be finite and >= 0, got {nu}")
    return nu


def gamma_fn(s: float) -> float:
    """Gamma function for s > 0."""
    s = float(s)
    if not (s > 0) or not np.isfinite(s):
        raise DomainError(f"gamma_fn needs s > 0, got {s}")
    return float(sp.gamma(s))


def is_half_integer(mu: float) -> bool:
    """True when mu - 1/2 is a nonnegative integer (within _HALF_TOL)."""
    m = mu - 0.5
    return m >= -_HALF_TOL and abs(m - round(m)) <= _HALF_TOL


def k_zero_count(mu: float) -> int:
    """Number of zeros of K_mu in the cut plane.

    mu - 1/2 itself when that is a nonnegative integer, otherwise the
    even integer closest to mu - 1/2 (zero for mu < 3/2).
    """
    mu = _check_order(mu)
    if is_half_integer(mu):
        return int(round(mu - 0.5))
    if mu < 1.5:
        return 0
    return int(round((mu - 0.5) / 2.0)) * 2


def reversed_bessel_theta(m: int) -> np.ndarray:
    """Coefficients of the reversed Bessel polynomial theta_m.

    K_{m+1/2}(z) = sqrt(pi/2z) e^{-z} theta_m(1/z) with
    theta_m(w) = sum_j (m+j)! / ((m-j)! j! 2^j) w^j.  Returned ascending
    in w, exact integers as floats.
    """
    if m < 0 or m != int(m):
        raise DomainError(f"degree must be a nonnegative integer, got {m}")
    m = int(m)
    return np.array([
        math.factorial(m + j) / (math.factorial(m - j) * math.factorial(j)
                                 * 2.0 ** j)
        for j in range(m + 1)
    ])


@dataclass(frozen=True)
class KZeroSet:
    """Zeros of K_mu in the left half-plane, one per conjugate pair.

    zeros holds the zeros with Im z >= 0, real zeros included, sorted by
    (real part, imaginary part); the others are their conjugates.
    """

    order: float
    zeros: Tuple[complex, ...]

    @property
    def count(self) -> int:
        """Zeros in the cut plane: 2 per complex zero stored, 1 per real."""
        return sum(1 if z.imag == 0.0 else 2 for z in self.zeros)


def _newton_polish(nu: float, z: np.ndarray) -> np.ndarray:
    """Newton's method on K_nu from each start in z, per zero until
    |step| <= _NEWTON_RTOL |z|; ZeroCountError if that takes longer
    than _NEWTON_MAX_STEPS steps."""
    z = np.array(z, dtype=complex)
    active = np.ones(z.shape, dtype=bool)
    for _ in range(_NEWTON_MAX_STEPS):
        za = z[active]
        # K_nu' = -(K_{nu-1} + K_{nu+1})/2; K_{-nu} = K_nu
        step = sp.kv(nu, za) / (
            -0.5 * (sp.kv(abs(nu - 1.0), za) + sp.kv(nu + 1.0, za)))
        z[active] = za - step
        active[active] = np.abs(step) > _NEWTON_RTOL * np.abs(za)
        if not active.any():
            return z
    raise ZeroCountError(
        f"Newton iteration for zeros of K_{nu} did not settle in "
        f"{_NEWTON_MAX_STEPS} steps", estimate=tuple(z))


def _half_integer_zeros(m: int) -> np.ndarray:
    """Zeros of K_{m+1/2} with Im z >= 0, m >= 1."""
    # z^m theta_m(1/z) is a degree-m polynomial in z with the same
    # nonzero roots as K_{m+1/2}
    roots = _newton_polish(m + 0.5, np.roots(reversed_bessel_theta(m)))
    roots = np.where(np.abs(roots.imag) <= 1e-9, roots.real, roots)
    return roots[roots.imag >= 0.0]


def _continued_zeros(mu: float, m: int) -> np.ndarray:
    """Upper zeros of K_mu, m = k_mu even, continued from the order m + 1/2.

    The path runs through orders lo + d^(k/n), k = 1..n, with
    lo = m - 1/2 and d = mu - lo in (0, 2): equal steps in log(nu - lo).
    Approaching lo from above, one conjugate pair meets the cut at
    distance about 0.87 (nu - lo) from it, so each step at most halves
    nu - lo; elsewhere n also keeps steps in nu near 1/4 or shorter.
    Each Newton solve starts from the linear extrapolation of the last
    two points of the path, which is exact where the pair nears the cut
    (there z moves linearly in nu - lo).
    """
    lo = m - 0.5
    d = mu - lo
    n = max(math.ceil(4.0 * abs(d - 1.0)), math.ceil(-math.log2(d)))
    ratio = d ** (1.0 / n)    # each step in nu is this times the last
    orders = lo + d ** (np.arange(1, n + 1) / n)
    orders[-1] = mu
    z = prev = _half_integer_zeros(m)
    for nu in orders:
        z, prev = _newton_polish(nu, z + ratio * (z - prev)), z
        if np.any(z.real >= 0.0) or np.any(z.imag <= 0.0):
            raise ZeroCountError(
                f"a zero of K_{nu} left the quadrant Re z < 0, Im z > 0 "
                f"during continuation", estimate=tuple(z))
        gaps = np.abs(z[:, None] - z[None, :])[np.triu_indices(z.size, 1)]
        if np.any(gaps < _MIN_SEPARATION):
            raise ZeroCountError(
                f"two continued zeros of K_{nu} landed within "
                f"{_MIN_SEPARATION:g} of each other", estimate=tuple(z))
    return z


def k_zero_set(mu: float) -> KZeroSet:
    """The zeros of K_mu in the cut plane with Im z >= 0, one per
    conjugate pair, for 0 <= mu <= ORDER_CAP.

    At a half-integer order m + 1/2 (within is_half_integer's
    tolerance) the zeros are the roots of the reversed Bessel
    polynomial z^m theta_m(1/z), polished by Newton's method on
    K_{m+1/2}.  At any other order the count m is even and
    constant on (m - 1/2, m + 3/2) (DLMF 10.42), an interval holding
    both mu and m + 1/2; the m/2 upper-half-plane roots at m + 1/2 are
    continued to mu in the order by Newton's method.  The count is
    checked against the classical rule; a mismatch, a Newton iteration
    that does not settle, a path that leaves the upper-left quadrant,
    or two paths that meet raise ZeroCountError with the zeros found so
    far attached.
    """
    mu = _check_order(mu)
    if mu > ORDER_CAP:
        raise DomainError(
            f"order {mu} exceeds the supported cap {ORDER_CAP:g}; the "
            "kernel amplitudes built on the zeros are not verified "
            "beyond it")
    expected = k_zero_count(mu)
    if expected == 0:
        return KZeroSet(order=mu, zeros=())
    zeros = (_half_integer_zeros(expected) if is_half_integer(mu)
             else _continued_zeros(mu, expected))
    found = KZeroSet(order=mu, zeros=tuple(sorted(
        map(complex, zeros), key=lambda z: (z.real, z.imag))))
    if found.count != expected:
        raise ZeroCountError(
            f"found {found.count} zeros of K_{mu}, expected {expected}",
            estimate=found.zeros)
    return found
