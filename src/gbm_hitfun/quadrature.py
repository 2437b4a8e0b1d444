"""Vectorized adaptive Gauss-Kronrod quadrature and fixed panel grids.

In the package only :func:`.density.adaptive_integral` runs the adaptive
engine, through :func:`integrate_finite`, for the kernel integrals not
yet on the density's v-table; :func:`integrate_semi_infinite` serves the
tests' oracles.  The integrands are smooth away from isolated endpoint
singularities but need not decay fast (w falls like v^{-(2 mu + 2)};
callers complete their cut in closed form), and far cheaper in batches
than point by point.  ``scipy.integrate.quad`` is scalar-only, so each
refinement pass evaluates the integrand once on the stacked nodes of
all pending intervals: the 7-15 Gauss-Kronrod pair, bisecting the
intervals that carry the error.  Semi-infinite integrals run over
geometrically widening panels under an exponential envelope |f(u)| <=
M exp(-decay_rate*u) that the caller asserts, sampled to bound the
discarded tail, which goes into the error estimate, not the value.
Fixed composite Gauss-Legendre panels carry the u-grid and v-table;
Chebyshev points of the second kind and their barycentric weights carry
the interpolants of w2 in v and of log J in log t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, EnvelopeError

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
# Nonnegative abscissae; the even-index entries are the Kronrod-only
# points, the odd-index entries (and 0) carry the embedded Gauss rule.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277,
    0.381830050505119, 0.417959183673469,
])

# Full symmetric 15-point layout, nodes ascending.
_OFFSETS = np.concatenate([-_XGK[:7], _XGK[::-1]])
_W15 = np.concatenate([_WGK[:7], _WGK[::-1]])
_W7 = np.zeros(15)
_W7[[1, 3, 5]] = _WG[:3]
_W7[7] = _WG[3]
_W7[[9, 11, 13]] = _WG[2::-1]

_MAX_PASSES = 200
_SPLIT_CAP = 256  # intervals bisected per refinement pass


class QuadResult(NamedTuple):
    """Outcome of an adaptive integration.

    ``converged`` is False when the subdivision budget ran out; ``value``
    is then still the best available estimate with ``err_est`` honest.
    """

    value: float
    err_est: float
    converged: bool
    neval: int


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for adaptive integration.

    split_points, when given, are inserted as initial interval edges so
    that known singular or transition abscissae never sit inside a
    panel.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_subdivisions: int = 512
    split_points: Optional[Sequence[float]] = None

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


DEFAULT_SPEC = QuadratureSpec()


def _gk_batch(f, lo, hi):
    """Apply the 7-15 pair to each [lo_i, hi_i]; one batched call to f."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    pts = c[:, None] + h[:, None] * _OFFSETS[None, :]
    fx = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    k15 = h * (fx @ _W15)
    g7 = h * (fx @ _W7)
    return k15, np.abs(k15 - g7), pts.size


def _initial_edges(a, b, split_points):
    edges = [a, b]
    if split_points is not None:
        edges.extend(p for p in split_points if a < p < b)
    return np.array(sorted(set(edges)))


def integrate_finite(f, a: float, b: float,
                     spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """Integrate a vectorized integrand over [a, b] adaptively.

    Parameters
    ----------
    f : callable
        Integrand; called with a 1-d ndarray of abscissae, must return
        an array of the same shape.
    a, b : float
        Endpoints, a <= b.  Endpoint singularities must be integrable
        and should be registered via ``spec.split_points`` when interior.
    spec : QuadratureSpec
        Tolerances, subdivision budget and initial split points.

    Returns
    -------
    QuadResult
        value, conservative error estimate, convergence flag, and the
        number of integrand evaluations.
    """
    if a > b:
        raise DomainError(f"need a <= b, got [{a}, {b}]")
    if a == b:
        return QuadResult(0.0, 0.0, True, 0)

    edges = _initial_edges(a, b, spec.split_points)
    lo, hi = edges[:-1], edges[1:]
    val, err, neval = _gk_batch(f, lo, hi)
    splits_left = spec.max_subdivisions

    for _ in range(_MAX_PASSES):
        total = val.sum()
        tot_err = err.sum()
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if tot_err <= tol:
            return QuadResult(total, tot_err, True, neval)
        if splits_left <= 0:
            break

        # Bisect the intervals carrying a dominant share of the error:
        # everything within a factor of the worst, or above its fair
        # share of the tolerance.  Endpoint singularities then refine
        # geometrically toward the endpoint without splitting the
        # already-converged smooth panels.
        # Relative width floor only: panels abutting 0 may refine to
        # arbitrarily small absolute width (integrable endpoint
        # singularities need it), but never below ulp spacing.
        width_ok = (hi - lo) > 16 * np.finfo(float).eps * np.maximum(
            np.abs(lo), np.abs(hi)) + 1e-300
        if not width_ok.any():
            break
        order = np.argsort(err)[::-1]
        order = order[width_ok[order]]
        if len(order) == 0:
            break
        thresh = max(tol / (2.0 * len(err)), 0.25 * err[order[0]])
        n_above = int(np.searchsorted(-err[order], -thresh, side="right"))
        pick = order[:max(1, min(n_above, _SPLIT_CAP, splits_left))]
        splits_left -= len(pick)

        mid = 0.5 * (lo[pick] + hi[pick])
        new_lo = np.concatenate([lo[pick], mid])
        new_hi = np.concatenate([mid, hi[pick]])
        nval, nerr, ne = _gk_batch(f, new_lo, new_hi)
        neval += ne

        keep = np.ones(len(lo), dtype=bool)
        keep[pick] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], nval])
        err = np.concatenate([err[keep], nerr])

    # Budget exhausted: report the best estimate honestly.
    return QuadResult(float(val.sum()), float(err.sum()), False, neval)


def integrate_semi_infinite(f, a: float, decay_rate: float,
                            spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """Integrate f over [a, infinity) given an exponential envelope.

    The caller asserts |f(u)| <= M exp(-decay_rate*u) for all large u
    (M unknown).  Panels of geometrically doubling width are integrated
    until both the last panel's contribution and the sampled envelope
    bound on the remaining tail fall below tolerance; the tail bound is
    folded into ``err_est``.

    Raises
    ------
    EnvelopeError
        If sampling near the panel ends shows the integrand decaying
        markedly slower than the asserted rate once the panels are in
        the tail regime (their contribution is a small fraction of the
        running total).  A violated envelope would otherwise produce a
        silent tail underestimate.
    """
    if decay_rate <= 0:
        raise DomainError("decay_rate must be positive")
    if a < 0:
        raise DomainError("lower endpoint must be >= 0")

    # Per-panel tolerance: a modest slice of the global budget.  Panel
    # count is O(log) so a fixed fraction is safe.
    panel_spec = QuadratureSpec(
        abs_tol=spec.abs_tol / 8.0,
        rel_tol=spec.rel_tol,
        max_subdivisions=spec.max_subdivisions,
        split_points=None,
    )

    total = 0.0
    err_sum = 0.0
    neval = 0
    converged = True
    lo = a
    width = max(1.0 / decay_rate, 1e-6)
    # Running log of the envelope constant: max over all samples of
    # log|f(u)| + decay_rate*u.  Kept in log form to dodge overflow.
    log_m = -np.inf
    strikes = 0

    for _ in range(64):
        hi = lo + width
        inner = [p for p in (spec.split_points or ()) if lo < p < hi]
        res = integrate_finite(f, lo, hi, QuadratureSpec(
            panel_spec.abs_tol, panel_spec.rel_tol,
            panel_spec.max_subdivisions, inner or None))
        total += res.value
        err_sum += res.err_est
        neval += res.neval
        converged = converged and res.converged

        # Sample |f| near the panel's far end: updates the envelope
        # constant and gives a local decay-rate estimate.
        us = hi - width * np.array([0.30, 0.20, 0.12, 0.06, 0.02, 0.0])
        fs = np.abs(np.asarray(f(us), dtype=float))
        neval += us.size
        pos = fs > 0
        if pos.any():
            log_m = max(log_m, float(
                np.max(np.log(fs[pos]) + decay_rate * us[pos])))
        tail_bound = np.exp(log_m - decay_rate * hi) / decay_rate

        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if tail_bound <= 0.5 * tol and abs(res.value) <= 0.5 * tol:
            return QuadResult(total, err_sum + tail_bound, converged, neval)

        # Envelope check, active only once the panel is clearly in the
        # tail: a fitted decay rate well below the asserted one on two
        # consecutive panels means the caller's bound is wrong.
        in_tail = abs(res.value) <= 0.05 * max(abs(total), spec.abs_tol)
        if in_tail and pos.sum() >= 3:
            slope = np.polyfit(us[pos], np.log(fs[pos]), 1)[0]
            if slope > -0.65 * decay_rate:
                strikes += 1
                if strikes >= 2:
                    raise EnvelopeError(
                        f"observed decay rate {-slope:.3g} near u={hi:.3g} "
                        f"is far below the asserted {decay_rate:.3g}",
                        estimate=total, err_est=err_sum + tail_bound)
            else:
                strikes = 0
        lo = hi
        width *= 2.0

    return QuadResult(total, err_sum + tail_bound, False, neval)


def gauss_legendre_panels(edges, npts: int):
    """Composite Gauss-Legendre nodes and weights over fixed panels.

    Returns flat arrays (nodes, weights) covering [edges[0], edges[-1]]
    with ``npts`` points per panel, panels in ascending order.  Used for
    the fixed shared grids where adaptivity is not wanted (kernel grids
    evaluated once, then reused across many dot products).
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise DomainError("edges must be strictly increasing, length >= 2")
    xg, wg = np.polynomial.legendre.leggauss(npts)
    c = 0.5 * (edges[1:] + edges[:-1])
    h = 0.5 * (edges[1:] - edges[:-1])
    nodes = (c[:, None] + h[:, None] * xg[None, :]).ravel()
    weights = (h[:, None] * wg[None, :]).ravel()
    return nodes, weights


def geometric_edges(lo: float, hi: float, ratio: float = 2.0):
    """Panel edges growing geometrically from lo to hi (hi exact)."""
    if not (0 < lo < hi):
        raise DomainError("need 0 < lo < hi")
    if ratio <= 1:
        raise DomainError("ratio must exceed 1")
    n = max(1, int(np.ceil(np.log(hi / lo) / np.log(ratio))))
    return lo * (hi / lo) ** (np.arange(n + 1) / n)


def chebyshev_points(n: int) -> np.ndarray:
    """The n + 1 Chebyshev points of the second kind on [-1, 1],
    descending, in the symmetric form sin(pi (n - 2k) / 2n): point k of
    n is bit for bit point 2k of 2n."""
    return np.sin(0.5 * np.pi * np.arange(n, -n - 1.0, -2.0) / n)


def chebyshev_weights(size: int) -> np.ndarray:
    """Barycentric weights of Chebyshev points: (-1)^k, ends halved."""
    wts = np.where(np.arange(size) % 2, -1.0, 1.0)
    wts[[0, -1]] *= 0.5
    return wts
