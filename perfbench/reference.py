"""Reference values computed without the gbm_hitfun package.

Every number the benchmark checks comes from here, by routes that share
no code with the program:

* the density q and the survival function by mpmath Talbot inversion of
  the closed Laplace transform L(s) = x^mu K_mu(x sqrt s) / K_mu(sqrt s)
  of A(tau), and of (1 - L(s)) / s;
* the Poisson kernel as the radial inverse Fourier transform in R^(n-1)
  of the exit point's characteristic function phi(k) = L(k^2), by scipy
  quadrature;
* the tail constants in closed form.

Run as a script to rebuild ``reference.json`` for the points that
``workloads.py`` names:

    python3 perfbench/reference.py [--jobs 2] [--out perfbench/reference.json]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import multiprocessing
import sys
import time
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy import special as sp

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (pure data, no program import)

# Talbot values are accepted when two working precisions ten digits apart
# agree to this relative distance
TALBOT_AGREE = 1e-15
TALBOT_DPS = (20, 30, 45, 65, 90)


# ---------------------------------------------------------------------
# density and survival by Talbot inversion

def _laplace(mu, x):
    mu, x = mp.mpf(mu), mp.mpf(x)
    xm = x ** mu

    def f(s):
        r = mp.sqrt(s)
        return xm * mp.besselk(mu, x * r) / mp.besselk(mu, r)

    return f


def _talbot(make_f, t: float) -> tuple[float, int]:
    """Invert at rising precision until two precisions agree.

    Returns the value and the working precision that confirmed it.
    """
    prev = None
    for dps in TALBOT_DPS:
        with mp.workdps(dps):
            val = mp.invertlaplace(make_f(), mp.mpf(t), method="talbot")
        if prev is not None and abs(val - prev) <= TALBOT_AGREE * abs(val):
            return float(val), dps
        prev = val
    raise RuntimeError(f"Talbot inversion at t = {t} did not settle")


def q_talbot(mu: float, x: float, t: float) -> float:
    """Density of A(tau) at t."""
    return _talbot(lambda: _laplace(mu, x), t)[0]


def survival_talbot(mu: float, x: float, big_t: float) -> float:
    """P(A(tau) > T) as the inverse transform of (1 - L(s)) / s."""
    def make():
        lap = _laplace(mu, x)
        return lambda s: (1 - lap(s)) / s

    return _talbot(make, big_t)[0]


# ---------------------------------------------------------------------
# Poisson kernel by radial Fourier inversion

def _phi(mu: float, x: float, k):
    """Characteristic function x^mu K_mu(x k) / K_mu(k) for real k > 0."""
    return (x ** mu * sp.kve(mu, x * k) / sp.kve(mu, k)
            * np.exp(-(x - 1.0) * k))


def kernel_real_axis(mu: float, x: float, n: int, rho: float) -> float:
    """(2 pi)^(-d/2) rho^(1-d/2) int phi(k) k^(d/2) J_(d/2-1)(k rho) dk.

    d = n - 1.  The integrand decays like e^{-(x-1) k}; the result loses
    relative accuracy once the kernel is far below phi(0) = 1, so this
    route serves small radii and cross-checks the imaginary-axis route.
    """
    d = n - 1
    kmax = 80.0 / (x - 1.0)
    if rho == 0.0:
        val = integrate.quad(lambda k: _phi(mu, x, k) * k ** (d - 1),
                             0.0, kmax, limit=400, epsabs=0.0,
                             epsrel=1e-13)[0]
        return ((2.0 * math.pi) ** (-0.5 * d) * 2.0 ** (1.0 - 0.5 * d)
                / math.gamma(0.5 * d) * val)
    nu = 0.5 * d - 1.0
    edges = np.append(np.arange(0.0, kmax, math.pi / rho), kmax)
    val = sum(integrate.quad(
        lambda k: _phi(mu, x, k) * k ** (0.5 * d) * sp.jv(nu, k * rho),
        a, b, limit=200, epsabs=0.0, epsrel=1e-13)[0]
        for a, b in zip(edges[:-1], edges[1:]))
    return (2.0 * math.pi) ** (-0.5 * d) * rho ** (1.0 - 0.5 * d) * val


def kernel_imag_axis(mu: float, x: float, n: int, rho: float) -> float:
    """The same transform with the k-contour turned onto the imaginary axis.

    Writing J = (H1 + H2)/2 and rotating each half to k = +-i s turns the
    oscillatory integral into

        (2 pi)^(-d/2) rho^(1-d/2) (2/pi)
            int_0^inf -Im phi(i s) s^(d/2) K_(d/2-1)(s rho) ds,

    -Im phi(i s) = x^mu (Y(xs) J(s) - J(xs) Y(s)) / (J(s)^2 + Y(s)^2)
    with J, Y of order mu.  The integrand is of the size of the result,
    so relative accuracy holds at every radius rho > 0.
    """
    d = n - 1
    nu = 0.5 * d - 1.0

    def g(s):
        js, ys = sp.jv(mu, s), sp.yv(mu, s)
        jx, yx = sp.jv(mu, x * s), sp.yv(mu, x * s)
        im = x ** mu * (yx * js - jx * ys) / (js * js + ys * ys)
        return im * s ** (0.5 * d) * sp.kv(nu, s * rho)

    edges = np.concatenate([[0.0], np.geomspace(1e-6 / rho, 60.0 / rho, 60)])
    val = sum(integrate.quad(g, a, b, limit=200, epsabs=0.0,
                             epsrel=1e-13)[0]
              for a, b in zip(edges[:-1], edges[1:]))
    return ((2.0 * math.pi) ** (-0.5 * d) * rho ** (1.0 - 0.5 * d)
            * (2.0 / math.pi) * val)


def kernel_fourier(mu: float, x: float, n: int, rho: float) -> float:
    """Poisson kernel at radius rho: real axis at rho = 0, else rotated.

    QUADPACK warns of roundoff on panels whose share of the sum is far
    below the requested accuracy; the routes are validated against each
    other and against the Cauchy kernel instead (see the tests).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if rho == 0.0:
            return kernel_real_axis(mu, x, n, rho)
        return kernel_imag_axis(mu, x, n, rho)


# ---------------------------------------------------------------------
# closed forms

def tail_constant_closed(mu: float, x: float) -> float:
    """C_q in q(t) ~ C_q t^(-mu-1), or C_q / (t log^2 t) at mu = 0."""
    if mu == 0.0:
        return 2.0 * math.log(x)
    return (x ** (2.0 * mu) - 1.0) / (4.0 ** mu * math.gamma(mu))


def kernel_tail_closed(mu: float, x: float, n: int) -> float:
    """C_P in P(rho) ~ C_P rho^(-(n + 2 mu - 1)), for mu > 0."""
    a = 0.5 * (n - 1)
    return ((x ** (2.0 * mu) - 1.0) * math.gamma(mu + a)
            / (math.gamma(mu) * math.pi ** a))


def cauchy_kernel(n: int, lam: float, rho: float) -> float:
    """(n-1)-dimensional Cauchy density: the Poisson kernel at mu = 1/2."""
    return (math.gamma(0.5 * n) * lam
            / (math.pi ** (0.5 * n) * (lam * lam + rho * rho) ** (0.5 * n)))


def levy_density(lam: float, t: float) -> float:
    """Density of A(tau) at mu = 1/2: one-sided 1/2-stable, scale lam."""
    return lam / (2.0 * math.sqrt(math.pi) * t ** 1.5) * math.exp(
        -lam * lam / (4.0 * t))


def levy_survival(lam: float, big_t: float) -> float:
    return math.erf(lam / (2.0 * math.sqrt(big_t)))


def q_three_halves(x: float, t: float) -> float:
    """Density at mu = 3/2, where L(s) = x e^{-lam r} - lam e^{-lam r}/(r+1).

    Inverting term by term gives
    q = lam e^{-lam^2/4t} [x / (2 sqrt(pi) t^(3/2)) - 1/sqrt(pi t)
                           + erfcx(lam / 2 sqrt t + sqrt t)].
    """
    with mp.workdps(40):
        lam, t = mp.mpf(x) - 1, mp.mpf(t)
        arg = lam / (2 * mp.sqrt(t)) + mp.sqrt(t)
        val = lam * mp.exp(-lam * lam / (4 * t)) * (
            mp.mpf(x) / (2 * mp.sqrt(mp.pi) * t ** 1.5)
            - 1 / mp.sqrt(mp.pi * t) + mp.exp(arg * arg) * mp.erfc(arg))
        return float(val)


# ---------------------------------------------------------------------
# table

def _entry(key):
    kind, mu, x, n, arg = key
    if kind == "q":
        return q_talbot(mu, x, arg)
    if kind == "survival":
        return survival_talbot(mu, x, arg)
    if kind == "kernel":
        return kernel_fourier(mu, x, n, arg)
    raise ValueError(kind)


def _timed_entry(key):
    t0 = time.perf_counter()
    return key, _entry(key), time.perf_counter() - t0


def build_table(jobs: int = 1, log=sys.stderr) -> list:
    """Evaluate every reference point the workloads name."""
    keys = sorted(workloads.reference_keys(), key=lambda k: k[0] != "q")
    rows = []
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        results = (pool.imap_unordered(_timed_entry, keys) if pool
                   else map(_timed_entry, keys))
        for key, val, dt in results:
            rows.append(list(key) + [val])
            print(f"{len(rows)}/{len(keys)} {key} {val!r} {dt:.1f}s",
                  file=log, flush=True)
    rows.sort(key=lambda r: tuple(r[:5]))
    return rows


def load_table(path: Path = HERE / "reference.json") -> dict:
    """Map (kind, mu, x, n, arg) to the reference value."""
    with open(path) as fh:
        rows = json.load(fh)["values"]
    return {tuple(r[:5]): r[5] for r in rows}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out", type=Path, default=HERE / "reference.json")
    args = ap.parse_args(argv)
    rows = build_table(args.jobs)
    doc = {
        "columns": ["kind", "mu", "x", "n", "arg", "value"],
        "methods": {
            "q": "mpmath Talbot inversion of x^mu K_mu(x sqrt s)/K_mu(sqrt s)",
            "survival": "mpmath Talbot inversion of (1 - L(s))/s",
            "kernel": "radial inverse Fourier transform of L(k^2) in "
                      "R^(n-1), imaginary-axis form for rho > 0",
        },
        "talbot_agreement": TALBOT_AGREE,
    }
    # one row per line keeps the file readable and its diffs small
    head = json.dumps(doc, indent=1)[:-2]
    body = ",\n".join(json.dumps(r) for r in rows)
    with open(args.out, "w") as fh:
        fh.write(f'{head},\n "values": [\n{body}\n ]\n}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
