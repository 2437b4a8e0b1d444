"""The reference routes against closed forms; none of this imports the program."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as R  # noqa: E402


@pytest.mark.parametrize("t", [0.3, 4.0])
def test_talbot_density_is_levy_at_half(t):
    x = 2.0
    assert R.q_talbot(0.5, x, t) == pytest.approx(
        R.levy_density(x - 1.0, t), rel=1e-14)


def test_talbot_survival_is_levy_at_half():
    x, big_t = 3.0, 2.5
    assert R.survival_talbot(0.5, x, big_t) == pytest.approx(
        R.levy_survival(x - 1.0, big_t), rel=1e-14)


@pytest.mark.parametrize("t", [0.2, 3.0])
def test_talbot_density_closed_form_at_three_halves(t):
    x = 2.0
    assert R.q_talbot(1.5, x, t) == pytest.approx(R.q_three_halves(x, t),
                                                  rel=1e-13)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("rho", [0.0, 0.8, 6.0, 18.0])
def test_fourier_kernel_is_cauchy_at_half(n, rho):
    assert R.kernel_fourier(0.5, 2.0, n, rho) == pytest.approx(
        R.cauchy_kernel(n, 1.0, rho), rel=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("mu", [1.5, 0.3, 3.7])
def test_fourier_routes_agree(mu):
    # the real-axis route is exact but loses relative accuracy in the
    # tail, so compare at radii where the kernel is still sizeable
    for n in (3, 5):
        for rho in (0.5, 2.0):
            assert R.kernel_imag_axis(mu, 2.0, n, rho) == pytest.approx(
                R.kernel_real_axis(mu, 2.0, n, rho), rel=1e-12)


def test_closed_tail_constants_at_half():
    lam = 1.0
    # q ~ lam / (2 sqrt(pi)) t^(-3/2) and the Cauchy tail
    assert R.tail_constant_closed(0.5, 1.0 + lam) == pytest.approx(
        lam / (2.0 * math.sqrt(math.pi)), rel=1e-15)
    for n in (3, 4, 5):
        rho = 1e8
        assert R.kernel_tail_closed(0.5, 1.0 + lam, n) == pytest.approx(
            R.cauchy_kernel(n, lam, rho) * rho ** n, rel=1e-12)


def test_table_covers_every_reference_key():
    import workloads
    table = R.load_table()
    missing = workloads.reference_keys() - set(table)
    assert not missing
    assert all(math.isfinite(v) and v > 0.0 for v in table.values())
