import functools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from continuous_operator import side_integral

from nle.dispersion import (
    LongWaveDivergence,
    Material1D,
    dispersion_exponential,
    dispersion_powerlaw,
    numerical_dispersion,
)
from nle import dispersion, fem
from nle.kernels import ExponentialKernel, LocalDelta, PowerLawKernel
from nle.operator import NonlocalOperatorMatrix, build_operator_matrix

MAT = Material1D(modulus=30e9, density=2500.0)
C2 = MAT.local_velocity_sq  # 1.2e7 m^2/s^2


def test_material_validation():
    assert C2 == pytest.approx(1.2e7, rel=1e-15)
    with pytest.raises(ValueError):
        Material1D(0.0, 2500.0)
    with pytest.raises(ValueError):
        Material1D(30e9, -1.0)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_exponential_long_wave_limit_is_local():
    p = dispersion_exponential(0.0, MAT, l0=0.005)
    assert p == complex(C2, 0.0)


def test_exponential_reference_point():
    # k*l0 = 1 gives exactly (E/rho)/4
    p = dispersion_exponential(200.0, MAT, l0=0.005)
    assert p.real == pytest.approx(C2 / 4.0, rel=1e-15)
    assert p.imag == 0.0


def test_exponential_bounded_and_monotone():
    ks = np.geomspace(1.0, 1000.0, 25)
    vals = [dispersion_exponential(float(k), MAT, 0.005).real for k in ks]
    assert all(0.0 < v <= C2 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_powerlaw_local_limit_exact():
    for k in (0.0, 1.0, 37.5, 4000.0):
        p = dispersion_powerlaw(k, MAT, alpha=1.0)
        assert isinstance(p, complex)
        assert abs(p - C2) <= 1e-12 * C2


def test_powerlaw_long_wave_divergence_marker():
    marker = dispersion_powerlaw(0.0, MAT, alpha=0.75)
    assert isinstance(marker, LongWaveDivergence)
    assert marker.alpha == 0.75


def test_powerlaw_reference_point():
    # alpha = 3/4 at k*l* = 1: phase factor cos(1.75 pi) + i sin(1.75 pi)
    p = dispersion_powerlaw(1.0, MAT, alpha=0.75)
    r = math.sqrt(2.0) / 2.0
    assert p.real == pytest.approx(C2 * r, rel=1e-14)
    assert p.imag == pytest.approx(-C2 * r, rel=1e-14)


def test_powerlaw_exact_log_log_slope():
    for alpha in (0.6, 0.75, 0.9):
        v1 = dispersion_powerlaw(0.3, MAT, alpha)
        v2 = dispersion_powerlaw(30.0, MAT, alpha)
        slope = (math.log(abs(v2)) - math.log(abs(v1))) / (math.log(30.0) - math.log(0.3))
        assert slope == pytest.approx(2.0 * (alpha - 1.0), abs=1e-12)


def test_powerlaw_real_part_sign_tracks_exponent():
    assert dispersion_powerlaw(2.0, MAT, 0.6).real > 0.0
    assert dispersion_powerlaw(2.0, MAT, 0.4).real < 0.0
    # alpha = 1/2 sits exactly on the stability edge
    assert dispersion_powerlaw(2.0, MAT, 0.5).real == pytest.approx(
        0.0, abs=1e-9 * C2
    )


def test_exponential_beyond_the_float_range_of_its_square_is_zero():
    # k*l0 = 1e300: (k*l0)**2 overflows and vp^2 is 0, the value it rounds to at k*l0 = 1e150
    assert dispersion_exponential(1.0, MAT, 1e300) == complex(0.0, 0.0)
    assert dispersion_exponential(1.0, MAT, 1e150) == complex(0.0, 0.0)
    assert dispersion_exponential(2000.0, MAT, 1e300) == complex(0.0, 0.0)


def test_closed_form_validation():
    with pytest.raises(ValueError):
        dispersion_exponential(-1.0, MAT, 0.005)
    with pytest.raises(ValueError):
        dispersion_exponential(1.0, MAT, 0.0)
    with pytest.raises(ValueError):
        dispersion_powerlaw(1.0, MAT, 0.0)
    with pytest.raises(ValueError):
        dispersion_powerlaw(1.0, MAT, 1.2)
    with pytest.raises(ValueError):
        dispersion_powerlaw(1.0, MAT, 0.75, l_star=0.0)


# ---------------------------------------------------------------------------
# discrete oracle on the production operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kl0", [0.1, 1.0, 5.0])
def test_numerical_matches_exponential_closed_form(kl0):
    l0 = 0.05
    k = kl0 / l0
    closed = dispersion_exponential(k, MAT, l0)
    num = numerical_dispersion(k, MAT, ExponentialKernel(l0), 15.0 * l0)
    assert abs(num - closed) <= 1e-4 * abs(closed)


def test_numerical_has_no_spurious_attenuation():
    l0 = 0.05
    num = numerical_dispersion(0.5 / l0, MAT, ExponentialKernel(l0), 15.0 * l0)
    assert abs(num.imag) <= 1e-10 * abs(num.real)


def test_numerical_local_delta_recovers_local_velocity():
    num = numerical_dispersion(3.0, MAT, LocalDelta(), 0.1)
    assert abs(num - C2) <= 1e-6 * C2


def test_numerical_convergence_order_at_least_two(monkeypatch):
    l0 = 0.05
    k = 1.0 / l0
    closed = dispersion_exponential(k, MAT, l0)
    errs = []
    for ppw in (80, 160):
        monkeypatch.setattr(dispersion, "POINTS_PER_WAVELENGTH", ppw)
        num = numerical_dispersion(k, MAT, ExponentialKernel(l0), 18.0 * l0)
        errs.append(abs(num - closed) / abs(closed))
    assert errs[0] / errs[1] >= 4.0


@pytest.mark.parametrize("kl0", [1.0, 500.0])
def test_numerical_reads_the_production_operator(monkeypatch, kl0):
    # a 1e-3 defect on one side of every operator row must open a gap above
    # the 1e-4 the oracle is held to, also over the longer horizon that
    # `dispersion --verify` compares short waves at (1.0e-3 at k*l0 = 500)
    def skewed(nodes, eval_points, horizon_radius, kernel):
        op = build_operator_matrix(nodes, eval_points, horizon_radius, kernel)
        leading = op.nodes[None, :] > op.eval_points[:, None]
        weights = np.where(leading, op.weights * (1.0 + 1e-3), op.weights)
        return NonlocalOperatorMatrix(weights, op.eval_points, op.nodes)

    monkeypatch.setattr(dispersion, "build_operator_matrix", skewed)
    l0 = 0.05
    k = kl0 / l0
    closed = dispersion_exponential(k, MAT, l0)
    horizon = l0 * max(15.0, math.log1p(6e5 * kl0))
    num = numerical_dispersion(k, MAT, ExponentialKernel(l0), horizon)
    assert abs(num - closed) > 1e-4 * abs(closed)


# ---------------------------------------------------------------------------
# the power-law relation the operator gives
# ---------------------------------------------------------------------------

L_F = 0.5
ALPHAS = (0.6, 0.75, 0.9)
POWER_LAW_KS = (1e-3, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4)


def interior_ratio(alpha, k, l_f):
    """int_0^l_f s^-alpha cos(ks) ds / int_0^l_f s^-alpha ds, at 30 digits.

    The numerator is Re[(-ik)^(alpha-1) gamma(1-alpha, -ik l_f)], gamma the
    lower incomplete gamma function.  A direct mpmath.quad of s^-alpha cos(ks)
    misses it by up to 4.5e-4 at alpha = 0.9.
    """
    with mp.workdps(30):
        a, z = mp.mpf(alpha), -1j * mp.mpf(k)
        numerator = mp.re(z ** (a - 1) * mp.gammainc(1 - a, 0, z * l_f))
        return float(numerator * (1 - a) / mp.mpf(l_f) ** (1 - a))


@functools.cache
def operator_relation(alpha):
    """vp^2 read off the operator at each of POWER_LAW_KS, horizon L_F."""
    return [numerical_dispersion(k, MAT, PowerLawKernel(alpha), L_F) for k in POWER_LAW_KS]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_interior_ratio_matches_the_substituted_quadrature(alpha):
    kernel = PowerLawKernel(alpha)
    for k in (1e-3, 0.1, 1.0, 10.0):
        quadrature = side_integral(kernel, lambda s: math.cos(k * s), L_F)
        quadrature /= float(kernel.interval_integral(L_F))
        assert quadrature == pytest.approx(interior_ratio(alpha, k, L_F), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_the_power_law_relation_is_real(alpha):
    # rounding in the symbol is divided by k^2: 4.3e-11 at k = 1e-3, <= 1.1e-13 from 0.1 up
    for k, num in zip(POWER_LAW_KS, operator_relation(alpha)):
        assert abs(num.imag) <= (1e-10 if k < 0.1 else 1e-12) * C2


@pytest.mark.parametrize("alpha", ALPHAS)
def test_the_power_law_relation_is_the_interior_symbol(alpha):
    # measured: 3.5e-5 at worst (alpha = 0.6, k = 10), <= 3.1e-7 for k <= 1
    for k, num in zip(POWER_LAW_KS, operator_relation(alpha)):
        exact = C2 * interior_ratio(alpha, k, L_F) ** 2
        assert abs(num.real - exact) <= 5e-5 * exact


@pytest.mark.parametrize("alpha", ALPHAS)
def test_the_power_law_relation_tends_to_the_local_velocity(alpha):
    # 1 - vp^2 / (E/rho) -> k^2 l_f^2 (1 - alpha) / (3 - alpha) as k -> 0
    k, num = POWER_LAW_KS[0], operator_relation(alpha)[0]
    defect = k * k * L_F * L_F * (1.0 - alpha) / (3.0 - alpha)
    assert 1.0 - num.real / C2 == pytest.approx(defect, rel=1e-3)


# ---------------------------------------------------------------------------
# the oracle's guard
# ---------------------------------------------------------------------------

def test_the_oracle_refuses_a_wavenumber_that_is_not_positive():
    with pytest.raises(ValueError, match="positive"):
        numerical_dispersion(0.0, MAT, ExponentialKernel(0.05), 1.0)


def test_the_oracle_refuses_a_wavenumber_whose_square_underflows():
    with pytest.raises(fem.SolverError, match=r"k = 5e-324 is too small for the oracle: k\^2 underflows"):
        numerical_dispersion(5e-324, MAT, ExponentialKernel(0.05), 0.75)


def test_the_oracle_refuses_a_mesh_beyond_the_available_memory_before_allocating(monkeypatch):
    # k = 1e6 and l0 = 1e-3: half steps of 2 pi / 6.4e7 over a 15 mm horizon
    # give at most 6.11e5 nodes at 80 bytes each, 48.9 MB against 1 MB
    monkeypatch.setattr(fem, "available_memory", lambda: 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(fem.SolverError, match=r"needs 6.11e\+05 nodes, 0.0455 GiB, but only"):
            numerical_dispersion(1e6, MAT, ExponentialKernel(1e-3), 15e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
