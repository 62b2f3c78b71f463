import math

import numpy as np
import pytest

from nle.dispersion import (
    LongWaveDivergence,
    Material1D,
    ResolutionError,
    dispersion_exponential,
    dispersion_powerlaw,
    numerical_dispersion,
)
from nle import dispersion
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
    num = numerical_dispersion(
        3.0, MAT, LocalDelta(), 0.1, points_per_wavelength=128
    )
    assert abs(num - C2) <= 1e-6 * C2


def test_numerical_convergence_order_at_least_two():
    l0 = 0.05
    k = 1.0 / l0
    closed = dispersion_exponential(k, MAT, l0)
    errs = []
    for ppw in (80, 160):
        num = numerical_dispersion(
            k, MAT, ExponentialKernel(l0), 18.0 * l0, points_per_wavelength=ppw
        )
        errs.append(abs(num - closed) / abs(closed))
    assert errs[0] / errs[1] >= 4.0


def test_numerical_resolution_guards():
    with pytest.raises(ResolutionError, match="points per wavelength"):
        numerical_dispersion(1.0, MAT, ExponentialKernel(0.05), 1.0, points_per_wavelength=30)
    with pytest.raises(ResolutionError, match="10 internal lengths"):
        numerical_dispersion(1.0, MAT, ExponentialKernel(0.05), 0.2)
    with pytest.raises(ResolutionError, match="singular at the origin"):
        numerical_dispersion(1.0, MAT, PowerLawKernel(0.75), 1.0)
    with pytest.raises(ValueError, match="positive"):
        numerical_dispersion(0.0, MAT, ExponentialKernel(0.05), 1.0)


def test_numerical_reads_the_production_operator(monkeypatch):
    # a 1e-3 defect on one side of every operator row must open a gap above
    # the 1e-4 the oracle is held to
    def skewed(nodes, eval_points, horizon_radius, kernel):
        op = build_operator_matrix(nodes, eval_points, horizon_radius, kernel)
        leading = op.nodes[None, :] > op.eval_points[:, None]
        weights = np.where(leading, op.weights * (1.0 + 1e-3), op.weights)
        return NonlocalOperatorMatrix(weights, op.eval_points, op.nodes)

    monkeypatch.setattr(dispersion, "build_operator_matrix", skewed)
    l0 = 0.05
    k = 1.0 / l0
    closed = dispersion_exponential(k, MAT, l0)
    num = numerical_dispersion(k, MAT, ExponentialKernel(l0), 15.0 * l0)
    assert abs(num - closed) > 1e-4 * abs(closed)
