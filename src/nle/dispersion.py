"""Dispersion of harmonic waves in the 1D nonlocal solid.

The balance law E * Dtilde(Dbar u) = rho * u_tt acting on a plane wave
exp(i(kx - wt)) multiplies the wave by the squared operator symbol, giving a
closed-form squared phase velocity for each kernel:

    exponential:  (w/k)^2 = (E/rho) * (1 + k^2 l0^2)^(-2)
    power law:    (w/k)^2 = (E/rho) * (cos(pi + alpha*pi)
                                       + i sin(pi + alpha*pi)) * (k l*)^(2(alpha-1))

with l* a fixed reference length.  The power-law branch is dispersive for
alpha < 1 and diverges as k -> 0 (the long-wave limit carries no scale), so
that case returns a marker object instead of a number.  Its real part is
positive only for alpha > 1/2, which is why configuration-level validation
floors the exponent there.

numerical_dispersion rebuilds the composed operator discretely on a periodic
grid (fourth-order central differences for the gradients, Simpson-weighted
circular convolution for the kernel averages) and reads the symbol off a
sampled plane wave.  It shares no algebra with the closed forms and serves as
their oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .kernels import ExponentialKernel, Kernel, LocalDelta

__all__ = [
    "Material1D",
    "DispersionPoint",
    "LongWaveDivergence",
    "ResolutionError",
    "dispersion_exponential",
    "dispersion_powerlaw",
    "numerical_dispersion",
    "periodic_composed_apply",
]


class ResolutionError(ValueError):
    """The discrete surrogate cannot resolve the requested configuration."""


@dataclass(frozen=True)
class Material1D:
    """Linear elastic bar material: Young's modulus [Pa] and density [kg/m^3]."""

    modulus: float
    density: float

    def __post_init__(self) -> None:
        if not self.modulus > 0.0:
            raise ValueError(f"modulus must be positive (got {self.modulus!r})")
        if not self.density > 0.0:
            raise ValueError(f"density must be positive (got {self.density!r})")

    @property
    def local_velocity_sq(self) -> float:
        return self.modulus / self.density


@dataclass(frozen=True)
class DispersionPoint:
    """Squared phase velocity (possibly complex) at wavenumber k."""

    k: float
    phase_velocity_sq: complex


@dataclass(frozen=True)
class LongWaveDivergence:
    """Marker: the power-law squared phase velocity is unbounded as k -> 0."""

    alpha: float

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LongWaveDivergence(alpha={self.alpha!r})"


def dispersion_exponential(k: float, material: Material1D, l0: float) -> DispersionPoint:
    """Closed-form squared phase velocity for the exponential kernel.

    Real for every wavenumber (no attenuation) and bounded by the local
    velocity, which it approaches as k*l0 -> 0.
    """
    _require_wavenumber(k)
    if not l0 > 0.0:
        raise ValueError(f"internal length must be positive (got {l0!r})")
    factor = 1.0 / (1.0 + (k * l0) ** 2)
    return DispersionPoint(k, complex(material.local_velocity_sq * factor * factor, 0.0))


def dispersion_powerlaw(
    k: float, material: Material1D, alpha: float, l_star: float = 1.0
) -> DispersionPoint | LongWaveDivergence:
    """Closed-form squared phase velocity for the power-law kernel.

    alpha = 1 is the local limit (exactly E/rho at every k).  For alpha < 1
    the magnitude follows the exact power (k l_star)^(2(alpha-1)), an exact
    straight line of slope 2(alpha-1) in log-log, unbounded as k -> 0; that
    limit returns a LongWaveDivergence marker.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"power-law exponent must lie in (0, 1] (got {alpha!r})")
    if not l_star > 0.0:
        raise ValueError(f"reference length must be positive (got {l_star!r})")
    if k < 0.0:
        raise ValueError(f"wavenumber must be >= 0 (got {k!r})")
    if alpha == 1.0:
        return DispersionPoint(k, complex(material.local_velocity_sq, 0.0))
    if k == 0.0:
        return LongWaveDivergence(alpha=alpha)
    phase = cmath.exp(1j * (math.pi + alpha * math.pi))
    magnitude = (k * l_star) ** (2.0 * (alpha - 1.0))
    return DispersionPoint(k, material.local_velocity_sq * phase * magnitude)


def periodic_composed_apply(
    values: np.ndarray, spacing: float, kernel: Kernel, horizon_length: float
) -> np.ndarray:
    """Apply the composed discrete operator Dtilde(Dbar .) on a periodic grid.

    values are samples on an equispaced periodic grid.  Gradients use the
    fourth-order five-point stencil; each kernel average is a circular
    convolution with Simpson weights over ~horizon_length per side, normalized
    by the closed-form moment of the truncated range so constants are
    annihilated exactly.
    """
    u = np.asarray(values)
    n = u.shape[0]
    if n < 16:
        raise ResolutionError("periodic grid needs at least 16 samples")
    if not spacing > 0.0:
        raise ValueError("grid spacing must be positive")
    if isinstance(kernel, LocalDelta):
        return _fd4(_fd4(u, spacing), spacing)
    if kernel.is_singular_at_origin:
        raise ResolutionError(
            "periodic surrogate is undefined for kernels singular at the origin; "
            "use the closed-form relation for the power-law kernel"
        )
    m = max(2, 2 * int(round(horizon_length / (2.0 * spacing))))
    if 2 * m >= n:
        raise ResolutionError(
            f"horizon ({m} grid steps per side) wraps around the periodic "
            f"domain of {n} samples"
        )
    taps = np.zeros(n)
    simpson = np.full(m + 1, 2.0)
    simpson[1::2] = 4.0
    simpson[0] = simpson[m] = 1.0
    simpson *= spacing / 3.0
    kvals = np.array([kernel.eval(j * spacing) for j in range(m + 1)])
    w = simpson * kvals
    taps[0] = 2.0 * w[0]
    taps[1 : m + 1] += w[1:]
    taps[n - m :] += w[1:][::-1]
    cstar = 0.5 / float(kernel.interval_integral(m * spacing))
    taps_hat = np.fft.fft(taps)

    def smooth(a: np.ndarray) -> np.ndarray:
        return cstar * np.fft.ifft(np.fft.fft(a) * taps_hat)

    dbar = smooth(_fd4(u, spacing))
    return _fd4(smooth(dbar), spacing)


def numerical_dispersion(
    k: float,
    material: Material1D,
    kernel: Kernel,
    horizon_length: float,
    points_per_wavelength: int = 64,
    min_wavelengths: int = 20,
) -> DispersionPoint:
    """Squared phase velocity read off a discretely propagated plane wave.

    A plane wave commensurate with the periodic domain is an exact
    eigenvector of the composed discrete operator; the eigenvalue ratio gives
    (w/k)^2 = -(E/rho) * symbol / k^2 without any curve fitting.

    Requires at least 40 points per wavelength and, for the exponential
    kernel, a horizon of at least 10 internal lengths; the grid is refined
    automatically so the kernel itself is resolved by the convolution.
    """
    _require_wavenumber(k, strict=True)
    if points_per_wavelength < 40:
        raise ResolutionError(
            f"need at least 40 points per wavelength (got {points_per_wavelength})"
        )
    if isinstance(kernel, ExponentialKernel) and horizon_length < 10.0 * kernel.l0:
        raise ResolutionError(
            f"horizon {horizon_length:g} shorter than 10 internal lengths "
            f"({10.0 * kernel.l0:g}): truncation would dominate the comparison"
        )
    wavelength = 2.0 * math.pi / k
    n_waves = max(min_wavelengths, math.ceil(4.0 * horizon_length / wavelength))
    length = n_waves * wavelength
    h_target = wavelength / points_per_wavelength
    if isinstance(kernel, ExponentialKernel):
        h_target = min(h_target, kernel.l0 / 12.0)
    n = int(math.ceil(length / h_target))
    h = length / n
    x = h * np.arange(n)
    u = np.exp(1j * k * x)
    out = periodic_composed_apply(u, h, kernel, horizon_length)
    eig = complex(np.mean(out / u))
    return DispersionPoint(k, -material.local_velocity_sq * eig / (k * k))


def _fd4(a: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order periodic first derivative."""
    return (
        8.0 * (np.roll(a, -1) - np.roll(a, 1)) - (np.roll(a, -2) - np.roll(a, 2))
    ) / (12.0 * h)


def _require_wavenumber(k: float, strict: bool = False) -> None:
    if strict and not k > 0.0:
        raise ValueError(f"wavenumber must be positive (got {k!r})")
    if not strict and k < 0.0:
        raise ValueError(f"wavenumber must be >= 0 (got {k!r})")
