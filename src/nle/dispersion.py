"""Dispersion of harmonic waves in the 1D nonlocal solid.

The balance law E * Dtilde(Dbar u) = rho * u_tt acting on a plane wave
exp(i(kx - wt)) multiplies the wave by the squared operator symbol, giving a
closed-form squared phase velocity for each kernel, which every function
here returns as a complex number:

    exponential:  (w/k)^2 = (E/rho) * (1 + k^2 l0^2)^(-2)
    power law:    (w/k)^2 = (E/rho) * (cos(pi + alpha*pi)
                                       + i sin(pi + alpha*pi)) * (k l*)^(2(alpha-1))

with l* a fixed reference length.  The power-law branch is dispersive for
alpha < 1 and diverges as k -> 0 (the long-wave limit carries no scale), so
that case returns a marker object instead of a number.  Its real part is
positive only for alpha > 1/2, which is why configuration-level validation
floors the exponent there.

numerical_dispersion reads the relation off the production operator for any
kernel and horizon: one row of operator.build_operator_matrix, the matrix the
beams and plates assemble, applied to a sampled plane wave.  It shares no
algebra with the closed forms and serves as their oracle, so a defect in the
operator matrix shows up as a gap between the two.  Its caller picks the
horizon at which a comparison is meaningful.  For the power-law kernel the
operator's relation is real and tends to E/rho as k -> 0: the interior
row's exact symbol is ik * int_0^l_f s^-alpha cos(ks) ds / int_0^l_f s^-alpha ds,
so the complex closed form above describes a one-sided fractional model,
not the operator this package builds.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fem
from .kernels import ExponentialKernel, Kernel, power_law
from .operator import build_operator_matrix

__all__ = [
    "Material1D",
    "LongWaveDivergence",
    "dispersion_exponential",
    "dispersion_powerlaw",
    "numerical_dispersion",
]


# _symbol's peak bytes per mesh node, 2e4-2e6 nodes (tracemalloc): 73.0 exponential, 48.0 local
_BYTES_PER_NODE = 80
POINTS_PER_WAVELENGTH = 64


@dataclass(frozen=True)
class Material1D:
    """Linear elastic bar material: Young's modulus [Pa] and density [kg/m^3], E/rho finite."""

    modulus: float = 30e9
    density: float = 2500.0

    def __post_init__(self) -> None:
        if not self.modulus > 0.0:
            raise ValueError(f"modulus must be positive (got {self.modulus!r})")
        if not self.density > 0.0:
            raise ValueError(f"density must be positive (got {self.density!r})")
        if not math.isfinite(self.modulus / self.density):
            raise ValueError(
                f"modulus / density overflows (got {self.modulus!r} / {self.density!r})"
            )

    @property
    def local_velocity_sq(self) -> float:
        return self.modulus / self.density


@dataclass(frozen=True)
class LongWaveDivergence:
    """Marker: the power-law squared phase velocity is unbounded as k -> 0."""

    alpha: float


def dispersion_exponential(k: float, material: Material1D, l0: float) -> complex:
    """Closed-form squared phase velocity for the exponential kernel.

    Real for every wavenumber (no attenuation) and bounded by the local
    velocity, which it approaches as k*l0 -> 0.  Beyond k*l0 ~ 1.34e154 the
    square overflows, and the correctly rounded result is 0.
    """
    _require_wavenumber(k)
    if not l0 > 0.0:
        raise ValueError(f"internal length must be positive (got {l0!r})")
    try:
        kl_sq = (k * l0) ** 2  # kl * kl cannot raise, but differs in the last bit
    except OverflowError:
        kl_sq = math.inf
    factor = 1.0 / (1.0 + kl_sq)
    return complex(material.local_velocity_sq * factor * factor, 0.0)


def dispersion_powerlaw(
    k: float, material: Material1D, alpha: float, l_star: float = 1.0
) -> complex | LongWaveDivergence:
    """Closed-form squared phase velocity for the power-law kernel.

    alpha = 1 is the local limit (exactly E/rho at every k).  For alpha < 1
    the magnitude follows the exact power (k l_star)^(2(alpha-1)), an exact
    straight line of slope 2(alpha-1) in log-log, unbounded as k -> 0; that
    limit returns a LongWaveDivergence marker.
    """
    power_law(alpha)  # the kernel factory holds the (0, 1] range
    if not l_star > 0.0:
        raise ValueError(f"reference length must be positive (got {l_star!r})")
    _require_wavenumber(k)
    if alpha == 1.0:
        return complex(material.local_velocity_sq, 0.0)
    if k == 0.0:
        return LongWaveDivergence(alpha=alpha)
    phase = cmath.exp(1j * (math.pi + alpha * math.pi))
    magnitude = (k * l_star) ** (2.0 * (alpha - 1.0))
    return material.local_velocity_sq * phase * magnitude


def numerical_dispersion(
    k: float, material: Material1D, kernel: Kernel, horizon_length: float
) -> complex:
    """Squared phase velocity read off the production operator matrix, for any kernel.

    One row of build_operator_matrix, at the midpoint of a uniform element
    whose mesh spans the horizon on both sides, applied to nodal samples of
    exp(ikx) gives the discrete symbol sigma of the nonlocal gradient; the
    composed operator acts on the wave as sigma^2, so
    (w/k)^2 = -(E/rho) * sigma^2 / k^2.  sigma^2 converges as h^2, and one
    Richardson step over h and h/2 removes that term.

    The spacing h is the least of 2 pi / (POINTS_PER_WAVELENGTH k), the
    horizon / 32 and, for the exponential kernel, l0 / 12, so the elements
    resolve the wave, the horizon and the kernel.  Raises fem.SolverError,
    before it builds a mesh, when k^2 underflows or the finer mesh would
    not fit in the available memory or in an array.
    """
    _require_wavenumber(k, strict=True)
    h = min(2.0 * math.pi / (k * POINTS_PER_WAVELENGTH), horizon_length / 32.0)
    if isinstance(kernel, ExponentialKernel):
        h = min(h, kernel.l0 / 12.0)
    if not k * k > 0.0:
        raise fem.SolverError(f"k = {k!r} is too small for the oracle: k^2 underflows")
    nodes = 4.0 * horizon_length / h + 4.0  # >= the finer mesh's 2 ceil(2 horizon / h) + 2
    need, have = nodes * _BYTES_PER_NODE, fem.available_memory()
    what = f"the oracle's mesh at k = {k!r} needs {nodes:.3g} nodes, {need / 2**30:.3g} GiB"
    if not need <= sys.maxsize:
        raise fem.SolverError(f"{what}, more than an array can hold")
    if have is not None and need > have:
        raise fem.SolverError(f"{what}, but only {have / 2**30:.2f} GiB of memory is available")
    coarse, fine = (_symbol(k, kernel, horizon_length, step) ** 2 for step in (h, h / 2.0))
    symbol_sq = (4.0 * fine - coarse) / 3.0
    return -material.local_velocity_sq * symbol_sq / (k * k)


def _symbol(k: float, kernel: Kernel, horizon_length: float, h: float) -> complex:
    """Discrete gradient symbol on a uniform mesh of spacing h.

    x = 0 is the midpoint of the central element and the mesh reaches past
    the horizon on both sides, so its row is an unclipped interior row and
    exp(ikx) = 1 there.
    """
    n = math.ceil(horizon_length / h)
    nodes = h * (np.arange(-n - 1, n + 1) + 0.5)
    row = build_operator_matrix(nodes, [0.0], horizon_length, kernel)
    return complex(row.apply(np.exp(1j * k * nodes))[0])


def _require_wavenumber(k: float, strict: bool = False) -> None:
    if strict and not k > 0.0:
        raise ValueError(f"wavenumber must be positive (got {k!r})")
    if not strict and k < 0.0:
        raise ValueError(f"wavenumber must be >= 0 (got {k!r})")
