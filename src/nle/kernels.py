"""Attenuation kernels and their frame-invariance normalization.

A kernel K(|x - x'|) weights how strongly the displacement gradient at a
neighbor x' contributes to the nonlocal strain measure at x.  Every kernel
exposes the one-sided moment

    interval_integral(L) = integral_0^L K(s) ds

in closed form.  The operator matrix of nle.operator normalizes each
half-horizon integral by the frame multiplier 1 / (2 * moment(l)) of that
side, so that a rigid translation produces zero strain and a uniform gradient
is reproduced exactly, whatever the horizon asymmetry.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Kernel",
    "ExponentialKernel",
    "PowerLawKernel",
    "LocalDelta",
    "KernelError",
    "exponential",
    "power_law",
    "check_admissible",
    "KERNEL_KINDS",
    "KERNEL_PARAMS",
]

# Below this internal length the exponential kernel is numerically a delta;
# the factory collapses it to the exact local limit instead.
LOCAL_L0_FLOOR = 1e-9

ADMISSIBLE_SAMPLES = 64  # distances at which check_admissible samples a kernel


class KernelError(ValueError):
    """Invalid kernel parameters, or an evaluation the kernel does not define."""


class Kernel(abc.ABC):
    """Uniform kernel interface: eval, interval_integral, is_singular_at_origin, reach.

    reach is the distance past which interval_integral returns its limit
    exactly, so every element beyond it weighs exactly 0 in an operator row
    and nle.operator need not evaluate it; math.inf (the default) declares
    no such distance.
    """

    @abc.abstractmethod
    def eval(self, distance: float) -> float:
        """Kernel value at the given separation distance (>= 0)."""

    @abc.abstractmethod
    def interval_integral(self, length):
        """One-sided moment integral_0^L K(s) ds, exact.  Accepts arrays."""

    @property
    @abc.abstractmethod
    def is_singular_at_origin(self) -> bool:
        """True when K(s) is unbounded (or distributional) as s -> 0."""

    @property
    def reach(self) -> float:
        """Distance from which interval_integral(L) equals its L -> inf limit bit for bit."""
        return math.inf


@dataclass(frozen=True)
class ExponentialKernel(Kernel):
    """K(s) = exp(-s / l0) with internal length l0."""

    l0: float

    def __post_init__(self) -> None:
        if not LOCAL_L0_FLOOR < self.l0 < math.inf:
            raise KernelError(
                f"exponential internal length must be finite and exceed {LOCAL_L0_FLOOR:g} "
                f"(got {self.l0!r}); use exponential() to collapse tiny "
                "lengths to the local limit"
            )

    def eval(self, distance: float) -> float:
        _require_nonnegative_distance(distance)
        return math.exp(-distance / self.l0)

    def interval_integral(self, length):
        _require_nonnegative_length(length)
        # l0 * (1 - exp(-L/l0)), written with expm1 so short intervals
        # keep full relative accuracy.
        return self.l0 * -np.expm1(-np.asarray(length) / self.l0)

    @property
    def is_singular_at_origin(self) -> bool:
        return False

    @property
    def reach(self) -> float:
        # expm1(-t) rounds to -1 from t ~ 37.4 on, so the moment is exactly
        # l0 past 40 l0, with margin for the rounding of L / l0
        return 40.0 * self.l0


@dataclass(frozen=True)
class PowerLawKernel(Kernel):
    """K(s) = s^(-alpha) / Gamma(1 - alpha) for 0 < alpha < 1.

    The Gamma normalization makes the one-sided moment L^(1-alpha) /
    Gamma(2 - alpha), so the alpha -> 1 limit concentrates unit mass at the
    origin; that degenerate case is the LocalDelta kernel, reachable through
    the power_law() factory.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise KernelError(
                f"power-law exponent must lie in (0, 1) (got {self.alpha!r}); "
                "alpha = 1 is the local limit, use power_law()"
            )

    def eval(self, distance: float) -> float:
        _require_nonnegative_distance(distance)
        if distance == 0.0:
            raise KernelError("power-law kernel is singular at coincident points")
        return distance ** (-self.alpha) / math.gamma(1.0 - self.alpha)

    def interval_integral(self, length):
        _require_nonnegative_length(length)
        return np.asarray(length) ** (1.0 - self.alpha) / math.gamma(2.0 - self.alpha)

    @property
    def is_singular_at_origin(self) -> bool:
        return True


@dataclass(frozen=True)
class LocalDelta(Kernel):
    """Degenerate local limit: the kernel acts as the identity on the gradient.

    Each one-sided moment carries unit mass however short the interval, which
    is the alpha -> 1 limit of the power-law moments and makes both frame
    multipliers exactly 1/2.
    """

    def eval(self, distance: float) -> float:
        _require_nonnegative_distance(distance)
        if distance == 0.0:
            raise KernelError("delta kernel has no pointwise value at zero separation")
        return 0.0

    def interval_integral(self, length):
        _require_nonnegative_length(length)
        return np.where(np.asarray(length) > 0.0, 1.0, 0.0)[()]

    @property
    def is_singular_at_origin(self) -> bool:
        return True


def exponential(l0: float) -> Kernel:
    """Exponential kernel; lengths at or below the floor collapse to LocalDelta."""
    if not 0.0 < l0 < math.inf:
        raise KernelError(f"exponential internal length must be positive and finite (got {l0!r})")
    if l0 <= LOCAL_L0_FLOOR:
        return LocalDelta()
    return ExponentialKernel(l0)


def power_law(alpha: float) -> Kernel:
    """Power-law kernel; alpha = 1 collapses to LocalDelta."""
    if not 0.0 < alpha <= 1.0:
        raise KernelError(f"power-law exponent must lie in (0, 1] (got {alpha!r})")
    if alpha == 1.0:
        return LocalDelta()
    return PowerLawKernel(alpha)


# Each kernel kind's factory, and the shape parameter it takes (None: no
# parameter); results.KernelSpec builds a kernel from the two.
KERNEL_KINDS: dict[str, Callable[..., Kernel]] = {
    "exponential": exponential,
    "power_law": power_law,
    "local": LocalDelta,
}
KERNEL_PARAMS: dict[str, str | None] = {"exponential": "l0", "power_law": "alpha", "local": None}


def check_admissible(kernel: Kernel, horizon_length: float) -> None:
    """Verify positive, non-increasing decay over (0, horizon_length].

    The built-in kernels satisfy this by construction; the sampled check is
    what stands between a Kernel subclass of the caller's own and the
    assembly routines, which assume monotone attenuation.  Every
    fem.AxisQuadrature runs it before building its rows.
    """
    if isinstance(kernel, LocalDelta):
        return
    if not horizon_length > 0.0:
        raise KernelError("admissibility check needs a positive horizon length")
    lo = horizon_length * 1e-9 if kernel.is_singular_at_origin else 0.0
    grid = (np.linspace if lo == 0.0 else np.geomspace)(lo, horizon_length, ADMISSIBLE_SAMPLES)
    values = np.array([kernel.eval(float(s)) for s in grid])
    # A sharply peaked kernel may underflow to exact zero far from the
    # origin; that tail is still admissible.  What is not: vanishing near
    # the origin, negative values, or growth.
    if not values[0] > 0.0:
        raise KernelError(f"kernel {kernel!r} is not positive near the origin")
    if np.any(values < 0.0):
        raise KernelError(f"kernel {kernel!r} is negative on the horizon")
    if np.any(np.diff(values) > 0.0):
        raise KernelError(f"kernel {kernel!r} does not decay monotonically")


def _require_nonnegative_distance(distance: float) -> None:
    if distance < 0.0:
        raise KernelError(f"separation distance must be >= 0 (got {distance!r})")


def _require_nonnegative_length(length) -> None:
    if np.any(np.asarray(length) < 0.0):
        raise KernelError("interval length must be >= 0")
