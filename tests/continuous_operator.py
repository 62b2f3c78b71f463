"""Continuous form of the nonlocal gradient, by adaptive quadrature: a test oracle.

The package evaluates the operator only through build_operator_matrix, whose
entries are exact differences of closed-form kernel moments.  This module
evaluates the defining integrals directly,

    Dbar phi(x) = sum over the two sides of 0.5 / F(l) * integral_0^l K(s) phi'(x -+ s) ds,

with F(l) = integral_0^l K the one-sided moment and l the side length after
clipping to the domain.  A side that has vanished contributes its limit,
phi'(x)/2, so interior and boundary values come from the same formula.

The operator matrix clips each horizon to its mesh; the oracle takes its
domain as a Horizon, which may reach beyond any mesh (a wall at -eps, say).

Not collected by pytest (no test_ prefix); tests import it by module name.
"""

import math
from typing import NamedTuple

from scipy import integrate

from nle.kernels import LocalDelta, PowerLawKernel

QUAD_TOL = 1e-13
QUAD_LIMIT = 800


class Horizon(NamedTuple):
    """Radius l_f clipped to the domain [x_min, x_max]."""

    l_f: float
    x_min: float
    x_max: float


def clipped_sides(horizon, x):
    """Side lengths (l_minus, l_plus) at x in [x_min, x_max].

    Sides shorter than 1e-13 of the domain snap to zero, as in the operator
    matrix: on a subnormal side the moment F underflows and 0.5 / F is inf.
    """
    tiny = 1e-13 * (horizon.x_max - horizon.x_min)
    sides = (min(horizon.l_f, x - horizon.x_min), min(horizon.l_f, horizon.x_max - x))
    return tuple(0.0 if side < tiny else side for side in sides)


def continuous_gradient(dfield, x, horizon, kernel, breakpoints=()):
    """Dbar phi(x) from phi' = dfield; phi' may jump at the given breakpoints."""
    total = 0.0
    for sign, length in zip((-1.0, 1.0), clipped_sides(horizon, x)):
        if length == 0.0:
            total += 0.5 * dfield(x)
            continue
        breaks = [sign * (b - x) for b in breakpoints]
        side = side_integral(kernel, lambda s: dfield(x + sign * s), length, breaks)
        total += 0.5 / float(kernel.interval_integral(length)) * side
    return total


def side_integral(kernel, g, length, breaks=()):
    """integral_0^length K(s) g(s) ds by adaptive quadrature.

    A power-law side is integrated in t = s^(1 - alpha), where
    s^(-alpha) ds = dt / (1 - alpha) leaves no singularity and a breakpoint
    b maps to b^(1 - alpha); the delta kernel contributes its unit mass times
    g(0+).  Breakpoints inside (0, length) split the range so gradient jumps
    of interpolants do not degrade convergence.
    """
    if isinstance(kernel, LocalDelta):
        return g(0.0)
    pts = sorted(b for b in breaks if 0.0 < b < length)
    integrand, end, scale = (lambda s: kernel.eval(s) * g(s)), length, 1.0
    if isinstance(kernel, PowerLawKernel):
        beta = 1.0 - kernel.alpha
        integrand = lambda t: g(t ** (1.0 / beta))
        end, pts = length**beta, [b**beta for b in pts]
        scale = 1.0 / math.gamma(2.0 - kernel.alpha)  # 1 / ((1 - alpha) Gamma(1 - alpha))
    value, _ = integrate.quad(
        integrand, 0.0, end,
        points=pts or None, epsabs=QUAD_TOL * 0.1, epsrel=QUAD_TOL,
        limit=QUAD_LIMIT + 10 * len(pts),
    )
    return scale * value
