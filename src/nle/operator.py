"""Frame-invariant nonlocal gradient of a 1D field, continuous and discrete.

The operator averages the field gradient over a two-sided horizon,

    Dbar phi(x) = c_minus * integral_{x-l_minus}^{x} K(x - x') phi'(x') dx'
                + c_plus  * integral_{x}^{x+l_plus}  K(x' - x) phi'(x') dx',

with the frame multipliers of kernels.frame_multipliers.  Horizon lengths are
clipped to the physical domain, so the multipliers change from point to point
near a boundary.  At a boundary point one side has zero length and the
operator is defined by its one-sided limit: the vanished side contributes
phi'(x)/2 exactly.

The discrete form (build_operator_matrix) maps nodal values of a piecewise
linear interpolant to operator values at arbitrary evaluation points.  Since
the interpolant's gradient is constant on each element, every matrix entry is
an exact difference of closed-form kernel moments; no quadrature error enters
and uniform-gradient fields are reproduced to rounding even for kernels with
an integrable origin singularity.

Each entry depends only on its (evaluation point, element) pair, so the
matrix is one broadcast over (points x nodes) blocks, with no per-row loop.
An element's share of one side is the difference of two moments taken at
its nodes' distances from the point, clamped into that side; neighbouring
elements share the node between them, so each side costs one moment per
node, and an element outside the side gets two equal moments and weighs
exactly 0.  Every entry sums its terms in a fixed order (element gradient,
trailing side, leading side) whatever the block size.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernels import Kernel, LocalDelta, PowerLawKernel, frame_multipliers

__all__ = [
    "HorizonSpec",
    "NonlocalOperatorMatrix",
    "nonlocal_derivative",
    "boundary_limit_value",
    "build_operator_matrix",
    "adjoint_integral",
]

logger = logging.getLogger(__name__)

_QUAD_LIMIT = 800

# Largest (rows x nodes) block broadcast at once; bounds the moment
# temporaries of build_operator_matrix to a few MB whatever the mesh size.
_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class HorizonSpec:
    """Nominal interaction radius l_f truncated to the domain [x_min, x_max]."""

    l_f: float
    x_min: float
    x_max: float

    def __post_init__(self) -> None:
        if not self.l_f > 0.0:
            raise ValueError(f"horizon radius must be positive (got {self.l_f!r})")
        if not self.x_max > self.x_min:
            raise ValueError("horizon domain is empty or reversed")

    def clipped(self, x: float) -> tuple[float, float]:
        """Side lengths (l_minus, l_plus) at x after truncation to the domain."""
        if x < self.x_min or x > self.x_max:
            raise ValueError(
                f"evaluation point {x!r} lies outside [{self.x_min!r}, {self.x_max!r}]"
            )
        return min(self.l_f, x - self.x_min), min(self.l_f, self.x_max - x)


def _effective_sides(horizon: HorizonSpec, x: float) -> tuple[float, float]:
    """Clipped side lengths at one point, as _effective_side_arrays gives them."""
    l_minus, l_plus = _effective_side_arrays(horizon, np.array([x], dtype=float))
    return float(l_minus[0]), float(l_plus[0])


def _effective_side_arrays(horizon: HorizonSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clipped side lengths at each point, with sub-roundoff sides snapped to zero.

    A side shorter than ~1e-13 of the domain is numerically indistinguishable
    from the boundary limit (its normalized integral differs from phi'/2 by
    O(side length)) and would underflow the quadrature, so it is treated as
    vanished.
    """
    outside = (pts < horizon.x_min) | (pts > horizon.x_max)
    if np.any(outside):
        raise ValueError(
            f"evaluation point {float(pts[outside][0])!r} lies outside "
            f"[{horizon.x_min!r}, {horizon.x_max!r}]"
        )
    tiny = 1e-13 * (horizon.x_max - horizon.x_min)
    l_minus = np.minimum(horizon.l_f, pts - horizon.x_min)
    l_plus = np.minimum(horizon.l_f, horizon.x_max - pts)
    return np.where(l_minus < tiny, 0.0, l_minus), np.where(l_plus < tiny, 0.0, l_plus)


def nonlocal_derivative(
    field: Callable[[float], float],
    x: float,
    horizon: HorizonSpec,
    kernel: Kernel,
    dfield: Callable[[float], float] | None = None,
    breakpoints: Sequence[float] = (),
    quad_tol: float = 1e-13,
) -> float:
    """Apply the continuous nonlocal gradient to a scalar field at x.

    Parameters
    ----------
    field : callable
        The field phi.  Only its first derivative enters the operator; when
        `dfield` is given, `field` itself is never evaluated.
    dfield : callable, optional
        phi'.  Defaults to a fourth-order difference of `field`, adequate to
        about 1e-12 on smooth unit-scale fields; supply the exact derivative
        when tighter accuracy is needed.
    breakpoints : sequence of float, optional
        Abscissae where phi' is allowed to jump (e.g. mesh nodes of an
        interpolant); the quadrature subdivides there.
    quad_tol : float
        Relative tolerance of the adaptive quadrature.

    At a domain boundary the clipped horizon loses a side and the one-sided
    limit is returned (see boundary_limit_value).
    """
    df = dfield if dfield is not None else _central_derivative(field)
    l_minus, l_plus = _effective_sides(horizon, x)
    if l_minus == 0.0 or l_plus == 0.0:
        return boundary_limit_value(field, x, horizon, kernel, dfield=df, quad_tol=quad_tol, breakpoints=breakpoints)
    mult = frame_multipliers(kernel, l_minus, l_plus)
    left = _side_integral(kernel, lambda s: df(x - s), l_minus, quad_tol, _side_breaks(breakpoints, x, -1.0, l_minus))
    right = _side_integral(kernel, lambda s: df(x + s), l_plus, quad_tol, _side_breaks(breakpoints, x, +1.0, l_plus))
    return mult.c_minus * left + mult.c_plus * right


def boundary_limit_value(
    field: Callable[[float], float],
    x0: float,
    horizon: HorizonSpec,
    kernel: Kernel,
    dfield: Callable[[float], float] | None = None,
    breakpoints: Sequence[float] = (),
    quad_tol: float = 1e-13,
) -> float:
    """One-sided limit of the nonlocal gradient at a domain endpoint.

    As a side's horizon length shrinks to zero its normalized integral tends
    to phi'(x0)/2; the surviving side keeps its usual form:

        lim Dbar phi(x0) = phi'(x0)/2 + c_surv * integral over the surviving side.

    Raises ValueError when both clipped side lengths are positive (interior
    point: the full operator applies, no limit is involved).
    """
    df = dfield if dfield is not None else _central_derivative(field)
    l_minus, l_plus = _effective_sides(horizon, x0)
    if l_minus > 0.0 and l_plus > 0.0:
        raise ValueError(
            f"x0={x0!r} is an interior point (clipped sides {l_minus!r}, {l_plus!r}); "
            "the boundary limit applies only where one side vanishes"
        )
    if l_minus == 0.0 and l_plus == 0.0:
        raise ValueError("degenerate horizon: both side lengths are zero")
    if l_plus > 0.0:
        c = 0.5 / float(kernel.interval_integral(l_plus))
        side = _side_integral(kernel, lambda s: df(x0 + s), l_plus, quad_tol, _side_breaks(breakpoints, x0, +1.0, l_plus))
    else:
        c = 0.5 / float(kernel.interval_integral(l_minus))
        side = _side_integral(kernel, lambda s: df(x0 - s), l_minus, quad_tol, _side_breaks(breakpoints, x0, -1.0, l_minus))
    return 0.5 * df(x0) + c * side


def adjoint_integral(
    field: Callable[[float], float],
    x: float,
    horizon: HorizonSpec,
    kernel: Kernel,
    quad_tol: float = 1e-13,
    breakpoints: Sequence[float] = (),
) -> float:
    """Smoothing companion of the nonlocal gradient (values, not derivatives).

    The pairing swaps the interval lengths relative to the forward operator:
    c_minus weights the trailing interval of length l_plus and c_plus the
    leading interval of length l_minus,

        Itilde phi(x) = c_minus * integral_{x-l_plus}^{x} K phi dx'
                      + c_plus  * integral_{x}^{x+l_minus} K phi dx'.

    On a symmetric interior horizon this reduces to a weighted average with
    unit mass (Itilde 1 = 1); at asymmetric points the swapped pairing is not
    mass-preserving, which the test suite records rather than hides.  Used to
    spot-check natural boundary terms on the 1D bar; assembly never calls it.
    """
    l_minus, l_plus = _effective_sides(horizon, x)
    if l_minus == 0.0 or l_plus == 0.0:
        raise ValueError("adjoint pairing needs both clipped side lengths positive")
    mult = frame_multipliers(kernel, l_minus, l_plus)
    left = _side_integral(kernel, lambda s: field(x - s), l_plus, quad_tol, _side_breaks(breakpoints, x, -1.0, l_plus))
    right = _side_integral(kernel, lambda s: field(x + s), l_minus, quad_tol, _side_breaks(breakpoints, x, +1.0, l_minus))
    return mult.c_minus * left + mult.c_plus * right


@dataclass(frozen=True)
class NonlocalOperatorMatrix:
    """Dense map from nodal values to nonlocal gradient values.

    weights[r, :] applied to nodal samples yields Dbar of the piecewise
    linear interpolant at eval_points[r].
    """

    weights: np.ndarray
    eval_points: np.ndarray
    nodes: np.ndarray

    def apply(self, nodal_values: np.ndarray) -> np.ndarray:
        return self.weights @ nodal_values


def build_operator_matrix(
    nodes: np.ndarray,
    eval_points: np.ndarray,
    horizon: HorizonSpec,
    kernel: Kernel,
) -> NonlocalOperatorMatrix:
    """Assemble the discrete nonlocal gradient on a 1D mesh.

    Parameters
    ----------
    nodes : array
        Strictly increasing node coordinates of the interpolation mesh.
    eval_points : array
        Where the operator is evaluated (typically Gauss points); each must
        lie inside the mesh span and the horizon domain.
    horizon, kernel
        Interaction radius (domain-clipped per point) and attenuation kernel.

    For a kernel singular at the origin whose clipped horizon does not reach
    past the element containing the evaluation point, the row degenerates to
    the element gradient; such rows are emitted as exact local-gradient rows
    and counted in a single warning.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2 or np.any(np.diff(nodes) <= 0.0):
        raise ValueError("nodes must be a strictly increasing 1D array of length >= 2")
    pts = np.atleast_1d(np.asarray(eval_points, dtype=float))
    if np.any(pts < nodes[0]) or np.any(pts > nodes[-1]):
        raise ValueError("evaluation points must lie within the mesh span")

    l_minus, l_plus = _effective_side_arrays(horizon, pts)
    h = np.diff(nodes)
    inv_h = 1.0 / h
    element = np.clip(np.searchsorted(nodes, pts, side="right") - 1, 0, nodes.size - 2)
    weights = np.zeros((pts.size, nodes.size))

    local_kernel = isinstance(kernel, LocalDelta)
    fallback = (not local_kernel and kernel.is_singular_at_origin) & (l_minus + l_plus < h[element])
    local = local_kernel | fallback
    boundary = ~local & ((l_minus == 0.0) | (l_plus == 0.0))

    # Element-gradient rows: whole for local and fallback rows, half for
    # boundary rows, where the vanished side contributes phi'(x)/2.
    rows = np.nonzero(local | boundary)[0]
    e = element[rows]
    grad = np.where(local[rows], 1.0, 0.5) * inv_h[e]
    weights[rows, e] -= grad
    weights[rows, e + 1] += grad

    if not local.all():
        # frame multipliers, zero on a vanished side and on local rows
        c_minus, c_plus = np.zeros(pts.size), np.zeros(pts.size)
        for c, side in ((c_minus, l_minus), (c_plus, l_plus)):
            nonempty = ~local & (side > 0.0)
            c[nonempty] = 0.5 / kernel.interval_integral(side[nonempty])
        step = max(1, _BLOCK_ENTRIES // nodes.size)
        for start in range(0, pts.size, step):
            block = slice(start, start + step)
            x = pts[block, None]
            # moments at each node's distance from x, the node clamped into
            # x - [0, l_minus] (trailing side) or x + [0, l_plus] (leading)
            lo = np.minimum(np.maximum(nodes, x - l_minus[block, None]), x)
            moment = kernel.interval_integral(x - lo)
            trailing = moment[:, :-1] - moment[:, 1:]
            hi = np.maximum(np.minimum(nodes, x + l_plus[block, None]), x)
            moment = kernel.interval_integral(hi - x)
            leading = moment[:, 1:] - moment[:, :-1]
            for c, w in ((c_minus, trailing), (c_plus, leading)):
                w = c[block, None] * w * inv_h
                weights[block, 1:] += w
                weights[block, :-1] -= w

    n_fallback = int(np.count_nonzero(fallback))
    if n_fallback:
        logger.warning(
            "%d of %d operator rows fell back to the local gradient: singular "
            "kernel with a horizon shorter than the surrounding element",
            n_fallback,
            pts.size,
        )
    return NonlocalOperatorMatrix(weights=weights, eval_points=pts, nodes=nodes)


def _side_integral(kernel, g, length, quad_tol, breaks) -> float:
    """integral_0^length K(s) g(s) ds by adaptive quadrature.

    The power-law origin singularity is handled with an algebraic-weight rule
    on the first segment; the delta kernel contributes its unit mass times
    g(0+).  Interior breakpoints split the range so gradient jumps of
    interpolants do not degrade convergence.
    """
    if length <= 0.0:
        return 0.0
    if isinstance(kernel, LocalDelta):
        return g(0.0)
    # imported here: no CLI path needs adaptive quadrature, and scipy.integrate
    # is a large share of the package's import time
    from scipy import integrate

    epsabs = quad_tol * 0.1
    pts = sorted(b for b in breaks if 0.0 < b < length)
    if isinstance(kernel, PowerLawKernel):
        scale = 1.0 / math.gamma(1.0 - kernel.alpha)
        first_end = pts[0] if pts else length
        total, _ = integrate.quad(
            lambda s: scale * g(s), 0.0, first_end,
            weight="alg", wvar=(-kernel.alpha, 0.0),
            epsabs=epsabs, epsrel=quad_tol, limit=_QUAD_LIMIT,
        )
        if pts:
            inner = [p for p in pts[1:]]
            more, _ = integrate.quad(
                lambda s: kernel.eval(s) * g(s), first_end, length,
                points=inner or None, epsabs=epsabs, epsrel=quad_tol,
                limit=_QUAD_LIMIT + 10 * len(inner),
            )
            total += more
        return total
    value, _ = integrate.quad(
        lambda s: kernel.eval(s) * g(s), 0.0, length,
        points=pts or None, epsabs=epsabs, epsrel=quad_tol,
        limit=_QUAD_LIMIT + 10 * len(pts),
    )
    return value


def _side_breaks(breakpoints, x, sign, length):
    """Map field-space breakpoints into separation coordinates of one side."""
    return [sign * (b - x) for b in breakpoints if 0.0 < sign * (b - x) < length]


def _central_derivative(f: Callable[[float], float], rel_step: float = 1e-3):
    def df(x: float) -> float:
        h = rel_step * max(1.0, abs(x))
        return (8.0 * (f(x + h) - f(x - h)) - (f(x + 2 * h) - f(x - 2 * h))) / (12.0 * h)

    return df
