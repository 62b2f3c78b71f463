import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from continuous_operator import Horizon, clipped_sides, continuous_gradient, side_integral
from scipy import integrate

from nle import operator as operator_module
from nle.fem import AxisQuadrature, HatRows, IntervalMesh
from nle.kernels import (
    ExponentialKernel,
    LocalDelta,
    PowerLawKernel,
    exponential,
    power_law,
)
from nle.operator import build_operator_matrix

UNIT = Horizon(l_f=0.5, x_min=0.0, x_max=1.0)
DEFAULT_BLOCK_ENTRIES = operator_module._BLOCK_ENTRIES


def test_horizon_clipping():
    with pytest.raises(ValueError, match="positive"):
        build_operator_matrix(np.linspace(0.0, 1.0, 5), [0.5], 0.0, ExponentialKernel(0.1))


# ---------------------------------------------------------------------------
# continuous operator (the quadrature oracle of tests/continuous_operator.py)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", [ExponentialKernel(0.1), PowerLawKernel(0.75), LocalDelta()])
@pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 0.87, 1.0])
def test_constant_field_annihilated(kernel, x):
    value = continuous_gradient(lambda y: 0.0, x, UNIT, kernel)
    assert value == 0.0


@pytest.mark.parametrize("kernel", [ExponentialKernel(0.1), PowerLawKernel(0.75)])
@pytest.mark.parametrize("x", [0.25, 0.5, 0.9])
def test_affine_field_reproduces_slope(kernel, x):
    value = continuous_gradient(lambda y: 3.0, x, UNIT, kernel)
    assert value == pytest.approx(3.0, rel=1e-12)


def test_quadratic_exponential_matches_quadrature_oracle():
    # phi = x^2 at x = 0.3: clipped sides (0.3, 0.5); mpmath oracle at 40
    # digits built from the defining integrals gives 0.61232688149422467
    value = continuous_gradient(lambda y: 2.0 * y, 0.3, UNIT, ExponentialKernel(0.1))
    assert value == pytest.approx(0.6123268814942247, rel=1e-11)


def test_quadratic_power_law_matches_exact_value():
    # for K ~ s^-alpha and a linear gradient the side averages are exactly
    # x -+ l * (1-alpha)/(2-alpha): at alpha=0.75, x=0.3 this sums to 0.64
    value = continuous_gradient(lambda y: 2.0 * y, 0.3, UNIT, PowerLawKernel(0.75))
    assert value == pytest.approx(0.64, rel=1e-11)


def test_local_delta_returns_pointwise_gradient():
    value = continuous_gradient(math.cos, 0.37, UNIT, LocalDelta())
    assert value == pytest.approx(math.cos(0.37), rel=1e-15)


def test_linearity():
    df = lambda y: math.pi * math.cos(math.pi * y)
    dg = lambda y: 3.0 * y * y
    k = ExponentialKernel(0.07)
    lhs = continuous_gradient(lambda y: 2.0 * df(y) - 0.5 * dg(y), 0.6, UNIT, k)
    rhs = 2.0 * continuous_gradient(df, 0.6, UNIT, k) - 0.5 * continuous_gradient(dg, 0.6, UNIT, k)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@given(
    st.floats(-5.0, 5.0),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 1.0),
    st.sampled_from([ExponentialKernel(0.005), ExponentialKernel(0.1), PowerLawKernel(0.6), PowerLawKernel(0.9)]),
)
@settings(max_examples=40, deadline=None)
def test_affine_reproduction_property(slope, intercept, x, kernel):
    value = continuous_gradient(lambda y: slope, x, UNIT, kernel)
    assert value == pytest.approx(slope, rel=1e-11, abs=1e-13)


# ---------------------------------------------------------------------------
# boundary limit
# ---------------------------------------------------------------------------

def test_boundary_limit_reference_value():
    # phi = x^2 at the left wall: phi'(0)/2 = 0 plus the surviving-side
    # average; mpmath oracle gives 0.09660817254684788
    value = continuous_gradient(lambda y: 2.0 * y, 0.0, UNIT, ExponentialKernel(0.1))
    assert value == pytest.approx(0.09660817254684788, rel=1e-11)


@pytest.mark.parametrize("kernel", [ExponentialKernel(0.1), PowerLawKernel(0.75)])
def test_shrinking_side_approaches_boundary_limit(kernel):
    # full operator at x = 0 with the trailing side length forced to eps by
    # extending the domain; must approach the one-sided limit monotonically
    df = lambda y: 2.0 * y
    limit = continuous_gradient(df, 0.0, UNIT, kernel)
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        horizon = Horizon(l_f=0.5, x_min=-eps, x_max=1.0)
        full = continuous_gradient(df, 0.0, horizon, kernel)
        gaps.append(abs(full - limit))
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# discrete operator matrix
# ---------------------------------------------------------------------------

def _interp_gradient(nodes, values):
    slopes = np.diff(values) / np.diff(nodes)

    def df(y):
        e = min(max(int(np.searchsorted(nodes, y, side="right")) - 1, 0), len(slopes) - 1)
        return float(slopes[e])

    return df


@pytest.mark.parametrize("kernel", [ExponentialKernel(0.1), ExponentialKernel(0.005), PowerLawKernel(0.6), PowerLawKernel(0.9)])
def test_matrix_annihilates_constants(kernel):
    nodes = np.linspace(0.0, 1.0, 41)
    pts = np.linspace(0.01, 0.99, 23)
    op = build_operator_matrix(nodes, pts, UNIT.l_f, kernel)
    out = op.apply(np.full(nodes.size, 7.3))
    assert np.max(np.abs(out)) <= 1e-12 * np.max(np.abs(op.weights))


@pytest.mark.parametrize("kernel", [ExponentialKernel(0.1), ExponentialKernel(1e-3), PowerLawKernel(0.6), PowerLawKernel(0.9)])
def test_matrix_reproduces_affine_exactly(kernel):
    # nonuniform mesh, evaluation points scattered everywhere incl. walls
    rng = np.random.default_rng(7)
    nodes = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 60)]))
    pts = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 200)])
    op = build_operator_matrix(nodes, pts, UNIT.l_f, kernel)
    out = op.apply(-2.7 * nodes + 0.4)
    assert np.max(np.abs(out + 2.7)) <= 1e-12 * 2.7


@pytest.mark.parametrize("radius", [1e-4, 1e-2, 0.5])
def test_matrix_reproduces_affine_at_small_radii(radius):
    # down to 1e-4 of the span; below it the error grows (2.9e-11 at 1e-6,
    # 2.2e-5 at 1e-12), because c_minus is 0.5 / F(l_minus) while the side's
    # end moment is F(x - (x - l_minus)), two roundings of one length
    rng = np.random.default_rng(7)
    nodes = np.linspace(0.0, 1.0, 201)
    pts = rng.uniform(0.0, 1.0, 400)
    op = build_operator_matrix(nodes, pts, radius, ExponentialKernel(1e-3))
    out = op.apply(-2.7 * nodes + 0.4)
    assert np.max(np.abs(out + 2.7)) <= 1e-12 * 2.7


def test_matrix_row_matches_continuous_operator_on_interpolant():
    nodes = np.linspace(0.0, 1.0, 21)
    samples = np.sin(np.pi * nodes)
    kernel = ExponentialKernel(0.1)
    op = build_operator_matrix(nodes, np.array([0.5]), UNIT.l_f, kernel)
    discrete = float(op.apply(samples)[0])
    reference = continuous_gradient(_interp_gradient(nodes, samples), 0.5, UNIT, kernel, breakpoints=nodes)
    assert discrete == pytest.approx(reference, rel=1e-10)


def test_matrix_boundary_rows_match_limit_formula():
    nodes = np.linspace(0.0, 1.0, 26)
    samples = np.cos(1.3 * nodes) + 0.2 * nodes
    kernel = PowerLawKernel(0.8)
    op = build_operator_matrix(nodes, np.array([0.0, 1.0]), UNIT.l_f, kernel)
    out = op.apply(samples)
    df = _interp_gradient(nodes, samples)
    for row, x0 in ((0, 0.0), (1, 1.0)):
        ref = continuous_gradient(df, x0, UNIT, kernel, breakpoints=nodes)
        assert out[row] == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("kernel", [ExponentialKernel(0.1), PowerLawKernel(0.75)], ids=["exponential", "power_law"])
def test_horizons_clip_to_the_node_span(kernel):
    # a mesh over [-0.3, 0.7]: the walls are its end nodes, not 0.0; the
    # points avoid the nodes, where the power-law quadrature is poor
    nodes = np.linspace(-0.3, 0.7, 41)
    samples = np.sin(2.1 * nodes) + 0.3 * nodes**2
    pts = np.array([-0.3, 0.7, -0.29, -0.21, -0.137, 0.013, 0.2456, 0.517, 0.61, 0.69])
    out = build_operator_matrix(nodes, pts, 0.2, kernel).apply(samples)
    df = _interp_gradient(nodes, samples)
    horizon = Horizon(l_f=0.2, x_min=-0.3, x_max=0.7)
    for value, x in zip(out, pts):
        ref = continuous_gradient(df, x, horizon, kernel, breakpoints=nodes)
        assert value == pytest.approx(ref, rel=1e-10), x


@pytest.mark.parametrize("offset", [0.0, 1e-12], ids=["at_a_node", "past_a_node"])
def test_power_law_oracle_holds_at_and_beside_a_node(offset):
    # the oracle used to leave the operator by 1.8e-6 at nodes[4] and by
    # 8.7e-4 at 1e-12 past it (the operator matches a 40-digit mpmath sum at
    # both); integrated in s^(1 - alpha) it reads 6.1e-16 and 4.9e-16
    nodes = np.linspace(-0.3, 0.7, 41)
    samples = np.sin(2.1 * nodes) + 0.3 * nodes**2
    x, kernel = nodes[4] + offset, PowerLawKernel(0.75)
    value = build_operator_matrix(nodes, np.array([x]), 0.2, kernel).apply(samples)[0]
    horizon = Horizon(l_f=0.2, x_min=-0.3, x_max=0.7)
    df = _interp_gradient(nodes, samples)
    ref = continuous_gradient(df, x, horizon, kernel, breakpoints=nodes)
    assert value == pytest.approx(ref, rel=1e-13)


def test_local_delta_rows_are_element_gradients():
    nodes = np.linspace(0.0, 1.0, 11)
    pts = np.array([0.05, 0.55, 0.96])
    op = build_operator_matrix(nodes, pts, UNIT.l_f, LocalDelta())
    expected = np.zeros((3, 11))
    for r, x in enumerate(pts):
        e = int(x / 0.1)
        expected[r, e] = -10.0
        expected[r, e + 1] = 10.0
    assert np.allclose(op.weights, expected, rtol=1e-14, atol=1e-12)


def test_singular_kernel_short_horizon_falls_back_to_local(caplog):
    nodes = np.linspace(0.0, 1.0, 11)
    with caplog.at_level(logging.WARNING, logger="nle.operator"):
        op = build_operator_matrix(nodes, np.array([0.55]), 0.01, PowerLawKernel(0.7))
    assert "fell back" in caplog.text
    row = np.zeros(11)
    row[5], row[6] = -10.0, 10.0
    assert np.allclose(op.weights[0], row)


def test_matrix_row_population_is_horizon_bounded():
    nodes = np.linspace(0.0, 1.0, 101)
    l_f = 0.07
    pts = np.linspace(0.005, 0.995, 37)
    op = build_operator_matrix(nodes, pts, l_f, ExponentialKernel(0.02))
    h = 0.01
    for r, x in enumerate(pts):
        nnz = int(np.sum(np.abs(op.weights[r]) > 0.0))
        within = int(np.sum(np.abs(nodes - x) <= l_f + h))
        assert nnz <= within + 2


# Reference implementation: build_operator_matrix as a per-row loop over a
# Horizon whose domain is the mesh span.  It adds the same terms in the same
# order (element-gradient rows first, then the trailing and the leading
# side, each scaled as c * w / h), so the two must agree bit for bit.

def _loop_operator_matrix(nodes, pts, horizon, kernel):
    nodes = np.asarray(nodes, dtype=float)
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    el_left, el_right = nodes[:-1], nodes[1:]
    inv_h = 1.0 / (el_right - el_left)
    weights = np.zeros((pts.size, nodes.size))
    n_fallback = 0

    def add_local(row, e, scale=1.0):
        row[e] -= scale * inv_h[e]
        row[e + 1] += scale * inv_h[e]

    def add_side(row, x, s_far, sign, c):
        if sign < 0:
            lo, hi = np.maximum(el_left, x - s_far), np.minimum(el_right, x)
        else:
            lo, hi = np.maximum(el_left, x), np.minimum(el_right, x + s_far)
        idx = np.nonzero(hi > lo)[0]
        if not idx.size:
            return
        if sign < 0:
            w = kernel.interval_integral(x - lo[idx]) - kernel.interval_integral(x - hi[idx])
        else:
            w = kernel.interval_integral(hi[idx] - x) - kernel.interval_integral(lo[idx] - x)
        w = c * w * inv_h[idx]
        row[idx + 1] += w
        row[idx] -= w

    tiny = 1e-13 * (horizon.x_max - horizon.x_min)
    for r, x in enumerate(pts):
        l_minus = min(horizon.l_f, float(x) - horizon.x_min)
        l_plus = min(horizon.l_f, horizon.x_max - float(x))
        l_minus = 0.0 if l_minus < tiny else l_minus
        l_plus = 0.0 if l_plus < tiny else l_plus
        e = min(max(int(np.searchsorted(nodes, x, side="right")) - 1, 0), nodes.size - 2)
        if isinstance(kernel, LocalDelta):
            add_local(weights[r], e)
        elif kernel.is_singular_at_origin and (l_minus + l_plus) < (el_right[e] - el_left[e]):
            add_local(weights[r], e)
            n_fallback += 1
        elif l_minus == 0.0 and l_plus == 0.0:
            # each vanished side contributes phi'(x)/2
            add_local(weights[r], e)
        elif l_minus == 0.0 or l_plus == 0.0:
            add_local(weights[r], e, scale=0.5)
            if l_plus > 0.0:
                add_side(weights[r], x, l_plus, +1.0, 0.5 / float(kernel.interval_integral(l_plus)))
            else:
                add_side(weights[r], x, l_minus, -1.0, 0.5 / float(kernel.interval_integral(l_minus)))
        else:
            add_side(weights[r], x, l_minus, -1.0, 0.5 / float(kernel.interval_integral(l_minus)))
            add_side(weights[r], x, l_plus, +1.0, 0.5 / float(kernel.interval_integral(l_plus)))
    return weights, n_fallback


def _kernel_id(kernel):
    """A kernel's parameters as the test ids print them: l0=0.001, alpha=0.55 or local."""
    return ",".join(f"{name}={value:g}" for name, value in vars(kernel).items()) or "local"


ORACLE_KERNELS = [
    ExponentialKernel(1e-3), ExponentialKernel(0.05), ExponentialKernel(0.4),
    PowerLawKernel(0.55), PowerLawKernel(0.8), PowerLawKernel(0.95), LocalDelta(),
]


def _oracle_case(seed, uniform):
    rng = np.random.default_rng(seed)
    length = rng.uniform(0.5, 3.0)
    n_el = int(rng.integers(1, 60))
    if uniform:
        nodes = np.linspace(0.0, length, n_el + 1)
    else:
        nodes = np.unique(np.concatenate([[0.0, length], rng.uniform(0.0, length, n_el)]))
    # walls, every node, and scattered interior points
    pts = np.concatenate([[0.0, length], nodes, rng.uniform(0.0, length, 40)])
    l_f = length * rng.choice([0.02, 0.1, 0.3, 0.7, 1.5])
    return nodes, pts, Horizon(l_f=l_f, x_min=0.0, x_max=length)


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=_kernel_id)
@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
def test_matrix_equals_per_row_loop_bitwise(kernel, uniform):
    for seed in range(25):
        nodes, pts, horizon = _oracle_case(seed, uniform)
        expected, _ = _loop_operator_matrix(nodes, pts, horizon, kernel)
        op = build_operator_matrix(nodes, pts, horizon.l_f, kernel)
        assert op.weights.tobytes() == expected.tobytes(), (seed, kernel)


def _block_entries(block, n_pts, n_nodes):
    """_BLOCK_ENTRIES for one row per block, the default, or the whole matrix at once."""
    return {"one_row": 1, "default": DEFAULT_BLOCK_ENTRIES, "whole": n_pts * n_nodes}[block]


def test_matrix_equals_per_row_loop_across_blocks(monkeypatch):
    # rows broadcast in blocks of any size give the loop's matrix byte for byte
    rng = np.random.default_rng(3)
    nodes = np.linspace(0.0, 1.0, 81)
    pts = rng.uniform(0.0, 1.0, 150)
    for kernel in ORACLE_KERNELS:
        expected, _ = _loop_operator_matrix(nodes, pts, UNIT, kernel)
        for block in ("one_row", "default", "whole"):
            monkeypatch.setattr(operator_module, "_BLOCK_ENTRIES", _block_entries(block, pts.size, nodes.size))
            op = build_operator_matrix(nodes, pts, UNIT.l_f, kernel)
            assert op.weights.tobytes() == expected.tobytes(), (kernel, block)


@pytest.mark.parametrize("kernel", [PowerLawKernel(0.6), PowerLawKernel(0.9)])
def test_short_horizon_fallback_rows_match_loop(kernel, caplog):
    # horizons shorter than an element: same fallback rows, one warning
    rng = np.random.default_rng(11)
    nodes = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 12)]))
    pts = np.concatenate([[0.0, 1.0], nodes, rng.uniform(0.0, 1.0, 50)])
    short = Horizon(l_f=0.004, x_min=0.0, x_max=1.0)
    expected, n_fallback = _loop_operator_matrix(nodes, pts, short, kernel)
    assert n_fallback > 0
    with caplog.at_level(logging.WARNING, logger="nle.operator"):
        op = build_operator_matrix(nodes, pts, short.l_f, kernel)
    assert op.weights.tobytes() == expected.tobytes()
    warnings = [r for r in caplog.records if "fell back" in r.getMessage()]
    assert len(warnings) == 1
    assert warnings[0].getMessage().startswith(f"{n_fallback} of {pts.size} operator rows")


def test_rows_whose_two_sides_vanish_read_the_whole_gradient():
    # a radius under 1e-13 of the span snaps both sides to zero; each adds
    # phi'(x)/2, so the row is the element gradient, the local row bit for bit
    nodes = np.linspace(0.0, 1.0, 201)
    pts = np.array([0.0, 0.3, 0.5025, 1.0])
    kernel = ExponentialKernel(1e-3)
    horizon = Horizon(l_f=1e-14, x_min=0.0, x_max=1.0)
    op = build_operator_matrix(nodes, pts, horizon.l_f, kernel)
    for value, x in zip(op.apply(1.7 * nodes - 0.2), pts):
        assert value == pytest.approx(continuous_gradient(lambda y: 1.7, x, horizon, kernel), rel=1e-14)
    local = build_operator_matrix(nodes, pts, horizon.l_f, LocalDelta())
    assert op.weights.tobytes() == local.weights.tobytes()
    expected, n_fallback = _loop_operator_matrix(nodes, pts, horizon, kernel)
    assert n_fallback == 0
    assert op.weights.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# node windows: the edges of each block's window and of the kernel's reach
# ---------------------------------------------------------------------------

def _window_edge_points(nodes, edges, rng):
    """Points within one element of each edge, shuffled so blocks are unsorted."""
    h = float(np.max(np.diff(nodes)))
    near = np.concatenate([e + h * np.array([-1.0, -0.5, -1e-9, 0.0, 1e-9, 0.5, 1.0]) for e in edges])
    near = near[(near >= nodes[0]) & (near <= nodes[-1])]
    pts = np.concatenate([nodes, near, rng.uniform(nodes[0], nodes[-1], 60)])
    return rng.permutation(pts)


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("to_reach", [-1, 0, 1], ids=["below_reach", "at_reach", "above_reach"])
@pytest.mark.parametrize("block", ["one_row", "default"])
def test_matrix_equals_loop_at_the_reach_and_window_edges(uniform, to_reach, block, monkeypatch):
    # l_f just below, at and just above the exponential kernel's reach, with
    # points within one element of the reach's and the walls' window edges
    rng = np.random.default_rng(17)
    kernel = ExponentialKernel(0.0123)
    if uniform:
        nodes = np.linspace(0.0, 1.7, 97)
    else:
        nodes = np.unique(np.concatenate([[0.0, 1.7], rng.uniform(0.0, 1.7, 95)]))
    l_f = float(np.nextafter(kernel.reach, kernel.reach + to_reach))
    horizon = Horizon(l_f=l_f, x_min=0.0, x_max=1.7)
    edges = [kernel.reach, 1.7 - kernel.reach, 0.8 - kernel.reach, 0.8 + kernel.reach, 0.0, 1.7]
    pts = _window_edge_points(nodes, edges, rng)
    monkeypatch.setattr(operator_module, "_BLOCK_ENTRIES", _block_entries(block, pts.size, nodes.size))
    op = build_operator_matrix(nodes, pts, l_f, kernel)
    expected, _ = _loop_operator_matrix(nodes, pts, horizon, kernel)
    assert op.weights.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "kernel",
    # l0 = 1/256 puts the reach, 40 l0 = 10 h, exactly on the node grid
    [ExponentialKernel(1.0 / 256.0), ExponentialKernel(0.05), PowerLawKernel(0.8), PowerLawKernel(0.55)],
    ids=_kernel_id,
)
@pytest.mark.parametrize("k", [1, 3, 10, 25])
def test_matrix_equals_loop_when_horizon_ends_land_on_nodes(kernel, k):
    # dyadic nodes and l_f = k h: x - l_f and x + l_f fall exactly on nodes,
    # which the clamped-side selects must settle as the clamps do
    h = 1.0 / 64.0
    nodes = np.arange(65) * h
    pts = np.concatenate([nodes, nodes[:-1] + 0.5 * h, nodes[:-1] + 0.25 * h])
    horizon = Horizon(l_f=k * h, x_min=0.0, x_max=1.0)
    op = build_operator_matrix(nodes, pts, horizon.l_f, kernel)
    expected, _ = _loop_operator_matrix(nodes, pts, horizon, kernel)
    assert op.weights.tobytes() == expected.tobytes()


def _moment_entries(kernel, monkeypatch):
    """Entries passed to interval_integral while building the shipped beam's
    bending quadrature (200 elements, 2-point rule, l_f = 0.5), and B's shape."""
    entries = []
    moment = type(kernel).interval_integral

    def counting(self, length):
        entries.append(np.size(length))
        return moment(self, length)

    monkeypatch.setattr(type(kernel), "interval_integral", counting)
    quadrature = AxisQuadrature(HatRows(IntervalMesh(1.0, 200), 2), kernel, 0.5)
    return sum(entries), quadrature.B.shape


def test_power_law_moments_are_evaluated_once_per_node_and_row(monkeypatch):
    # a deterministic work guard: one moment matrix for both sides, plus per
    # row the two multipliers and the two clamped side ends, and F(0) once
    evaluated, (rows, nodes) = _moment_entries(PowerLawKernel(0.8), monkeypatch)
    assert evaluated <= rows * nodes + 4 * rows + 1


def test_saturated_exponential_tails_are_not_evaluated(monkeypatch):
    # under a quarter of the dense build's two moment matrices and multipliers
    evaluated, (rows, nodes) = _moment_entries(ExponentialKernel(2.5e-3), monkeypatch)
    assert evaluated < (2 * rows * nodes + 2 * rows) / 4


@pytest.mark.parametrize("kernel", [ExponentialKernel(0.1), LocalDelta()])
def test_matrix_rejects_points_outside_the_horizon_domain(kernel):
    nodes = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="span"):
        build_operator_matrix(nodes, [-0.1], UNIT.l_f, kernel)


def test_matrix_input_validation():
    nodes = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="increasing"):
        build_operator_matrix(nodes[::-1], [0.5], UNIT.l_f, LocalDelta())
    with pytest.raises(ValueError, match="span"):
        build_operator_matrix(nodes, [1.5], UNIT.l_f, LocalDelta())


# ---------------------------------------------------------------------------
# adjoint smoothing operator
# ---------------------------------------------------------------------------

def adjoint_integral(field, x, horizon, kernel):
    """Smoothing companion of the nonlocal gradient (values, not derivatives).

    The pairing swaps the interval lengths relative to the forward operator:
    c_minus weights the trailing interval of length l_plus and c_plus the
    leading interval of length l_minus,

        Itilde phi(x) = c_minus * integral_{x-l_plus}^{x} K phi dx'
                      + c_plus  * integral_{x}^{x+l_minus} K phi dx'.

    On a symmetric interior horizon this reduces to a weighted average with
    unit mass (Itilde 1 = 1); at asymmetric points the swapped pairing is not
    mass-preserving, which the tests below record rather than hide.
    """
    l_minus, l_plus = clipped_sides(horizon, x)
    if l_minus == 0.0 or l_plus == 0.0:
        raise ValueError("adjoint pairing needs both clipped side lengths positive")
    c_minus = 0.5 / float(kernel.interval_integral(l_minus))
    c_plus = 0.5 / float(kernel.interval_integral(l_plus))
    left = side_integral(kernel, lambda s: field(x - s), l_plus)
    right = side_integral(kernel, lambda s: field(x + s), l_minus)
    return c_minus * left + c_plus * right


@pytest.mark.parametrize("kernel", [ExponentialKernel(0.1), PowerLawKernel(0.75), LocalDelta()])
def test_adjoint_preserves_constants_on_symmetric_horizons(kernel):
    value = adjoint_integral(lambda y: 1.0, 0.5, Horizon(0.3, 0.0, 1.0), kernel)
    assert value == pytest.approx(1.0, rel=1e-12)


def test_adjoint_is_linear():
    k = ExponentialKernel(0.08)
    f = lambda y: math.cos(2.0 * y)
    g = lambda y: y * y
    lhs = adjoint_integral(lambda y: 3.0 * f(y) + g(y), 0.45, UNIT, k)
    rhs = 3.0 * adjoint_integral(f, 0.45, UNIT, k) + adjoint_integral(g, 0.45, UNIT, k)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_adjoint_swapped_pairing_discrepancy_is_visible():
    # at an asymmetric point the swapped pairing is not mass-preserving:
    # Itilde(1) = c_minus*F(l_plus) + c_plus*F(l_minus) != 1, whereas the
    # unswapped combination is identically 1.  Record the discrepancy rather
    # than normalize it away.
    kernel = ExponentialKernel(0.1)
    x = 0.2  # clipped sides (0.2, 0.5)
    value = adjoint_integral(lambda y: 1.0, x, UNIT, kernel)
    Fm, _ = integrate.quad(kernel.eval, 0.0, 0.2, epsabs=1e-15)
    Fp, _ = integrate.quad(kernel.eval, 0.0, 0.5, epsabs=1e-15)
    swapped = Fp / (2.0 * Fm) + Fm / (2.0 * Fp)
    assert value == pytest.approx(swapped, rel=1e-10)
    assert abs(value - 1.0) > 5e-3


def test_adjoint_requires_interior_point():
    with pytest.raises(ValueError):
        adjoint_integral(lambda y: 1.0, 0.0, UNIT, ExponentialKernel(0.1))
