import dataclasses
import mmap
import os
import pathlib
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from nle import fem
from nle.beam import FIXED_ENDS, BeamSection, TimoshenkoBeamModel
from nle.fem import (
    Axes,
    AxisQuadrature,
    HatRows,
    IntervalMesh,
    SolverError,
    StiffnessSystem,
    gram,
    solve,
)
from nle.kernels import ExponentialKernel, KernelError, LocalDelta, PowerLawKernel
from nle.plate import FIXED_EDGES, MindlinPlateModel, PlateSection
from strain_oracle import hat_rows


# ---------------------------------------------------------------------------
# meshes and quadrature rules
# ---------------------------------------------------------------------------

def test_interval_mesh_layout():
    mesh = IntervalMesh(2.0, 4)
    assert mesh.n_nodes == 5
    assert mesh.spacing == pytest.approx(0.5)
    np.testing.assert_allclose(mesh.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_interval_mesh_validation():
    with pytest.raises(ValueError, match="positive"):
        IntervalMesh(0.0, 4)
    with pytest.raises(ValueError, match="at least one"):
        IntervalMesh(1.0, 0)


def test_equal_interval_meshes_are_one_key():
    assert IntervalMesh(1.0, 24) == IntervalMesh(1.0, 24)
    assert len({IntervalMesh(1.0, 24), IntervalMesh(1.0, 24), IntervalMesh(1.0, 12)}) == 2


def test_axes_number_nodes_x_fastest():
    axes = Axes(IntervalMesh(1.2, 4), IntervalMesh(0.9, 3), ())
    assert axes.grid == (4, 5)
    assert axes.n_nodes == 20
    assert axes.node(0, 0) == 0
    assert axes.node(4, 0) == 4
    assert axes.node(0, 1) == 5
    assert axes.node(3, 2) == 13


def test_axes_center_node():
    assert Axes(IntervalMesh(1.0, 4), IntervalMesh(1.0, 4), ()).center_node() == 12
    with pytest.raises(ValueError, match="even"):
        Axes(IntervalMesh(1.0, 3), IntervalMesh(1.0, 4), ()).center_node()
    # a single y node: the midspan node of the x axis
    assert Axes(IntervalMesh(1.0, 200), None, ()).center_node() == 100
    # the element counts, x first, as the convergence table prints them
    assert Axes(IntervalMesh(1.0, 200), None, ()).resolution == "200"
    assert Axes(IntervalMesh(1.0, 24), IntervalMesh(1.0, 24), ()).resolution == "24x24"
    assert Axes(IntervalMesh(1.0, 24), IntervalMesh(1.0, 12), ()).resolution == "24x12"
    # a model whose metric is the center node fails at construction on odd counts
    with pytest.raises(ValueError, match=r"even element counts \(got 199\)"):
        TimoshenkoBeamModel(BeamSection(), 1.0, "ss_udtl", 199)
    with pytest.raises(ValueError, match=r"even element counts \(got 24x23\)"):
        MindlinPlateModel(PlateSection(), 1.0, "clamped", 24, 23)


@pytest.mark.parametrize(
    "case, per_field, total",
    [
        ("cantilever_tip", [200, 200, 200], 600),
        ("ss_udtl", [200, 199, 201], 600),
        ("clamped", [529] * 5, 2645),
        ("simply_supported", [575, 575, 529, 575, 575], 2829),
    ],
    ids=["cantilever_tip", "ss_udtl", "clamped", "simply_supported"],
)
def test_axes_free_ranges_follow_the_fixed_ends_tables(case, per_field, total):
    if case in FIXED_ENDS:
        model, ends = TimoshenkoBeamModel(BeamSection(), 1.0, case, 200), FIXED_ENDS[case]
    else:
        model, ends = MindlinPlateModel(PlateSection(), 1.0, case, 24, 24), FIXED_EDGES[case]
    axes = model.axes
    assert axes.fixed == tuple(ends[f] for f in range(len(ends)))
    n_y, n_x = axes.grid
    for (jy, jx), ((x0, x1), (y0, y1)) in zip(axes.free, axes.fixed):
        assert (jx, jy) == (range(x0, n_x - x1), range(y0, n_y - y1))
    assert [len(jy) * len(jx) for jy, jx in axes.free] == per_field
    assert axes.free_dofs == total


@pytest.mark.parametrize(
    "build, meshes",
    [
        (lambda: TimoshenkoBeamModel(BeamSection(), 1.0, "cantilever_tip", 200), [(1.0, 200)]),
        (lambda: MindlinPlateModel(PlateSection(), 1.0, "clamped", 24, 24), [(1.0, 24)]),
        (
            lambda: MindlinPlateModel(PlateSection(), 1.0, "clamped", 24, 12),
            [(1.0, 24), (1.0, 12)],
        ),
    ],
    ids=["beam", "square", "24x12"],
)
def test_axes_hold_one_hat_rows_per_distinct_axis_mesh_and_rule(build, meshes):
    axes = build().axes
    hats = axes.hats
    assert axes.hats is hats
    assert len(hats) == 2 * len(meshes)
    for mesh in (IntervalMesh(length, n) for length, n in meshes):
        for rule in (fem.BENDING_POINTS, fem.SHEAR_POINTS):
            built, direct = hats[mesh, rule], HatRows(mesh, rule)
            for name in ("points", "weights", "N", "load"):
                assert getattr(built, name).tobytes() == getattr(direct, name).tobytes()


# One element on [0, 2] has unit jacobian, so its Gauss points less 1 are
# the reference points on [-1, 1] and its weights the reference weights.

def test_gauss_rule_low_orders():
    one = HatRows(IntervalMesh(2.0, 1), 1)
    np.testing.assert_allclose(one.points - 1, [0.0])
    np.testing.assert_allclose(one.weights, [2.0])
    two = HatRows(IntervalMesh(2.0, 1), 2)
    np.testing.assert_allclose(np.abs(two.points - 1), [1 / np.sqrt(3)] * 2)
    np.testing.assert_allclose(two.weights, [1.0, 1.0])
    with pytest.raises(ValueError):
        HatRows(IntervalMesh(2.0, 1), 0)


def test_gauss_rule_is_read_only():
    rule = HatRows(IntervalMesh(2.0, 1), 2)
    with pytest.raises(ValueError, match="read-only"):
        rule.points[0] = 0.0


@pytest.mark.parametrize("rule", [fem.BENDING_POINTS, fem.SHEAR_POINTS])
def test_hat_rows_mass_is_the_read_only_n_n_gram_built_once(monkeypatch, rule):
    hats, builds, real = HatRows(IntervalMesh(1.3, 7), rule), [], fem.gram
    monkeypatch.setattr(fem, "gram", lambda *args: builds.append(args) or real(*args))
    mass = hats.mass
    assert hats.mass is mass
    assert len(builds) == 1
    assert mass.tobytes() == gram(hats.N, hats.N, hats.weights).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        mass[0, 0] = 0.0


def test_square_plate_axes_share_one_mass_per_rule():
    axes = MindlinPlateModel(PlateSection(), 1.0, "clamped", 8, 8).axes
    for rule in (fem.BENDING_POINTS, fem.SHEAR_POINTS):
        x, y = axes.hats[axes.x_axis, rule], axes.hats[axes.y_axis, rule]
        assert x is y
        assert x.mass is y.mass


def test_gauss_two_point_exact_to_cubics():
    rule = HatRows(IntervalMesh(2.0, 1), 2)
    points = rule.points - 1
    assert np.sum(rule.weights * points ** 2) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert np.sum(rule.weights * points ** 3) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# hat interpolation rows
# ---------------------------------------------------------------------------

def test_hat_rows_partition_of_unity_and_cardinality():
    nodes = np.array([0.0, 0.2, 0.5, 1.0])
    pts = np.array([0.0, 0.1, 0.2, 0.33, 0.77, 1.0])
    rows = hat_rows(nodes, pts)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-15)
    np.testing.assert_allclose(hat_rows(nodes, nodes), np.eye(4), atol=1e-15)


def test_hat_rows_reproduce_affine():
    nodes = np.linspace(0.0, 2.0, 7)
    pts = np.array([0.05, 0.4, 1.234, 1.999])
    vals = hat_rows(nodes, pts) @ (3.0 * nodes - 1.0)
    np.testing.assert_allclose(vals, 3.0 * pts - 1.0, rtol=1e-14)


def test_hat_rows_reject_outside_span():
    with pytest.raises(ValueError, match="outside"):
        hat_rows(np.array([0.0, 1.0]), np.array([1.5]))


# ---------------------------------------------------------------------------
# per-axis quadrature data
# ---------------------------------------------------------------------------

def test_axis_quadrature_weights_and_points():
    mesh = IntervalMesh(1.0, 5)
    quad = AxisQuadrature(HatRows(mesh, 2), LocalDelta(), 0.3)
    assert quad.points.size == 10
    assert np.sum(quad.weights) == pytest.approx(1.0, rel=1e-14)
    # points stay strictly inside their elements, in ascending element order
    element = np.repeat(np.arange(5), 2)
    lo = mesh.nodes[element]
    assert np.all(quad.points > lo) and np.all(quad.points < lo + mesh.spacing)


def test_axis_quadrature_interpolation_rows():
    mesh = IntervalMesh(1.0, 4)
    quad = AxisQuadrature(HatRows(mesh, 2), LocalDelta(), 0.3)
    nodal = 2.0 * mesh.nodes + 0.5
    np.testing.assert_allclose(quad.N @ nodal, 2.0 * quad.points + 0.5, rtol=1e-14)


def test_axis_quadrature_local_gradient_rows():
    # with the delta kernel the B rows are the element gradients, so the
    # nodal square function maps to twice the element midpoints
    mesh = IntervalMesh(1.0, 4)
    quad = AxisQuadrature(HatRows(mesh, 1), LocalDelta(), 0.3)
    mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    np.testing.assert_allclose(quad.B @ mesh.nodes ** 2, 2.0 * mids, rtol=1e-13)


def test_hat_rows_consistent_unit_load():
    mesh = IntervalMesh(1.0, 5)
    hats = HatRows(mesh, 2)
    h = mesh.spacing
    expected = np.full(6, h)
    expected[[0, -1]] = h / 2
    np.testing.assert_allclose(hats.load, expected, rtol=1e-14)


@pytest.mark.parametrize("structure", ["beam", "plate"])
def test_a_model_computes_its_load_once_and_every_assembly_reads_it(structure):
    if structure == "beam":
        model = TimoshenkoBeamModel(BeamSection(), 2.5e3, "ss_udtl")
        hats = model.axes.hats[model.axes.x_axis, fem.BENDING_POINTS]
        rows, expected = 1, 2.5e3 * hats.load
    else:
        model = MindlinPlateModel(PlateSection(), 4.0e3, "clamped", nx=12, ny=12)
        x, y = model.axes.x_axis, model.axes.y_axis
        hats = model.axes.hats[x, fem.BENDING_POINTS]
        fx, fy = hats.load, model.axes.hats[y, fem.BENDING_POINTS].load
        rows, expected = 2, 4.0e3 * np.outer(fy, fx).ravel()
    load = hats.load
    assert hats.load is load
    assert not load.flags.writeable
    assert load.tobytes() == (hats.N.T @ hats.weights).tobytes()

    systems = [
        fem.assemble(model, ExponentialKernel(0.05), 0.2),
        fem.assemble(model, PowerLawKernel(0.75), 0.3),
    ]
    assert hats.load is load
    assert systems[0].load.tobytes() == systems[1].load.tobytes()
    nn = expected.size
    assert systems[0].load[rows * nn : (rows + 1) * nn].tobytes() == expected.tobytes()


def test_gram_is_weighted_product():
    P = np.array([[1.0, 2.0], [0.5, -1.0]])
    Q = np.array([[2.0, 0.0], [1.0, 3.0]])
    w = np.array([0.5, 2.0])
    expected = 0.5 * np.outer(P[0], Q[0]) + 2.0 * np.outer(P[1], Q[1])
    np.testing.assert_allclose(gram(P, Q, w), expected, rtol=1e-15)
    sym = gram(P, P, w)
    np.testing.assert_allclose(sym, sym.T, rtol=1e-15)


# ---------------------------------------------------------------------------
# brute-force energy oracle for a 2-element bar
# ---------------------------------------------------------------------------

def _composed_gradient_by_quadrature(x, nodes, vals, kernel, l_f):
    """Nonlocal gradient of the nodal interpolant by adaptive quadrature only."""
    h = nodes[1] - nodes[0]
    n_el = nodes.size - 1

    def slope(y):
        e = min(int(y / h), n_el - 1)
        return (vals[e + 1] - vals[e]) / h

    def side(direction, reach, c):
        breaks = sorted(
            s for s in (direction * (x - n) for n in nodes) if 0.0 < s < reach
        )
        val, _ = integrate.quad(
            lambda s: kernel.eval(s) * slope(x - direction * s),
            0.0,
            reach,
            points=breaks,
            limit=200,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        return c * val

    reach_minus = min(l_f, x - nodes[0])
    reach_plus = min(l_f, nodes[-1] - x)
    c_minus = 0.5 / kernel.interval_integral(reach_minus)
    c_plus = 0.5 / kernel.interval_integral(reach_plus)
    return side(1.0, reach_minus, c_minus) + side(-1.0, reach_plus, c_plus)


def test_bar_stiffness_matches_brute_force_energy_quadrature():
    # wide kernel, horizon spanning the whole bar: every entry of the axial
    # stiffness recovered by polarization of the brute-force strain energy
    kernel = ExponentialKernel(1.0)
    l_f = 1.0
    mesh = IntervalMesh(1.0, 2)
    quad = AxisQuadrature(HatRows(mesh, 2), kernel, l_f)
    K = gram(quad.B, quad.B, quad.weights)

    def energy(vals):
        d = np.array(
            [
                _composed_gradient_by_quadrature(x, mesh.nodes, vals, kernel, l_f)
                for x in quad.points
            ]
        )
        return 0.5 * np.sum(quad.weights * d ** 2)

    basis = np.eye(3)
    brute = np.zeros((3, 3))
    cache = {}

    def e_of(key, vec):
        if key not in cache:
            cache[key] = energy(vec)
        return cache[key]

    for i in range(3):
        for j in range(3):
            e_ij = e_of((i, j), basis[i] + basis[j]) if i != j else 4.0 * e_of((i,), basis[i])
            brute[i, j] = e_ij - e_of((i,), basis[i]) - e_of((j,), basis[j])
    scale = np.max(np.abs(K))
    assert np.max(np.abs(brute - K)) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# stiffness systems and their solve
# ---------------------------------------------------------------------------

def _dense_system(matrix, load, free):
    """System whose product multiplies by a private copy of the symmetric block."""
    K_ff = np.array(matrix, dtype=float)
    return StiffnessSystem(matrix=matrix, load=load, free=free, product=lambda x: K_ff @ x)


def _toy_system(n=4, seed=7, fixed=()):
    """Random SPD matrix K, its load F, and the system of the dofs outside `fixed`."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    K = A @ A.T + n * np.eye(n)
    F = rng.standard_normal(n)
    free = np.setdiff1d(np.arange(n), fixed)
    block = np.asfortranarray(K[np.ix_(free, free)])
    return K, _dense_system(block, F, free)


def test_solve_identity_system():
    system = _dense_system(np.eye(3), np.array([1.0, 0.0, 0.0]), np.arange(3))
    np.testing.assert_allclose(solve(system), [1.0, 0.0, 0.0], atol=1e-15)


def test_solve_matches_dense_oracle():
    K, system = _toy_system(n=6, seed=3)
    expected = np.linalg.solve(K, system.load)
    np.testing.assert_allclose(solve(system), expected, rtol=1e-12, atol=1e-14)


def test_solve_zero_constraints_zero_solution():
    # every dof fixed: an empty block, and the solution is the fixed zeros
    system = _dense_system(np.zeros((0, 0)), np.ones(3), np.arange(0))
    np.testing.assert_array_equal(solve(system), np.zeros(3))


def test_indefinite_matrix_names_failing_pivot():
    bad = _dense_system(np.diag([2.0, -3.0]), np.zeros(2), np.arange(2))
    with pytest.raises(SolverError, match=r"not positive definite.*dof 1"):
        solve(bad)


def test_failing_pivot_reported_in_global_indices():
    # dof 0 is fixed, so the first free pivot that fails is global dof 2
    bad = _dense_system(np.diag([4.0, -1.0]), np.zeros(3), np.array([1, 2]))
    with pytest.raises(SolverError, match="dof 2"):
        solve(bad)


def test_solve_residual_guarantee():
    K, system = _toy_system(n=8, seed=5, fixed=[1, 6])
    u = solve(system)
    np.testing.assert_array_equal(u[[1, 6]], 0.0)
    free = system.free
    r = (system.load - K @ u)[free]
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(system.load[free])


@pytest.mark.parametrize("spoil", ["load", "product"])
def test_a_nan_load_or_product_raises_instead_of_returning_nan(spoil):
    # a NaN residual reads False in both `norm <= tol` and `norm > tol`
    _, system = _toy_system(n=6, seed=3)
    nan = {
        "load": {"load": np.full(6, np.nan)},
        "product": {"product": lambda x: np.full(np.shape(x), np.nan)},
    }[spoil]
    with pytest.raises(SolverError, match="residual nan"):
        solve(dataclasses.replace(system, **nan))


def test_solve_reads_only_the_lower_triangle():
    K, system = _toy_system(n=10, seed=11, fixed=[3])
    expected = solve(system)
    _, spoiled = _toy_system(n=10, seed=11, fixed=[3])
    spoiled.matrix[np.triu_indices(9, 1)] = np.nan
    np.testing.assert_array_equal(solve(spoiled), expected)


def _perturb_first_cho_solve(monkeypatch):
    """Spoil the first cho_solve result so that solve() must refine once."""
    real = fem.linalg.cho_solve
    calls = []

    def spoiled(*args, **kwargs):
        x = real(*args, **kwargs)
        calls.append(x)
        return x * (1.0 + 1e-6) if len(calls) == 1 else x

    monkeypatch.setattr(fem.linalg, "cho_solve", spoiled)
    return calls


def test_forced_refinement_step_converges_on_the_symmetric_residual(monkeypatch):
    # every dof free: the residual comes from the system's product with the whole K
    K, system = _toy_system(n=40, seed=13)
    expected = np.linalg.solve(K, system.load)
    calls = _perturb_first_cho_solve(monkeypatch)
    u = solve(system)
    # one refinement step: the spoiled solve plus one correction solve
    assert len(calls) == 2
    assert np.linalg.norm(u - expected) <= 1e-12 * np.linalg.norm(expected)


def test_forced_refinement_step_converges_on_a_reduced_system(monkeypatch):
    fixed = [0, 9, 39]
    K, system = _toy_system(n=40, seed=17, fixed=fixed)
    free = system.free
    expected = np.linalg.solve(K[np.ix_(free, free)], system.load[free])
    calls = _perturb_first_cho_solve(monkeypatch)
    u = solve(system)
    assert len(calls) == 2
    assert np.linalg.norm(u[free] - expected) <= 1e-12 * np.linalg.norm(expected)
    np.testing.assert_array_equal(u[fixed], 0.0)


def _recording_cho_factor(monkeypatch):
    real = fem.linalg.cho_factor
    seen = []

    def recording(a, *args, **kwargs):
        factor = real(a, *args, **kwargs)
        seen.append((a, factor[0]))
        return factor

    monkeypatch.setattr(fem.linalg, "cho_factor", recording)
    return seen


def test_solve_factors_its_free_block_without_a_copy(monkeypatch):
    seen = _recording_cho_factor(monkeypatch)
    K, system = _toy_system(n=12, seed=29, fixed=[4])
    before = system.matrix.copy()
    solve(system)
    ((a, c),) = seen
    assert a is system.matrix and a.flags.f_contiguous
    assert np.shares_memory(c, system.matrix)
    assert not np.array_equal(system.matrix, before)


def test_solve_copies_a_block_that_is_not_column_major(monkeypatch):
    _, column_major = _toy_system(n=12, seed=37, fixed=[2, 3])
    row_major = StiffnessSystem(
        np.ascontiguousarray(column_major.matrix),
        column_major.load,
        column_major.free,
        column_major.product,
    )
    before = row_major.matrix.copy()
    seen = _recording_cho_factor(monkeypatch)
    u = solve(row_major)
    ((a, _),) = seen
    assert a.flags.f_contiguous and not np.shares_memory(a, row_major.matrix)
    assert np.array_equal(row_major.matrix, before)
    np.testing.assert_array_equal(u, solve(column_major))


def test_kronecker_system_places_the_lower_field_blocks():
    # two fields on 3 nodes of one y node; field 0 fixed at node 0, field 1 at node 2
    axes = [(range(1), range(1, 3)), (range(1), range(2))]
    unit = np.ones((1, 1))
    G = np.array([[9.0, 8.0, 7.0], [8.0, 1.0, 2.0], [7.0, 2.0, 5.0]])
    C = np.array([[4.0, 3.0, -0.0], [5.0, 6.0, 7.0], [0.5, 0.25, 0.125]])
    inner = {"G": ((1.0, unit, G),), "C": ((1.0, unit, C),)}
    blocks = [(0, 0, [(1.0, "G")]), (1, 1, [(2.0, "G")]), (1, 0, [(1.0, "C")])]
    load = np.arange(6.0)
    system = fem.kronecker_system((1, 3), axes, inner, blocks, load)
    np.testing.assert_array_equal(system.free, [1, 2, 3, 4])
    assert system.matrix.flags.f_contiguous and system.load is load
    # block (1, 0) takes field 1's free rows and field 0's free columns of C
    lower = C[0:2, 1:3]
    K = np.block([[G[1:, 1:], lower.T], [lower, 2 * G[:2, :2]]])
    # the block above the diagonal stays zero
    np.testing.assert_array_equal(system.matrix, np.tril(K))
    # the write keeps the sign of C's -0.0, which only the bytes show
    assert system.matrix.tobytes(order="F") == np.tril(K).tobytes(order="F")
    x = np.arange(8.0).reshape(4, 2)
    np.testing.assert_array_equal(system.product(x), K @ x)
    np.testing.assert_array_equal(system.product(x[:, 1]), K @ x[:, 1])
    with pytest.raises(ValueError, match="above the diagonal"):
        fem.kronecker_system((1, 3), axes, inner, [(0, 1, [(1.0, "C")])], load)


def test_kronecker_system_rejects_a_block_listed_twice_before_allocating(monkeypatch):
    # (0, 0) listed twice would write G then 2 G, while product added both
    def no_block(n):
        raise AssertionError("a block was allocated")

    monkeypatch.setattr(fem, "dense_block", no_block)
    axes = [(range(1), range(3))] * 2
    inner = {"G": ((1.0, np.ones((1, 1)), np.eye(3)),)}
    twice = [(0, 0, [(1.0, "G")]), (1, 1, [(1.0, "G")]), (0, 0, [(2.0, "G")])]
    with pytest.raises(ValueError, match=r"block \(0, 0\) is listed twice"):
        fem.kronecker_system((1, 3), axes, inner, twice, np.zeros(6))
    with pytest.raises(ValueError, match="above the diagonal"):
        fem.kronecker_system((1, 3), axes, inner, [(0, 1, [(1.0, "G")])], np.zeros(6))


def _counting_streams(monkeypatch) -> list:
    """The blocks of every stream kronecker_system writes, in the order written."""
    seen = []
    stream = fem._stream
    monkeypatch.setattr(fem, "_stream", lambda *args: seen.append(args[-1]) or stream(*args))
    return seen


def test_kronecker_system_keeps_equal_sized_fields_on_other_nodes_apart(monkeypatch):
    # two fields on a 3 x 3 grid, 6 free dofs each, but field 0 is fixed on
    # the edge y = 0 and field 1 on x = 0; both diagonal blocks use one inner sum
    axes = [(range(1, 3), range(3)), (range(3), range(1, 3))]
    Gy = np.array([[2.0, -1.0, 0.0], [-1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    Gx = np.array([[5.0, 2.0, 1.0], [2.0, 6.0, -2.0], [1.0, -2.0, 7.0]])
    inner = {"A": ((1.0, Gy, Gx), (0.5, Gx, Gy))}
    seen = _counting_streams(monkeypatch)
    blocks = [(0, 0, [(1.0, "A")]), (1, 1, [(2.0, "A")])]
    system = fem.kronecker_system((3, 3), axes, inner, blocks, np.zeros(18))
    assert len(seen) == 2
    nodes = [(np.asarray(jy)[:, None] * 3 + np.asarray(jx)).ravel() for jy, jx in axes]
    np.testing.assert_array_equal(system.free, np.concatenate([nodes[0], 9 + nodes[1]]))
    full = np.kron(Gy, Gx) + 0.5 * np.kron(Gx, Gy)
    zero = np.zeros((6, 6))
    K = np.block(
        [[full[np.ix_(nodes[0], nodes[0])], zero], [zero, 2.0 * full[np.ix_(nodes[1], nodes[1])]]]
    )
    assert system.matrix.tobytes(order="F") == np.tril(K).tobytes(order="F")
    x = np.arange(24.0).reshape(12, 2)
    np.testing.assert_array_equal(system.product(x), K @ x)


MODELS = pytest.mark.parametrize(
    "model, streams",
    [
        (TimoshenkoBeamModel(BeamSection(), 1.0, "cantilever_tip", 20), 2),
        (TimoshenkoBeamModel(BeamSection(), 1.0, "ss_udtl", 20), 4),
        (MindlinPlateModel(PlateSection(), 1.0, "clamped", nx=6, ny=6), 2),
        (MindlinPlateModel(PlateSection(), 1.0, "simply_supported", nx=6, ny=6), 6),
    ],
    ids=["cantilever", "ss_beam", "clamped", "ss_plate"],
)


@MODELS
def test_blocks_on_the_same_free_nodes_share_one_stream(monkeypatch, model, streams):
    # the clamped cases have one free node set, one stream on the diagonal
    # and one below it; the simply supported ones differ field by field
    seen = _counting_streams(monkeypatch)
    fem.assemble(model, ExponentialKernel(2.5e-3), 0.5)
    assert len(seen) == streams


@MODELS
def test_a_reversed_block_table_gives_the_same_bytes(monkeypatch, model, streams):
    quadratures = model.quadratures(ExponentialKernel(2.5e-3), 0.5)
    system = model.assemble(quadratures)
    writer = fem.kronecker_system

    def reversed_table(grid, axes, inner, blocks, *rest):
        return writer(grid, axes, inner, blocks[::-1], *rest)

    monkeypatch.setattr(fem, "kronecker_system", reversed_table)
    reversed_system = model.assemble(quadratures)
    assert reversed_system.matrix.tobytes(order="F") == system.matrix.tobytes(order="F")
    x = np.random.default_rng(2).standard_normal((system.free.size, 3))
    assert reversed_system.product(x).tobytes() == system.product(x).tobytes()


def test_dense_block_is_checked_against_available_memory(monkeypatch):
    # the exact boundary: the whole pages a 30 x 30 block backs
    need = fem.backed_bytes(30)
    monkeypatch.setattr(fem, "available_memory", lambda: need)
    block = fem.dense_block(30)
    assert block.shape == (30, 30) and block.flags.f_contiguous and not block.any()
    monkeypatch.setattr(fem, "available_memory", lambda: need - 1)
    with pytest.raises(SolverError, match=r"30 dofs needs 0\.00 GiB"):
        fem.dense_block(30)
    monkeypatch.setattr(fem, "available_memory", lambda: None)
    assert fem.dense_block(31).shape == (31, 31)


@pytest.mark.parametrize("n", [0, 1, 39, 600])
def test_every_dense_block_is_a_zeroed_mapping_of_its_own(n):
    block = fem.dense_block(n)
    assert block.shape == (n, n) and block.dtype == float
    assert block.flags.f_contiguous and block.flags.writeable
    assert not block.any()
    if n:
        # an anonymous mapping, not numpy's heap: page-aligned and not owned
        assert not block.flags.owndata and block.ctypes.data % mmap.PAGESIZE == 0
        block[:, n - 1] = 1.0
        assert block.sum() == n


# With the address space's headroom as the only figure, prints the available
# memory and that headroom, then maps a block that backs about two thirds of
# it but spans 4/3 of it.
MAP_UNDER_A_CAP = """
import math
from nle import fem
fem._meminfo_available = fem._cgroup_headroom = lambda: None
have = fem.available_memory()
print(have, fem._address_space_headroom())
try:
    fem.dense_block(math.isqrt(have // 6))
except fem.SolverError as exc:
    print(exc)
"""


def test_an_address_space_limit_bounds_the_memory_and_refuses_a_block_that_spans_past_it():
    # the limit is the child's own, set as it starts
    cap = 2 * 2**30
    src = str(pathlib.Path(fem.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", MAP_UNDER_A_CAP],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    figures, refusal = proc.stdout.splitlines()
    have, headroom = map(int, figures.split())
    assert 0 < have == headroom < cap
    assert refusal.startswith("a dense block of ") and "Cannot allocate memory" in refusal


def test_available_memory_is_a_byte_count_or_unknown():
    available = fem.available_memory()
    assert available is None or (isinstance(available, int) and available > 0)


def test_kronecker_system_zeroes_what_a_reused_block_does_not_get_written():
    # three fields on 2 nodes; the model writes the diagonal blocks and (2, 0)
    axes = [(range(1), range(2))] * 3
    unit = np.ones((1, 1))
    inner = {"I": ((1.0, unit, np.eye(2)),), "F": ((1.0, unit, np.full((2, 2), 5.0)),)}
    blocks = [(f, f, [(1.0, "I")]) for f in range(3)] + [(2, 0, [(1.0, "F")])]
    block = np.full((6, 6), np.nan, order="F")
    K = fem.kronecker_system((1, 2), axes, inner, blocks, np.zeros(6), block).matrix
    assert K is block
    expected = np.eye(6)
    expected[4:6, 0:2] = 5.0
    np.testing.assert_array_equal(np.tril(K), expected)
    # nothing above the diagonal is touched, even to zero it
    assert np.isnan(K[np.triu_indices(6, 1)]).all()
    with pytest.raises(ValueError, match="column-major 6 x 6"):
        fem.kronecker_system((1, 2), axes, inner, blocks, np.zeros(6), np.zeros((6, 6)))


def _count_pages(n: int) -> int:
    """Pages holding rows j .. n - 1 of each column j, one column at a time."""
    pages = set()
    for j in range(n):
        start, end = 8 * (j * n + j), 8 * (j + 1) * n
        pages.update(range(start // mmap.PAGESIZE, (end - 1) // mmap.PAGESIZE + 1))
    return len(pages) * mmap.PAGESIZE


@pytest.mark.parametrize("n", [1, 30, 600, 2645])
def test_a_block_backs_the_pages_holding_what_is_written(n):
    # whole pages at every size: a tiny block backs more than its 8 n^2 bytes
    assert fem.backed_bytes(n) == _count_pages(n)


def test_a_large_block_backs_about_half_of_itself():
    # the 48x48 clamped plate: 11,045 free dofs
    n = 5 * 47 * 47
    span = 8 * n * n
    assert 0.5 * span < fem.backed_bytes(n) < 0.5 * span + mmap.PAGESIZE * n


def test_check_fits_adds_the_blas_margin_to_the_backed_bytes(monkeypatch):
    # 8 MiB and 3 KiB per dof: 8.9 MiB for 300 dofs
    assert fem.blas_margin(300) == (8 << 20) + 300 * (3 << 10)
    need = fem.backed_bytes(300) + fem.blas_margin(300)
    monkeypatch.setattr(fem, "available_memory", lambda: need)
    fem.check_fits(300)
    monkeypatch.setattr(fem, "available_memory", lambda: need - 1)
    with pytest.raises(SolverError, match=r"300 dofs needs 0\.00 GiB and 9 MiB of BLAS buffers"):
        fem.check_fits(300)
    fem.check_fits(300, margin=0)


def test_check_fits_counts_every_block_with_its_margin(monkeypatch):
    # a sweep on two threads may hold two blocks; one margin covers their
    # solves, as the measured two-thread plate sweeps peak below it
    need = 2 * fem.backed_bytes(300) + fem.blas_margin(300)
    monkeypatch.setattr(fem, "available_memory", lambda: need)
    fem.check_fits(300, blocks=2)
    monkeypatch.setattr(fem, "available_memory", lambda: need - 1)
    with pytest.raises(SolverError, match=r"2 dense systems of 300 dofs need 0\.00 GiB and 9 MiB"):
        fem.check_fits(300, blocks=2)
    fem.check_fits(300)


def test_check_fits_adds_what_the_model_holds_beside_each_block(monkeypatch):
    # each worker of a sweep builds operator rows and Grams of its own
    held = 5 << 20
    need = 2 * (fem.backed_bytes(300) + held) + fem.blas_margin(300)
    monkeypatch.setattr(fem, "available_memory", lambda: need)
    fem.check_fits(300, blocks=2, held=held)
    monkeypatch.setattr(fem, "available_memory", lambda: need - 1)
    with pytest.raises(SolverError, match=r"9 MiB of BLAS buffers and 10 MiB of model arrays"):
        fem.check_fits(300, blocks=2, held=held)
    fem.check_fits(300, held=held)


def test_check_fits_refuses_a_block_beyond_memory_without_per_dof_arrays(monkeypatch):
    # a 10^8-element beam's 3 * 10^8 dofs: its lower triangle alone exceeds
    # the memory, so no figure of backed_bytes' size (32 bytes a dof) is built
    monkeypatch.setattr(fem, "available_memory", lambda: 1 << 30)
    tracemalloc.start()
    try:
        with pytest.raises(SolverError, match="dense system of 300000000 dofs needs"):
            fem.check_fits(3 * 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _cgroups(tmp_path, monkeypatch, membership: str, files: dict[str, str]) -> None:
    """Point the cgroup probe at a tree under tmp_path: /proc/self/cgroup and its files."""
    proc = tmp_path / "cgroup"
    proc.write_text(membership, encoding="ascii")
    root = tmp_path / "fs"
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="ascii")
    monkeypatch.setattr(fem, "_PROC_CGROUP", str(proc))
    monkeypatch.setattr(fem, "_CGROUP_ROOT", str(root))


def test_available_memory_honours_a_cgroup_v2_limit_on_the_group_or_an_ancestor(
    tmp_path, monkeypatch
):
    _cgroups(
        tmp_path,
        monkeypatch,
        "0::/jobs/run\n",
        {
            "memory.max": "max\n",
            "memory.current": "900000000\n",
            "jobs/memory.max": "300000000\n",
            "jobs/memory.current": "120000000\n",
            "jobs/run/memory.max": "max\n",
            "jobs/run/memory.current": "100000000\n",
        },
    )
    assert fem._cgroup_headroom() == 180_000_000
    assert fem.available_memory() == 180_000_000


def test_available_memory_honours_a_cgroup_v1_limit(tmp_path, monkeypatch):
    _cgroups(
        tmp_path,
        monkeypatch,
        "12:pids:/job\n4:memory:/job\n0::/\n",
        {
            "memory/job/memory.limit_in_bytes": "200000000\n",
            "memory/job/memory.usage_in_bytes": "150000000\n",
            "memory/memory.limit_in_bytes": "9223372036854771712\n",
            "memory/memory.usage_in_bytes": "2000000000\n",
        },
    )
    assert fem.available_memory() == 50_000_000


def test_available_memory_without_a_cgroup_limit_is_the_system_figure(tmp_path, monkeypatch):
    _cgroups(tmp_path, monkeypatch, "0::/\n", {"memory.max": "max\n", "memory.current": "1\n"})
    assert fem._cgroup_headroom() is None
    assert fem.available_memory() == fem._meminfo_available()


# ---------------------------------------------------------------------------
# assembly entry point validation
# ---------------------------------------------------------------------------

class _BarModel:
    """Axial-only model used to exercise the generic assembly contract."""

    def __init__(self, n_elements=4):
        self.mesh = IntervalMesh(1.0, n_elements)

    def quadratures(self, kernel, horizon_radius):
        return {2: AxisQuadrature(HatRows(self.mesh, 2), kernel, horizon_radius)}

    def assemble(self, quadratures):
        quad = quadratures[2]
        K = np.asfortranarray(gram(quad.B, quad.B, quad.weights))
        free = np.arange(self.mesh.n_nodes)
        return _dense_system(K, quad.N.T @ quad.weights, free)


class _GrowingKernel(ExponentialKernel):
    def eval(self, distance):
        return 1.0 + np.asarray(distance)


def test_assemble_rejects_bad_horizon():
    with pytest.raises(ValueError, match="positive"):
        fem.assemble(_BarModel(), ExponentialKernel(0.1), 0.0)


def test_assemble_rejects_inadmissible_kernel():
    with pytest.raises(KernelError):
        fem.assemble(_BarModel(), _GrowingKernel(0.1), 0.3)


def test_assemble_runs_model_assembly():
    system = fem.assemble(_BarModel(), ExponentialKernel(0.05), 0.2)
    assert system.n_dofs == 5
    np.testing.assert_allclose(system.matrix, system.matrix.T, atol=1e-15)


@pytest.mark.parametrize("kernel", [ExponentialKernel(0.08), PowerLawKernel(0.75)])
def test_bar_stiffness_symmetric_with_boundary_clipped_horizons(kernel):
    # horizon reaches the walls, so interior rows see unequal side lengths;
    # the Gram construction keeps the matrix symmetric regardless
    system = fem.assemble(_BarModel(n_elements=20), kernel, 0.4)
    K = system.matrix
    assert np.max(np.abs(K - K.T)) <= 1e-12 * np.max(np.abs(K))


def test_bar_constant_field_in_matrix_nullspace():
    system = fem.assemble(_BarModel(n_elements=12), ExponentialKernel(0.05), 0.25)
    ones = np.ones(system.n_dofs)
    scale = np.linalg.norm(system.matrix, 2)
    assert np.linalg.norm(system.matrix @ ones) <= 1e-10 * scale


@pytest.mark.parametrize("value", [0.0, -0.0, np.inf, np.nan])
def test_a_metric_that_leaves_no_ratio_is_a_solver_error(value):
    u = np.array([1.0, value])
    assert fem.metric(u, 0) == 1.0
    with pytest.raises(fem.SolverError, match="the metric |u| at dof 1 is"):
        fem.metric(u, 1)
