import tracemalloc

import numpy as np
import pytest

from nle import fem, plate
from nle.fem import (
    BENDING_POINTS,
    SHEAR_POINTS,
    AxisQuadrature,
    RectangleMesh,
    gauss_rule,
    gram,
)
from nle.kernels import ExponentialKernel, LocalDelta, power_law
from nle.operator import HorizonSpec, build_operator_matrix
from nle.plate import (
    MindlinPlateModel,
    PlateDisplacement,
    PlateSection,
    plate_strains,
)
from nle.results import KernelSpec, sweep

SECTION = PlateSection()


def test_section_validation():
    with pytest.raises(ValueError, match="positive"):
        PlateSection(thickness=0.0)
    with pytest.raises(ValueError, match="poisson"):
        PlateSection(poisson=0.5)
    with pytest.raises(ValueError, match="boundary"):
        MindlinPlateModel(SECTION, 1.0, "welded")


def test_odd_mesh_fails_before_any_solve(monkeypatch):
    solves = []
    solve = fem.solve

    def counting_solve(*args, **kwargs):
        solves.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(fem, "solve", counting_solve)
    for nx, ny in ((9, 8), (8, 9)):
        with pytest.raises(ValueError, match="even"):
            model = MindlinPlateModel(SECTION, 1.0, "clamped", nx=nx, ny=ny)
            sweep(model, [KernelSpec("exponential", 1e-3)], [0.5])
    assert solves == []


# ---------------------------------------------------------------------------
# local-limit equivalence with an independent textbook Q4 assembly
# ---------------------------------------------------------------------------

def _textbook_local_mindlin(section, mesh):
    """Element-loop Q4 Mindlin stiffness and UDTL load, interleaved DOFs.

    Bilinear shape functions; membrane and bending with the 2x2 rule,
    transverse shear with 1x1 (selective reduced integration).  DOF order
    per node: (u, v, w, theta_x, theta_y), global index 5*node + field.
    """
    E, nu = section.modulus, section.poisson
    C = E / (1 - nu ** 2) * np.array([[1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2]])
    t = section.thickness
    Dm = t * C
    Db = t ** 3 / 12 * C
    Ds = section.shear_correction * section.shear_modulus * t * np.eye(2)

    nxn, nyn = mesh.x_axis.n_nodes, mesh.y_axis.n_nodes
    hx, hy = mesh.x_axis.spacing, mesh.y_axis.spacing
    ndof = 5 * nxn * nyn
    K = np.zeros((ndof, ndof))
    F = np.zeros(ndof)
    g2 = 1 / np.sqrt(3)
    corners = [(-1, -1), (1, -1), (1, 1), (-1, 1)]

    def shape(xi, eta):
        N = 0.25 * np.array([(1 + cx * xi) * (1 + cy * eta) for cx, cy in corners])
        dNdx = 0.25 * np.array([cx * (1 + cy * eta) for cx, cy in corners]) * 2 / hx
        dNdy = 0.25 * np.array([cy * (1 + cx * xi) for cx, cy in corners]) * 2 / hy
        return N, dNdx, dNdy

    for ej in range(mesh.y_axis.n_elements):
        for ei in range(mesh.x_axis.n_elements):
            nodes = [
                mesh.node(ei, ej),
                mesh.node(ei + 1, ej),
                mesh.node(ei + 1, ej + 1),
                mesh.node(ei, ej + 1),
            ]
            dofs = np.array([5 * n + f for n in nodes for f in range(5)])
            Ke = np.zeros((20, 20))
            Fe = np.zeros(20)
            for xi, eta in [(sx * g2, sy * g2) for sx, sy in corners]:
                N, dNdx, dNdy = shape(xi, eta)
                w2d = hx * hy / 4
                Bm = np.zeros((3, 20))
                Bb = np.zeros((3, 20))
                for a in range(4):
                    Bm[0, 5 * a + 0] = dNdx[a]
                    Bm[1, 5 * a + 1] = dNdy[a]
                    Bm[2, 5 * a + 0] = dNdy[a]
                    Bm[2, 5 * a + 1] = dNdx[a]
                    Bb[0, 5 * a + 3] = dNdx[a]
                    Bb[1, 5 * a + 4] = dNdy[a]
                    Bb[2, 5 * a + 3] = dNdy[a]
                    Bb[2, 5 * a + 4] = dNdx[a]
                Ke += w2d * (Bm.T @ Dm @ Bm + Bb.T @ Db @ Bb)
                for a in range(4):
                    Fe[5 * a + 2] += w2d * N[a]
            N, dNdx, dNdy = shape(0.0, 0.0)
            Bs = np.zeros((2, 20))
            for a in range(4):
                Bs[0, 5 * a + 2] = dNdx[a]
                Bs[0, 5 * a + 3] = -N[a]
                Bs[1, 5 * a + 2] = dNdy[a]
                Bs[1, 5 * a + 4] = -N[a]
            Ke += hx * hy * (Bs.T @ Ds @ Bs)
            K[np.ix_(dofs, dofs)] += Ke
            F[dofs] += Fe
    return K, F


def _interleave_permutation(nn):
    return np.array([5 * node + f for f in range(5) for node in range(nn)])


def test_local_delta_assembly_matches_textbook_q4():
    section = PlateSection(length_x=1.2, length_y=0.9)
    for boundary in ("clamped", "simply_supported"):
        model = MindlinPlateModel(section, pressure=3.0, boundary=boundary, nx=4, ny=2)
        system = model.assemble(LocalDelta(), 0.5)
        K_texbook, F_unit = _textbook_local_mindlin(section, model.mesh)
        perm = _interleave_permutation(model.mesh.n_nodes)
        K_expected = K_texbook[np.ix_(perm, perm)][np.ix_(system.free, system.free)]
        scale = np.max(np.abs(K_expected))
        assert np.max(np.abs(system.matrix - K_expected)) <= 1e-10 * scale
        np.testing.assert_allclose(system.load, 3.0 * F_unit[perm], rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# the free block against the full Kronecker assembly
# ---------------------------------------------------------------------------

def _full_kron_assembly(model, kernel, horizon_radius):
    """Full 5 n_nodes square stiffness as sums of np.kron terms, plus the fixed dofs.

    The assembly that the free-block construction replaced, kept as its
    reference: every entry of the free block must equal K[free][:, free]
    bit for bit, and the edge loops below must fix the dofs outside free.
    """
    mesh, s = model.mesh, model.section
    nn = mesh.n_nodes
    c11 = s.modulus / (1.0 - s.poisson ** 2)
    c12 = s.poisson * c11
    c33 = s.shear_modulus
    memb = s.thickness
    bend_scale = s.thickness ** 3 / 12.0
    shear_scale = s.shear_correction * s.shear_modulus * s.thickness
    quads = {
        (ax, npts): AxisQuadrature(axis, gauss_rule(npts), kernel, horizon_radius)
        for ax, axis in (("x", mesh.x_axis), ("y", mesh.y_axis))
        for npts in (BENDING_POINTS, SHEAR_POINTS)
    }

    def g(ax, npts, left, right):
        q = quads[(ax, npts)]
        rows = {"N": q.N, "B": q.B}
        return gram(rows[left], rows[right], q.weights)

    b, sh = BENDING_POINTS, SHEAR_POINTS
    kron = np.kron
    direct_x = c11 * kron(g("y", b, "N", "N"), g("x", b, "B", "B")) + c33 * kron(
        g("y", b, "B", "B"), g("x", b, "N", "N")
    )
    direct_y = c11 * kron(g("y", b, "B", "B"), g("x", b, "N", "N")) + c33 * kron(
        g("y", b, "N", "N"), g("x", b, "B", "B")
    )
    cross = c12 * kron(g("y", b, "N", "B"), g("x", b, "B", "N")) + c33 * kron(
        g("y", b, "B", "N"), g("x", b, "N", "B")
    )
    shear_mass = kron(g("y", sh, "N", "N"), g("x", sh, "N", "N"))
    U, V, W, TX, TY = range(5)
    K = np.zeros((5 * nn, 5 * nn))

    def blk(f, gf):
        return np.s_[f * nn : (f + 1) * nn, gf * nn : (gf + 1) * nn]

    K[blk(U, U)] = memb * direct_x
    K[blk(V, V)] = memb * direct_y
    K[blk(U, V)] = memb * cross
    K[blk(V, U)] = memb * cross.T
    K[blk(TX, TX)] = bend_scale * direct_x + shear_scale * shear_mass
    K[blk(TY, TY)] = bend_scale * direct_y + shear_scale * shear_mass
    K[blk(TX, TY)] = bend_scale * cross
    K[blk(TY, TX)] = bend_scale * cross.T
    K[blk(W, W)] = shear_scale * (
        kron(g("y", sh, "N", "N"), g("x", sh, "B", "B"))
        + kron(g("y", sh, "B", "B"), g("x", sh, "N", "N"))
    )
    w_tx = -shear_scale * kron(g("y", sh, "N", "N"), g("x", sh, "B", "N"))
    w_ty = -shear_scale * kron(g("y", sh, "B", "N"), g("x", sh, "N", "N"))
    K[blk(W, TX)] = w_tx
    K[blk(TX, W)] = w_tx.T
    K[blk(W, TY)] = w_ty
    K[blk(TY, W)] = w_ty.T

    nx, ny = mesh.x_axis.n_elements, mesh.y_axis.n_elements
    x_edges = [mesh.node(i, j) for i in (0, nx) for j in range(ny + 1)]
    y_edges = [mesh.node(i, j) for j in (0, ny) for i in range(nx + 1)]
    fixed = set()
    if model.boundary == "clamped":
        for node in set(x_edges) | set(y_edges):
            fixed.update(f * nn + node for f in range(5))
    else:
        for node in x_edges:
            fixed.update(f * nn + node for f in (V, W, TY))
        for node in y_edges:
            fixed.update(f * nn + node for f in (U, W, TX))
    return K, fixed


@pytest.mark.parametrize("boundary", ["clamped", "simply_supported"])
@pytest.mark.parametrize(
    "kernel",
    [ExponentialKernel(2.5e-3), power_law(0.7), LocalDelta()],
    ids=["exponential", "power_law", "local"],
)
@pytest.mark.parametrize(
    "shape", [(6, 6, 1.0, 1.0), (4, 8, 1.3, 0.7)], ids=["square", "oblong"]
)
def test_free_block_equals_the_full_kronecker_assembly_bitwise(boundary, kernel, shape):
    nx, ny, lx, ly = shape
    model = MindlinPlateModel(
        PlateSection(length_x=lx, length_y=ly), 2.0, boundary, nx=nx, ny=ny
    )
    system = model.assemble(kernel, 0.5)
    K_full, fixed = _full_kron_assembly(model, kernel, 0.5)
    free = np.setdiff1d(np.arange(K_full.shape[0]), sorted(fixed))
    np.testing.assert_array_equal(system.free, free)
    assert system.matrix.flags.f_contiguous
    expected = K_full[np.ix_(free, free)]
    assert np.array_equal(system.matrix, expected)
    # array_equal takes -0.0 for +0.0; the bytes tell them apart
    assert system.matrix.tobytes(order="F") == expected.tobytes(order="F")


@pytest.mark.parametrize("boundary", ["clamped", "simply_supported"])
def test_assembly_never_allocates_the_full_matrix(boundary):
    model = MindlinPlateModel(SECTION, 1.0, boundary, nx=12, ny=12)
    kernel = ExponentialKernel(2.5e-3)
    model.assemble(kernel, 0.5)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        system = model.assemble(kernel, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full_bytes = 8 * (5 * model.mesh.n_nodes) ** 2
    assert system.matrix.nbytes <= peak < full_bytes


@pytest.mark.parametrize("boundary", ["clamped", "simply_supported"])
def test_assembly_temporaries_stay_below_one_field_block(boundary):
    model = MindlinPlateModel(SECTION, 1.0, boundary, nx=12, ny=12)
    kernel = ExponentialKernel(2.5e-3)
    model.assemble(kernel, 0.5)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        system = model.assemble(kernel, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    free_per_field = np.bincount(system.free // model.mesh.n_nodes, minlength=5)
    smallest_field_block = 8 * int(free_per_field.min()) ** 2
    assert peak - system.matrix.nbytes < smallest_field_block


@pytest.mark.parametrize(
    "shape, builds",
    [((6, 6, 1.0, 1.0), 2), ((6, 6, 1.3, 1.0), 4), ((6, 8, 1.0, 1.0), 4)],
    ids=["square", "longer", "finer"],
)
def test_equal_axes_share_one_quadrature_per_rule(monkeypatch, shape, builds):
    rules = []

    def counting(axis, rule, *args):
        rules.append((axis.length, axis.n_elements, rule.points.size))
        return AxisQuadrature(axis, rule, *args)

    monkeypatch.setattr(plate, "AxisQuadrature", counting)
    nx, ny, lx, ly = shape
    model = MindlinPlateModel(PlateSection(length_x=lx, length_y=ly), 1.0, "clamped", nx=nx, ny=ny)
    model.assemble(ExponentialKernel(2.5e-3), 0.5)
    assert len(rules) == len(set(rules)) == builds


def test_plate_solve_factors_the_assembled_block_in_place(monkeypatch):
    model = MindlinPlateModel(SECTION, 1.0, "clamped", nx=8, ny=8)
    assembled, factored = [], []
    assemble, cho_factor = fem.assemble, fem.linalg.cho_factor

    def keep_system(*args, **kwargs):
        assembled.append(assemble(*args, **kwargs))
        return assembled[-1]

    def keep_factor(a, *args, **kwargs):
        factor = cho_factor(a, *args, **kwargs)
        factored.append((a, factor[0]))
        return factor

    monkeypatch.setattr(fem, "assemble", keep_system)
    monkeypatch.setattr(fem.linalg, "cho_factor", keep_factor)
    fem.solve_metric(model, ExponentialKernel(2.5e-3), 0.5)
    ((a, c),), (system,) = factored, assembled
    assert a is system.matrix and a.flags.f_contiguous
    assert np.shares_memory(c, system.matrix)


# ---------------------------------------------------------------------------
# boundary condition sets
# ---------------------------------------------------------------------------

def _fixed_dofs(system):
    return set(np.setdiff1d(np.arange(system.n_dofs), system.free).tolist())


def test_clamped_constraints_fix_all_dofs_on_all_edges():
    model = MindlinPlateModel(SECTION, 1.0, "clamped", nx=4, ny=2)
    fixed = _fixed_dofs(model.assemble(LocalDelta(), 0.5))
    mesh = model.mesh
    nn = mesh.n_nodes
    boundary_nodes = {
        mesh.node(i, j)
        for i in range(5)
        for j in range(3)
        if i in (0, 4) or j in (0, 2)
    }
    assert len(boundary_nodes) == 12
    assert len(fixed) == 5 * 12
    for node in boundary_nodes:
        for f in range(5):
            assert f * nn + node in fixed


def test_simply_supported_constraints_per_edge():
    model = MindlinPlateModel(SECTION, 1.0, "simply_supported", nx=4, ny=2)
    fixed = _fixed_dofs(model.assemble(LocalDelta(), 0.5))
    mesh = model.mesh
    nn = mesh.n_nodes
    U, V, W, TX, TY = range(5)
    # midpoint of the x = 0 edge: tangential displacement v, deflection w
    # and tangential rotation theta_y are fixed, u and theta_x stay free
    side = mesh.node(0, 1)
    assert {V * nn + side, W * nn + side, TY * nn + side} <= fixed
    assert U * nn + side not in fixed
    assert TX * nn + side not in fixed
    # midpoint of the y = 0 edge: the mirrored set
    bottom = mesh.node(2, 0)
    assert {U * nn + bottom, W * nn + bottom, TX * nn + bottom} <= fixed
    assert V * nn + bottom not in fixed
    assert TY * nn + bottom not in fixed
    # corners belong to both edge families, so every DOF is fixed there
    corner = mesh.node(0, 0)
    for f in range(5):
        assert f * nn + corner in fixed
    # 6 x-edge nodes * 3 + 10 y-edge nodes * 3 - 4 shared corner w's
    assert len(fixed) == 44


# ---------------------------------------------------------------------------
# deflection oracles
# ---------------------------------------------------------------------------

def _navier_center_deflection(section, q, n_modes=199):
    """Double-sine series for the hard simply supported Mindlin plate.

    Per odd mode pair the deflection amplitude is the Kirchhoff value plus
    a shear-layer term: W = Q*(1/(D*k^4) + 1/(S*k^2)) with k^2 = a^2+b^2.
    """
    E, nu, t = section.modulus, section.poisson, section.thickness
    D = E * t ** 3 / (12 * (1 - nu ** 2))
    S = section.shear_correction * section.shear_modulus * t
    total = 0.0
    for m in range(1, n_modes + 1, 2):
        for n in range(1, n_modes + 1, 2):
            a = m * np.pi / section.length_x
            b = n * np.pi / section.length_y
            k2 = a * a + b * b
            amplitude = 16 * q / (np.pi ** 2 * m * n) * (1 / (D * k2 * k2) + 1 / (S * k2))
            total += amplitude * np.sin(m * np.pi / 2) * np.sin(n * np.pi / 2)
    return total


def _rows(boundary, specs, n=24):
    """Columns of each row of a one-horizon sweep at l_f = 0.5 on an n x n mesh, by name."""
    table = sweep(MindlinPlateModel(SECTION, 1.0, boundary, nx=n, ny=n), specs, [0.5])
    return [dict(zip(table.columns, row)) for row in table.rows]


def test_local_ssss_center_deflection_matches_navier_series():
    [row] = _rows("simply_supported", [KernelSpec("local")])
    expected = _navier_center_deflection(SECTION, 1.0)
    assert row["w_center_local"] == pytest.approx(expected, rel=1e-2)
    assert row["w_center_nonlocal"] == row["w_center_local"]


@pytest.mark.parametrize("boundary", ["clamped", "simply_supported"])
@pytest.mark.parametrize(
    "spec",
    [KernelSpec("exponential", 1e-6), KernelSpec("power_law", 1.0)],
    ids=["exponential-collapsed", "power-law-alpha-1"],
)
def test_local_limit_recovers_unit_softening_ratio(spec, boundary):
    [row] = _rows(boundary, [spec], n=12)
    assert row["w_bar"] == pytest.approx(1.0, abs=2e-3)


@pytest.mark.parametrize("boundary", ["clamped", "simply_supported"])
def test_nonlocal_kernels_soften_both_boundary_sets(boundary):
    specs = [KernelSpec("exponential", 2.5e-3), KernelSpec("power_law", 0.8)]
    exp, power = _rows(boundary, specs, n=12)
    assert exp["w_bar"] > 1.0
    assert power["w_bar"] > 1.0


def test_ssss_deflection_field_symmetric_under_reflections():
    model = MindlinPlateModel(SECTION, 1.0, "simply_supported", nx=12, ny=12)
    u = fem.solve(fem.assemble(model, ExponentialKernel(2.5e-3), 0.5))
    w = PlateDisplacement.from_vector(model.mesh, u).w
    peak = np.max(np.abs(w))
    assert np.max(np.abs(w - w[::-1, :])) <= 1e-8 * peak
    assert np.max(np.abs(w - w[:, ::-1])) <= 1e-8 * peak
    # square plate with identical axis treatment: diagonal symmetry too
    assert np.max(np.abs(w - w.T)) <= 1e-8 * peak


# ---------------------------------------------------------------------------
# strain evaluation
# ---------------------------------------------------------------------------

def _axis_operator(mesh_axis, kernel, l_f, points):
    horizon = HorizonSpec(l_f=l_f, x_min=0.0, x_max=mesh_axis.length)
    return build_operator_matrix(mesh_axis.nodes, points, horizon, kernel)


def _displacement(mesh, **fields):
    shape = (mesh.y_axis.n_nodes, mesh.x_axis.n_nodes)
    data = {name: np.zeros(shape) for name in ("u", "v", "w", "theta_x", "theta_y")}
    data.update(fields)
    return PlateDisplacement(mesh.x_axis.nodes, mesh.y_axis.nodes, **data)


def test_plate_strains_vanish_for_rigid_translation():
    mesh = RectangleMesh(1.0, 1.0, 6, 6)
    pts = np.linspace(0.1, 0.9, 7)
    op_x = _axis_operator(mesh.x_axis, ExponentialKernel(0.08), 0.3, pts)
    op_y = _axis_operator(mesh.y_axis, ExponentialKernel(0.08), 0.3, pts)
    disp = _displacement(mesh, w=np.full((7, 7), 0.21))
    for strain in plate_strains(disp, op_x, op_y, z=0.01):
        np.testing.assert_allclose(strain, 0.0, atol=1e-14)


def test_plate_strains_vanish_for_in_plane_rotation():
    mesh = RectangleMesh(1.0, 1.0, 6, 6)
    pts = np.linspace(0.1, 0.9, 7)
    op_x = _axis_operator(mesh.x_axis, ExponentialKernel(0.08), 0.3, pts)
    op_y = _axis_operator(mesh.y_axis, ExponentialKernel(0.08), 0.3, pts)
    a = 0.003
    X, Y = np.meshgrid(mesh.x_axis.nodes, mesh.y_axis.nodes)
    disp = _displacement(mesh, u=-a * Y, v=a * X)
    eps_xx, eps_yy, gamma_xy, gamma_xz, gamma_yz = plate_strains(disp, op_x, op_y, z=0.0)
    np.testing.assert_allclose(eps_xx, 0.0, atol=a * 1e-12)
    np.testing.assert_allclose(eps_yy, 0.0, atol=a * 1e-12)
    np.testing.assert_allclose(gamma_xy, 0.0, atol=a * 1e-12)
    np.testing.assert_allclose(gamma_xz, 0.0, atol=1e-15)
    np.testing.assert_allclose(gamma_yz, 0.0, atol=1e-15)


def test_plate_local_axial_strain_of_square_field():
    mesh = RectangleMesh(1.0, 1.0, 5, 5)
    x_mids = 0.5 * (mesh.x_axis.nodes[:-1] + mesh.x_axis.nodes[1:])
    y_mids = 0.5 * (mesh.y_axis.nodes[:-1] + mesh.y_axis.nodes[1:])
    op_x = _axis_operator(mesh.x_axis, LocalDelta(), 0.3, x_mids)
    op_y = _axis_operator(mesh.y_axis, LocalDelta(), 0.3, y_mids)
    X, _ = np.meshgrid(mesh.x_axis.nodes, mesh.y_axis.nodes)
    disp = _displacement(mesh, u=X ** 2)
    eps_xx = plate_strains(disp, op_x, op_y, z=0.0)[0]
    np.testing.assert_allclose(eps_xx, np.broadcast_to(2.0 * x_mids, (5, 5)), rtol=1e-13)
