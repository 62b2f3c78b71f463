import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nle import fem, plate
from nle.fem import (
    BENDING_POINTS,
    SHEAR_POINTS,
    Axes,
    AxisQuadrature,
    HatRows,
    IntervalMesh,
    gram,
)
from nle.kernels import ExponentialKernel, LocalDelta, power_law
from nle.operator import build_operator_matrix
from nle.plate import (
    MindlinPlateModel,
    PlateSection,
)
from nle.results import KernelSpec, sweep
from strain_oracle import PlateDisplacement, plate_strains

SECTION = PlateSection()


def test_section_validation():
    with pytest.raises(ValueError, match="positive"):
        PlateSection(thickness=0.0)
    with pytest.raises(ValueError, match="poisson"):
        PlateSection(poisson=0.5)
    with pytest.raises(ValueError, match="boundary"):
        MindlinPlateModel(SECTION, 1.0, "welded")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("length_x", 0.0, "length_x must be positive (got 0.0)"),
        ("thickness", 0.0, "thickness must be positive (got 0.0)"),
        ("modulus", 0.0, "modulus must be positive (got 0.0)"),
        ("shear_correction", -1.0, "shear_correction must be positive (got -1.0)"),
        ("poisson", 0.5, "poisson ratio must lie in [0, 0.5) (got 0.5)"),
        ("poisson", -0.1, "poisson ratio must lie in [0, 0.5) (got -0.1)"),
    ],
)
def test_invalid_section_names_its_field_exactly(field, value, message):
    with pytest.raises(ValueError) as raised:
        PlateSection(**{field: value})
    assert str(raised.value) == message


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
        system = fem.assemble(model, LocalDelta(), 0.5)
        K_texbook, F_unit = _textbook_local_mindlin(section, model.axes)
        perm = _interleave_permutation(model.axes.n_nodes)
        K_expected = K_texbook[np.ix_(perm, perm)][np.ix_(system.free, system.free)]
        scale = np.max(np.abs(K_expected))
        assert np.max(np.abs(np.tril(system.matrix) - np.tril(K_expected))) <= 1e-10 * scale
        np.testing.assert_allclose(system.load, 3.0 * F_unit[perm], rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# the free block against the full Kronecker assembly
# ---------------------------------------------------------------------------

def _full_kron_assembly(model, kernel, horizon_radius):
    """Full 5 n_nodes square stiffness as sums of np.kron terms, plus the fixed dofs.

    The assembly that the free-block construction replaced, kept as its
    reference: every entry of the free block's lower triangle must equal
    K[free][:, free] bit for bit, and the edge loops below must fix the dofs
    outside free.
    """
    mesh, s = model.axes, model.section
    nn = mesh.n_nodes
    c11 = s.modulus / (1.0 - s.poisson ** 2)
    c12 = s.poisson * c11
    c33 = s.shear_modulus
    memb = s.thickness
    bend_scale = s.thickness ** 3 / 12.0
    shear_scale = s.shear_correction * s.shear_modulus * s.thickness
    quads = {
        (ax, npts): AxisQuadrature(HatRows(axis, npts), kernel, horizon_radius)
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
    if model.case == "clamped":
        for node in set(x_edges) | set(y_edges):
            fixed.update(f * nn + node for f in range(5))
    else:
        for node in x_edges:
            fixed.update(f * nn + node for f in (V, W, TY))
        for node in y_edges:
            fixed.update(f * nn + node for f in (U, W, TX))
    return K, fixed


KERNELS = pytest.mark.parametrize(
    "kernel",
    [ExponentialKernel(2.5e-3), power_law(0.7), LocalDelta()],
    ids=["exponential", "power_law", "local"],
)
SHAPES = pytest.mark.parametrize(
    "shape", [(6, 6, 1.0, 1.0), (4, 8, 1.3, 0.7)], ids=["square", "oblong"]
)


@pytest.mark.parametrize("boundary", ["clamped", "simply_supported"])
@KERNELS
@SHAPES
def test_free_block_equals_the_full_kronecker_assembly_bitwise(
    monkeypatch, boundary, kernel, shape
):
    nx, ny, lx, ly = shape
    model = MindlinPlateModel(
        PlateSection(length_x=lx, length_y=ly), 2.0, boundary, nx=nx, ny=ny
    )
    K_full, fixed = _full_kron_assembly(model, kernel, 0.5)
    free = np.setdiff1d(np.arange(K_full.shape[0]), sorted(fixed))
    expected = K_full[np.ix_(free, free)]
    # these meshes fit one y node's columns in the default slab; 1 entry
    # writes one column per slab, and 64 one to three, with a short last
    # slab where they do not divide a y node's columns
    for slab_entries in (fem.SLAB_ENTRIES, 1, 64):
        monkeypatch.setattr(fem, "SLAB_ENTRIES", slab_entries)
        system = fem.assemble(model, kernel, 0.5)
        np.testing.assert_array_equal(system.free, free)
        assert system.matrix.flags.f_contiguous
        assert np.array_equal(np.tril(system.matrix), np.tril(expected))
        # array_equal takes -0.0 for +0.0; the bytes tell them apart
        assert np.tril(system.matrix).tobytes() == np.tril(expected).tobytes()


@pytest.mark.parametrize("boundary", ["clamped", "simply_supported"])
@KERNELS
@SHAPES
def test_product_equals_the_full_kronecker_assembly(boundary, kernel, shape):
    nx, ny, lx, ly = shape
    model = MindlinPlateModel(
        PlateSection(length_x=lx, length_y=ly), 2.0, boundary, nx=nx, ny=ny
    )
    K_full, fixed = _full_kron_assembly(model, kernel, 0.5)
    free = np.setdiff1d(np.arange(K_full.shape[0]), sorted(fixed))
    expected = K_full[np.ix_(free, free)]
    system = fem.assemble(model, kernel, 0.5)
    x = np.random.default_rng(3).standard_normal((free.size, 3))
    for probe in (x[:, 0], x):
        exact = expected @ probe
        error = np.linalg.norm(system.product(probe) - exact)
        assert error <= 1e-13 * np.linalg.norm(exact)


@pytest.mark.parametrize("boundary", ["clamped", "simply_supported"])
@pytest.mark.parametrize("slab_entries", [fem.SLAB_ENTRIES, 64])
def test_a_reused_block_gets_its_lower_triangle_and_nothing_above_it(
    monkeypatch, boundary, slab_entries
):
    # every entry above the diagonal of a reused block keeps what it held,
    # and the lower triangle takes the bytes of a fresh assembly in the
    # default slabs
    model = MindlinPlateModel(SECTION, 1.0, boundary, nx=8, ny=8)
    kernel = ExponentialKernel(2.5e-3)
    fresh = fem.assemble(model, kernel, 0.5).matrix
    monkeypatch.setattr(fem, "SLAB_ENTRIES", slab_entries)
    n = model.axes.free_dofs
    block = np.full((n, n), np.nan, order="F")
    system = model.assemble(model.quadratures(kernel, 0.5), block)
    assert system.matrix is block
    rows, columns = np.indices((n, n))
    assert np.isnan(block[rows < columns]).all()
    assert np.tril(block).tobytes() == np.tril(fresh).tobytes()


@pytest.mark.parametrize("boundary", ["clamped", "simply_supported"])
def test_assembly_never_allocates_the_full_matrix(boundary):
    model = MindlinPlateModel(SECTION, 1.0, boundary, nx=12, ny=12)
    kernel = ExponentialKernel(2.5e-3)
    fem.assemble(model, kernel, 0.5)  # warm caches outside the measurement
    # tracemalloc does not see a block in its own mapping, so the block is
    # allocated before the measurement and the assembly writes into it
    block = fem.dense_block(model.axes.free_dofs)
    tracemalloc.start()
    try:
        system = model.assemble(model.quadratures(kernel, 0.5), block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.matrix is block
    free_per_field = np.bincount(system.free // model.axes.n_nodes, minlength=5)
    smallest_field_block = 8 * int(free_per_field.min()) ** 2
    full_bytes = 8 * (5 * model.axes.n_nodes) ** 2
    assert peak < smallest_field_block < full_bytes


@pytest.mark.parametrize("boundary", ["clamped", "simply_supported"])
def test_assembly_temporaries_stay_below_one_field_block(boundary):
    model = MindlinPlateModel(SECTION, 1.0, boundary, nx=12, ny=12)
    kernel = ExponentialKernel(2.5e-3)
    fem.assemble(model, kernel, 0.5)  # warm caches outside the measurement
    # tracemalloc does not see a block in its own mapping, so the block is
    # allocated before the measurement and the assembly writes into it
    block = fem.dense_block(model.axes.free_dofs)
    tracemalloc.start()
    try:
        system = model.assemble(model.quadratures(kernel, 0.5), block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.matrix is block
    free_per_field = np.bincount(system.free // model.axes.n_nodes, minlength=5)
    smallest_field_block = 8 * int(free_per_field.min()) ** 2
    assert peak < smallest_field_block


@pytest.mark.parametrize(
    "shape, builds",
    [((6, 6, 1.0, 1.0), 2), ((6, 6, 1.3, 1.0), 4), ((6, 8, 1.0, 1.0), 4)],
    ids=["square", "longer", "finer"],
)
def test_equal_axes_share_one_quadrature_per_rule(monkeypatch, shape, builds):
    rules = []

    def counting(hats, *args):
        rules.append((hats.mesh.length, hats.mesh.n_elements, hats.points.size))
        return AxisQuadrature(hats, *args)

    monkeypatch.setattr(plate, "AxisQuadrature", counting)
    nx, ny, lx, ly = shape
    model = MindlinPlateModel(PlateSection(length_x=lx, length_y=ly), 1.0, "clamped", nx=nx, ny=ny)
    model.quadratures(ExponentialKernel(2.5e-3), 0.5)
    assert len(rules) == len(set(rules)) == builds


_BACKED_BYTES = """
import resource
import sys
from nle import fem, openblas, plate
from nle.kernels import ExponentialKernel

openblas.pin()
nx = int(sys.argv[1])
model = plate.MindlinPlateModel(plate.PlateSection(), 1.0, "clamped", nx=nx, ny=nx)
quadratures = model.quadratures(ExponentialKernel(2.5e-3), 0.5)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
system = model.assemble(quadratures)
fem.solve(system)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(system.matrix.nbytes, 1024 * (after - before))
"""


@pytest.mark.parametrize("nx, share", [(24, 0.9), (32, 0.8)])
def test_a_large_block_backs_little_more_than_its_lower_triangle(nx, share):
    # A fresh process, so that its peak resident memory starts near its
    # resident memory.  The pages holding the lower triangle are 67% of the
    # 24x24 plate's 53 MiB block and 60% of the 32x32 plate's 176 MiB one,
    # because each column's lower part starts mid-page; the solve adds about
    # 9 and 15 MiB, mostly OpenBLAS's work buffers, which the memory check's
    # margin covers.  On huge pages the growth exceeds the whole block.
    proc = subprocess.run(
        [sys.executable, "-c", _BACKED_BYTES, str(nx)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(plate.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    block, growth = map(int, proc.stdout.split())
    n = MindlinPlateModel(PlateSection(), 1.0, "clamped", nx=nx, ny=nx).axes.free_dofs
    assert n == 5 * (nx - 1) ** 2 and block == 8 * n**2
    assert growth < share * block
    assert growth < fem.backed_bytes(n) + fem.blas_margin(n)


@pytest.mark.parametrize("boundary, dofs", [("clamped", 11045), ("simply_supported", 11421)])
def test_metadata_gives_the_span_and_backed_size_of_the_free_block(boundary, dofs):
    # 48 x 48: 47 free nodes per x row on the clamped plate, up to 49 (u and
    # theta_x) on the simply supported one
    model = MindlinPlateModel(PlateSection(), 1.0, boundary, 48, 48)
    assert model.axes.free_dofs == dofs
    meta = fem.block_metadata(model.axes.free_dofs)
    assert meta["block_dofs"] == str(dofs)
    assert meta["block_span_mib"] == f"{8 * dofs**2 / 2**20:.1f}"
    assert meta["block_backed_mib"] == f"{fem.backed_bytes(dofs) / 2**20:.1f}"
    assert float(meta["block_backed_mib"]) < 0.6 * float(meta["block_span_mib"])


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
    fixed = _fixed_dofs(fem.assemble(model, LocalDelta(), 0.5))
    mesh = model.axes
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
    fixed = _fixed_dofs(fem.assemble(model, LocalDelta(), 0.5))
    mesh = model.axes
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
    w = PlateDisplacement.from_vector(model.axes, u).w
    peak = np.max(np.abs(w))
    assert np.max(np.abs(w - w[::-1, :])) <= 1e-8 * peak
    assert np.max(np.abs(w - w[:, ::-1])) <= 1e-8 * peak
    # square plate with identical axis treatment: diagonal symmetry too
    assert np.max(np.abs(w - w.T)) <= 1e-8 * peak


# ---------------------------------------------------------------------------
# strain evaluation
# ---------------------------------------------------------------------------

def _axis_operator(mesh_axis, kernel, l_f, points):
    return build_operator_matrix(mesh_axis.nodes, points, l_f, kernel)


def _displacement(mesh, **fields):
    shape = (mesh.y_axis.n_nodes, mesh.x_axis.n_nodes)
    data = {name: np.zeros(shape) for name in ("u", "v", "w", "theta_x", "theta_y")}
    data.update(fields)
    return PlateDisplacement(mesh.x_axis.nodes, mesh.y_axis.nodes, **data)


def test_plate_strains_vanish_for_rigid_translation():
    mesh = Axes(IntervalMesh(1.0, 6), IntervalMesh(1.0, 6), ())
    pts = np.linspace(0.1, 0.9, 7)
    op_x = _axis_operator(mesh.x_axis, ExponentialKernel(0.08), 0.3, pts)
    op_y = _axis_operator(mesh.y_axis, ExponentialKernel(0.08), 0.3, pts)
    disp = _displacement(mesh, w=np.full((7, 7), 0.21))
    for strain in plate_strains(disp, op_x, op_y, z=0.01):
        np.testing.assert_allclose(strain, 0.0, atol=1e-14)


def test_plate_strains_vanish_for_in_plane_rotation():
    mesh = Axes(IntervalMesh(1.0, 6), IntervalMesh(1.0, 6), ())
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
    mesh = Axes(IntervalMesh(1.0, 5), IntervalMesh(1.0, 5), ())
    x_mids = 0.5 * (mesh.x_axis.nodes[:-1] + mesh.x_axis.nodes[1:])
    y_mids = 0.5 * (mesh.y_axis.nodes[:-1] + mesh.y_axis.nodes[1:])
    op_x = _axis_operator(mesh.x_axis, LocalDelta(), 0.3, x_mids)
    op_y = _axis_operator(mesh.y_axis, LocalDelta(), 0.3, y_mids)
    X, _ = np.meshgrid(mesh.x_axis.nodes, mesh.y_axis.nodes)
    disp = _displacement(mesh, u=X ** 2)
    eps_xx = plate_strains(disp, op_x, op_y, z=0.0)[0]
    np.testing.assert_allclose(eps_xx, np.broadcast_to(2.0 * x_mids, (5, 5)), rtol=1e-13)
