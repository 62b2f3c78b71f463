import dataclasses
import sys

import numpy as np
import pytest

from nle import fem
from nle.beam import BeamSection, TimoshenkoBeamModel
from nle.kernels import ExponentialKernel, LocalDelta, PowerLawKernel
from nle.plate import MindlinPlateModel, PlateSection
from nle.results import KernelSpec, Model, sweep

# model and kernel grid of each structure; the grid's first kernel needs a solve
MODELS = {
    "beam": (
        lambda: TimoshenkoBeamModel(BeamSection(), 1.0, "cantilever_tip", n_elements=20),
        KernelSpec("exponential", 1e-3),
    ),
    "plate": (
        lambda: MindlinPlateModel(PlateSection(), 1.0, "clamped", nx=4, ny=4),
        KernelSpec("power_law", 0.8),
    ),
}


def _count_solves(monkeypatch, model) -> tuple[list, list]:
    """Record the kernel of every system a serial sweep assembles, and every solve."""
    built, kernels, solves = [], [], []
    quadratures, assemble, solve = model.quadratures, model.assemble, fem.solve

    def keep_kernel(kernel, horizon_radius):
        built.append(kernel)
        return quadratures(kernel, horizon_radius)

    def counting_assemble(quads, block=None):
        kernels.append(built[-1])
        return assemble(quads, block)

    def counting_solve(*args, **kwargs):
        solves.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(model, "quadratures", keep_kernel)
    monkeypatch.setattr(model, "assemble", counting_assemble)
    monkeypatch.setattr(fem, "solve", counting_solve)
    return kernels, solves


@pytest.mark.parametrize("name", sorted(MODELS))
def test_models_provide_every_member_of_the_protocol(name):
    model = MODELS[name][0]()
    methods = [m for m in vars(Model) if not m.startswith("_") and callable(getattr(Model, m))]
    assert sorted(methods) == ["assemble", "quadratures"]
    for member in [*Model.__annotations__, *methods]:
        assert hasattr(model, member), member
    assert isinstance(model.axes, fem.Axes)
    assert all(callable(getattr(model, m)) for m in methods)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_local_delta_rows_reuse_the_shared_local_solve(name, monkeypatch):
    build, nonlocal_spec = MODELS[name]
    n_solves = {"beam": 2, "plate": 3}[name]
    model = build()
    kernels, solves = _count_solves(monkeypatch, model)
    grid = [nonlocal_spec, KernelSpec("power_law", 1.0), KernelSpec("local")]
    table = sweep(model, grid, [0.5, 1.0])
    # one shared local solve plus one per distinct operator set of the first
    # kernel: the beam's exponential 1e-3 builds the same rows at both
    # horizons, the plate's power law 0.8 does not
    assert len(solves) == n_solves
    assert table.metadata["solves"] == str(n_solves)
    assert [type(k) for k in kernels].count(LocalDelta) == 1
    delta_rows = table.rows[2:]
    assert len(delta_rows) == 4
    w_local = table.rows[0][5]
    assert all(r[4] == w_local and r[5] == w_local and r[6] == 1.0 for r in delta_rows)


# A grid that mixes operators coinciding across horizons (exponential: its
# moments saturate at l0 once the horizon exceeds ~37 l0; 1e-6 gives the
# local rows), operators that differ per horizon (power law below 1) and the
# local delta, with the distinct operator sets each model builds from it
# (local, exponential 5e-3, two power-law rows).
MIXED_GRID = [
    KernelSpec("exponential", 1e-6),
    KernelSpec("exponential", 5e-3),
    KernelSpec("power_law", 0.8),
    KernelSpec("power_law", 1.0),
    KernelSpec("local"),
]
MIXED_L_F = [0.5, 1.0]
MIXED_SOLVES = 4


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_values_equal_an_independent_solve_per_row(name, monkeypatch):
    build, _ = MODELS[name]
    model = build()
    expected = [
        fem.solve_metric(model, spec.build(), l_f) for spec in MIXED_GRID for l_f in MIXED_L_F
    ]
    _, solves = _count_solves(monkeypatch, model)
    table = sweep(model, MIXED_GRID, MIXED_L_F)
    assert len(solves) == MIXED_SOLVES
    assert table.metadata["solves"] == str(MIXED_SOLVES)
    values = table.column(table.columns[4])
    # bit for bit: the float bytes, so -0.0 and +0.0 would differ too
    assert [v.hex() for v in values] == [v.hex() for v in expected]


# Horizons below, at and past the reach (40 l0) of the exponential kernels:
# 5e-3 reaches 0.2, so its last three horizons share one key; 1e-3 reaches
# 0.04, so all of its horizons do.  Power law and local have no reach.
REACH_GRID = [
    KernelSpec("exponential", 5e-3),
    KernelSpec("exponential", 1e-3),
    KernelSpec("power_law", 0.8),
    KernelSpec("local"),
]
REACH_L_F = [0.1, 0.2, 0.3, 0.5]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_cache_hits_have_the_bytes_of_a_fresh_build(name, monkeypatch):
    build, _ = MODELS[name]
    model = build()
    quadratures = model.quadratures
    built = {}

    def keep(kernel, horizon_radius):
        q = built[kernel, horizon_radius] = quadratures(kernel, horizon_radius)
        return q

    monkeypatch.setattr(model, "quadratures", keep)
    sweep(model, REACH_GRID, REACH_L_F)
    hits = 0
    for spec in REACH_GRID:
        kernel = spec.build()
        for l_f in REACH_L_F:
            if (kernel, l_f) in built:
                continue
            hits += 1
            [first] = [
                q for (k, h), q in built.items()
                if k == kernel and min(h, k.reach) == min(l_f, kernel.reach)
            ]
            fresh = quadratures(kernel, l_f)
            assert fresh.keys() == first.keys()
            for rule in fresh:
                assert fresh[rule].B.tobytes() == first[rule].B.tobytes()
    # 2 horizons of exponential 5e-3 and 3 of 1e-3 reuse their key
    assert hits == 5


# CSV header and case column of each structure's sweep
HEADERS = {
    "beam": (
        ("kernel", "param", "l_f", "load_case", "w_max_nonlocal", "w_max_local", "w_bar", "status"),
        "cantilever_tip",
    ),
    "plate": (
        ("kernel", "param", "l_f", "bc", "w_center_nonlocal", "w_center_local", "w_bar", "status"),
        "clamped",
    ),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_rows_in_grid_order(name):
    build, _ = MODELS[name]
    grid = [KernelSpec("exponential", 1e-3), KernelSpec("power_law", 0.8), KernelSpec("local")]
    table = sweep(build(), grid, [0.5, 1.0])
    columns, case = HEADERS[name]
    assert table.columns == columns
    assert [(r[0], r[1], r[2]) for r in table.rows] == [
        ("exponential", 1e-3, 0.5),
        ("exponential", 1e-3, 1.0),
        ("power_law", 0.8, 0.5),
        ("power_law", 0.8, 1.0),
        ("local", None, 0.5),
        ("local", None, 1.0),
    ]
    assert all(r[3] == case and r[-1] == "ok" for r in table.rows)
    assert table.column("w_bar")[-2:] == [1.0, 1.0]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_error_rows_keep_sweep_alive(name):
    build, _ = MODELS[name]
    grid = [KernelSpec("power_law", 1.5), KernelSpec("exponential", 1e-3)]
    table = sweep(build(), grid, [0.5])
    assert table.rows[0][-1] == "error:KernelError"
    assert table.rows[0][4:7] == (None, None, None)
    assert table.rows[1][-1] == "ok"


@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_row_whose_solve_meets_nan_records_a_solver_error(name, monkeypatch):
    build, nonlocal_spec = MODELS[name]
    model = build()
    assemble, systems = model.assemble, []

    def nan_after_the_local_companion(quadratures, block=None):
        systems.append(assemble(quadratures, block))
        if len(systems) == 1:
            return systems[0]
        return dataclasses.replace(systems[-1], product=lambda x: np.full(np.shape(x), np.nan))

    monkeypatch.setattr(model, "assemble", nan_after_the_local_companion)
    table = sweep(model, [nonlocal_spec, KernelSpec("local")], [0.5])
    assert table.rows[0][4:] == (None, None, None, "error:SolverError")
    assert table.rows[1][-1] == "ok"


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_rejects_inadmissible_grid(name):
    build, _ = MODELS[name]
    with pytest.raises(ValueError, match="floor"):
        sweep(build(), [KernelSpec("power_law", 0.45)], [0.5])
    with pytest.raises(ValueError, match="nonempty"):
        sweep(build(), [], [0.5])


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_thread_count_does_not_change_rows(name):
    build, _ = MODELS[name]
    distinct = [KernelSpec("exponential", 1e-3), KernelSpec("power_law", 0.8)], [0.5, 0.75]
    # rows on shared operator sets, whose keys threads can miss at once
    coinciding = MIXED_GRID, MIXED_L_F
    for kernels, l_f_grid in (distinct, coinciding):
        serial = sweep(build(), kernels, l_f_grid)
        threaded = sweep(build(), kernels, l_f_grid, threads=4)
        assert serial.rows == threaded.rows


# Both load cases and both boundary sets, on small meshes, for the block reuse
# of one model's systems.
REUSE_MODELS = {
    "beam-cantilever": lambda: TimoshenkoBeamModel(BeamSection(), 1.0, "cantilever_tip", 20),
    "beam-ss_udtl": lambda: TimoshenkoBeamModel(BeamSection(), 1.0, "ss_udtl", 20),
    "plate-clamped": lambda: MindlinPlateModel(PlateSection(), 1.0, "clamped", nx=6, ny=6),
    "plate-simply_supported": lambda: MindlinPlateModel(
        PlateSection(), 1.0, "simply_supported", nx=6, ny=6
    ),
}


def _left_behind(model, how: str) -> np.ndarray:
    """The matrix an earlier system of model leaves: a factor, a failed factorization's, or NaN."""
    system = fem.assemble(model, PowerLawKernel(0.7), 0.5)
    if how == "factored":
        fem.solve(system)
    elif how == "failed":
        k = system.matrix.shape[0] // 2
        system.matrix[k, k] = -system.matrix[k, k]
        with pytest.raises(fem.SolverError, match="not positive definite"):
            fem.solve(system)
    else:
        system.matrix[...] = np.nan
    return system.matrix


@pytest.mark.parametrize("how", ["factored", "failed", "nan"])
@pytest.mark.parametrize(
    "kernel", [ExponentialKernel(5e-2), PowerLawKernel(0.8), LocalDelta()], ids=repr
)
@pytest.mark.parametrize("name", sorted(REUSE_MODELS))
def test_a_reused_block_has_the_lower_triangle_of_a_fresh_one(name, kernel, how):
    model = REUSE_MODELS[name]()
    block = _left_behind(model, how)
    quadratures = model.quadratures(kernel, 0.5)
    reused = model.assemble(quadratures, block)
    fresh = model.assemble(quadratures)
    assert reused.matrix is block and fresh.matrix is not block
    assert np.tril(reused.matrix).tobytes() == np.tril(fresh.matrix).tobytes()
    assert fem.solve(reused).tobytes() == fem.solve(fresh).tobytes()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_model_refuses_a_block_of_another_size(name):
    build, spec = MODELS[name]
    model = build()
    quadratures = model.quadratures(spec.build(), 0.5)
    n = model.assemble(quadratures).matrix.shape[0]
    for block in (np.zeros((n + 1, n + 1), order="F"), np.zeros((n, n), order="C")):
        with pytest.raises(ValueError, match="reused block"):
            model.assemble(quadratures, block)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_threads_never_share_a_block(name, monkeypatch):
    # more workers than cores and a short switch interval: two rows that took
    # the same spare block at once would overwrite each other's system
    build, _ = MODELS[name]
    serial = sweep(build(), MIXED_GRID, MIXED_L_F)
    blocks = []
    dense_block = fem.dense_block

    def counting(n):
        blocks.append(n)
        return dense_block(n)

    monkeypatch.setattr(fem, "dense_block", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = sweep(build(), MIXED_GRID, MIXED_L_F, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert threaded.rows == serial.rows
    assert 1 <= len(blocks) <= 4
