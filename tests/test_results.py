import pytest

from nle import fem
from nle.beam import BeamSection, CantileverTipLoad, TimoshenkoBeamModel
from nle.kernels import LocalDelta
from nle.plate import MindlinPlateModel, PlateSection
from nle.results import KernelSpec, sweep

# model and kernel grid of each structure; the grid's first kernel needs a solve
MODELS = {
    "beam": (
        lambda: TimoshenkoBeamModel(BeamSection(), CantileverTipLoad(), n_elements=20),
        KernelSpec("exponential", 1e-3),
    ),
    "plate": (
        lambda: MindlinPlateModel(PlateSection(), 1.0, "clamped", nx=4, ny=4),
        KernelSpec("power_law", 0.8),
    ),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_local_delta_rows_reuse_the_shared_local_solve(name, monkeypatch):
    kernels, solves = [], []
    assemble, solve = fem.assemble, fem.solve

    def counting_assemble(model, kernel, horizon_radius):
        kernels.append(kernel)
        return assemble(model, kernel, horizon_radius)

    def counting_solve(*args, **kwargs):
        solves.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(fem, "assemble", counting_assemble)
    monkeypatch.setattr(fem, "solve", counting_solve)
    build, nonlocal_spec = MODELS[name]
    grid = [nonlocal_spec, KernelSpec("power_law", 1.0), KernelSpec("local")]
    table = sweep(build(), grid, [0.5, 1.0])
    # one shared local solve plus one per row of the first kernel
    assert len(solves) == 3
    assert [type(k) for k in kernels].count(LocalDelta) == 1
    delta_rows = table.rows[2:]
    assert len(delta_rows) == 4
    w_local = table.rows[0][5]
    assert all(r[4] == w_local and r[5] == w_local and r[6] == 1.0 for r in delta_rows)



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
def test_sweep_rejects_inadmissible_grid(name):
    build, _ = MODELS[name]
    with pytest.raises(ValueError, match="floor"):
        sweep(build(), [KernelSpec("power_law", 0.45)], [0.5])
    with pytest.raises(ValueError, match="nonempty"):
        sweep(build(), [], [0.5])


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_thread_count_does_not_change_rows(name):
    build, _ = MODELS[name]
    grid = [KernelSpec("exponential", 1e-3), KernelSpec("power_law", 0.8)]
    serial = sweep(build(), grid, [0.5, 0.75])
    threaded = sweep(build(), grid, [0.5, 0.75], threads=4)
    assert serial.rows == threaded.rows
