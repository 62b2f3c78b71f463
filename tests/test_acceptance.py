"""End-to-end acceptance gate: eight numbered criteria, one verdict line each.

Every test prints a single [PASS]/[FAIL] line with its runtime (visible with
pytest -s, or in the captured-output block on failure) and then asserts.
Shared production-scale grids are built once per session; their build time is
charged to the first criterion that consumes them.
"""

import math
import time

import numpy as np
import pytest
from continuous_operator import Horizon, continuous_gradient

from nle import fem
from nle.beam import BeamSection, TimoshenkoBeamModel
from nle.cli import main as cli_main
from nle.dispersion import (
    Material1D,
    dispersion_exponential,
    dispersion_powerlaw,
    numerical_dispersion,
)
from nle.kernels import ExponentialKernel, LocalDelta, PowerLawKernel
from nle.operator import build_operator_matrix
from nle.plate import MindlinPlateModel, W as W_FIELD, PlateSection
from nle.results import KernelSpec, sweep

UNIT = Horizon(l_f=0.5, x_min=0.0, x_max=1.0)

# Production sweep grids: every (kernel, l_f) pair is exercised for both beam
# load cases and both plate edge sets.
GRID_L0 = (1e-6, 1e-3, 2.5e-3, 5e-3)
GRID_ALPHA = (0.7, 0.8, 0.9, 1.0)
GRID_LF = (0.5, 0.75, 1.0)

# The grid's designed local-limit members: softening there sits at or below
# float visibility, so they are held to the unit-ratio tolerance instead of
# the strict inequality.
TRIVIAL = {("exponential", 1e-6), ("power_law", 1.0)}


def _grid_specs():
    return [KernelSpec("exponential", v) for v in GRID_L0] + [
        KernelSpec("power_law", v) for v in GRID_ALPHA
    ]


def _finish(number, label, started, budget_s, failures, extra_s=0.0):
    elapsed = time.perf_counter() - started + extra_s
    if budget_s is not None and elapsed > budget_s:
        failures.append(f"runtime {elapsed:.1f}s exceeds the {budget_s:.0f}s budget")
    verdict = "FAIL" if failures else "PASS"
    print(f"[{verdict}] criterion {number} ({label}) in {elapsed:.1f}s")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _applied(system, width=64):
    """The matrix of system.product, applied to the unit vectors a few columns at a time."""
    n = system.free.size
    matrix = np.empty((n, n))
    for start in range(0, n, width):
        units = np.zeros((n, min(width, n - start)))
        units[start : start + units.shape[1]] = np.eye(units.shape[1])
        matrix[:, start : start + units.shape[1]] = system.product(units)
    return matrix


def _solve_record(system, w_dof, w_local, width=256):
    # The operator the solver uses: its residuals apply system.product, and
    # its factorization reads the lower triangle of system.matrix.  The
    # maxima are taken tile by tile, on and below the diagonal, with no
    # n x n temporary: a maximum does not depend on the order it reads
    # entries in, and |a_ij - a_ji| is |a_ji - a_ij| to the bit.
    applied = _applied(system)
    panels = [slice(start, start + width) for start in range(0, applied.shape[0], width)]
    scale = np.max([np.max(np.abs(applied[r])) for r in panels])
    asym, departure = [], []
    for i, r in enumerate(panels):
        for c in panels[: i + 1]:
            asym.append(np.max(np.abs(applied[r, c] - applied[c, r].T)))
            below = np.tril(applied[r, c] - system.matrix[r, c], r.start - c.start)
            departure.append(np.max(np.abs(below)))
    sym, stored = float(np.max(asym) / scale), float(np.max(departure) / scale)
    try:
        u = fem.solve(system)
    except fem.SolverError as exc:
        return {
            "sym": sym,
            "stored": stored,
            "factorized": "positive definite" not in str(exc),
            "w_bar": float("nan"),
        }
    return {
        "sym": sym,
        "stored": stored,
        "factorized": True,
        "w_bar": abs(float(u[w_dof])) / w_local,
    }


def _grid_records(model, case, w_dof, w_local, records):
    """The record of each (case, kind, param, l_f) key of the grid, into records.

    A key whose quadratures all hold the same B, bit for bit, as an earlier
    key's gets that key's record: its system is the same, so its record
    would be too.  In this grid each exponential kernel repeats its rows at
    the wider horizons, and the power law at alpha = 1, the local delta,
    has the rows of the exponential at l0 = 1e-6: 11 of each case's 24 keys.
    """
    solved = []
    for spec in _grid_specs():
        kernel = spec.build()
        for l_f in GRID_LF:
            quads = model.quadratures(kernel, l_f)
            for seen, record in solved:
                if all(np.array_equal(seen[k].B, quads[k].B) for k in quads):
                    break
            else:
                record = _solve_record(model.assemble(quads), w_dof, w_local)
                solved.append((quads, record))
            records[(case, spec.kind, spec.param, l_f)] = record


@pytest.fixture(scope="session")
def beam_grid():
    started = time.perf_counter()
    records = {}
    local = {}
    for case in ("cantilever_tip", "ss_udtl"):
        model = TimoshenkoBeamModel(BeamSection(), 1.0, case, 200)
        w_dof = model.axes.n_nodes + model.metric_node
        u_loc = fem.solve(fem.assemble(model, LocalDelta(), GRID_LF[0]))
        local[case] = abs(float(u_loc[w_dof]))
        _grid_records(model, case, w_dof, local[case], records)
    return {"records": records, "local": local, "build_s": time.perf_counter() - started}


@pytest.fixture(scope="session")
def plate_grid():
    started = time.perf_counter()
    records = {}
    local = {}
    for boundary in ("clamped", "simply_supported"):
        model = MindlinPlateModel(PlateSection(), 1.0, boundary, 24, 24)
        w_dof = W_FIELD * model.axes.n_nodes + model.axes.center_node()
        u_loc = fem.solve(fem.assemble(model, LocalDelta(), GRID_LF[0]))
        local[boundary] = abs(float(u_loc[w_dof]))
        _grid_records(model, boundary, w_dof, local[boundary], records)
    return {"records": records, "local": local, "build_s": time.perf_counter() - started}


# ---------------------------------------------------------------------------
# criterion 1: affine reproduction at random points
# ---------------------------------------------------------------------------

def test_criterion_1_affine_reproduction():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(20260823)
    nodes = np.linspace(0.0, 1.0, 201)
    points = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 998)])
    kernels = [ExponentialKernel(v) for v in (1e-3, 5e-3, 0.1)] + [
        PowerLawKernel(a) for a in (0.6, 0.75, 0.9)
    ]
    for kernel in kernels:
        slope = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
        intercept = float(rng.uniform(-2.0, 2.0))
        weights = build_operator_matrix(nodes, points, UNIT.l_f, kernel).weights
        values = weights @ (slope * nodes + intercept)
        worst = float(np.max(np.abs(values - slope)) / abs(slope))
        if worst > 1e-12:
            failures.append(f"{kernel!r}: relative slope error {worst:.2e} > 1e-12")
    _finish(1, "affine reproduction", started, 10.0, failures)


# ---------------------------------------------------------------------------
# criterion 2: one-sided boundary limit
# ---------------------------------------------------------------------------

def test_criterion_2_boundary_limit():
    started = time.perf_counter()
    failures = []
    # sin has a stationary gradient at the left wall, so the shrinking-side
    # average isolates the limit structure itself rather than the first-order
    # remainder of the field.
    dfield = math.cos
    for kernel in (ExponentialKernel(0.1), PowerLawKernel(0.75)):
        limit = continuous_gradient(dfield, 0.0, UNIT, kernel)
        gaps = []
        for l_minus in (1e-2, 1e-3, 1e-4):
            horizon = Horizon(l_f=0.5, x_min=-l_minus, x_max=1.0)
            full = continuous_gradient(dfield, 0.0, horizon, kernel)
            gaps.append(abs(full - limit))
        if not gaps[0] > gaps[1] > gaps[2]:
            failures.append(f"{kernel!r}: gaps {gaps} do not shrink monotonically")
        if gaps[2] > 1e-6:
            failures.append(f"{kernel!r}: final gap {gaps[2]:.2e} > 1e-6")
    # the production rows: the row at distance delta from a wall, applied to
    # the interpolant of sin, must approach the wall's boundary row
    nodes = np.linspace(0.0, 1.0, 201)
    samples = np.sin(nodes)
    deltas = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    for kernel in (ExponentialKernel(0.1), PowerLawKernel(0.75)):
        for wall, inward in ((0.0, 1.0), (1.0, -1.0)):
            points = np.array([wall] + [wall + inward * d for d in deltas])
            values = build_operator_matrix(nodes, points, UNIT.l_f, kernel).apply(samples)
            gaps = np.abs(values[1:] - values[0])
            if not np.all(np.diff(gaps) < 0.0):
                failures.append(f"{kernel!r} rows near x={wall}: gaps {gaps} do not shrink strictly")
            if gaps[-1] > 1e-6:
                failures.append(f"{kernel!r} rows near x={wall}: final gap {gaps[-1]:.2e} > 1e-6")
    _finish(2, "boundary limit", started, 5.0, failures)


# ---------------------------------------------------------------------------
# criterion 3: dispersion closed forms against the discrete oracle
# ---------------------------------------------------------------------------

def test_criterion_3_dispersion():
    started = time.perf_counter()
    failures = []
    material = Material1D(30e9, 2500.0)
    c2 = material.local_velocity_sq

    l0 = 0.05
    for k_l0 in np.logspace(np.log10(0.1), np.log10(5.0), 9):
        k = float(k_l0 / l0)
        closed = dispersion_exponential(k, material, l0)
        oracle = numerical_dispersion(
            k, material, ExponentialKernel(l0), 15.0 * l0
        )
        rel = abs(oracle - closed) / abs(closed)
        if rel > 1e-4:
            failures.append(f"exponential k*l0={k_l0:.2f}: oracle gap {rel:.2e} > 1e-4")

    for alpha in (0.6, 0.75, 0.9):
        ks = np.logspace(-1.0, 2.0, 7)
        mags = [
            abs(dispersion_powerlaw(float(k), material, alpha))
            for k in ks
        ]
        target = 2.0 * (alpha - 1.0)
        for (k1, m1), (k2, m2) in zip(zip(ks, mags), zip(ks[1:], mags[1:])):
            slope = (math.log(m2) - math.log(m1)) / (math.log(k2) - math.log(k1))
            if abs(slope - target) > 1e-12:
                failures.append(
                    f"alpha={alpha}: log-log slope {slope!r} differs from {target}"
                )
                break

    for k in (0.3, 3.0, 300.0):
        vp2 = dispersion_powerlaw(k, material, 1.0)
        if abs(vp2 - c2) > 1e-12 * c2:
            failures.append(f"alpha=1 at k={k}: {vp2!r} is not the local value")
    _finish(3, "dispersion relations", started, 30.0, failures)


# ---------------------------------------------------------------------------
# criterion 4: symmetry and positive definiteness over the sweep grids
# ---------------------------------------------------------------------------

def test_criterion_4_convexity(beam_grid, plate_grid):
    started = time.perf_counter()
    failures = []
    for name, grid in (("beam", beam_grid), ("plate", plate_grid)):
        records = grid["records"]
        expected = 2 * len(_grid_specs()) * len(GRID_LF)
        if len(records) != expected:
            failures.append(f"{name}: {len(records)} records, expected {expected}")
        for key, record in records.items():
            if record["sym"] > 1e-12:
                failures.append(f"{name} {key}: asymmetry {record['sym']:.2e} > 1e-12")
            if record["stored"] > 1e-12:
                failures.append(
                    f"{name} {key}: product departs from the stored lower triangle "
                    f"by {record['stored']:.2e} > 1e-12"
                )
            if not record["factorized"]:
                failures.append(f"{name} {key}: stiffness is not positive definite")
    extra = beam_grid["build_s"] + plate_grid["build_s"]
    _finish(4, "convex energy", started, 600.0, failures, extra_s=extra)


# ---------------------------------------------------------------------------
# criterion 5: local limit against analytic oracles
# ---------------------------------------------------------------------------

def _analytic_cantilever_tip(section, load_magnitude):
    ei = section.modulus * section.inertia
    shear = section.shear_correction * section.shear_modulus * section.area
    length = section.length
    return load_magnitude * (length**3 / (3.0 * ei) + length / shear)


def _navier_center_deflection(section, pressure, n_modes=199):
    # Hard simply supported Mindlin plate under uniform pressure: per odd
    # mode pair the amplitude is the thin-plate value plus a shear term,
    # W = Q * (1/(D k^4) + 1/(S k^2)) with k^2 = a^2 + b^2.
    bend = section.modulus * section.thickness**3 / (12.0 * (1.0 - section.poisson**2))
    shear = section.shear_correction * section.shear_modulus * section.thickness
    total = 0.0
    for m in range(1, n_modes + 1, 2):
        for n in range(1, n_modes + 1, 2):
            a = m * math.pi / section.length_x
            b = n * math.pi / section.length_y
            k2 = a * a + b * b
            amplitude = (
                16.0 * pressure / (math.pi**2 * m * n)
                * (1.0 / (bend * k2 * k2) + 1.0 / (shear * k2))
            )
            total += amplitude * math.sin(m * math.pi / 2.0) * math.sin(n * math.pi / 2.0)
    return total


def test_criterion_5_local_limit(beam_grid, plate_grid):
    started = time.perf_counter()
    failures = []
    for (case, kind, param, l_f), record in beam_grid["records"].items():
        if (kind, param) in TRIVIAL and abs(record["w_bar"] - 1.0) > 1e-3:
            failures.append(
                f"beam {case} {kind}({param}) l_f={l_f}: w_bar {record['w_bar']!r}"
            )
    for (boundary, kind, param, l_f), record in plate_grid["records"].items():
        if (kind, param) in TRIVIAL and abs(record["w_bar"] - 1.0) > 2e-3:
            failures.append(
                f"plate {boundary} {kind}({param}) l_f={l_f}: w_bar {record['w_bar']!r}"
            )

    tip = beam_grid["local"]["cantilever_tip"]
    oracle = _analytic_cantilever_tip(BeamSection(), 1.0)
    if abs(tip - oracle) > 5e-3 * oracle:
        failures.append(f"local tip {tip!r} differs from analytic {oracle!r} by >0.5%")
    if abs(tip - 1.3437e-6) > 5e-3 * 1.3437e-6:
        failures.append(f"local tip {tip!r} is not 1.3437e-6 within 0.5%")

    center = plate_grid["local"]["simply_supported"]
    navier = _navier_center_deflection(PlateSection(), 1.0)
    if abs(center - navier) > 1e-2 * navier:
        failures.append(f"local center {center!r} differs from Navier {navier!r} by >1%")
    _finish(5, "local limit", started, 120.0, failures)


# ---------------------------------------------------------------------------
# criterion 6: softening universality
# ---------------------------------------------------------------------------

def test_criterion_6_softening_universality(beam_grid, plate_grid):
    started = time.perf_counter()
    failures = []
    for name, grid in (("beam", beam_grid), ("plate", plate_grid)):
        for (case, kind, param, l_f), record in grid["records"].items():
            if (kind, param) in TRIVIAL:
                continue
            if not record["w_bar"] > 1.0:
                failures.append(
                    f"{name} {case} {kind}({param}) l_f={l_f}: "
                    f"w_bar {record['w_bar']!r} is not above 1"
                )
    _finish(6, "softening universality", started, 600.0, failures)


# ---------------------------------------------------------------------------
# criterion 7: parameter trends
# ---------------------------------------------------------------------------

def test_criterion_7_parameter_trends(beam_grid):
    started = time.perf_counter()
    failures = []
    records = beam_grid["records"]
    cases = ("cantilever_tip", "ss_udtl")

    # (a) power law: stronger softening for smaller exponents and for wider
    # horizons, separately in each direction of the grid.
    for case in cases:
        for l_f in GRID_LF:
            values = [
                records[(case, "power_law", a, l_f)]["w_bar"]
                for a in sorted(GRID_ALPHA, reverse=True)
            ]
            if not all(b > a for a, b in zip(values, values[1:])):
                failures.append(f"(a) {case} l_f={l_f}: not increasing as alpha falls")
        for alpha in GRID_ALPHA:
            if alpha == 1.0:
                continue
            values = [records[(case, "power_law", alpha, l_f)]["w_bar"] for l_f in GRID_LF]
            if not all(b > a for a, b in zip(values, values[1:])):
                failures.append(f"(a) {case} alpha={alpha}: not increasing with l_f")

    # (b) exponential: the softening ratio against l0 over a log grid must
    # rise to an interior peak and decline past it.
    scan_l0 = np.logspace(-4.0, math.log10(5e-3), 9)
    scan = sweep(
        TimoshenkoBeamModel(BeamSection(), 1.0, "cantilever_tip", 200),
        [KernelSpec("exponential", float(v)) for v in scan_l0],
        [0.5],
    )
    ratios = scan.column("w_bar")
    peak = int(np.argmax(ratios))
    rising = all(b > a for a, b in zip(ratios[: peak + 1], ratios[1 : peak + 1]))
    declining = all(b < a for a, b in zip(ratios[peak:], ratios[peak + 1 :]))
    if peak == 0 or peak == len(ratios) - 1 or not (rising and declining):
        failures.append(
            "(b) no rise-then-decline: w_bar over l0 in [1e-4, 5e-3] is "
            + ("monotonically rising" if peak == len(ratios) - 1 else "not unimodal")
            + f" (values {[f'{r:.9f}' for r in ratios]})"
        )

    # (c) exponential: horizon insensitivity for kernels much shorter than
    # every horizon in the grid.
    for case in cases:
        for l0 in GRID_L0:
            if 5.0 * l0 > min(GRID_LF):
                continue
            values = [records[(case, "exponential", l0, l_f)]["w_bar"] for l_f in GRID_LF]
            spread = max(values) / min(values) - 1.0
            if spread > 1e-2:
                failures.append(f"(c) {case} l0={l0}: spread {spread:.2e} > 1%")
    _finish(7, "parameter trends", started, 900.0, failures)


# ---------------------------------------------------------------------------
# criterion 8: byte-identical sweep output
# ---------------------------------------------------------------------------

SWEEP_CONFIG = """
target: beam
kernels:
  - kind: exponential
    l0_grid: [1.0e-3, 2.5e-3, 5.0e-3]
  - kind: power_law
    alpha_grid: [0.7, 0.8, 0.9]
  - kind: local
horizon:
  l_f_grid: [0.5, 0.75, 1.0]
load:
  case: cantilever_tip
mesh:
  n_elements: 200
"""


def test_criterion_8_determinism(tmp_path):
    started = time.perf_counter()
    failures = []
    config = tmp_path / "sweep.yaml"
    config.write_text(SWEEP_CONFIG, encoding="utf-8")
    blobs = []
    for label, threads in (("first", "1"), ("second", "1"), ("threaded", "4")):
        out = tmp_path / label
        code = cli_main(
            ["sweep", "--config", str(config), "--out", str(out), "--threads", threads]
        )
        if code != 0:
            failures.append(f"{label} run exited {code}")
            continue
        blobs.append((out / "sweep.csv").read_bytes())
    if len(blobs) == 3:
        if blobs[0] != blobs[1]:
            failures.append("two serial runs differ")
        if blobs[0] != blobs[2]:
            failures.append("thread counts 1 and 4 differ")
    _finish(8, "deterministic sweeps", started, None, failures)
