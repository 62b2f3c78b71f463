"""Every command line run ends in a categorized exit, never a traceback.

Hypothesis writes configuration documents for all five subcommands, with
`--verify` on and off.  Half the documents are valid, with small meshes and
grids, or meshes so large that fem.check_fits refuses them and wavenumber
grids too large for memory; the other half have one
value replaced by an edge value (0, -0.0, the smallest subnormal, 1e300,
infinities, NaN, integers of 21, 401 and 5,001 digits, a string, a list,
None or True).  Threads stay within 1-4.
Each run must return 0, 2, 3, 4 or 5: an uncaught exception, which the
command line would end with exit 1, fails the test.  A run that exits 2
must list each problem once: its error lines are distinct, and a rule of a
whole section names no key that has a line of its own.  The search is
derandomized, so tier-1 always runs the same documents.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nle import cli


class Digits(str):
    """A decimal integer written as a plain YAML scalar: one too long for Python's int() limit."""


class Dumper(yaml.SafeDumper):
    pass


Dumper.add_representer(
    Digits, lambda dumper, text: dumper.represent_scalar("tag:yaml.org,2002:int", text)
)

# 10**20 has nodes beyond any index, 10**400 lies beyond float range, and
# PyYAML cannot read an integer of 5,001 digits
HUGE_INTEGERS = [10**20, 10**400, Digits("1" + "0" * 5000)]
EDGES = st.sampled_from(
    [0, -0.0, 5e-324, 1e300, math.inf, -math.inf, math.nan, *HUGE_INTEGERS]
    + ["text", [1.0], None, True]
)


def slot(*valid):
    """One of the valid values of a place in a document."""
    return st.sampled_from(valid)


def grid(*valid):
    return st.lists(slot(*valid), min_size=1, max_size=3)


KERNEL = st.one_of(
    st.fixed_dictionaries({"kind": st.just("exponential"), "l0": slot(1e-6, 1e-3, 2.5e-3, 0.05)}),
    st.fixed_dictionaries({"kind": st.just("power_law"), "alpha": slot(0.5, 0.75, 0.9, 1.0)}),
    st.fixed_dictionaries({"kind": st.just("local")}),
)
KERNEL_ENTRY = st.one_of(
    st.fixed_dictionaries({"kind": st.just("exponential"), "l0_grid": grid(1e-6, 2.5e-3, 0.05)}),
    st.fixed_dictionaries({"kind": st.just("power_law"), "alpha_grid": grid(0.6, 0.8, 1.0)}),
    st.fixed_dictionaries({"kind": st.just("local")}),
)
# small meshes, and meshes whose free block fem.check_fits refuses
BEAM_MESH = st.fixed_dictionaries({"n_elements": slot(2, 4, 8, 10**8)})
PLATE_MESH = st.fixed_dictionaries({"nx": slot(2, 4, 10**5), "ny": slot(2, 4, 10**5)})
BEAM = {
    "mesh": BEAM_MESH,
    "load": st.one_of(
        st.fixed_dictionaries(
            {"case": st.just("cantilever_tip")}, optional={"magnitude": slot(1.0, -3.0)}
        ),
        st.fixed_dictionaries({"case": st.just("ss_udtl")}, optional={"intensity": slot(1.0, 1e-3)}),
    ),
    "geometry": st.fixed_dictionaries({}, optional={"length": slot(1.0, 2.0)}),
}
PLATE = {
    "mesh": PLATE_MESH,
    "bc": st.fixed_dictionaries({"set": slot("clamped", "simply_supported")}),
    "load": st.fixed_dictionaries({}, optional={"pressure": slot(1.0, -0.5)}),
    "material": st.fixed_dictionaries({}, optional={"poisson": slot(0.0, 0.3)}),
    "geometry": st.fixed_dictionaries({}, optional={"length_x": slot(1.0, 2.0)}),
}
# threads stay within 1-4: a spoiled document never asks for more
OPTIONAL = {"threads": st.integers(1, 4), "output": st.just("rows.csv")}


def run_document(subcommand: str, target: str):
    horizon = {"l_f": slot(1e-14, 0.25, 0.5)}
    required = {"kernel": KERNEL}
    if subcommand == "sweep":
        horizon = {"l_f_grid": grid(1e-14, 0.25, 0.5)}
        required = {"kernels": st.lists(KERNEL_ENTRY, min_size=1, max_size=3)}
    required["horizon"] = st.fixed_dictionaries(horizon)
    required.update(BEAM if target == "beam" else PLATE)
    optional = dict(OPTIONAL)
    if subcommand in ("sweep", "convergence"):
        optional["target"] = st.just(target)
    if subcommand == "convergence":
        optional["refinements"] = slot(1, 2)
    return st.tuples(st.just(subcommand), st.fixed_dictionaries(required, optional=optional))


DISPERSION = st.tuples(
    st.just("dispersion"),
    st.fixed_dictionaries(
        {
            "kernel": KERNEL,
            "k_grid": st.fixed_dictionaries(
                {"min": slot(1.0, 40.0, 1e3), "max": slot(2e3, 1e4)},
                # 10**9 wavenumbers would not fit in memory
                optional={"count": slot(1, 2, 5, 10**9)},
            ),
        },
        optional={
            "material": st.fixed_dictionaries(
                {}, optional={"modulus": slot(30e9, 1e6), "density": slot(2500.0, 1.0)}
            ),
            **OPTIONAL,
        },
    ),
)
VALID = st.one_of(
    DISPERSION,
    run_document("beam", "beam"),
    run_document("plate", "plate"),
    run_document("sweep", "beam"),
    run_document("sweep", "plate"),
    run_document("convergence", "beam"),
    run_document("convergence", "plate"),
)


def places(node, path=()):
    """Paths to every value under node, the threads count excepted."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if key != "threads":
            yield path + (key,)
            if isinstance(value, (dict, list)):
                yield from places(value, path + (key,))


@st.composite
def documents(draw):
    """A valid document half the time, else one with one value replaced by an edge value."""
    subcommand, doc = draw(VALID)
    if draw(st.booleans()):
        *path, last = draw(st.sampled_from(list(places(doc))))
        parent = doc
        for key in path:
            parent = parent[key]
        parent[last] = draw(EDGES)
    return subcommand, doc


def run_cli(subcommand: str, doc: dict, verify: bool) -> tuple[int, list[str]]:
    """The exit code of one run and its config error lines."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.yaml"
        config.write_text(yaml.dump(doc, Dumper=Dumper), encoding="utf-8")
        argv = [subcommand, "--config", str(config), "--out", str(Path(tmp) / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--verify"] * verify)
    prefix = "config error: "
    lines = err.getvalue().splitlines()
    return code, [line[len(prefix):] for line in lines if line.startswith(prefix)]


def assert_each_problem_listed_once(lines: list[str]) -> None:
    """Distinct lines, and no section rule naming a key that has a line of its own."""
    assert len(set(lines)) == len(lines), lines
    own = ("geometry.", "material.")
    keyed = {line.split(":")[0].rpartition(".")[2] for line in lines if line.startswith(own)}
    for line in lines:
        if line.startswith(("geometry/material: ", "material: ")):
            assert not keyed & set(re.findall(r"\w+", line.split(": ", 1)[1])), lines


# The oracle mesh of `dispersion --verify` at k = 1e9 and l0 = 2.5e-3 holds
# 1.43e9 nodes over its 28 l0 horizon (10.6 GiB per coarse array); at
# k = 1.74e28 and l0 = 1 more than an array can hold.  Both are refused
# before they allocate.
GUARD_DOCUMENTS = [
    {"kernel": {"kind": "exponential", "l0": 2.5e-3}, "k_grid": {"min": 1e9, "max": 1e9, "count": 1}},
    {"kernel": {"kind": "exponential", "l0": 1.0}, "k_grid": {"min": 1.0, "max": 1.74e28, "count": 2}},
]
# crash sites the search found: an oracle wavenumber whose square underflows
# (local and exponential), a beam whose elements are subnormal, and a plate
# whose metric underflows to 0, which the softening ratio divides by
TINY_K = {"min": 5e-324, "max": 1e4, "count": 2}
SUBNORMAL_BEAM = {
    "target": "beam",
    "kernels": [{"kind": "local"}],
    "horizon": {"l_f_grid": [0.5]},
    "geometry": {"length": 5e-324},
    "mesh": {"n_elements": 4},
}
ZERO_METRIC_PLATE = {
    "kernel": {"kind": "local"},
    "horizon": {"l_f": 0.5},
    "geometry": {"length_x": 1e-300},
    "mesh": {"nx": 4, "ny": 2},
}
# a grid refused before it is built, and a section whose one bad key must
# get one line
HUGE_K = {"min": 1.0, "max": 10.0, "count": 300000000}
ZERO_LENGTH_BEAM = {"kernel": {"kind": "local"}, "horizon": {"l_f": 0.5}, "geometry": {"length": 0}}
# a count whose nodes cannot be indexed, one beyond float range, and an l0
# that PyYAML cannot read
LOCAL = {"kernel": {"kind": "local"}, "horizon": {"l_f": 0.5}}
HUGE_BEAM = {**LOCAL, "mesh": {"n_elements": HUGE_INTEGERS[0]}}
HUGE_PLATE = {**LOCAL, "mesh": {"nx": HUGE_INTEGERS[1], "ny": 2}}
UNREADABLE_L0 = {"kernel": {"kind": "exponential", "l0": HUGE_INTEGERS[2]}, "k_grid": TINY_K}
# k*l0 beyond 1.34e154, where the closed form's (k*l0)**2 overflows
OVERFLOWING_L0 = {"kernel": {"kind": "exponential", "l0": 1e300}, "k_grid": {"min": 1.0, "max": 2000.0}}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # edge values overflow on the way
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(run=documents(), verify=st.booleans())
@example(run=("dispersion", GUARD_DOCUMENTS[0]), verify=True)
@example(run=("dispersion", GUARD_DOCUMENTS[1]), verify=True)
@example(run=("dispersion", {"kernel": {"kind": "local"}, "k_grid": TINY_K}), verify=True)
@example(run=("dispersion", {"kernel": {"kind": "exponential", "l0": 0.05}, "k_grid": TINY_K}), verify=True)
@example(run=("sweep", SUBNORMAL_BEAM), verify=False)
@example(run=("plate", ZERO_METRIC_PLATE), verify=False)
@example(run=("beam", ZERO_LENGTH_BEAM), verify=False)
@example(run=("dispersion", {"kernel": {"kind": "local"}, "k_grid": HUGE_K}), verify=False)
@example(run=("beam", HUGE_BEAM), verify=False)
@example(run=("plate", HUGE_PLATE), verify=False)
@example(run=("dispersion", UNREADABLE_L0), verify=False)
@example(run=("dispersion", OVERFLOWING_L0), verify=False)
@example(run=("dispersion", OVERFLOWING_L0), verify=True)
def test_every_run_ends_in_a_categorized_exit(run, verify):
    subcommand, doc = run
    code, errors = run_cli(subcommand, doc, verify)
    assert code in (0, 2, 3, 4, 5)
    assert_each_problem_listed_once(errors)


@pytest.mark.parametrize(
    "doc, message",
    [
        (GUARD_DOCUMENTS[0], "needs 2.86e+09 nodes, 213 GiB, but only"),
        (GUARD_DOCUMENTS[1], "needs 5.55e+31 nodes, 4.14e+24 GiB, more than an array can hold"),
    ],
    ids=["k_1e9", "k_1.74e28"],
)
def test_an_oracle_mesh_that_cannot_fit_exits_3_before_allocating(tmp_path, capsys, doc, message):
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(doc), encoding="utf-8")
    tracemalloc.start()
    try:
        code = cli.main(["dispersion", "--config", str(config), "--out", str(tmp_path), "--verify"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_SOLVER
    assert peak < 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.endswith("error: category=SOLVER\n")
    # the checks evaluated before the refusal are recorded
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["verify.dispersion_real"] == "0 <= 1.2e-05 PASS"
    assert "verify.dispersion_matches_operator" not in manifest
