"""BLAS worker pools: short spin from nle's import, pinned and recorded threads.

Both OpenBLAS copies read OPENBLAS_THREAD_TIMEOUT and OPENBLAS_NUM_THREADS
only when they load, and this test process has loaded numpy long before, so
every check of those variables runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nle import openblas
from nle.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent

SMALL_SWEEP_YAML = """
target: beam
kernels:
  - kind: exponential
    l0_grid: [0.0025]
horizon:
  l_f_grid: [0.5]
mesh:
  n_elements: 20
"""

# Reads openblas_thread_timeout() from both bundled libraries by its own
# lookup, independent of nle.openblas.
READ_TIMEOUTS = """
import ctypes, glob, json, os, sys
import nle.cli
import numpy, scipy
values = []
for package, pattern in ((numpy, "numpy.libs/libscipy_openblas64_*.so"),
                         (scipy, "scipy.libs/libscipy_openblas-*.so")):
    site = os.path.dirname(os.path.dirname(package.__file__))
    (path,) = glob.glob(os.path.join(site, pattern))
    lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    lib.openblas_thread_timeout.restype = ctypes.c_int
    values.append(lib.openblas_thread_timeout())
print(json.dumps(values))
"""


def _python(args, **env_overrides):
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(PYTHONPATH=path, **env_overrides)
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_importing_nle_shortens_the_spin_of_both_pools():
    proc = _python(["-c", READ_TIMEOUTS])
    assert json.loads(proc.stdout) == [20, 20]


def test_a_timeout_the_user_set_is_kept():
    proc = _python(["-c", READ_TIMEOUTS], OPENBLAS_THREAD_TIMEOUT="28")
    assert json.loads(proc.stdout) == [28, 28]


def test_manifest_records_the_pinned_threads_and_the_timeout(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(SMALL_SWEEP_YAML, encoding="utf-8")
    out = tmp_path / "out"
    _python(
        ["-m", "nle.cli", "sweep", "--config", str(config), "--out", str(out)],
        OPENBLAS_NUM_THREADS="1",
    )
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["blas_threads"] == str(openblas.THREADS)
    assert manifest["blas_thread_timeout"] == "20"


@pytest.mark.parametrize("blas_threads", ["1", "4"])
@pytest.mark.parametrize("config, reference", [
    ("sweep_beam.yaml", "beam_sweep.csv"),
    ("sweep_plate.yaml", "plate_sweep.csv"),
])
def test_shipped_sweeps_match_the_reference_whatever_the_blas_threads(
    tmp_path, config, reference, blas_threads
):
    out = tmp_path / "out"
    _python(
        ["-m", "nle.cli", "sweep", "--config", str(ROOT / "configs" / config), "--out", str(out)],
        OPENBLAS_NUM_THREADS=blas_threads,
    )
    expected = ROOT / "perfbench" / "reference" / reference
    assert (out / "sweep.csv").read_bytes() == expected.read_bytes()


def test_a_missing_symbol_leaves_the_run_unpinned(tmp_path, monkeypatch):
    package, pattern, _, getter = openblas._LIBRARIES[1]
    monkeypatch.setattr(
        openblas,
        "_LIBRARIES",
        (openblas._LIBRARIES[0], (package, pattern, "no_such_set_num_threads", getter)),
    )
    config = tmp_path / "run.yaml"
    config.write_text(SMALL_SWEEP_YAML, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["blas_threads"] == "unpinned"
    assert manifest["blas_thread_timeout"] == "unknown"
    assert (out / "sweep.csv").read_text(encoding="utf-8").count("\n") == 2
