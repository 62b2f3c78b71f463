"""The benchmark's wrapper-drift guard runs green on the current package.

perfbench/layers.py wraps public names of nle (build_operator_matrix as
nle.fem reaches it, AxisQuadrature, gram, interval_integral, and
scipy.linalg.cho_factor as nle.fem calls it).  perfbench/smoke.py runs a
tiny traced beam sweep, plate sweep and plate convergence study and exits
nonzero when a wrapped name is gone or a layer reads zero work, so a
refactor that renames or bypasses one of those names fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_runs_clean():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "smoke.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
