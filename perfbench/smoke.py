"""Wrapper-drift guard: the traced path of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs a 20-element beam sweep, a 4x4 plate sweep and a 4x4 -> 8x8 plate
convergence study through nle.cli.main with the layer wrappers of
perfbench/layers.py installed; it takes a few seconds.  It exits nonzero and
names the problem when a wrapped public name no longer exists, when a layer
metric that must be nonzero reads zero, or when a run fails.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402

KERNELS = """\
kernels:
  - kind: exponential
    l0_grid: [2.5e-3]
  - kind: power_law
    alpha_grid: [0.8]
horizon:
  l_f_grid: [0.5]
"""

# name: (model, subcommand, YAML text)
CASES = {
    "beam_sweep_20": (
        "beam",
        "sweep",
        "target: beam\n" + KERNELS + "load:\n  case: cantilever_tip\nmesh:\n  n_elements: 20\n",
    ),
    "plate_sweep_4x4": (
        "plate",
        "sweep",
        "target: plate\n" + KERNELS + "bc:\n  set: clamped\nmesh:\n  nx: 4\n  ny: 4\n",
    ),
    "plate_convergence_4x4": (
        "plate",
        "convergence",
        "target: plate\nkernel:\n  kind: exponential\n  l0: 2.5e-3\nhorizon:\n  l_f: 0.5\n"
        "mesh:\n  nx: 4\n  ny: 4\nrefinements: 1\n",
    ),
}


def run_case(name: str, model: str, subcommand: str, text: str, folder: Path) -> dict:
    from nle import cli

    folder.mkdir(parents=True)
    config = folder / "config.yaml"
    config.write_text(text, encoding="utf-8")
    with layers.traced(name) as tracer:
        rc = cli.main([subcommand, "--config", str(config), "--out", str(folder)])
    if rc != 0:
        raise layers.DriftError(f"{name}: nle.cli.main exited with {rc}")
    tracer.mark_useful_solves()
    metrics = layers.layer_metrics(tracer.spans)
    layers.require_nonzero(metrics, model, name)
    return metrics


def main() -> int:
    work = ROOT / ".perfbench" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, (model, subcommand, text) in CASES.items():
            m = run_case(name, model, subcommand, text, work / name)
            print(
                f"smoke {name}: ok, {m['trace.spans']} spans, "
                f"{m['fem.solve_calls']} solves, {m['kernels.moment_calls']} moment calls"
            )
    except layers.DriftError as exc:
        print(f"smoke FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
