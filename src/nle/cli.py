"""Command line front end.

Five subcommands, each driven by one validated YAML document:

    nle dispersion --config run.yaml [--verify] [--threads N] [--out DIR]
    nle beam       ...
    nle plate      ...
    nle sweep      ...
    nle convergence ...

Every run writes one CSV of data rows plus manifest.json describing the run
(config digest, tool and commit versions, BLAS threads, malloc thresholds,
wall time, minor page faults, peak resident memory, and the dofs, span and
backed MiB of a beam's or plate's free block).  The commit comes from a
`git rev-parse HEAD` child that runs while the run computes.  Data rows are
deterministic: re-running the same config, at any thread count, reproduces
the CSV byte for byte; both OpenBLAS pools are pinned to a fixed count
(nle.openblas).  The manifest is allowed to differ (it carries the wall
time, the page faults and the peak memory).

A run also fixes glibc's malloc thresholds (_fix_malloc), so that the
mid-size arrays of each sweep row reuse the heap pages of the row before
instead of faulting in fresh ones; a library caller keeps its own allocator
settings, because nothing is set at import.  Exit codes: 0
success, 2 invalid configuration, 3 solver failure, 4 I/O failure, 5
verification failure; failures also emit a final machine-readable line
"error: category=<NAME>" on stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import math
import resource
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, beam, dispersion, fem, openblas, plate
from .config import MANIFEST_NAME, ConfigError, RunConfig, SUBCOMMANDS, parse_config
from .kernels import KernelError
from .results import SweepResult, sweep, write_manifest

__all__ = ["main", "EXIT_OK", "EXIT_CONFIG", "EXIT_SOLVER", "EXIT_IO", "EXIT_VERIFY"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4
EXIT_VERIFY = 5

DISPERSION_COLUMNS = ("k", "re_vp2", "im_vp2", "kernel", "params")
CONVERGENCE_COLUMNS = ("target", "resolution", "w_metric", "rel_change")

# Softer residual target for convergence studies: the attainable residual of
# a float64 solve grows with mesh resolution, so doubled meshes sit above the
# production default.
CONVERGENCE_RESIDUAL_TOL = 1e-9

# glibc's mallopt(3) parameters and the values _fix_malloc gives them: the
# largest that glibc's own dynamic threshold reaches on 64-bit.  Freed arrays
# below 32 MiB stay in the heap for the next row, and the heap keeps up to
# 64 MiB free at its top; larger arrays are still mapped and returned whole.
_MALLOC_THRESHOLDS = (
    ("mmap_threshold", -3, 32 << 20),  # M_MMAP_THRESHOLD
    ("trim_threshold", -1, 64 << 20),  # M_TRIM_THRESHOLD
)

# How long the manifest waits for `git rev-parse HEAD` before recording `unknown`.
_GIT_TIMEOUT_S = 5.0

# A kernel this close to the delta produces softening below float visibility;
# such rows are exempt from the strict-softening check and instead must sit
# at unit ratio.
TRIVIAL_L0 = 1e-4


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        print("error: category=CONFIG", file=sys.stderr)
        return EXIT_CONFIG
    except KernelError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        print("error: category=CONFIG", file=sys.stderr)
        return EXIT_CONFIG
    except fem.SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        print("error: category=SOLVER", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        print("error: category=IO", file=sys.stderr)
        return EXIT_IO


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nle", description="Displacement-driven nonlocal elasticity runs."
    )
    parser.add_argument("--version", action="version", version=f"nle {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sub = subparsers.add_parser(name, help=f"run the {name} pipeline")
        sub.add_argument("--config", required=True, help="YAML configuration file")
        sub.add_argument(
            "--verify",
            action="store_true",
            help="evaluate every applicable invariant on the results",
        )
        sub.add_argument("--threads", type=int, default=None, help="worker thread count")
        sub.add_argument("--out", default=".", help="output directory (default: .)")
    return parser


def _run(args) -> int:
    config_path = Path(args.config)
    try:
        text = config_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{config_path}: not UTF-8 at byte offset {exc.start}"]) from None
    cfg = parse_config(text, args.subcommand)
    threads = args.threads if args.threads is not None else cfg.threads
    if threads < 1:
        raise ConfigError([f"threads: must be >= 1 (got {threads!r})"])

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    blas = openblas.pin()
    heap = _fix_malloc()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    git = _start_git()  # runs beside the computation; the manifest takes its answer
    try:
        started = time.perf_counter()
        result = _produce(cfg, threads)
        wall = time.perf_counter() - started
    finally:
        commit = _git_commit(git)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

    csv_name = cfg.output or f"{args.subcommand}.csv"
    result.write_csv(out_dir / csv_name)

    entries = {
        "subcommand": args.subcommand,
        "csv": csv_name,
        "rows": len(result.rows),
        "threads": threads,
        **blas,
        "malloc": heap,
        "tool_version": __version__,
        "git_commit": commit,
        "config_path": str(config_path),
        "config_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "config_text": text,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "wall_time_s": f"{wall:.3f}",
        # ru_maxrss counts KiB on Linux: the process's peak so far, imports included
        "peak_rss_mib": f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}",
        # pages the kernel had to map in (and zero) while the run computed
        "minor_faults": str(faults),
    }
    entries.update(result.metadata)
    write_manifest(out_dir / MANIFEST_NAME, entries)

    if args.verify:
        checks = _verify(args.subcommand, cfg, result)
        failed = False
        for name, passed, detail in checks:
            if passed:
                print(f"verify PASS {name}")
            else:
                failed = True
                print(f"verify FAIL {name}: {detail}")
        if failed:
            print("error: category=VERIFY", file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def _fix_malloc() -> str:
    """Set _MALLOC_THRESHOLDS through mallopt(3); return the manifest's `malloc` entry.

    The entry lists each threshold that was set, or reads `unchanged` when
    the C library has no mallopt or refuses the values.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return "unchanged"
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    fixed = [
        f"{name}={value}" for name, param, value in _MALLOC_THRESHOLDS if mallopt(param, value)
    ]
    return " ".join(fixed) or "unchanged"


def _start_git() -> subprocess.Popen | None:
    """`git rev-parse HEAD` started in the package's directory, or None when git cannot start."""
    try:
        return subprocess.Popen(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
    except OSError:
        return None


def _git_commit(proc: subprocess.Popen | None) -> str:
    """The commit proc printed, or `unknown` when git did not start, failed or timed out."""
    if proc is None:
        return "unknown"
    with proc:
        try:
            out, _ = proc.communicate(timeout=_GIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            return "unknown"
    return out.strip() if proc.returncode == 0 else "unknown"


def _produce(cfg: RunConfig, threads: int) -> SweepResult:
    if cfg.subcommand == "dispersion":
        return _dispersion_table(cfg)
    if cfg.subcommand == "convergence":
        return _convergence_table(cfg)
    return sweep(_model(cfg), list(cfg.kernel_specs), list(cfg.l_f_grid), threads)


def _model(cfg: RunConfig, factor: int = 1):
    """The configured beam or plate model, with its mesh refined `factor` times."""
    model = beam.TimoshenkoBeamModel if cfg.target == "beam" else plate.MindlinPlateModel
    return model(cfg.section, cfg.load, cfg.case, *(n * factor for n in cfg.elements))


def _dispersion_table(cfg: RunConfig) -> SweepResult:
    spec = cfg.kernel_specs[0]
    rows = []
    for k in cfg.k_values:
        if spec.kind == "exponential":
            vp2 = dispersion.dispersion_exponential(k, cfg.material, spec.param)
        elif spec.kind == "power_law":
            vp2 = dispersion.dispersion_powerlaw(k, cfg.material, spec.param)
        else:
            vp2 = complex(cfg.material.local_velocity_sq)
        params = spec.label if spec.param is not None else ""
        rows.append((k, vp2.real, vp2.imag, spec.kind, params))
    return SweepResult(
        columns=DISPERSION_COLUMNS, rows=rows, metadata={"model": "dispersion"}
    )


def _convergence_table(cfg: RunConfig) -> SweepResult:
    spec = cfg.kernel_specs[0]
    kernel = spec.build()
    l_f = cfg.l_f_grid[0]
    rows = []
    previous = None
    for step in range(cfg.refinements + 1):
        model = _model(cfg, 2**step)
        # the table reports the nonlocal metric only: no local companion solve
        metric = fem.solve_metric(model, kernel, l_f, CONVERGENCE_RESIDUAL_TOL)
        change = None if previous is None else abs(metric - previous) / abs(metric)
        rows.append((cfg.target, model.axes.resolution, metric, change))
        previous = metric
    # the block entries describe the last level's, the largest
    return SweepResult(
        columns=CONVERGENCE_COLUMNS,
        rows=rows,
        metadata={
            "model": "convergence",
            "target": cfg.target,
            "kernel": spec.label,
            **fem.block_metadata(model.axes.free_dofs),
        },
    )


def _verify(subcommand: str, cfg: RunConfig, result: SweepResult):
    if subcommand == "dispersion":
        return _verify_dispersion(cfg, result)
    if subcommand == "convergence":
        return _verify_convergence(result)
    return _verify_sweep(cfg, result)


def _verify_dispersion(cfg: RunConfig, result: SweepResult):
    spec = cfg.kernel_specs[0]
    c2 = cfg.material.local_velocity_sq
    ks = result.column("k")
    res = result.column("re_vp2")
    ims = result.column("im_vp2")
    checks = []

    if spec.kind == "exponential":
        checks.append(
            _check(
                "dispersion_real",
                all(abs(v) <= 1e-12 * c2 for v in ims),
                "imaginary part beyond rounding for a real branch",
            )
        )
        checks.append(
            _check(
                "dispersion_bounded_by_local",
                all(0.0 < v <= c2 * (1.0 + 1e-12) for v in res),
                "squared phase velocity leaves (0, E/rho]",
            )
        )
        if len(res) >= 2:
            checks.append(
                _check(
                    "dispersion_monotone_in_k",
                    all(b <= a + 1e-12 * c2 for a, b in zip(res, res[1:])),
                    "squared phase velocity must not grow with wavenumber",
                )
            )
    elif spec.kind == "power_law" and spec.param < 1.0:
        alpha = spec.param
        target = 2.0 * (alpha - 1.0)
        if len(ks) >= 2:
            # a straight log-log line of slope target: |vp2| / k^target is
            # one constant, a test that needs no log step between rows
            scaled = [math.hypot(r, i) * k ** -target for k, r, i in zip(ks, res, ims)]
            checks.append(
                _check(
                    "dispersion_loglog_slope",
                    all(abs(v - scaled[0]) <= 1e-9 * scaled[0] for v in scaled),
                    f"log-log slope deviates from {target}",
                )
            )
        angle = math.remainder(math.pi * (1.0 + alpha), 2.0 * math.pi)
        checks.append(
            _check(
                "dispersion_phase_angle",
                all(abs(math.atan2(i, r) - angle) <= 1e-9 for r, i in zip(res, ims)),
                "complex phase deviates from pi*(1+alpha)",
            )
        )
    else:
        checks.append(
            _check(
                "dispersion_local_constant",
                all(abs(v - c2) <= 1e-12 * c2 for v in res)
                and all(abs(v) <= 1e-12 * c2 for v in ims),
                "local branch must equal E/rho at every wavenumber",
            )
        )
    if spec.kind in ("exponential", "local"):
        checks.append(_operator_check(cfg, ks, res, ims))
    return checks


def _operator_check(cfg: RunConfig, ks, res, ims):
    """The printed relation against the one read off the production operator (criterion 3).

    The exponential oracle's horizon is 15 l0, where truncation is below
    1e-6; the local operator does not depend on the horizon, which then
    spans one wavelength.
    """
    spec = cfg.kernel_specs[0]
    kernel = spec.build()
    worst = 0.0
    for k, real, imag in zip(ks, res, ims):
        horizon = 15.0 * spec.param if spec.kind == "exponential" else 2.0 * math.pi / k
        oracle = dispersion.numerical_dispersion(k, cfg.material, kernel, horizon)
        printed = complex(real, imag)
        worst = max(worst, abs(oracle - printed) / abs(printed))
    return _check(
        "dispersion_matches_operator",
        worst <= 1e-4,
        f"the operator's relation leaves the printed one by {worst:.2e} (> 1e-4)",
    )


def _verify_convergence(result: SweepResult):
    changes = [v for v in result.column("rel_change") if v is not None]
    if not changes:
        return [_check("self_convergence", False, "needs at least one refinement")]
    return [
        _check(
            "self_convergence",
            changes[-1] <= 5e-3,
            f"last doubling changed the metric by {changes[-1]:.3e} (> 5e-3)",
        )
    ]


def _verify_sweep(cfg: RunConfig, result: SweepResult):
    rows = [dict(zip(result.columns, row)) for row in result.rows]
    ok_rows = [r for r in rows if r["status"] == "ok"]
    unit_tol = 1e-3 if cfg.target == "beam" else 2e-3
    checks = [
        _check(
            "rows_complete",
            len(ok_rows) == len(rows),
            f"{len(rows) - len(ok_rows)} of {len(rows)} rows carry an error status",
        )
    ]
    if not ok_rows:
        return checks

    checks.append(
        _check(
            "softening_never_below_unit",
            all(r["w_bar"] >= 1.0 - 1e-9 for r in ok_rows),
            "a nonlocal run deflected less than its local companion",
        )
    )

    nontrivial = [r for r in ok_rows if _is_nontrivial(r)]
    if nontrivial:
        checks.append(
            _check(
                "softening_strict_when_nonlocal",
                all(r["w_bar"] > 1.0 for r in nontrivial),
                "a genuinely nonlocal run failed to soften",
            )
        )

    trivial = [r for r in ok_rows if not _is_nontrivial(r)]
    if trivial:
        checks.append(
            _check(
                "local_limit_unit_ratio",
                all(abs(r["w_bar"] - 1.0) <= unit_tol for r in trivial),
                f"a near-local run left the unit ratio by more than {unit_tol}",
            )
        )

    pl = [r for r in ok_rows if r["kernel"] == "power_law" and r["param"] < 1.0]
    by_horizon: dict[float, list] = {}
    by_alpha: dict[float, list] = {}
    for r in pl:
        by_horizon.setdefault(r["l_f"], []).append((r["param"], r["w_bar"]))
        by_alpha.setdefault(r["param"], []).append((r["l_f"], r["w_bar"]))
    if any(len(v) >= 2 for v in by_horizon.values()):
        checks.append(
            _check(
                "power_law_alpha_monotonicity",
                _strictly_increasing(by_horizon.values(), descending=True),
                "softening must strictly grow as the exponent decreases",
            )
        )
    if any(len(v) >= 2 for v in by_alpha.values()):
        checks.append(
            _check(
                "power_law_horizon_monotonicity",
                _strictly_increasing(by_alpha.values(), descending=False),
                "softening must strictly grow with the horizon radius",
            )
        )

    horizons = sorted({r["l_f"] for r in ok_rows})
    if len(horizons) >= 2:
        spreads = []
        for param in {
            r["param"]
            for r in ok_rows
            if r["kernel"] == "exponential" and 5.0 * r["param"] <= horizons[0]
        }:
            values = [
                r["w_bar"]
                for r in ok_rows
                if r["kernel"] == "exponential" and r["param"] == param
            ]
            if len(values) >= 2:
                spreads.append(max(values) / min(values) - 1.0)
        if spreads:
            checks.append(
                _check(
                    "exponential_horizon_insensitivity",
                    max(spreads) <= 1e-2,
                    "a short-range kernel varied by more than 1% across horizons",
                )
            )
    return checks


def _strictly_increasing(groups, descending: bool) -> bool:
    """Within each (key, value) group sorted by key, values must rise."""
    for pairs in groups:
        values = [w for _, w in sorted(pairs, reverse=descending)]
        if any(b <= a for a, b in zip(values, values[1:])):
            return False
    return True


def _is_nontrivial(row: dict) -> bool:
    if row["kernel"] == "exponential":
        return row["param"] > TRIVIAL_L0
    if row["kernel"] == "power_law":
        return row["param"] < 1.0
    return False


def _check(name: str, passed: bool, detail: str):
    return (name, bool(passed), detail)


if __name__ == "__main__":
    sys.exit(main())
