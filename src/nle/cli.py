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
backed MiB of a beam's or plate's free block).  With --verify, each check of
CHECKS that applies to the run measures one value off its table and holds
it to a bound; the manifest adds `verify.<check>`, the value, relation,
bound and verdict (`2.91e-06 <= 1e-04 PASS`), and is written after the
checks, even when one ends in an error.  The commit comes from a
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
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import ge, gt, le
from pathlib import Path
from types import SimpleNamespace

import numpy as np

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
    verdicts = []
    try:
        for name, passed, record, detail in _verify(cfg, result) if args.verify else ():
            entries[f"verify.{name}"] = record
            verdicts.append((name, passed, detail))
    finally:  # a check that ends in an error still leaves the manifest
        write_manifest(out_dir / MANIFEST_NAME, entries)

    for name, passed, detail in verdicts:
        print(f"verify PASS {name}" if passed else f"verify FAIL {name}: {detail}")
    if not all(passed for _, passed, _ in verdicts):
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


def _facts(cfg: RunConfig, result: SweepResult) -> SimpleNamespace:
    """The columns and groups of rows that the checks read off one run's table."""
    t = SimpleNamespace(cfg=cfg, count=len(result.rows))
    if cfg.subcommand == "dispersion":
        t.spec, t.c2 = cfg.kernel_specs[0], cfg.material.local_velocity_sq
        t.ks, t.re, t.im = (result.column(name) for name in ("k", "re_vp2", "im_vp2"))
        # below the local limit |vp2| / k^target is one constant: a log-log test with no log step
        t.dispersive = t.spec.kind == "power_law" and t.spec.param < 1.0
        if t.dispersive:
            t.target = 2.0 * (t.spec.param - 1.0)
            t.scaled = [math.hypot(r, i) * k**-t.target for k, r, i in zip(t.ks, t.re, t.im)]
            t.angle = math.remainder(math.pi * (1.0 + t.spec.param), 2.0 * math.pi)
    elif cfg.subcommand == "convergence":
        t.changes = [v for v in result.column("rel_change") if v is not None]
        t.doubling = "needs at least one refinement"
        if t.changes:
            t.doubling = f"last doubling changed the metric by {t.changes[-1]:.3e} (> 5e-3)"
    else:
        rows = (dict(zip(result.columns, row)) for row in result.rows)
        ok = [r for r in rows if r["status"] == "ok"]
        t.ok = [r["w_bar"] for r in ok]
        t.nonlocal_ = [r["w_bar"] for r in ok if _is_nontrivial(r)]
        t.near_local = [r["w_bar"] for r in ok if not _is_nontrivial(r)]
        t.unit_tol = 1e-3 if cfg.target == "beam" else 2e-3
        power = [r for r in ok if r["kernel"] == "power_law" and r["param"] < 1.0]
        t.by_horizon = _runs(power, "l_f", "param", descending=True)
        t.by_alpha = _runs(power, "param", "l_f", descending=False)
        t.spreads = _spreads(ok)
    return t


def _runs(rows: list[dict], key: str, by: str, descending: bool) -> list[list[float]]:
    """w_bar of rows, one run per value of key, each sorted by `by`."""
    groups: dict[float, list] = {}
    for r in rows:
        groups.setdefault(r[key], []).append((r[by], r["w_bar"]))
    return [[w for _, w in sorted(pairs, reverse=descending)] for pairs in groups.values()]


def _spreads(ok: list[dict]) -> list[float]:
    """max / min - 1 of w_bar across 2+ horizons, per exponential l0 <= a fifth of the least."""
    horizons = sorted({r["l_f"] for r in ok})
    lengths: dict[float, list] = {}
    for r in ok:
        if r["kernel"] == "exponential" and horizons[1:] and 5.0 * r["param"] <= horizons[0]:
            lengths.setdefault(r["param"], []).append(r["w_bar"])
    return [_most(w) / _least(w) - 1.0 for w in lengths.values() if len(w) > 1]


def _operator_gap(t) -> float:
    """The printed relation's worst relative gap to the one read off the production operator,
    over a horizon of 15 l0 (truncation below 1e-6) or, for the local kernel, one wavelength."""
    kernel = t.spec.build()
    gaps = []
    for k, real, imag in zip(t.ks, t.re, t.im):
        horizon = 15.0 * t.spec.param if t.spec.kind == "exponential" else 2.0 * math.pi / k
        oracle = dispersion.numerical_dispersion(k, t.cfg.material, kernel, horizon)
        printed = complex(real, imag)
        gaps.append(abs(oracle - printed) / abs(printed))
    return _most(gaps)


def _most(values) -> float:
    """The largest of values, -inf if none, NaN if any: Python's max drops a NaN after its first."""
    return float(np.max(np.fromiter(values, float), initial=-np.inf))


def _least(values) -> float:
    return float(np.min(np.fromiter(values, float), initial=np.inf))


def _falls(runs: list[list[float]]) -> int:
    """Neighbours within runs that fail to rise strictly; a NaN never rises."""
    return sum(not b > a for run in runs for a, b in zip(run, run[1:]))


@dataclass(frozen=True)
class _Check:
    """One `--verify` invariant, for runs of its subcommands whose facts t pass applies(t).

    measure(t) must stand in relation to bound, a number or a function of t;
    detail, the text after FAIL, is a template of value, bound and t.
    """

    name: str
    subcommands: tuple[str, ...]
    applies: Callable
    measure: Callable
    relation: str
    bound: float | Callable
    detail: str


_RELATIONS = {"<=": le, ">=": ge, ">": gt}
_DISPERSION, _SWEEPS = ("dispersion",), ("beam", "plate", "sweep")

# Counts of offending rows or pairs are held to 0; every other check holds
# its worst row to the bound.
CHECKS = (
    _Check("dispersion_real", _DISPERSION, lambda t: t.spec.kind == "exponential",
           lambda t: _most(map(abs, t.im)), "<=", lambda t: 1e-12 * t.c2,
           "imaginary part beyond rounding for a real branch"),
    _Check("dispersion_bounded_by_local", _DISPERSION, lambda t: t.spec.kind == "exponential",
           lambda t: sum(not 0.0 < v <= t.c2 * (1.0 + 1e-12) for v in t.re), "<=", 0,
           "squared phase velocity leaves (0, E/rho]"),
    _Check("dispersion_monotone_in_k", _DISPERSION,
           lambda t: t.spec.kind == "exponential" and t.count > 1,
           lambda t: sum(not b <= a + 1e-12 * t.c2 for a, b in zip(t.re, t.re[1:])), "<=", 0,
           "squared phase velocity must not grow with wavenumber"),
    _Check("dispersion_loglog_slope", _DISPERSION, lambda t: t.dispersive and t.count > 1,
           lambda t: _most(abs(v - t.scaled[0]) for v in t.scaled),
           "<=", lambda t: 1e-9 * t.scaled[0],
           "log-log slope deviates from {t.target}"),
    _Check("dispersion_phase_angle", _DISPERSION, lambda t: t.dispersive,
           lambda t: _most(abs(math.atan2(i, r) - t.angle) for r, i in zip(t.re, t.im)),
           "<=", 1e-9,
           "complex phase deviates from pi*(1+alpha)"),
    _Check("dispersion_local_constant", _DISPERSION,
           lambda t: t.spec.kind != "exponential" and not t.dispersive,
           lambda t: _most([*(abs(v - t.c2) for v in t.re), *map(abs, t.im)]),
           "<=", lambda t: 1e-12 * t.c2,
           "local branch must equal E/rho at every wavenumber"),
    _Check("dispersion_matches_operator", _DISPERSION, lambda t: t.spec.kind != "power_law",
           _operator_gap, "<=", 1e-4,
           "the operator's relation leaves the printed one by {value:.2e} (> 1e-4)"),
    _Check("self_convergence", ("convergence",), lambda t: True,
           lambda t: t.changes[-1] if t.changes else math.nan, "<=", 5e-3,
           "{t.doubling}"),
    _Check("rows_complete", _SWEEPS, lambda t: True,
           lambda t: t.count - len(t.ok), "<=", 0,
           "{value} of {t.count} rows carry an error status"),
    _Check("softening_never_below_unit", _SWEEPS, lambda t: t.ok,
           lambda t: _least(t.ok) - 1.0, ">=", -1e-9,
           "a nonlocal run deflected less than its local companion"),
    _Check("softening_strict_when_nonlocal", _SWEEPS, lambda t: t.nonlocal_,
           lambda t: _least(t.nonlocal_) - 1.0, ">", 0.0,
           "a genuinely nonlocal run failed to soften"),
    _Check("local_limit_unit_ratio", _SWEEPS, lambda t: t.near_local,
           lambda t: _most(abs(w - 1.0) for w in t.near_local), "<=", lambda t: t.unit_tol,
           "a near-local run left the unit ratio by more than {bound}"),
    _Check("power_law_alpha_monotonicity", _SWEEPS,
           lambda t: any(len(run) > 1 for run in t.by_horizon),
           lambda t: _falls(t.by_horizon), "<=", 0,
           "softening must strictly grow as the exponent decreases"),
    _Check("power_law_horizon_monotonicity", _SWEEPS,
           lambda t: any(len(run) > 1 for run in t.by_alpha),
           lambda t: _falls(t.by_alpha), "<=", 0,
           "softening must strictly grow with the horizon radius"),
    _Check("exponential_horizon_insensitivity", _SWEEPS, lambda t: t.spreads,
           lambda t: _most(t.spreads), "<=", 1e-2,
           "a short-range kernel varied by more than 1% across horizons"),
)


def _verify(cfg: RunConfig, result: SweepResult):
    """(name, passed, manifest record, FAIL detail) of each check that applies, in table order."""
    t = _facts(cfg, result)
    for check in CHECKS:
        if cfg.subcommand in check.subcommands and check.applies(t):
            value = check.measure(t)
            bound = check.bound(t) if callable(check.bound) else check.bound
            passed = _RELATIONS[check.relation](value, bound)
            verdict = "PASS" if passed else "FAIL"
            record = f"{_figure(value)} {check.relation} {_figure(bound)} {verdict}"
            yield check.name, passed, record, check.detail.format(value=value, bound=bound, t=t)


def _figure(x) -> str:
    """x to three significant digits, trailing zeros dropped: 2.91e-06, 1e-04, 0."""
    if isinstance(x, int) or x == 0.0 or not math.isfinite(x):
        return f"{x:g}"
    mantissa, exponent = f"{x:.2e}".split("e")
    return f"{mantissa.rstrip('0').rstrip('.')}e{exponent}"


def _is_nontrivial(row: dict) -> bool:
    if row["kernel"] == "exponential":
        return row["param"] > TRIVIAL_L0
    return row["kernel"] == "power_law" and row["param"] < 1.0


if __name__ == "__main__":
    sys.exit(main())
