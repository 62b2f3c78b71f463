"""Benchmark of the nle softening pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs one shipped config, unchanged and with --verify, through
nle.cli.main in a fresh child process (perfbench/child.py).  Runs are a
closed loop with one client: the next child starts after the previous one
exits, and child processes start no thread beyond the program's own.  BLAS
runs with whatever environment the caller has; it is recorded, not pinned.

--trace 0 repeats the workload for about S seconds and reports the medians
of setup_s, wall_s, cpu_s and peak_rss_mb.  --trace 1 alternates an
untraced and a traced child (perfbench/layers.py wraps each layer's public
names) and reports the per-layer figures and the tracing overhead, both
measured (traced minus untraced wall_s) and estimated (spans times the
cost of one span wrapper).

Every CSV row is one operation.  A row fails when its status is not "ok",
when --verify prints a FAIL line or the exit code is nonzero (then every
row of that child fails), or when a value leaves the seed reference in
perfbench/reference/ by more than REFERENCE_RTOL relative.

The inputs are fixed shipped configs with no random content: --seed is
recorded but changes nothing.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; a fuller record
with the machine facts goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402


@dataclass(frozen=True)
class Workload:
    subcommand: str
    config: str
    model: str


WORKLOADS = {
    "beam_sweep": Workload("sweep", "configs/sweep_beam.yaml", "beam"),
    "plate_sweep": Workload("sweep", "configs/sweep_plate.yaml", "plate"),
    "plate_convergence": Workload("convergence", "configs/convergence_plate.yaml", "plate"),
}

# Switching OpenBLAS between its default and one thread moves sweep_beam
# values by up to 3.2e-11 relative; the tolerance sits well above that floor.
REFERENCE_RTOL = 1e-9

MIN_RUNS = 2  # timed runs of the workload per benchmark run, however long they take
SETUP_SAMPLES = 7  # set-up is sampled at least this often per benchmark run
BUDGET_S = 150.0  # no child starts unless it is expected to end before this
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The checkout cannot be measured: files missing, or a child failed to run."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="recorded; the inputs are fixed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        reference = _check_checkout(args.workload, workload)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        bench = _Bench(args.workload, workload, reference, tmp)
        bench.warm_up()
        if args.trace:
            metrics = bench.traced(args.seconds)
        else:
            metrics = bench.timed(args.seconds)
    except (BenchError, layers.DriftError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "children": bench.children,
        "result": result,
    }
    path = _write_record(record)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed rows = {bench.failed}/{bench.attempted}; record {path}")
    print(json.dumps(result))
    return 0


def _check_checkout(name: str, workload: Workload) -> list[list[str]]:
    needed = [ROOT / "src" / "nle" / "cli.py", ROOT / workload.config, BENCH / "reference" / f"{name}.csv"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not an nle checkout, missing: {', '.join(missing)}")
    with open(needed[-1], encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class _Bench:
    """Children of one benchmark run and the row failures they produced."""

    def __init__(self, name: str, workload: Workload, reference: list[list[str]], tmp: Path):
        self.name = name
        self.workload = workload
        self.reference = reference
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.started = time.monotonic()
        self.children: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def warm_up(self) -> None:
        """Import once untimed so byte-code and page caches are filled."""
        self._spawn(None, None)

    def timed(self, seconds: float) -> dict:
        runs = self._loop(seconds, traced=False)
        return {
            "setup_s": _metric(self._setup_median(), "s"),
            "wall_s": _metric(_median(runs, "wall_s"), "s"),
            "cpu_s": _metric(_median(runs, "cpu_s"), "s"),
            "peak_rss_mb": _metric(_median(runs, "peak_rss_mib"), "MiB"),
        }

    def traced(self, seconds: float) -> dict:
        runs = self._loop(seconds, traced=True)
        plain = [r for r in runs if "layers" not in r]
        per_run = [r["layers"] for r in runs if "layers" in r]
        values = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
        values["trace.overhead_s"] = values["trace.wall_s"] - _median(plain, "wall_s")
        values["trace.overhead_est_s"] = values["trace.spans"] * layers.span_cost()
        return {name: _metric(values[name], unit) for name, unit in layers.LAYER_UNITS.items()}

    def _loop(self, seconds: float, traced: bool) -> list[dict]:
        """Repeat the workload for about `seconds`.

        Timed: at least MIN_RUNS children.  Traced: at least one pair of an
        untraced and a traced child.
        """
        start = time.monotonic()
        runs: list[dict] = []
        while True:
            runs.append(self._run_workload(None))
            if traced:
                runs.append(self._run_workload(f"{self.name}-{len(runs)}"))
            now = time.monotonic()
            step = (now - start) / len(runs) * (2 if traced else 1)
            if now + step > self.started + BUDGET_S:
                return runs
            if now - start + step > seconds and (traced or len(runs) >= MIN_RUNS):
                return runs

    def _setup_median(self) -> float:
        while len(self.children) - 1 < SETUP_SAMPLES and time.monotonic() < self.started + BUDGET_S:
            self._spawn(None, None)
        return statistics.median(c["setup_s"] for c in self.children[1:])

    def _run_workload(self, run_id: str | None) -> dict:
        index = len(self.children)
        out = self.tmp / f"out{index}"
        cli_args = [self.workload.subcommand, "--config", self.workload.config, "--verify", "--out", str(out)]
        child, spans = self._spawn(cli_args, run_id)
        rows = len(self.reference) - 1
        failed = rows
        if child["rc"] == 0 and not child["verify_fail"]:
            failed = _failed_rows(out, self.reference)
        child.update(rows=rows, failed_rows=failed)
        self.attempted += rows
        self.failed += failed
        if run_id is not None:
            metrics = layers.layer_metrics(spans)
            layers.require_nonzero(metrics, self.workload.model, f"{self.name} traced run")
            child["layers"] = metrics
        shutil.rmtree(out, ignore_errors=True)
        return child

    def _spawn(self, cli_args: list[str] | None, run_id: str | None) -> tuple[dict, list | None]:
        """Run one child to completion; its record joins self.children, its spans are returned."""
        result = self.tmp / f"child{len(self.children)}.json"
        cmd = [sys.executable, str(BENCH / "child.py"), str(result)]
        if run_id is not None:
            cmd += ["--trace", run_id]
        if cli_args:
            cmd += ["--", *cli_args]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"child exceeded {CHILD_TIMEOUT_S:.0f} s: {' '.join(cmd)}") from None
        if proc.returncode != 0 or not result.is_file():
            raise BenchError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        with open(result, encoding="utf-8") as fh:
            record = json.load(fh)
        src = ROOT / "src"
        if not Path(record["nle_file"]).resolve().is_relative_to(src):
            raise BenchError(f"nle imported from {record['nle_file']}, not from {src}")
        child = {
            "setup_s": record["ready"] - spawned,
            "rc": record.get("rc"),
            "wall_s": record.get("wall_s"),
            "cpu_s": record.get("cpu_s"),
            "peak_rss_mib": record["peak_rss_mib"],
            "verify_fail": [line for line in proc.stdout.splitlines() if line.startswith("verify FAIL")],
        }
        self.children.append(child)
        return child, record.get("spans")


def _failed_rows(out: Path, reference: list[list[str]]) -> int:
    """Rows of the CSV in `out` that differ from the reference or carry an error status."""
    rows = len(reference) - 1
    produced = sorted(out.glob("*.csv"))
    if len(produced) != 1:
        return rows
    with open(produced[0], encoding="utf-8", newline="") as fh:
        got = list(csv.reader(fh))
    header = reference[0]
    if got[:1] != [header] or len(got) != len(reference):
        return rows
    status = header.index("status") if "status" in header else None
    return sum(
        1
        for ref, row in zip(reference[1:], got[1:])
        if (status is not None and row[status] != "ok")
        or len(row) != len(ref)
        or not all(_same(a, b) for a, b in zip(ref, row))
    )


def _same(expected: str, got: str) -> bool:
    if expected == got:
        return True
    try:
        a, b = float(expected), float(got)
    except ValueError:
        return False
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))


def _median(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def machine_facts() -> dict:
    """Hardware, library and BLAS facts recorded next to every result."""
    import numpy
    import scipy

    def blas(cfg: dict) -> dict:
        info = cfg.get("Build Dependencies", {}).get("blas", {})
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    meminfo = _read_fields("/proc/meminfo")
    cpuinfo = _read_fields("/proc/cpuinfo")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total": meminfo.get("MemTotal"),
        "cpu_model": cpuinfo.get("model name"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _read_fields(path: str) -> dict:
    """First value of each "key: value" line of a /proc file; empty if unreadable."""
    fields: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                fields.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    return fields


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over src/nle/*.py, which names the code measured even outside git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nle").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _write_record(record: dict) -> Path:
    folder = WORK / "results"
    folder.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{stamp}-{os.getpid()}"
    path = folder / f"{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return path.relative_to(ROOT)


if __name__ == "__main__":
    sys.exit(main())
