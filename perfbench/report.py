"""Repeated benchmark runs summarised as medians, quartiles and spreads.

    python3 perfbench/report.py [--workloads A,B] [--runs N] [--trace-runs K]
                                [--seconds S] [--out FILE]

Runs perfbench/run.py one process at a time, with seeds 1..N for the timed
runs and 1..K for the traced runs of each workload.  For every end-to-end
metric it prints the median and quartiles over the runs
(statistics.quantiles, n=4), the quartile distance as a share of the median
next to the bound in BENCHMARK.json, and the failed rows with their base.
For a traced metric in seconds it also prints its share of the traced
nle.cli.main time.  `--runs 1` is the one command that prints every
end-to-end metric of every workload.  --out writes the machine facts and
every run's result line to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median > 0 else None,
            "bound": bounds.get(name),
            "n": len(values),
        }
    return summary


def main(argv=None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"machine": run.machine_facts(), "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        entry = {}
        for trace, count in ((0, args.runs), (1, args.trace_runs)):
            if count < 1:
                continue
            results = [run_once(workload, seed, args.seconds, trace) for seed in range(1, count + 1)]
            entry[f"trace{trace}"] = {"results": results, "summary": summarise(results, bounds)}
            _print(workload, trace, results, entry[f"trace{trace}"]["summary"])
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


def _print(workload: str, trace: int, results: list[dict], summary: dict) -> None:
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"\n{workload} ({'traced' if trace else 'timed'}, {len(results)} runs): "
          f"failed rows {failed}/{attempted}")
    main_s = summary.get("trace.wall_s", {}).get("median")
    for name, s in summary.items():
        line = f"  {name:28s} {s['median']:14.6g} {s['unit']:6s}"
        if s["n"] > 1:
            line += f" q1 {s['q1']:.6g} q3 {s['q3']:.6g}"
        if s["n"] > 1 and s["spread"] is not None:
            line += f" spread {s['spread']:.4f}"
        if s["bound"] is not None:
            line += f" (bound {s['bound']})"
        if trace and s["unit"] == "s" and main_s:
            line += f" share {s['median'] / main_s:.3f}"
        print(line)


if __name__ == "__main__":
    sys.exit(main())
