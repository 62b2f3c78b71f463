"""One measured process of the benchmark: import nle.cli, then run main once.

    python3 perfbench/child.py RESULT_JSON [--trace RUN_ID] [-- CLI_ARGS...]

Without CLI arguments the child only imports nle.cli, which samples set-up
time.  It writes one JSON document to RESULT_JSON:

    ready       time.monotonic() when nle.cli was imported (shared clock with
                the parent, which noted its own monotonic time at spawn)
    nle_file    where nle was imported from
    rc          exit code of nle.cli.main (1 when it raised; traceback on stderr)
    wall_s      duration of the main call
    cpu_s       user + system CPU time of this process over the main call,
                every thread included (BLAS workers too)
    peak_rss_mib  ru_maxrss of this process at exit
    spans       with --trace: every span recorded, written after main returns
"""

import time
import sys

from nle import cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _run_main(args: list[str]) -> int:
    # The child is the boundary that reports a crash of the measured program.
    try:
        return cli.main(args)
    except Exception:
        traceback.print_exc()
        return 1


def main(argv: list[str]) -> int:
    result_path, rest = argv[0], argv[1:]
    run_id = None
    if rest[:1] == ["--trace"]:
        run_id, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    record = {"ready": READY, "nle_file": cli.__file__}
    if rest:
        if run_id is None:
            cpu0, t0 = _cpu(), time.perf_counter()
            rc = _run_main(rest)
            wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
        else:
            import layers

            with layers.traced(run_id) as tracer:
                cpu0, t0 = _cpu(), time.perf_counter()
                rc = _run_main(rest)
                wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
            tracer.mark_useful_solves()
            record["spans"] = tracer.spans
        record.update(rc=rc, wall_s=wall, cpu_s=cpu)
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
