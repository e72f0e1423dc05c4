"""Self-test of the benchmark at tiny input sizes; finishes in seconds.

    python3 perfbench/selftest.py

For every workload it makes one untraced and one traced run, each of at
least two passes, and checks that:

* no pass failed (output checks, determinism, repeated counts);
* every metric named in BENCHMARK.json is printed with its unit, and
  each one is non-zero on at least one workload;
* every traced span lasts at least as long as its children together;
* the top-level spans cover at least 90% of each traced pass's wall time.
"""

from __future__ import annotations

import contextlib
import io
import sys

import run  # pins BLAS threads and puts the library on the path first
import workloads


def printed_metrics(text: str) -> dict:
    """name -> unit, from the report lines of a run."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3:
            out[parts[0]] = parts[2]
    return out


def check_run(name: str, trace: bool, expected: dict, seen: set) -> list:
    bench = run.Run(name, seed=1, seconds=0, trace=trace, size="tiny").measure()
    problems = []
    if bench.failed or not bench.walls or (trace and not bench.tracers):
        return [f"{bench.failed} of {bench.attempted} passes failed"]
    result = bench.result()
    seen.update(k for k, m in result["metrics"].items() if m["value"])
    with contextlib.redirect_stdout(io.StringIO()) as text:
        run.report(bench, result)
    shown = printed_metrics(text.getvalue())
    for metric, unit in expected.items():
        if shown.get(metric) != unit:
            problems.append(f"{metric} not printed with unit {unit}")
    for tracer, wall in zip(bench.tracers, bench.traced_walls):
        for span in tracer.check_nesting():
            problems.append(f"span {span[0]} is shorter than its children")
        covered = tracer.top_level_seconds() / wall
        if covered < 0.9:
            problems.append(f"top-level spans cover {covered:.0%} of the pass")
    return problems


def main() -> int:
    failures = 0
    seen = set()
    for name in workloads.WORKLOADS:
        for trace, expected in run.UNITS.items():
            problems = check_run(name, trace, expected, seen)
            failures += bool(problems)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{name:10s} trace={int(trace)} {status}")
    # A metric no workload ever moves from zero is misnamed or not measured.
    never = [m for units in run.UNITS.values() for m in units if m not in seen]
    if never:
        failures += 1
        print("FAIL: zero on every workload: " + ", ".join(never))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
