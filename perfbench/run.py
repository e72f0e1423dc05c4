"""Benchmark of the weakner library: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload bootstrap --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, one process each

A run is one process and one thread with BLAS pinned to one thread. It
imports the library from ``src/`` of the checkout, builds the workload's
inputs from ``--seed`` several times (``setup_s`` is the median, plus the
library import), then runs timed passes in a closed loop until
``--seconds`` have passed, at least two of them. Every pass's outputs are
checked and compared with the first pass's, so a failed check or a
nondeterministic result counts as a failed pass.

The shared host's speed swings by up to 2x in phases that can outlast a
run, so raw pass times of the same code spread by 15-50% between runs.
Each pass is therefore bracketed by timings of a fixed reference task that
does not use the library (``calibrate.py``). ``wall_norm_s`` is the median
over the run of each pass's time scaled to the host speed at which the
reference task takes ``calibrate.REFERENCE_S``. The measured pass times are
printed too, with their median, 90th percentile and count.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate; the result holds the
per-layer metrics of the traced passes and the tracing overhead, and the
last traced pass's spans are written to ``.perfbench/``.

The last line of standard output is the JSON result; the lines before it
describe the machine and the run. Scratch files live under ``.perfbench/``
in the checkout and are removed at exit.
"""

from __future__ import annotations

import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
MIN_PASSES = 2

_t0 = time.perf_counter()
sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    import numpy as np
    import weakner
except ImportError as e:
    sys.exit(f"perfbench: cannot import the library from {ROOT}/src: {e}")
if not os.path.abspath(weakner.__file__).startswith(os.path.join(ROOT, "src", "")):
    sys.exit(f"perfbench: imported weakner from {weakner.__file__}, not from {ROOT}/src")
IMPORT_S = time.perf_counter() - _t0

import calibrate  # noqa: E402
import spans  # noqa: E402  (these import the library too)
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
UNITS = {False: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
         True: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
# Per-layer counts, which must repeat exactly from pass to pass.
COUNTS = [name for name, unit in UNITS[True].items() if unit == "count"]
TIME_UNITS = ("s", "us")


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
    }


class Run:
    """Set-up and timed passes of one workload in this process."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, size="full"):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.size = size
        self.setup_times = []
        self.walls = []          # untraced pass seconds, as measured
        self.traced_walls = []
        self.norms = []          # the same passes at the reference host speed
        self.traced_norms = []
        self.tracers = []
        self.traced_scales = []  # REFERENCE_S / the host's reference time, per traced pass
        self.attempted = self.failed = 0
        self.digest = None       # output digest of the first good pass
        self.scores = None       # its f1 and f1_soft; later passes must match the digest
        self.counts = None       # per-layer counts of the first traced pass

    def measure(self):
        os.makedirs(SCRATCH, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=SCRATCH)
        try:
            self.workload = workloads.make(self.name, self.seed, workdir, self.size)
            for _ in range(SETUP_REPEATS):
                t = time.perf_counter()
                self.workload.setup()
                self.setup_times.append(time.perf_counter() - t)
            deadline = time.perf_counter() + self.seconds
            min_attempts = MIN_PASSES * (2 if self.trace else 1)
            ref = calibrate.reference_seconds()
            while time.perf_counter() < deadline or self.attempted < min_attempts:
                ref = self._one_pass(self.trace and self.attempted % 2 == 1, ref)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return self

    def _one_pass(self, traced: bool, ref_before: float) -> float:
        """Time and check one pass; return the reference time measured after it.

        The pass is bracketed by two timings of the reference task, and their
        mean gives the host's speed while the pass ran.
        """
        self.attempted += 1
        tracer = spans.Tracer() if traced else None
        ref_after = None
        gc.collect()  # every pass starts from a swept heap
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                t = time.perf_counter()
                out = self.workload.run()
                wall = time.perf_counter() - t
            ref_after = calibrate.reference_seconds()
            digest = self.workload.check(out)
            if self.digest is None:
                self.digest, self.scores = digest, self.workload.score(out)
            elif digest != self.digest:
                raise workloads.CheckFailed("output differs from the first pass")
            if traced:
                found = tracer.metrics()
                counts = {name: found.get(name, 0) for name in COUNTS}
                if self.counts is None:
                    self.counts = counts
                elif counts != self.counts:
                    raise workloads.CheckFailed(f"counts differ: {counts} vs {self.counts}")
        except Exception:  # a failed pass is counted and reported, never dropped
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return ref_after or calibrate.reference_seconds()
        scale = calibrate.REFERENCE_S / ((ref_before + ref_after) / 2)
        (self.traced_walls if traced else self.walls).append(wall)
        (self.traced_norms if traced else self.norms).append(wall * scale)
        if traced:
            self.tracers.append(tracer)
            self.traced_scales.append(scale)
        return ref_after

    # -- results -----------------------------------------------------------------

    def end_to_end(self) -> dict:
        return {
            "wall_norm_s": statistics.median(self.norms),
            "setup_s": IMPORT_S + statistics.median(self.setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **self.scores,
        }

    def per_layer(self) -> dict:
        # Times, like wall_norm_s, at the reference host speed; counts as found.
        found = [{k: v * scale if UNITS[True].get(k) in TIME_UNITS else v
                  for k, v in t.metrics().items()}
                 for t, scale in zip(self.tracers, self.traced_scales)]
        out = {name: statistics.median(f.get(name, 0.0) for f in found) for name in UNITS[True]}
        out.update(self.counts)
        out["refset.pin_precision"] = self.workload.pin_precision(self.tracers[-1].matches)
        out["trace.overhead_s"] = (statistics.median(self.traced_norms)
                                   - statistics.median(self.norms))
        return out

    def result(self) -> dict:
        values = self.per_layer() if self.trace else self.end_to_end()
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in UNITS[self.trace].items()},
        }


def report(run: Run, result: dict):
    info = {"workload": run.name, "seed": run.seed, "trace": int(run.trace),
            "seconds": run.seconds, "machine": machine(),
            "setup_s": run.setup_times, "import_s": IMPORT_S,
            "pass_s": run.walls, "traced_pass_s": run.traced_walls,
            "norm_pass_s": run.norms, "reference_s": calibrate.REFERENCE_S,
            "error_rate": run.failed / run.attempted}
    print("context " + json.dumps(info, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:14.6f} {m['unit']}")
    print(f"{'error_rate':32s} {info['error_rate']:14.6f} share "
          f"({run.failed} of {run.attempted} passes failed)")
    for label, values in (("wall_s as measured", run.walls), ("wall_norm_s", run.norms)):
        values = sorted(values)
        p90 = statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 \
            else values[0]
        print(f"{label}: {len(values)} untraced passes, median {statistics.median(values):.4f} s, "
              f"p90 {p90:.4f} s, fastest {values[0]:.4f} s")
    if run.trace:
        spans_path = os.path.join(SCRATCH, f"spans-{run.name}-seed{run.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(run.tracers[-1].dump(), fh)
        print(f"spans of the last traced pass -> {os.path.relpath(spans_path, ROOT)}")


def run_all(args) -> int:
    """Each workload in a fresh child process, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace)).measure()
    if not run.walls or (run.trace and not run.tracers):
        print("perfbench: no pass succeeded", file=sys.stderr)
        return 1
    result = run.result()
    report(run, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
