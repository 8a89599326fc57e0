"""The measured process: runs one workload's jobs in a closed loop.

Started by run.py with BLAS threads pinned to 1 and cvmdi's source tree on
sys.path.  Jobs run one at a time through `cvmdi.cli.main(argv)` with
stdout captured; each job's payloads are kept in memory and checked after
the timed loop, so checking costs neither time nor memory in the
measurement.  Prints one JSON document on stdout.

With --trace 1 every job runs twice, untraced and then traced, and the
per-layer figures come from the traced half (see tracing.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import cvmdi.cli
import numpy as np

import reference
import tracing
import workloads
from run import SRC, THREAD_VARIABLES

# A traced job's self times must account for this share of its wall time;
# the rest is the harness around cvmdi.cli.main (argv, stdout capture).
SELF_SUM_SHARE_MIN = 0.95
# Uncontended, a 1e5-element dot product takes about 0.04 ms here; ten
# times that, or a load average above the core count, flags contention.
CONTENDED_DOT_MS = 0.4


def environment() -> dict:
    """Machine, interpreter, numpy/BLAS and contention readings."""
    x = np.random.default_rng(0).standard_normal(100_000)
    dots = []
    for _ in range(200):
        start = time.perf_counter()
        float(x @ x)
        dots.append(time.perf_counter() - start)
    dot_ms = 1e3 * statistics.median(dots)
    with contextlib.redirect_stdout(io.StringIO()):
        config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.processor())
    nproc = os.cpu_count()
    load1 = os.getloadavg()[0]
    return {
        "cpu": cpu,
        "nproc": nproc,
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "loadavg_1m": load1,
        "calibration_dot_ms": dot_ms,
        "contended": load1 > nproc or dot_ms > CONTENDED_DOT_MS,
    }


def run_job(job) -> list[tuple[object, str]]:
    """(exit code, stdout) per command line; an exception counts as a failure.

    cvmdi.cli.main is looked up on every call, so a traced job runs the
    patched entry point.
    """
    outputs = []
    for argv in job.argvs:
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cvmdi.cli.main(list(argv))
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = "exception"
        outputs.append((code, buffer.getvalue()))
    return outputs


def closed_loop(make_job, seed: int, seconds: float, run_one):
    """Run jobs 0, 1, ... while the next one is expected to end in time."""
    start = time.perf_counter()
    durations = []
    index = 0
    while True:
        job = make_job(seed, index)
        durations.append(run_one(job))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return durations


def check_all(check, done) -> tuple[int, list[str]]:
    attempted, failures = 0, []
    for job, outputs in done:
        ops, fails = check(job, outputs)
        attempted += ops
        failures += fails
    return attempted, failures


def measure(workload: str, seed: int, seconds: float) -> dict:
    make_job, check = workloads.WORKLOADS[workload]
    clock = reference.CalibratedClock(workloads.KERNELS[workload])
    done, calibrated = [], []

    def run_one(job):
        outputs, elapsed, scaled = clock.time(lambda: run_job(job))
        done.append((job, outputs))
        calibrated.append(scaled)
        return elapsed

    durations = closed_loop(make_job, seed, seconds, run_one)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failures = check_all(check, done)
    return {"durations": durations, "calibrated": calibrated,
            "peak_rss_mb": peak_kb / 1024.0, "attempted": attempted, "failures": failures}


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    make_job, check = workloads.WORKLOADS[workload]
    tracer = tracing.Tracer()
    done, plain, traced, self_sums = [], [], [], []
    calls, self_s, errors, counts = Counter(), Counter(), Counter(), Counter()
    mismatched = []

    def run_one(job):
        start = time.perf_counter()
        outputs = run_job(job)
        plain.append(time.perf_counter() - start)
        tracer.reset()
        with tracer.patch():
            traced_start = time.perf_counter()
            traced_outputs = run_job(job)
            traced.append(time.perf_counter() - traced_start)
        done.append((job, outputs))
        if traced_outputs != outputs:
            mismatched.append(" ".join(job.argvs[0][:3]))
        spans = tracer.spans
        job_self = tracing.self_times(spans)
        self_sums.append(sum(job_self.values()))
        self_s.update(job_self)
        calls.update(tracing.call_counts(spans))
        errors.update(tracer.errors)
        counts.update(tracer.counts)
        return time.perf_counter() - start

    closed_loop(make_job, seed, seconds, run_one)
    attempted, failures = check_all(check, done)
    jobs = len(done)
    shares = [s / t for s, t in zip(self_sums, traced)]
    low_share = [s for s in shares if not SELF_SUM_SHARE_MIN <= s <= 1.0 + 1e-9]
    attempted += 2 * jobs
    failures += [f"traced payload differs ({name})" for name in mismatched]
    failures += [f"self times cover {s:.3f} of a traced job" for s in low_share]

    metrics: dict[str, tuple[float, str]] = {}
    traced_wall = sum(traced) / jobs
    for name in tracing.TRACED:
        metrics[f"{name}.calls"] = (calls[name] / jobs, "count")
        metrics[f"{name}.self_s"] = (self_s[name] / jobs, "s")
        metrics[f"{name}.us_per_call"] = (
            1e6 * self_s[name] / calls[name] if calls[name] else 0.0, "us")
        metrics[f"{name}.errors"] = (errors[name] / jobs, "count")
    for module in tracing.MODULES:
        module_self = sum(v for k, v in self_s.items()
                          if k.startswith(module + ".")) / jobs
        metrics[f"{module}.self_s"] = (module_self, "s")
        metrics[f"{module}.self_share"] = (module_self / traced_wall, "frac")

    def ratio(a, b):
        return a / b if b else 0.0

    evaluations = counts["evaluations"]
    metrics["optimizer.evaluations"] = (evaluations / jobs, "count")
    metrics["optimizer.unique_eval_ratio"] = (
        ratio(counts["rate_computations"], evaluations), "ratio")
    metrics["gaussian.spectra_per_eval"] = (
        ratio(calls["gaussian.symplectic_eigenvalues"], evaluations), "ratio")
    records = counts["records_drawn"]
    metrics["simulator.records_drawn"] = (records / jobs, "count")
    metrics["simulator.bytes_drawn_computed"] = (
        records * tracing.DATASET_BYTES_PER_RECORD / jobs, "B")
    metrics["estimation.record_passes_per_block"] = (
        ratio(counts["record_passes"], calls["simulator.sample_dataset"]), "ratio")
    metrics["estimation.bytes_read_computed"] = (counts["bytes_read"] / jobs, "B")
    metrics["tracing_overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), "s")
    metrics["trace.self_sum_share"] = (sum(self_sums) / sum(traced), "frac")
    return {"jobs": jobs, "untraced_wall_s": statistics.median(plain),
            "traced_wall_s": statistics.median(traced),
            "metrics": metrics, "attempted": attempted, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    source = Path(cvmdi.cli.__file__).resolve()
    if SRC not in source.parents:
        print(f"cvmdi was imported from {source}, not from {SRC}", file=sys.stderr)
        return 2
    env = environment()
    run = measure_traced if args.trace else measure
    result = run(args.workload, args.seed, args.seconds)
    result["env"] = env
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
