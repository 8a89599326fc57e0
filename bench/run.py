"""cvmdi benchmark: end-to-end and per-layer figures for three workloads.

    python3 bench/run.py --workload all --seed 1

runs analysis-sweep, mc-validate and protocol-optimize one after the
other.  The form BENCHMARK.json runs, one workload per call, is

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

and its last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics
(setup_s, wall_s, peak_rss_mb; times are calibrated, see reference.py); --trace 1
reports the per-layer metrics of the traced run.  The lines before it give the environment and a
readable summary, failed_frac included.  See bench/README.md.

The program is imported from the src/ directory of the checkout that holds
this file; without it the benchmark exits with status 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# setup_s is the median of this many fresh interpreters, after one warm-up
# that also compiles the bytecode cache.  Each interpreter then times the
# small reference kernel (reference.py) and reports its set-up time scaled
# by it.  A kernel timed in the parent between children tracks badly: the
# child has run on another CPU, or has just left this one's caches cold.
SETUP_SAMPLES = 11
SETUP_CODE = ("import time\n"
              "start = time.perf_counter()\n"
              "import cvmdi.cli\n"
              "cvmdi.cli.build_parser()\n"
              "elapsed = time.perf_counter() - start\n"
              "import reference\n"
              "print(elapsed, reference.calibrate_after(elapsed))\n")
# Every run, its set-up included, must end within 180 s.
WORKER_TIMEOUT_S = 150.0


def measured_env() -> dict:
    """Environment of every measured process: BLAS pinned to one thread."""
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_seconds(env: dict) -> tuple[list[float], list[float]]:
    """(raw, calibrated) set-up times of fresh interpreters, warm-up dropped."""
    raw, calibrated = [], []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=BENCH,
                             capture_output=True, text=True, check=True, timeout=60)
        seconds, scaled = map(float, out.stdout.split())
        raw.append(seconds)
        calibrated.append(scaled)
    return raw[1:], calibrated[1:]


def run_worker(env: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, timeout=WORKER_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"worker exited with status {out.returncode}")
    return json.loads(out.stdout)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = measured_env()
    setup_raw, setup = (None, None) if trace else setup_seconds(env)
    result = run_worker(env, workload, seed, seconds, trace)
    failures = result["failures"]
    attempted = result["attempted"]
    info = result["env"]
    print("# env " + json.dumps(info, sort_keys=True))
    if info["contended"]:
        print(f"# WARNING contended machine: load {info['loadavg_1m']:.2f} on "
              f"{info['nproc']} CPUs, 1e5 dot {info['calibration_dot_ms']:.3f} ms",
              file=sys.stderr)
    for failure in failures[:20]:
        print(f"# FAILED {failure}", file=sys.stderr)
    print(f"# {workload} seed={seed} trace={trace}")
    failed_frac = len(failures) / attempted if attempted else 1.0
    if trace:
        metrics = {name: _metric(value, unit)
                   for name, (value, unit) in result["metrics"].items()}
        print(f"{'traced jobs':<44} {result['jobs']}")
        print(f"{'untraced / traced wall_s (median)':<44} "
              f"{result['untraced_wall_s']:.4f} / {result['traced_wall_s']:.4f} s")
        for name, metric in metrics.items():
            print(f"{name:<44} {metric['value']:.6g} {metric['unit']}")
    else:
        durations, calibrated = result["durations"], result["calibrated"]
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "wall_s": _metric(statistics.median(calibrated), "s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        }
        print(f"setup_s      {metrics['setup_s']['value']:.4f} s  "
              f"(calibrated median of {len(setup)} fresh interpreters; raw median "
              f"{statistics.median(setup_raw):.4f})")
        print(f"wall_s       {metrics['wall_s']['value']:.4f} s  (calibrated median of "
              f"{len(calibrated)} jobs; raw median {statistics.median(durations):.4f}, "
              f"min {min(durations):.4f}, max {max(durations):.4f})")
        print(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB  (worker process)")
    print(f"failed_frac  {failed_frac:.4g}  ({len(failures)} of {attempted} operations)")
    return {"correct": not failures and attempted > 0, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cvmdi benchmark", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cvmdi" / "cli.py").is_file():
        print(f"error: no cvmdi source tree at {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
