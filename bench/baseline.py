"""Runs the benchmark over a set of seeds and writes the aggregate as JSON.

    python3 bench/baseline.py --seeds 41 42 43 44 45 46 47 48 49 50 --out bench/baseline.json

runs `run.py --trace 0` once per workload and seed, one run at a time, and
then `run.py --trace 1 --seed 1` once per workload, each for the
run_seconds of BENCHMARK.json.  For every
end-to-end metric it writes the per-run values, their median, first and
third quartiles (`statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) / median; for the traced run, every per-layer metric.  A seed
may repeat: ten runs of one seed measure the machine's noise alone.
`--workloads NAME ...` runs only those workloads.

    python3 bench/baseline.py --compare A.json B.json

prints, per workload and metric, both sets' medians and spreads and how
far B's median lies from A's, as a share of A's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
TRACE_SEED = 1


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(env, result) of one run.py call; env is its `# env` line."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=BENCH.parent, stdout=subprocess.PIPE, text=True, check=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    return env, json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def measure(seeds: list[int], workloads: list[str]) -> dict:
    out = {"seeds": seeds, "seconds": SECONDS,
           "trace_seed": TRACE_SEED, "workloads": {}}
    for workload in workloads:
        values, units, runs = {}, {}, []
        for seed in seeds:
            env, result = run(workload, seed, 0)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
                + f"; {result['failed']} of {result['attempted']} failed", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "loadavg_1m": env["loadavg_1m"],
                         "calibration_dot_ms": env["calibration_dot_ms"],
                         "contended": env["contended"]})
        env, traced = run(workload, TRACE_SEED, 1)
        out["env"] = {key: env[key] for key in
                      ("cpu", "nproc", "affinity", "python", "numpy", "blas", "threads")}
        out["workloads"][workload] = {
            "end_to_end": {name: {"unit": units[name], **summary(v)}
                           for name, v in values.items()},
            "runs": runs,
            "per_layer": {name: metric["value"]
                          for name, metric in traced["metrics"].items()},
            "per_layer_correct": traced["correct"],
        }
    return out


def report(first: dict, second: dict | None = None) -> None:
    for workload, a in first["workloads"].items():
        for name, ma in a["end_to_end"].items():
            line = f"{workload:18} {name:12} median {ma['median']:.4g} spread {ma['spread']:.3f}"
            if second is not None and workload in second["workloads"]:
                mb = second["workloads"][workload]["end_to_end"][name]
                line += (f" | median {mb['median']:.4g} spread {mb['spread']:.3f}"
                         f" | moved {mb['median'] / ma['median'] - 1.0:+.3f}")
            print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cvmdi benchmark: aggregate runs over seeds",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(path.read_text()) for path in args.compare)
        report(first, second)
        return 0
    if not args.seeds or len(args.seeds) < 2 or args.out is None:
        parser.error("--seeds needs at least two values, and --out a file")
    result = measure(args.seeds, args.workloads)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
