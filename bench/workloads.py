"""Workload generators and their correctness checks.

A workload turns (seed, job index) into one job: a short list of cvmdi
command lines.  Only the generated arguments reach the program.  Each
workload's `check` takes a job and the (exit code, stdout) of each of its
command lines and returns (operations, failure messages); a command line
that raised or exited non-zero fails every operation it carries.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

import oracle

ATTACKS = ("pure-loss", "collective", "two-mode-optimal")
# Rate agreement with the oracle: relative, plus an absolute floor for
# rates that cross zero, where a relative test is ill-conditioned.
RATE_RTOL = 1e-9
RATE_ATOL = 1e-12

# The program's default search, passed explicitly so that a change of
# default cannot change the work silently.
SEARCH = ("--v-m-grid", "1:1000:25", "--r-grid", "0.1:0.9:9", "--refinement-rounds", "2")
V_M_GRID = tuple(float(x) for x in np.geomspace(1.0, 1e3, 25))
R_GRID = tuple(float(x) for x in np.linspace(0.1, 0.9, 9))

# Even jobs sweep Bob's link alone, odd jobs both links together; each job
# is one row of the default grid, 0-20 dB in 0.5 dB steps (0-10 dB for the
# common link), drawn by the seed.
SWEEP_FLAGS = (("--bob-db", 41), ("--common-db", 21))
SWEEP_DB_STEP = 0.5
SWEEP_N_BARS = (10 ** 9, 10 ** 6)
SIMULATE_M = 100_000
SIMULATE_TRIALS = 300
OPTIMIZE_N_BAR = 100_000
# Each protocol-mode candidate is compared with ORACLE_BLOCKS blocks the
# oracle draws itself, from its own stream.  Its rate must lie within
# BAND_WIDTH times the distance from their median to their 2.5 % and
# 97.5 % quantiles: 16 sd for a normal rate.  Quantiles, not the sd, and
# so wide, because at large v_m the rate has a long lower tail (skew
# about -1.4): there a correct rate falls 1e-3 of the time at a third of
# the way to the band's edge, and each further decade adds about 0.09.
ORACLE_BLOCKS = 400
ORACLE_STREAM = 0x5EED
BAND_WIDTH = 8.0
BAND_QUANTILES = (0.025, 0.5, 0.975)

# Mean checks allow |z| <= 6; variance checks allow the 5-sigma band of a
# chi-square sample variance with trials - 1 degrees of freedom, which at
# 300 trials is [0.64, 1.47] and so rejects an estimator off by 2x.
MEAN_Z = 6.0
VARIANCE_SIGMA = 5.0


@dataclass(frozen=True)
class Job:
    argvs: tuple[tuple[str, ...], ...]
    operations: int


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _scenario(rng: random.Random) -> list[str]:
    # tau_a stops at 0.99: with a pure-loss attack, tau_a >= 0.999 and Bob
    # at 0 dB, `sweep` exits 3 because a rounding error takes a conditional
    # state 1.1e-9 below the physicality band (see tests/test_harness.py).
    return ["--attack", rng.choice(ATTACKS),
            "--tau-a", _fmt(rng.uniform(0.9, 0.99)),
            "--omega-a", _fmt(rng.uniform(1.0, 1.05)),
            "--omega-b", _fmt(rng.uniform(1.0, 1.05))]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RATE_RTOL * abs(b) + RATE_ATOL


def _at_least(a: float, b: float) -> bool:
    return a >= b - (RATE_RTOL * abs(b) + RATE_ATOL)


def _arg(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _channel(argv, tau_b: float, tau_a: float | None = None) -> oracle.Channel:
    return oracle.Channel.from_attack(
        _arg(argv, "--attack"),
        float(_arg(argv, "--tau-a")) if tau_a is None else tau_a, tau_b,
        float(_arg(argv, "--omega-a")), float(_arg(argv, "--omega-b")))


# analysis-sweep -------------------------------------------------------------

def sweep_job(seed: int, index: int) -> Job:
    """One scenario at one row of the default sweep, asymmetric or symmetric."""
    rng = _rng("analysis-sweep", seed, index)
    flag, points = SWEEP_FLAGS[index % 2]
    db = f"{SWEEP_DB_STEP * rng.randrange(points):g}"
    rows = f"{db}:{db}:1"
    argv = ("sweep", flag, rows, *_scenario(rng),
            "--xi", _fmt(rng.uniform(0.9, 1.0)), *SEARCH,
            "--n-bar", ",".join(f"{n:g}" for n in SWEEP_N_BARS), "--format", "json")
    return Job((argv,), int(rows.split(":")[2]) * (1 + len(SWEEP_N_BARS)))


def check_sweep(job: Job, outputs) -> tuple[int, list[str]]:
    (argv,), ((code, text),) = job.argvs, outputs
    if code != 0:
        return job.operations, [f"{' '.join(argv[:3])}: exit {code}"] * job.operations
    return job.operations, _check_sweep_payload(argv, json.loads(text))


def _check_sweep_payload(argv, payload) -> list[str]:
    """One failure per wrong cell: asymptotic, then one per block size."""
    flag, rows = argv[1], argv[2]
    start, stop, count = rows.split(":")
    expected_db = np.linspace(float(start), float(stop), int(count)).tolist()
    xi = float(_arg(argv, "--xi"))
    failures = []
    got_db = [row[0] for row in payload["rows"]]
    if got_db != expected_db:
        return [f"attenuation grid {got_db} != {expected_db}"] * (
            len(expected_db) * (1 + len(SWEEP_N_BARS)))
    width = len(SWEEP_N_BARS)
    for row in payload["rows"]:
        db, k_asym = row[0], row[1]
        finite = row[2:2 + width]
        v_star, r_star = row[2 + width], row[3 + width]
        clipped = row[4 + width:]
        tau = 10.0 ** (-db / 10.0)
        channel = (_channel(argv, tau, tau) if flag == "--common-db"
                   else _channel(argv, tau))
        where = f"{flag} {db} dB"

        def asym(v):
            return oracle.k_inf(v, xi, channel.tau_a, channel.tau_b,
                                channel.excess_q, channel.excess_p)

        want, _, _, coarse = oracle.grid_refine(asym, V_M_GRID)
        if not (_close(k_asym, want) and _at_least(k_asym, coarse)
                and clipped[0] == max(k_asym, 0.0)):
            failures.append(f"{where}: K_inf {k_asym!r}, oracle {want!r}")
        for index, (n_bar, rate) in enumerate(zip(SWEEP_N_BARS, finite)):
            def projected(v, r):
                return oracle.projected_rate(channel, xi, n_bar, v, r)

            want, _, _, coarse = oracle.grid_refine(projected, V_M_GRID, R_GRID)
            ok = (_close(rate, want) and _at_least(rate, coarse)
                  and clipped[1 + index] == max(rate, 0.0))
            if index == 0:
                at_point = float(projected(np.array([v_star]), np.array([r_star]))[0])
                ok = ok and _close(rate, at_point)
            if not ok:
                failures.append(f"{where} N={n_bar:g}: K {rate!r}, oracle {want!r}")
    return failures


# mc-validate ----------------------------------------------------------------

def simulate_job(seed: int, index: int) -> Job:
    rng = _rng("mc-validate", seed, index)
    argv = ("simulate", *_scenario(rng),
            "--tau-b", _fmt(rng.uniform(0.2, 0.9)),
            "--v-m", _fmt(rng.uniform(2.0, 40.0)),
            "--m", str(SIMULATE_M), "--trials", str(SIMULATE_TRIALS),
            "--seed", str(rng.randrange(2 ** 31)))
    return Job((argv,), len(simulate_expectations(argv)))


def _variance_band(trials: int) -> tuple[float, float]:
    """Wilson-Hilferty band for s^2 / sigma^2 at VARIANCE_SIGMA."""
    k = trials - 1
    centre, spread = 1.0 - 2.0 / (9.0 * k), math.sqrt(2.0 / (9.0 * k))
    return ((centre - VARIANCE_SIGMA * spread) ** 3,
            (centre + VARIANCE_SIGMA * spread) ** 3)


def simulate_expectations(argv) -> dict[str, tuple[str, float, float]]:
    """Per comparison record: (kind, analytic value, variance of one draw).

    kind "variance" compares the empirical variance with the analytic one;
    kind "mean" z-tests the empirical mean with the given draw variance.
    """
    ch = _channel(argv, float(_arg(argv, "--tau-b")))
    v_m, m = float(_arg(argv, "--v-m")), int(_arg(argv, "--m"))
    total_q, total_p = 1.0 + ch.excess_q, 1.0 + ch.excess_p
    var_a = oracle.link_variances(ch.tau_a, ch.tau_b, v_m, total_q, total_p, m)
    var_b = oracle.link_variances(ch.tau_b, ch.tau_a, v_m, total_q, total_p, m)
    var_excess = {"q": 2.0 * total_q ** 2 / m, "p": 2.0 * total_p ** 2 / m}
    records = {}
    for link, variances in (("a", var_a), ("b", var_b)):
        for suffix, var in zip(("_q", "_p", ""), variances):
            records[f"var(tau_{link}{suffix})"] = ("variance", float(var), 0.0)
    for quad in ("q", "p"):
        records[f"var(excess_{quad})"] = ("variance", var_excess[quad], 0.0)
        records[f"mean(chi2_{quad})"] = ("mean", float(m), 2.0 * m)
        records[f"var(chi2_{quad})"] = ("variance", 2.0 * m, 0.0)
    records["mean(tau_a)"] = ("mean", ch.tau_a, float(var_a[2]))
    records["mean(tau_b)"] = ("mean", ch.tau_b, float(var_b[2]))
    records["mean(excess_q)"] = ("mean", ch.excess_q, var_excess["q"])
    records["mean(excess_p)"] = ("mean", ch.excess_p, var_excess["p"])
    # Covariance of a modulation column with the relay output; the relay
    # variance is (tau_a + tau_b) v_m / 2 + total noise, and by Isserlis
    # var(x r) = v_m var(r) + cov^2.
    for link, tau, sign_q in (("a", ch.tau_a, -1.0), ("b", ch.tau_b, 1.0)):
        cov = math.sqrt(tau / 2.0) * v_m
        for quad, total, sign in (("q", total_q, sign_q), ("p", total_p, 1.0)):
            relay = 0.5 * (ch.tau_a + ch.tau_b) * v_m + total
            records[f"mean(cov_{link}_{quad})"] = (
                "mean", sign * cov, (v_m * relay + cov * cov) / m)
    return records


def check_simulate(job: Job, outputs) -> tuple[int, list[str]]:
    (argv,), ((code, text),) = job.argvs, outputs
    expectations = simulate_expectations(argv)
    if code != 0:
        return job.operations, [f"simulate: exit {code}"] * job.operations
    payload = json.loads(text)
    trials = int(_arg(argv, "--trials"))
    if (payload["trials"], payload["m"]) != (trials, int(_arg(argv, "--m"))):
        return job.operations, ["simulate: payload echoes the wrong sizes"] * job.operations
    lo, hi = _variance_band(trials)
    failures = []
    seen = set()
    for record in payload["comparisons"]:
        name = record["name"]
        seen.add(name)
        kind, analytic, draw_var = expectations.get(name, (None, 0.0, 0.0))
        empirical = record["empirical"]
        if kind is None or empirical is None or not _close(record["analytic"], analytic):
            failures.append(f"{name}: analytic {record['analytic']!r}, oracle {analytic!r}")
        elif kind == "variance" and not lo <= empirical / analytic <= hi:
            failures.append(f"{name}: ratio {empirical / analytic:.4f} outside "
                            f"[{lo:.3f}, {hi:.3f}]")
        elif kind == "mean" and abs(empirical - analytic) > MEAN_Z * math.sqrt(draw_var / trials):
            failures.append(f"{name}: mean {empirical!r} vs {analytic!r}")
    failures += [f"{name}: record missing" for name in expectations.keys() - seen]
    return job.operations, failures


# protocol-optimize ----------------------------------------------------------

def optimize_job(seed: int, index: int) -> Job:
    rng = _rng("protocol-optimize", seed, index)
    argv = ("optimize", "--mode", "protocol", "--n-bar", str(OPTIMIZE_N_BAR),
            *_scenario(rng),
            # Below a positive key at 1e5 the search settles at the smallest
            # key fraction, so every job draws the same number of records.
            "--bob-db", _fmt(rng.uniform(3.0, 8.0)),
            "--xi", _fmt(rng.uniform(0.9, 1.0)),
            "--seed", str(rng.randrange(2 ** 31)), *SEARCH,
            "--trace-out", "-")
    return Job((argv,), 1)


def _split_trace(text: str):
    """The --trace-out CSV and the JSON payload share stdout, in that order."""
    head, brace, tail = text.partition("\n{")
    rows = [tuple(line.split(",")) for line in head.splitlines()[2:]]
    return rows, json.loads(brace.strip() + tail)


def check_optimize(job: Job, outputs) -> tuple[int, list[str]]:
    """Checks the optimum against the trace and every candidate against the oracle.

    The winner must be the largest rate of the trace, finite, and at most
    r* K_inf at the true channel.  Each distinct candidate's rate must lie
    in the band the oracle's own blocks give at that (v_m, r).  No check
    depends on how the program draws or orders its records.
    """
    (argv,), ((code, text),) = job.argvs, outputs
    if code != 0:
        return 1, [f"optimize: exit {code}"]
    rows, payload = _split_trace(text)
    v_m, ratio, rate = payload["v_m"], payload["ratio"], payload["rate"]
    printed = tuple(format(x, ".12g") for x in (v_m, ratio, rate))
    if printed not in rows or not math.isfinite(rate):
        return 1, [f"optimize: winner {printed} is not in the trace"]
    if max(float(row[2]) for row in rows) != float(printed[2]):
        return 1, ["optimize: winner is not the trace maximum"]
    xi = float(_arg(argv, "--xi"))
    channel = _channel(argv, 10.0 ** (-float(_arg(argv, "--bob-db")) / 10.0))
    ceiling = ratio * float(oracle.k_inf(v_m, xi, channel.tau_a, channel.tau_b,
                                         channel.excess_q, channel.excess_p))
    if rate > ceiling:
        return 1, [f"optimize: rate {rate!r} above r* K_inf {ceiling!r}"]
    candidates = np.array(list(dict.fromkeys(rows)), dtype=float)
    low, high = candidate_bands(argv, channel, xi, candidates)
    for (v, r, got), lo, hi in zip(candidates, low, high):
        if not lo <= got <= hi:
            return 1, [f"optimize: candidate v_m={v:.6g} r={r:.6g} rate {float(got)!r} "
                       f"outside the oracle's band [{lo:.6g}, {hi:.6g}]"]
    return 1, []


def candidate_bands(argv, channel, xi: float, candidates: np.ndarray):
    """(low, high) band per (v_m, r, rate) row, from the oracle's blocks."""
    rng = np.random.default_rng([ORACLE_STREAM, int(_arg(argv, "--seed"))])
    low, high = [], []
    for chunk in np.array_split(candidates, -(-len(candidates) // 100)):
        blocks = oracle.protocol_rates(rng, channel, xi, OPTIMIZE_N_BAR, chunk[:, 0],
                                       chunk[:, 1], ORACLE_BLOCKS)
        q_low, median, q_high = np.quantile(blocks, BAND_QUANTILES, axis=0)
        low.append(median - BAND_WIDTH * (median - q_low))
        high.append(median + BAND_WIDTH * (q_high - median))
    return np.concatenate(low), np.concatenate(high)


# The reference kernel (reference.py) that calibrates each workload's job
# times: the one whose work resembles the workload's hot path.
KERNELS = {"analysis-sweep": "small", "mc-validate": "blocks", "protocol-optimize": "blocks"}

WORKLOADS = {
    "analysis-sweep": (sweep_job, check_sweep),
    "mc-validate": (simulate_job, check_simulate),
    "protocol-optimize": (optimize_job, check_optimize),
}
