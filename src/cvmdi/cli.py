"""Command-line front end: single-point rates, sweeps, scans, validation runs.

Outputs are data files (CSV or JSON), never plots.  Every payload embeds
the fully resolved configuration so a run can be reproduced exactly from
its own output.  Exit codes: 0 success (a negative best rate is still
success, flagged in the payload), 2 configuration errors, 3 numerical or
physicality errors.

`rate`, `sweep` and `modscan` pass a generator of `OptimizationSpec`s
to `optimizer.optimize_lockstep`: a round of every search, rows and
block sizes together, is one kernel call.  The K_inf search of `rate`
and of each `sweep` row is `OptimizationSpec` with n_bar=None, built from
--xi, --v-m-grid and --refinement-rounds only; with --v-m, a `sweep`
row's K_inf search is the one point (--v-m,) with no refinement.  The
generators yield the searches in the order a row-by-row run meets them,
and `optimize_lockstep` raises the error that running each search as
soon as it is built raises first, so the error message and exit code are
the ones the row-by-row run gives.  `optimize` runs its one search on its
own.  Each grid flag's text is parsed once per command, however many
searches use it.

`main(argv)` builds the argument parser on its first call and reuses it
for the rest of the process, so a process that calls it many times (the
test suite, the benchmark harness) pays for the parser once; a one-shot
`cvmdi` run costs the same as before.  `build_parser()` returns a fresh
parser for callers who want to extend it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .channel import ChannelParams, db_to_transmissivity, noise_from_attack
from .errors import (
    ConfigurationError,
    DatasetError,
    DomainError,
    NumericalDegeneracyError,
    PhysicalityError,
)
from .estimation import report_from_parameters
from .finite_size import finite_size_rate, FiniteSizeParams
from .keyrate import key_rate_breakdown, ProtocolParams
from .optimizer import (
    default_r_grid,
    default_v_m_grid,
    optimize_key_rate,
    optimize_lockstep,
    OptimizationSpec,
)
from .simulator import run_trials, sample_dataset, SimulationSpec

ATTACKS = ("pure-loss", "collective", "two-mode-optimal")

_EPS_PA_NOTE = f"eps_pa defaults to {OptimizationSpec.eps_pa:g}; override with --eps-pa"


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _json_payload(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"


def _csv_payload(config: dict, header: list[str], rows: list[tuple]) -> str:
    lines = ["# config: " + json.dumps(config, sort_keys=True, default=_json_default)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _write_table(args, config: dict, header: list[str], rows: list[tuple]) -> None:
    if args.format == "json":
        text = _json_payload({"config": config, "columns": header,
                              "rows": [list(r) for r in rows]})
    else:
        text = _csv_payload(config, header, rows)
    _write_output(args.out, text)


# The grid parsers are memoised on their text, so that a command parses
# each grid flag once however many searches it builds; an error is not
# cached, and raises wherever the text is parsed.
@functools.lru_cache(maxsize=32)
def _parse_axis(text: str, name: str) -> tuple[float, ...]:
    """Parse 'start:stop:points' into a linear grid, or a single value."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"{name} grid must be start:stop:points, got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigurationError(f"bad {name} grid {text!r}: {exc}") from None
        if count < 1:
            raise ConfigurationError(f"{name} grid has zero length: {text!r}")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigurationError(f"bad {name} grid {text!r}: start and stop "
                                     "must be finite")
        return tuple(float(x) for x in np.linspace(start, stop, count))
    try:
        return (float(text),)
    except ValueError as exc:
        raise ConfigurationError(f"bad {name} value {text!r}: {exc}") from None


@functools.lru_cache(maxsize=32)
def _parse_log_axis(text: str, name: str) -> tuple[float, ...]:
    """Parse 'start:stop:points' into a log-spaced grid, or a single value."""
    values = _parse_axis(text, name)
    if len(values) == 1:
        return values
    start, stop = values[0], values[-1]
    if start <= 0 or stop <= 0:
        raise ConfigurationError(f"{name} grid must be positive for log spacing")
    return tuple(float(x) for x in np.geomspace(start, stop, len(values)))


def integer(text: str) -> int:
    """An integral count written as an integer or a float ('100000', '1e9')."""
    value = float(text)
    if not value.is_integer():
        raise ValueError(f"{text!r} is not an integer")
    return int(value)


def _parse_n_bars(text: str) -> list[int]:
    try:
        values = [integer(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad block-size list {text!r}: {exc}") from None
    if not values:
        raise ConfigurationError("block-size list is empty")
    seen = set()
    for n in values:
        if n in seen:
            raise ConfigurationError(f"block-size list {text!r} repeats {n}")
        seen.add(n)
    return values


def _single_n_bar(args) -> int:
    n_bars = _parse_n_bars(args.n_bar)
    if len(n_bars) != 1:
        raise ConfigurationError(f"{args.command} expects a single --n-bar value")
    return n_bars[0]


def _axis_text(grid: tuple[float, ...]) -> str:
    """The start:stop:points text that parses back to grid."""
    return f"{grid[0]:g}:{grid[-1]:g}:{len(grid)}"


def _short_number(x: float) -> str:
    return f"{x:g}".replace("e+0", "e").replace("e+", "e").replace("e-0", "e-")


def _channel_for(args, tau_a: float, tau_b: float) -> ChannelParams:
    omega_a, omega_b = args.omega_a, args.omega_b
    if args.epsilon is not None:
        omega_a = omega_b = 1.0 + args.epsilon
    if args.attack == "pure-loss":
        return ChannelParams.pure_loss(tau_a, tau_b)
    if args.attack == "collective":
        return ChannelParams.collective(tau_a, tau_b, omega_a, omega_b)
    return ChannelParams.two_mode_optimal(tau_a, tau_b, omega_a, omega_b)


def _single_channel(args) -> ChannelParams:
    """The channel with Bob's link at --tau-b or at a single --bob-db value."""
    tau_b = args.tau_b
    if tau_b is None:
        if args.bob_db is None:
            raise ConfigurationError("this command needs --bob-db or --tau-b")
        values = _parse_axis(args.bob_db, "bob-db")
        if len(values) != 1:
            raise ConfigurationError("this command expects a single --bob-db value")
        tau_b = db_to_transmissivity(values[0])
    return _channel_for(args, args.tau_a, tau_b)


def _config_dict(args) -> dict:
    # IO destinations are not part of the computation, so payloads stay
    # byte-identical wherever they are written.
    skip = {"func", "out", "trace_out", "dump_dataset"}
    return {key.replace("_", "-"): value
            for key, value in vars(args).items() if key not in skip}


def _finite_spec(args, channel: ChannelParams, n_bar: int, v_m: float | None = None,
                 **extra) -> OptimizationSpec:
    """Search spec from the command line; v_m, when given, overrides --v-m."""
    if v_m is None:
        v_m = args.v_m
    v_m_grid = _parse_log_axis(args.v_m_grid, "v-m") if v_m is None else (v_m,)
    r_grid = (_parse_axis(args.r_grid, "ratio")
              if args.ratio is None else (args.ratio,))
    return OptimizationSpec(
        channel=channel, xi=args.xi, n_bar=n_bar,
        v_m_grid=v_m_grid, r_grid=r_grid,
        eps_pa=args.eps_pa, z=args.z,
        delta_prefactor=args.delta_prefactor,
        refinement_rounds=0 if (v_m is not None and args.ratio is not None)
        else args.refinement_rounds,
        **extra,
    )


def _asymptotic_search(args, channel: ChannelParams) -> OptimizationSpec:
    """The K_inf search (n_bar=None) for the v_m that maximizes K_inf, or
    K_inf at the one point --v-m.  It reads --xi, --v-m, --v-m-grid and
    --refinement-rounds only, so a bad finite-size flag fails where the
    first finite-size search is built."""
    if args.v_m is not None:
        return OptimizationSpec(channel, args.xi, None, (args.v_m,), refinement_rounds=0)
    return OptimizationSpec(channel, args.xi, None, _parse_log_axis(args.v_m_grid, "v-m"),
                            refinement_rounds=args.refinement_rounds)


def cmd_rate(args) -> int:
    channel = _single_channel(args)
    noise = noise_from_attack(channel)
    config = _config_dict(args)
    fixed = []  # the breakdown at --v-m, made where the sequential order has it

    def searches():
        if args.v_m is None:
            yield _asymptotic_search(args, channel)
        else:
            fixed.append(key_rate_breakdown(ProtocolParams(args.v_m, args.xi),
                                            channel.tau_a, channel.tau_b, noise))
        if args.n_bar is not None:
            yield _finite_spec(args, channel, _single_n_bar(args))

    results = optimize_lockstep(searches())
    v_m_star = args.v_m if args.v_m is not None else results[0].v_m
    # the search evaluated K_inf at its optimum, so this one cannot raise
    asym = fixed[0] if fixed else key_rate_breakdown(
        ProtocolParams(v_m_star, args.xi), channel.tau_a, channel.tau_b, noise)

    finite = None
    no_positive = asym.k_infinity <= 0.0
    if args.n_bar is not None:
        n_bar = _single_n_bar(args)
        result = results[-1]
        fs = FiniteSizeParams.from_ratio(n_bar, result.ratio, eps_pa=args.eps_pa)
        report = report_from_parameters(channel.tau_a, channel.tau_b, noise,
                                        result.v_m, fs.m, z=args.z)
        rate = finite_size_rate(ProtocolParams(result.v_m, args.xi), report, fs,
                                args.delta_prefactor)
        finite = {
            "n_bar": fs.n_bar, "m": fs.m, "n": fs.n, "ratio": fs.ratio,
            "v_m": result.v_m,
            "penalty": rate.penalty,
            "worst_case": {
                "tau_a_low": report.tau_a_low, "tau_b_low": report.tau_b_low,
                "excess_q_up": report.excess_q_up,
                "excess_p_up": report.excess_p_up, **vars(rate.worst_case),
            },
            "k": rate.k,
        }
        no_positive = result.no_positive_rate

    payload = {
        "config": config,
        "assumptions": {"eps_pa": _EPS_PA_NOTE},
        "channel": {**dataclasses.asdict(channel), **vars(noise)},
        "asymptotic": {"v_m": v_m_star, **vars(asym)},
        "finite_size": finite,
        "no_positive_rate": no_positive,
    }
    _write_output(args.out, _json_payload(payload))
    return 0


def cmd_sweep(args) -> int:
    if args.tau_b is not None:
        raise ConfigurationError(
            "sweep takes Bob's link from --bob-db or --common-db, not --tau-b")
    if args.common_db is not None:
        db_values = _parse_axis(args.common_db, "common-db")
        symmetric = True
    else:
        db_values = _parse_axis(args.bob_db, "bob-db")
        symmetric = False
    n_bars = _parse_n_bars(args.n_bar)
    config = _config_dict(args)

    header = ["attenuation_db", "k_asymptotic"]
    header += [f"k_N{_short_number(n)}" for n in n_bars]
    header += ["v_m_star", "r_star", "k_asymptotic_clipped"]
    header += [f"k_N{_short_number(n)}_clipped" for n in n_bars]

    def searches():
        # every row's asymptotic and finite-size searches, as one group
        for db in db_values:
            tau = db_to_transmissivity(db)
            channel = _channel_for(args, tau if symmetric else args.tau_a, tau)
            yield _asymptotic_search(args, channel)
            for n_bar in n_bars:
                yield _finite_spec(args, channel, n_bar)

    results = iter(optimize_lockstep(searches()))
    rows = []
    for db in db_values:
        # the search's value at its optimum is K_inf there, bit for bit
        k_asym = next(results).rate
        optima = [next(results) for _ in n_bars]
        finite_rates = [result.rate for result in optima]
        # v_m_star / r_star columns describe the first --n-bar entry
        rows.append((db, k_asym, *finite_rates, optima[0].v_m, optima[0].ratio,
                     max(k_asym, 0.0), *(max(k, 0.0) for k in finite_rates)))
    _write_table(args, config, header, rows)
    return 0


def cmd_modscan(args) -> int:
    channel = _single_channel(args)
    v_m_values = _parse_log_axis(args.v_m_grid, "v-m")
    config = _config_dict(args)
    n_bar = _single_n_bar(args)
    if args.v_m is not None:
        raise ConfigurationError(
            "modscan scans v_m over --v-m-grid; give a single point there, not --v-m")

    optima = optimize_lockstep(_finite_spec(args, channel, n_bar, v_m=v_m)
                               for v_m in v_m_values)
    rows = [(v_m, result.rate) for v_m, result in zip(v_m_values, optima)]
    _write_table(args, config, ["v_m", "rate"], rows)
    return 0


def cmd_simulate(args) -> int:
    if not 0.0 <= args.tolerance < math.inf:
        raise ConfigurationError(
            f"tolerance must be finite and >= 0, got {args.tolerance}")
    channel = _single_channel(args)
    spec = SimulationSpec(channel=channel, v_m=args.v_m, m=args.m,
                          trials=args.trials, seed=args.seed)
    stats = run_trials(spec)
    if args.dump_dataset is not None:
        sample_dataset(spec, 0).to_csv(args.dump_dataset)

    comparisons = []
    all_pass = True
    for record in stats.comparisons:
        entry = dict(record)
        if record["kind"] == "relative":
            ok = (None if record["rel_deviation"] is None
                  else abs(record["rel_deviation"]) <= args.tolerance)
        else:
            ok = (None if record["z_score"] is None
                  else abs(record["z_score"]) <= 3.0)
        entry["pass"] = ok
        if ok is False:
            all_pass = False
        comparisons.append(entry)

    payload = stats.to_dict()
    payload["comparisons"] = comparisons
    payload["all_pass"] = all_pass
    payload["tolerance"] = args.tolerance
    payload["config"] = _config_dict(args)
    _write_output(args.out, _json_payload(payload))
    return 0


def cmd_optimize(args) -> int:
    channel = _single_channel(args)
    result = optimize_key_rate(_finite_spec(args, channel, _single_n_bar(args),
                                            mode=args.mode, seed=args.seed))
    config = _config_dict(args)
    if args.trace_out is not None:
        _write_output(args.trace_out,
                      _csv_payload(config, ["v_m", "r", "rate"], result.trace))
    payload = {
        "config": config,
        "v_m": result.v_m,
        "ratio": result.ratio,
        "rate": result.rate,
        "no_positive_rate": result.no_positive_rate,
        "evaluations": result.evaluations,
    }
    _write_output(args.out, _json_payload(payload))
    return 0


def _add_channel_arguments(parser: argparse.ArgumentParser, db_default: str | None,
                           tau_b_help: str = "Bob-link transmissivity "
                                             "(alternative to --bob-db)") -> None:
    parser.add_argument("--tau-a", type=float, default=0.98,
                        help="Alice-link transmissivity (default 0.98)")
    parser.add_argument("--bob-db", type=str, default=db_default,
                        help="Bob-link attenuation in dB (value or start:stop:points)")
    parser.add_argument("--tau-b", type=float, default=None, help=tau_b_help)
    parser.add_argument("--attack", choices=ATTACKS, default="two-mode-optimal")
    parser.add_argument("--omega-a", type=float, default=1.01,
                        help="thermal variance on Alice's link (default 1.01)")
    parser.add_argument("--omega-b", type=float, default=1.01)
    parser.add_argument("--epsilon", type=float, default=None,
                        help="set both thermal variances to 1 + epsilon")


def _add_protocol_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--xi", type=float, default=0.98,
                        help="reconciliation efficiency (default 0.98)")
    parser.add_argument("--v-m", type=float, default=None,
                        help="fixed modulation variance (omit to optimize)")
    parser.add_argument("--v-m-grid", type=str, default=_axis_text(default_v_m_grid()),
                        help="log-spaced modulation grid start:stop:points")


def _add_finite_arguments(parser: argparse.ArgumentParser,
                          n_bar_default: str | None) -> None:
    parser.add_argument("--n-bar", type=str, default=n_bar_default,
                        help="total signals exchanged (comma list where supported; "
                             "sweep's v_m_star and r_star columns describe the "
                             "first value only)")
    parser.add_argument("--ratio", type=float, default=None,
                        help="fixed key fraction n/n_bar (omit to optimize)")
    parser.add_argument("--r-grid", type=str, default=_axis_text(default_r_grid()),
                        help="key-fraction grid start:stop:points")
    parser.add_argument("--eps-pa", type=float, default=OptimizationSpec.eps_pa)
    parser.add_argument("--z", type=float, default=OptimizationSpec.z)
    parser.add_argument("--delta-prefactor", type=float,
                        default=OptimizationSpec.delta_prefactor)
    parser.add_argument("--refinement-rounds", type=int,
                        default=OptimizationSpec.refinement_rounds)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvmdi",
        description="Key rates and finite-size analysis for relay-based "
                    "continuous-variable QKD under two-mode Gaussian attacks.")
    sub = parser.add_subparsers(dest="command", required=True)

    rate = sub.add_parser("rate", help="single-point asymptotic and finite-size rate")
    _add_channel_arguments(rate, db_default="2")
    _add_protocol_arguments(rate)
    _add_finite_arguments(rate, n_bar_default=None)
    rate.add_argument("--out", type=str, default=None)
    rate.set_defaults(func=cmd_rate)

    sweep = sub.add_parser("sweep", help="rate versus attenuation (CSV)")
    # --tau-b stays registered so that the config echo keeps its key
    _add_channel_arguments(sweep, db_default="0:20:41",
                           tau_b_help="not accepted: sweep takes Bob's link from "
                                      "--bob-db or --common-db (exits 2)")
    sweep.add_argument("--common-db", type=str, default=None,
                       help="symmetric sweep: both links at this attenuation grid")
    _add_protocol_arguments(sweep)
    _add_finite_arguments(sweep, n_bar_default="1e9,1e6")
    sweep.add_argument("--out", type=str, default=None)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(func=cmd_sweep)

    modscan = sub.add_parser("modscan", help="rate versus modulation variance")
    _add_channel_arguments(modscan, db_default=None)
    _add_protocol_arguments(modscan)
    _add_finite_arguments(modscan, n_bar_default="1e6")
    modscan.add_argument("--out", type=str, default=None)
    modscan.add_argument("--format", choices=("csv", "json"), default="csv")
    modscan.set_defaults(func=cmd_modscan)

    simulate = sub.add_parser("simulate",
                              help="Monte Carlo validation of the estimators")
    _add_channel_arguments(simulate, db_default=None)
    simulate.add_argument("--v-m", type=float, default=10.0)
    simulate.add_argument("--m", type=integer, default=100_000,
                          help="records per block, e.g. 100000 or 1e9 (default 1e5)")
    simulate.add_argument("--trials", type=int, default=10_000)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--tolerance", type=float, default=0.10)
    simulate.add_argument("--dump-dataset", type=str, default=None,
                          help="also write one record block as a dataset CSV, "
                               "drawn record by record from trial 0's stream; "
                               "the statistics come from moment draws, not from it")
    simulate.add_argument("--out", type=str, default=None)
    simulate.set_defaults(func=cmd_simulate)

    optimize = sub.add_parser("optimize", help="search the (v_m, ratio) surface")
    _add_channel_arguments(optimize, db_default="2")
    _add_protocol_arguments(optimize)
    _add_finite_arguments(optimize, n_bar_default="1e9")
    optimize.add_argument("--mode", choices=("analysis", "protocol"),
                          default="analysis")
    optimize.add_argument("--seed", type=int, default=7)
    optimize.add_argument("--trace-out", type=str, default=None)
    optimize.add_argument("--out", type=str, default=None)
    optimize.set_defaults(func=cmd_optimize)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses: built on the first call, then reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, DomainError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PhysicalityError, NumericalDegeneracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
