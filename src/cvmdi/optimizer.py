"""Grid-plus-refinement maximization of the key rate over (v_m, ratio).

A coarse grid search is followed by local refinement rounds around the
incumbent: each round shrinks the search window by a fixed factor (same
point count) and clips it to the hull of the initial grids.  The rate
surface is smooth but can sit entirely below zero at high attenuation;
that case is reported through a flag, not an error.

The search evaluates one round at a time.  In analysis mode a round is
one batch call, finite_size.projected_key_rates for the finite-size rate
and keyrate.key_rate_batch for K_inf, each bitwise equal to its scalar
oracle (projected_key_rate, asymptotic_key_rate).  A batch raises if and
only if the oracle raises at some point of the round; the round is then
replayed through the oracle point by point, so errors are the oracle's.
Protocol mode loops over its scalar objective, which draws one block per
point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, noise_from_attack
from .errors import ConfigurationError
from .estimation import DEFAULT_Z, estimate_channel
from .finite_size import (
    DEFAULT_DELTA_PREFACTOR,
    DEFAULT_EPS_PA,
    finite_size_key_rate,
    FiniteSizeParams,
    projected_key_rate,
    projected_key_rates,
)
from .keyrate import asymptotic_key_rate, key_rate_batch, ProtocolParams
from .simulator import SimulationSpec, sample_dataset

MODES = ("analysis", "protocol")
SHRINK = 4.0  # each refinement round narrows the search window this much


def default_v_m_grid() -> tuple[float, ...]:
    """Log-spaced modulation candidates, 1 to 1e3, 25 points."""
    return tuple(float(x) for x in np.geomspace(1.0, 1e3, 25))


def default_r_grid() -> tuple[float, ...]:
    """Linear key-fraction candidates, 0.1 to 0.9, 9 points."""
    return tuple(float(x) for x in np.linspace(0.1, 0.9, 9))


@dataclass(frozen=True)
class OptimizationSpec:
    """Scenario plus search grids for the finite-size optimization.

    mode "analysis" evaluates the projected rate from the analytic spread
    formulas at the true parameters; mode "protocol" simulates one block
    per candidate point and runs the full estimate-then-bound pipeline.
    """

    channel: ChannelParams
    xi: float
    n_bar: int
    v_m_grid: tuple[float, ...] = field(default_factory=default_v_m_grid)
    r_grid: tuple[float, ...] = field(default_factory=default_r_grid)
    eps_pa: float = DEFAULT_EPS_PA
    z: float = DEFAULT_Z
    delta_prefactor: float = DEFAULT_DELTA_PREFACTOR
    refinement_rounds: int = 2
    mode: str = "analysis"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "v_m_grid", tuple(float(v) for v in self.v_m_grid))
        object.__setattr__(self, "r_grid", tuple(float(r) for r in self.r_grid))
        if not self.v_m_grid or min(self.v_m_grid) <= 0.0:
            raise ConfigurationError("v_m grid must be non-empty and positive")
        if not self.r_grid or not all(0.0 < r < 1.0 for r in self.r_grid):
            raise ConfigurationError("ratio grid must be non-empty within (0, 1)")
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class OptimizationResult:
    v_m: float
    ratio: float
    rate: float
    no_positive_rate: bool
    evaluations: int
    trace: list[tuple[float, float, float]]


def _better(candidate: tuple[float, ...], best: tuple[float, ...]) -> bool:
    # Candidates are (rate, v_m[, ratio]).  Larger rate wins; ties prefer
    # smaller v_m, then larger ratio.
    if candidate[0] != best[0]:
        return candidate[0] > best[0]
    if candidate[1] != best[1]:
        return candidate[1] < best[1]
    return candidate[2:] > best[2:]


def _log_window(center: float, count: int, lo: float, hi: float,
                factor: float) -> list[float]:
    """Log-spaced window over 1/factor of the decades of [lo, hi], centred
    on center as far as the bounds allow."""
    lo_l, hi_l = math.log10(lo), math.log10(hi)
    width = (hi_l - lo_l) / factor
    if width == 0.0:
        return [center]
    start = min(max(math.log10(center) - width / 2.0, lo_l), hi_l - width)
    return [float(x) for x in np.logspace(start, start + width, count)]


def _linear_window(center: float, count: int, lo: float, hi: float,
                   factor: float) -> list[float]:
    width = (hi - lo) / factor
    if width == 0.0:
        return [center]
    start = min(max(center - width / 2.0, lo), hi - width)
    return [float(x) for x in np.linspace(start, start + width, count)]


def _grid_refine(evaluate, axes, rounds: int):
    """Search a grid, then refine `rounds` times around the incumbent.

    axes holds one (grid, window) pair per coordinate of a point; round k
    replaces each grid by window(incumbent, len(grid), min(grid), max(grid),
    SHRINK ** k).  Each round's points, in row-major order with the first
    axis outermost, go to evaluate in one call, which returns their rates.
    Returns (best, trace): best is (rate, *point), and trace lists every
    evaluation as (*point, rate), repeats included.
    """
    if rounds < 0:
        raise ConfigurationError("need refinement_rounds >= 0")
    try:
        factors = [SHRINK ** k for k in range(rounds + 1)]
    except OverflowError:
        raise ConfigurationError(
            f"refinement_rounds {rounds} is too large: the window shrink factor "
            f"{SHRINK} ** {rounds} overflows") from None
    grids = [list(grid) for grid, _ in axes]
    trace: list[tuple[float, ...]] = []
    best: tuple[float, ...] | None = None
    for round_index, factor in enumerate(factors):
        if round_index > 0:
            grids = [window(center, len(grid), min(grid), max(grid), factor)
                     for (grid, window), center in zip(axes, best[1:])]
        points = list(itertools.product(*grids))
        rates = evaluate(points)
        trace.extend((*point, rate) for point, rate in zip(points, rates))
        for point, rate in zip(points, rates):
            # _better needs rate >= best's rate, which NaN never meets
            if best is None or (rate >= best[0] and _better((rate, *point), best)):
                best = (rate, *point)
    return best, trace


def _cached_rounds(scalar, batch=None):
    """Round evaluator for _grid_refine over a cache of computed points.

    scalar(index, *point) computes one point, index being the number of
    points computed before it.  batch, when given, takes a round's fresh
    points and returns their rates as an array, raising if scalar raises at
    some point; then scalar replays the round in row-major order and so
    raises exactly what it raises.
    """
    cache: dict[tuple[float, ...], float] = {}

    def evaluate(points):
        if batch is not None:
            fresh = [point for point in dict.fromkeys(points) if point not in cache]
            if fresh:
                try:
                    cache.update(zip(fresh, batch(fresh).tolist()))
                except (ValueError, ArithmeticError):
                    pass  # every CVMDIError is one of these; the replay raises
        for point in points:
            if point not in cache:
                cache[point] = scalar(len(cache), *point)
        return [cache[point] for point in points]

    return evaluate


def _make_objective(spec: OptimizationSpec):
    channel = spec.channel
    noise = noise_from_attack(channel)

    def scalar(index: int, v_m: float, ratio: float) -> float:
        protocol = ProtocolParams(v_m=v_m, xi=spec.xi)
        fs = FiniteSizeParams.from_ratio(spec.n_bar, ratio, eps_pa=spec.eps_pa)
        if spec.mode == "analysis":
            return projected_key_rate(protocol, channel, fs, spec.delta_prefactor,
                                      spec.z)
        sim = SimulationSpec(channel, v_m, fs.m, trials=1, seed=spec.seed)
        report = estimate_channel(sample_dataset(sim, trial_index=index), v_m,
                                  z=spec.z)
        return finite_size_key_rate(protocol, report, fs, spec.delta_prefactor)

    def batch(points):
        return projected_key_rates(points, channel.tau_a, channel.tau_b, noise,
                                   spec.xi, spec.n_bar, spec.z, spec.eps_pa,
                                   spec.delta_prefactor)

    return _cached_rounds(scalar, batch if spec.mode == "analysis" else None)


def optimize_key_rate(spec: OptimizationSpec) -> OptimizationResult:
    """Deterministic search for the best (v_m, ratio) pair.

    Refinement never returns a point worse than the coarse-grid incumbent
    because the incumbent is carried across rounds, and repeated points are
    served from a cache so the reported rate equals a re-evaluation at the
    winning point exactly.
    """
    (rate, v_m, ratio), trace = _grid_refine(
        _make_objective(spec),
        ((spec.v_m_grid, _log_window), (spec.r_grid, _linear_window)),
        spec.refinement_rounds)
    return OptimizationResult(v_m=v_m, ratio=ratio, rate=rate,
                              no_positive_rate=rate <= 0.0,
                              evaluations=len(trace), trace=trace)


def optimize_asymptotic(channel: ChannelParams, xi: float,
                        v_m_grid: tuple[float, ...] | None = None,
                        refinement_rounds: int = OptimizationSpec.refinement_rounds,
                        ) -> tuple[float, float, list]:
    """1-D version for the asymptotic rate: returns (v_m, rate, trace)."""
    grid = tuple(float(v) for v in (v_m_grid if v_m_grid is not None
                                    else default_v_m_grid()))
    if not grid or min(grid) <= 0.0:
        raise ConfigurationError("v_m grid must be non-empty and positive")
    noise = noise_from_attack(channel)

    def scalar(index: int, v_m: float) -> float:
        return asymptotic_key_rate(ProtocolParams(v_m, xi), channel.tau_a,
                                   channel.tau_b, noise)

    def batch(points):
        return key_rate_batch([v_m for v_m, in points], xi, channel.tau_a,
                              channel.tau_b, noise.excess_q, noise.excess_p)[2]

    (rate, v_m), trace = _grid_refine(_cached_rounds(scalar, batch),
                                      ((grid, _log_window),), refinement_rounds)
    return v_m, rate, trace
