"""Grid-plus-refinement maximization of the key rate over (v_m, ratio).

A coarse grid search is followed by local refinement rounds around the
incumbent: each round shrinks the search window by a fixed factor (same
point count) and clips it to the hull of the initial grids.  The rate
surface is smooth but can sit entirely below zero at high attenuation;
that case is reported through a flag, not an error.

Every search is one OptimizationSpec.  n_bar=None is the K_inf search:
the finite-size rate at n_bar = inf, with key fraction 1, no penalty and
no bounds, so its key-fraction axis is fixed at (1.0,), its result has
ratio 1.0 and its trace rows read (v_m, 1.0, rate).  optimize_asymptotic
runs that search and returns (v_m, rate, trace) with (v_m, rate) rows.

One engine, _grid_refine, runs any number of searches in lockstep.  Each
search (_Search) keeps its own grids, windows, incumbent and trace, and
round k of every search that has one goes to a single evaluation.  A
round's points are arrays, row-major with the first axis outermost, and
the incumbent is picked by an array reduction that keeps the scalar rule:
a larger rate wins, then a smaller v_m, then a larger ratio, and on a tie
the earlier point; a NaN never takes over, and a NaN first point stays.
A search's trace tuples are built only when a caller reads
OptimizationResult.trace.

In analysis mode a round of all searches is one finite_size._rates call:
one bounds call and one keyrate.key_rate_batch call, each value bitwise
its scalar oracle's (projected_key_rate, asymptotic_key_rate), and
repeated points are recomputed rather than cached.  The round raises if
and only if the oracle raises at some of its points.  optimize_lockstep
then reruns its searches one at a time, in order, and a search on its
own replays the round one point at a time through the same batch, so the
error raised is the one the sequential run meets first.  The scalar route
checks xi and v_m first, so a spec applies that check to its v_m grid.
optimize_key_rate and optimize_asymptotic are the one-search case.

Protocol mode always runs one search on its own: its scalar objective
draws one block per fresh point, from the stream indexed by the number of
points drawn before it, and serves repeated points from a cache.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, noise_from_attack
from .errors import ConfigurationError
from .estimation import DEFAULT_Z, estimate_channel
from .finite_size import (
    _block_splits,
    _rates,
    DEFAULT_DELTA_PREFACTOR,
    DEFAULT_EPS_PA,
    finite_size_key_rate,
    FiniteSizeParams,
)
from .keyrate import ProtocolParams
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
    """Scenario plus search grids for the key-rate optimization.

    mode "analysis" evaluates the projected rate from the analytic spread
    formulas at the true parameters; mode "protocol" simulates one block
    per candidate point and runs the full estimate-then-bound pipeline.
    n_bar=None is the K_inf search, the rate at n_bar = inf, in analysis
    mode only: a valid r_grid is replaced by the key-fraction axis (1.0,),
    and eps_pa, z and delta_prefactor go unused.
    """

    channel: ChannelParams
    xi: float
    n_bar: int | None
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
        if self.n_bar is None:
            # at n_bar = inf the whole block keys
            object.__setattr__(self, "r_grid", (1.0,))
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n_bar is None and self.mode != "analysis":
            raise ConfigurationError("the K_inf search (n_bar=None) runs in analysis "
                                     "mode only; protocol mode needs a block size")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        for v_m in self.v_m_grid:
            ProtocolParams(v_m, self.xi)  # the scalar route's first check


@dataclass
class OptimizationResult:
    """Optimum of a search, with its evaluation count.  trace lists every
    evaluation as (v_m, ratio, rate), repeats included, in evaluation
    order; it is built from the rounds' arrays when first read."""

    v_m: float
    ratio: float
    rate: float
    no_positive_rate: bool
    evaluations: int
    _rounds: list[tuple[np.ndarray, np.ndarray]] = field(repr=False, compare=False)

    @functools.cached_property
    def trace(self) -> list[tuple[float, float, float]]:
        points = np.concatenate([points for points, _ in self._rounds])
        rates = np.concatenate([rates for _, rates in self._rounds])
        return list(zip(*points.T.tolist(), rates.tolist()))


def _better(candidate: tuple[float, ...], best: tuple[float, ...]) -> bool:
    # Candidates are (rate, v_m[, ratio]).  Larger rate wins; ties prefer
    # smaller v_m, then larger ratio.
    if candidate[0] != best[0]:
        return candidate[0] > best[0]
    if candidate[1] != best[1]:
        return candidate[1] < best[1]
    return candidate[2:] > best[2:]


def _incumbent(best, points: np.ndarray, rates: np.ndarray):
    """The incumbent after a round, as scanning its points in order finds
    it: a point takes over where its rate is >= the incumbent's, which no
    NaN meets, and _better holds.  The first point of a search is the
    incumbent even when its rate is NaN.  best and the result are
    (rate, *point) tuples of floats, or best is None before any round."""
    if best is None:
        best = (rates[0].item(), *points[0].tolist())
    index = np.flatnonzero(rates >= best[0])
    if not len(index):
        return best
    # the first point of the round's best (rate, -v_m, ratio), as _better
    # orders them
    index = index[rates[index] == rates[index].max()]
    if len(index) > 1:
        index = index[points[index, 0] == points[index, 0].min()]
        for axis in range(1, points.shape[1]):
            index = index[points[index, axis] == points[index, axis].max()]
    candidate = (rates[index[0]].item(), *points[index[0]].tolist())
    return candidate if _better(candidate, best) else best


def _log_window(center: float, count: int, lo: float, hi: float, factor: float):
    """Log-spaced window over 1/factor of the decades of [lo, hi], centred
    on center as far as the bounds allow."""
    lo_l, hi_l = math.log10(lo), math.log10(hi)
    width = (hi_l - lo_l) / factor
    if width == 0.0:
        return [center]
    start = min(max(math.log10(center) - width / 2.0, lo_l), hi_l - width)
    return np.logspace(start, start + width, count)


def _linear_window(center: float, count: int, lo: float, hi: float, factor: float):
    width = (hi - lo) / factor
    if width == 0.0:
        return [center]
    start = min(max(center - width / 2.0, lo), hi - width)
    return np.linspace(start, start + width, count)


def _round_points(grids) -> np.ndarray:
    """The grids' product in row-major order, first axis outermost, as a
    (points, axes) array."""
    count = math.prod(len(grid) for grid in grids)
    columns, outer = [], 1
    for grid in grids:
        columns.append(np.tile(np.repeat(grid, count // (outer * len(grid))), outer))
        outer *= len(grid)
    return np.column_stack(columns)


class _Search:
    """One search of a lockstep group, built from its spec: the relay noise
    of its attack, its axes, one (grid, window) pair per coordinate of a
    point, its window factors, its incumbent (rate, *point) and its
    evaluated rounds as (points, rates) arrays.  A plain class: a dataclass
    would compile its methods on every import of the package."""

    def __init__(self, spec: OptimizationSpec):
        # raises for an attack too noisy to represent, in both modes
        self.noise = noise_from_attack(spec.channel)
        rounds = spec.refinement_rounds
        if rounds < 0:
            raise ConfigurationError("need refinement_rounds >= 0")
        try:
            self.factors = [SHRINK ** k for k in range(rounds + 1)]
        except OverflowError:
            raise ConfigurationError(
                f"refinement_rounds {rounds} is too large: the window shrink factor "
                f"{SHRINK} ** {rounds} overflows") from None
        self.spec = spec
        self.axes = ((spec.v_m_grid, _log_window), (spec.r_grid, _linear_window))
        self.best: tuple[float, ...] | None = None
        self.rounds: list[tuple[np.ndarray, np.ndarray]] = []

    def points(self, round_index: int) -> np.ndarray:
        """Round k's points: each grid replaced, from round 1 on, by
        window(incumbent, len(grid), min(grid), max(grid), SHRINK ** k)."""
        if round_index == 0:
            return _round_points([grid for grid, _ in self.axes])
        factor = self.factors[round_index]
        return _round_points([window(center, len(grid), min(grid), max(grid), factor)
                              for (grid, window), center in zip(self.axes, self.best[1:])])

    def record(self, points: np.ndarray, rates: np.ndarray) -> None:
        self.rounds.append((points, rates))
        self.best = _incumbent(self.best, points, rates)

    def result(self) -> OptimizationResult:
        rate, v_m, ratio = self.best
        return OptimizationResult(v_m=v_m, ratio=ratio, rate=rate,
                                  no_positive_rate=rate <= 0.0,
                                  evaluations=sum(len(rates) for _, rates in self.rounds),
                                  _rounds=self.rounds)

    def splits(self, points: np.ndarray) -> np.ndarray:
        """(m, key fraction, penalty) at each analysis-mode point, m = inf
        where n_bar is None."""
        spec = self.spec
        if spec.n_bar is None:
            return np.repeat([[math.inf], [1.0], [0.0]], len(points), axis=1)
        return _block_splits(spec.n_bar, points[:, 1], spec.eps_pa, spec.delta_prefactor)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """The analysis-mode rates at a round's points: the batch, or,
        where it raises, the batch point by point, which raises the
        round's first error."""
        try:
            return _analysis_round([self], [points])[0]
        except (ValueError, ArithmeticError):
            pass  # every CVMDIError is one of these; the replay raises
        return np.concatenate([_analysis_round([self], [point[None]])[0]
                               for point in points])


def _analysis_round(searches: list[_Search], rounds: list[np.ndarray]) -> list[np.ndarray]:
    """One round of many analysis searches, searches[i] at the points
    rounds[i], through one finite_size._rates call: the rates, one array
    per search.  Raises if and only if some point's oracle raises."""
    counts = [len(points) for points in rounds]
    xi, tau_a, tau_b, excess_q, excess_p, z = np.repeat(
        [(search.spec.xi, search.spec.channel.tau_a, search.spec.channel.tau_b,
          search.noise.excess_q, search.noise.excess_p, search.spec.z)
         for search in searches], counts, axis=0).T
    m, key_fraction, penalty = np.concatenate(
        [search.splits(points) for search, points in zip(searches, rounds)], axis=1)
    v_m = np.concatenate([points[:, 0] for points in rounds])
    return np.split(_rates(v_m, xi, tau_a, tau_b, (excess_q, excess_p), m, key_fraction,
                           penalty, z), np.cumsum(counts)[:-1])


def _protocol_objective(spec: OptimizationSpec):
    """Evaluator of a protocol-mode search's rounds over a cache: a fresh
    point draws one block from the stream indexed by the number of points
    drawn before it."""
    cache: dict[tuple[float, ...], float] = {}

    def scalar(index: int, v_m: float, ratio: float) -> float:
        protocol = ProtocolParams(v_m=v_m, xi=spec.xi)
        fs = FiniteSizeParams.from_ratio(spec.n_bar, ratio, eps_pa=spec.eps_pa)
        sim = SimulationSpec(spec.channel, v_m, fs.m, trials=1, seed=spec.seed)
        report = estimate_channel(sample_dataset(sim, trial_index=index), v_m,
                                  z=spec.z)
        return finite_size_key_rate(protocol, report, fs, spec.delta_prefactor)

    def evaluate(points: np.ndarray) -> np.ndarray:
        for point in map(tuple, points.tolist()):
            if point not in cache:
                cache[point] = scalar(len(cache), *point)
        return np.array([cache[point] for point in map(tuple, points.tolist())])

    return evaluate


def _grid_refine(evaluate, searches: list[_Search]) -> None:
    """Run searches in lockstep: a grid round, then each search's refinement
    rounds around its incumbent.  Round k of every search that has one goes
    to one evaluate(searches, rounds) call, which takes those searches and
    their points and returns their rates, one array per search."""
    for round_index in range(max((len(search.factors) for search in searches), default=0)):
        active = [search for search in searches if round_index < len(search.factors)]
        rounds = [search.points(round_index) for search in active]
        for search, points, rates in zip(active, rounds, evaluate(active, rounds)):
            search.record(points, rates)


def _optimize(spec: OptimizationSpec) -> OptimizationResult:
    """The spec's search on its own: analysis rounds through _Search.evaluate,
    protocol rounds through the block draws."""
    search = _Search(spec)
    evaluate = search.evaluate if spec.mode == "analysis" else _protocol_objective(spec)
    _grid_refine(lambda _, rounds: [evaluate(rounds[0])], [search])
    return search.result()


def optimize_key_rate(spec: OptimizationSpec) -> OptimizationResult:
    """Deterministic search for the best (v_m, ratio) pair.

    Refinement never returns a point worse than the coarse-grid incumbent
    because the incumbent is carried across rounds, and the reported rate
    equals a re-evaluation at the winning point exactly: analysis-mode
    values are bitwise the oracle's, and protocol mode serves repeated
    points from its cache.  A spec with n_bar=None searches K_inf over v_m.
    """
    return _optimize(spec)


def optimize_asymptotic(channel: ChannelParams, xi: float,
                        v_m_grid: tuple[float, ...] | None = None,
                        refinement_rounds: int = OptimizationSpec.refinement_rounds,
                        ) -> tuple[float, float, list]:
    """1-D version for the asymptotic rate: returns (v_m, rate, trace), the
    trace as (v_m, rate) pairs.  This is the search
    OptimizationSpec(channel, xi, None, v_m_grid, refinement_rounds=...)."""
    result = _optimize(OptimizationSpec(
        channel, xi, None, default_v_m_grid() if v_m_grid is None else v_m_grid,
        refinement_rounds=refinement_rounds))
    return result.v_m, result.rate, [(v_m, rate) for v_m, _, rate in result.trace]


def optimize_lockstep(specs) -> list[OptimizationResult]:
    """Run many analysis-mode searches in lockstep, one kernel call per round
    for all of them.

    specs is an iterable of analysis-mode OptimizationSpecs, K_inf
    searches (n_bar=None) among them.  Returns what optimize_key_rate
    returns for each, in order, bit for bit.  The error raised is the one
    that running each spec as soon as specs produces it raises first: a
    raising round reruns the searches one at a time, in order, and a
    raising producer is re-raised only after the specs before it ran.  A
    protocol-mode search draws its blocks in its own order, so it is
    rejected before anything runs; run it with optimize_key_rate.
    """
    built, error = [], None
    try:
        for spec in specs:
            built.append(spec)
    except (ValueError, ArithmeticError) as exc:
        error = exc  # every CVMDIError is one of these
    if any(spec.mode != "analysis" for spec in built):
        raise ConfigurationError("lockstep searches run in analysis mode; "
                                 "run a protocol-mode search with optimize_key_rate")
    try:
        searches = [_Search(spec) for spec in built]
        _grid_refine(_analysis_round, searches)
        results = [search.result() for search in searches]
    except (ValueError, ArithmeticError):
        # one at a time, the searches raise the sequential run's first error
        results = [_optimize(spec) for spec in built]
    if error is not None:
        raise error
    return results
