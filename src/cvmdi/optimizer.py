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

One engine, _Group.run, runs searches in lockstep as arrays, one column
per search.  Round k of all searches that have one is one evaluation: one
broadcast (_windows) builds every window, a search's points are the
row-major product of its axes, and one segmented reduction (_incumbents)
takes every incumbent by the scalar rule: a larger rate, then a smaller
v_m, a larger ratio, the earlier point; a NaN never takes over, and a NaN
first point stays.  In analysis mode a round is one finite_size._rates
call after one _block_splits call on its ratio axis, in arrays save where
n_bar > 2**53 or a parameter is invalid (Python's from_ratio there); each
value is bitwise its scalar oracle's, and a round raises if and only if
the oracle raises at some point.  optimize_lockstep then reruns its
searches one at a time, and a search on its own replays the round point
by point, so the error raised is the sequential run's first.  The scalar
route checks xi and v_m first, so a spec checks its v_m grid.  Protocol
mode runs one search: a fresh point draws one block, from the stream
indexed by the number of points drawn before it in the rounds' order, and
a repeated one is cached.
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
    _split_table,
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
        # the scalar route's first check: at the first v_m, then the first bad one
        ProtocolParams(self.v_m_grid[0], self.xi)
        ProtocolParams(next((v_m for v_m in self.v_m_grid if not 0.0 <= v_m < math.inf),
                            self.v_m_grid[0]), self.xi)


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


def _incumbents(best, points: np.ndarray, rates: np.ndarray, starts: np.ndarray,
                owner: np.ndarray):
    """The incumbents after a round of searches, owner[i] the search of
    points[i] and its points contiguous from starts[search], as scanning
    them in order finds them: a point takes over where its rate is >= the
    incumbent's, which no NaN meets, and it is better by (rate, -v_m, *other
    axes).  A first point is the incumbent even when its rate is NaN.  best,
    updated and returned, holds (rate, *point) rows, or is None at first."""
    columns = [rates, *points.T]
    if best is None:
        best = np.column_stack([column[starts] for column in columns])
    keep = rates >= best[owner, 0]
    # each search's first point by (rate, -v_m, ratio), the axes filtering
    # its points in turn until one at most is left
    for axis, column in enumerate(columns):
        top, void = (np.minimum, math.inf) if axis == 1 else (np.maximum, -math.inf)
        keep &= column == top.reduceat(np.where(keep, column, void), starts)[owner]
        index = np.flatnonzero(keep)
        search = owner[index]
        if (search[1:] > search[:-1]).all():
            break
    else:
        first = np.diff(search, prepend=-1) > 0
        index, search = index[first], search[first]
    better = np.zeros(len(index), bool)
    for axis in reversed(range(len(columns))):
        new, was = columns[axis][index], best[search, axis]
        better = np.where(new != was, new < was if axis == 1 else new > was, better)
    candidate = np.column_stack([column[index] for column in columns])
    best[search[better]] = candidate[better]
    return best


@functools.lru_cache(maxsize=8)
def _layout(counts: bytes):
    """Index arrays of a round whose windows have the lengths counts, a (2,
    searches) int array as bytes: each value's window, its index there and
    each window's last value (every v_m window, row 0, comes first); each
    point's search and its v_m's index among the values and its ratio's
    among the ratios; each search's first point; and each ratio's search."""
    counts = np.frombuffer(counts, int)
    lengths, widths = counts.reshape(2, -1)
    sizes = lengths * widths
    starts = np.cumsum(sizes) - sizes
    search = np.repeat(np.arange(len(sizes)), sizes)
    v_m, ratio = np.divmod(np.arange(sizes.sum()) - starts[search], widths[search])
    window = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    offsets = first.reshape(2, -1) - [[0], [first[len(sizes)]]]
    return (window, np.arange(len(window)) - first[window], first + counts - 1, search,
            v_m + offsets[0][search], ratio + offsets[1][search], starts,
            np.repeat(np.arange(len(sizes)), widths))


def _windows(centres: np.ndarray, lo: np.ndarray, hi: np.ndarray, counts: np.ndarray,
             factor: float):
    """Every search's windows in one broadcast, each bitwise its own
    np.logspace (v_m, row 0 of these (2, searches) arrays, lo and hi log10
    of the grid's ends) or np.linspace (ratio) from start to start + width:
    width = (hi - lo) / factor, start = centre - width / 2 clipped into [lo,
    hi - width].  A window of width 0 is its centre.  Returns the values in
    _layout's order and the windows' lengths."""
    at = np.array([list(map(math.log10, centres[0].tolist())), centres[1]])  # libm log10
    width = (hi - lo) / factor
    counts = np.where(width == 0.0, 1, counts)
    window, index, last = _layout(counts.tobytes())[:3]
    start = np.where(lo > at - width / 2.0, lo, at - width / 2.0)
    start = np.where(hi - width < start, hi - width, start).ravel()
    width, div = width.ravel(), np.maximum(counts.ravel() - 1, 1)
    stop = start + width
    step = (delta := stop - start) / div
    zero = step == 0.0  # np.linspace's branch for a step that underflows
    values = (np.where(zero[window], index / div[window], index)
              * np.where(zero, delta, step)[window] + start[window])
    values[last] = stop
    flat = last[width == 0.0]
    values[flat] = 0.0
    log = last[len(last) // 2 - 1] + 1
    values[:log] = 10.0 ** values[:log]
    values[flat] = centres.ravel()[width == 0.0]
    return values, counts


class _Group:
    """Searches in lockstep, one column per spec: kernel inputs, split table,
    hulls, grid lengths, round counts and incumbents.  A plain class: a
    dataclass would compile its methods on every import of the package."""

    def __init__(self, specs: list[OptimizationSpec]):
        kernel, hulls = [], []
        for spec in specs:
            # raises for an attack too noisy to represent, in both modes
            noise = noise_from_attack(spec.channel)
            rounds = spec.refinement_rounds
            if rounds < 0:
                raise ConfigurationError("need refinement_rounds >= 0")
            try:
                SHRINK ** rounds  # the last round's window factor
            except OverflowError:
                raise ConfigurationError(
                    f"refinement_rounds {rounds} is too large: the window shrink factor "
                    f"{SHRINK} ** {rounds} overflows") from None
            kernel.append((spec.xi, spec.channel.tau_a, spec.channel.tau_b,
                           noise.excess_q, noise.excess_p, spec.z))
            hulls.append((math.log10(min(spec.v_m_grid)), min(spec.r_grid),
                          math.log10(max(spec.v_m_grid)), max(spec.r_grid)))
        self.kernel = np.array(kernel).reshape(-1, 6).T.copy()
        self.lo, self.hi = np.array(hulls).reshape(-1, 2, 2).transpose(1, 2, 0)
        self.rounds = np.array([spec.refinement_rounds + 1 for spec in specs], int)
        self.counts = np.array([(len(spec.v_m_grid), len(spec.r_grid)) for spec in specs],
                               int).reshape(-1, 2).T.copy()
        self.grids = np.array([v for spec in specs for v in spec.v_m_grid]
                              + [r for spec in specs for r in spec.r_grid])
        self.blocks = [(spec.n_bar, spec.eps_pa, spec.delta_prefactor) for spec in specs]
        self.splits, self.best = _split_table(self.blocks), np.empty((len(specs), 3))

    def run(self, evaluate) -> list[OptimizationResult]:
        """Round k, grids or from k = 1 windows with factor SHRINK ** k, is one
        evaluate(points, owner, axis) call: owner holds each point's search,
        axis is (ratios, their searches, each point's index into them)."""
        traces: list[list] = [[] for _ in self.rounds]
        for k in range(int(self.rounds.max(initial=0))):
            active = np.flatnonzero(self.rounds > k)
            values, counts = self.grids, self.counts[:, active]
            if k:
                values, counts = _windows(self.best[active, 1:].T, self.lo[:, active],
                                          self.hi[:, active], counts, SHRINK ** k)
            *_, search, v_at, r_at, starts, ratio_search = _layout(counts.tobytes())
            ratios = values[counts[0].sum():]
            points = np.stack((values[v_at], ratios[r_at]), axis=1)
            rates = evaluate(points, active[search], (ratios, active[ratio_search], r_at))
            self.best[active] = _incumbents(self.best[active] if k else None, points,
                                            rates, starts, search)
            ends = [*starts[1:].tolist(), len(rates)]
            for which, start, end in zip(active.tolist(), starts.tolist(), ends):
                traces[which].append((points[start:end], rates[start:end]))
        return [OptimizationResult(v_m, ratio, rate, rate <= 0.0,
                                   sum(len(rates) for _, rates in trace), trace)
                for (rate, v_m, ratio), trace in zip(self.best.tolist(), traces)]

    def rates(self, points: np.ndarray, owner: np.ndarray, axis=None) -> np.ndarray:
        """Analysis-mode rates at points, owner[i] the search of points[i],
        with the block splits taken on axis (see run) or else at each point.
        Raises if and only if some point's oracle raises."""
        ratios, ratio_owner, index = (points[:, 1], owner, None) if axis is None else axis
        splits = _block_splits(self.blocks, self.splits, ratios, ratio_owner)
        return _rates(points[:, 0], self.kernel[:, owner],
                      splits if index is None else splits[:, index])

    def replayed(self, points: np.ndarray, owner: np.ndarray, axis=None) -> np.ndarray:
        """rates, or where they raise, rates point by point: the first error."""
        try:
            return self.rates(points, owner, axis)
        except (ValueError, ArithmeticError):
            pass  # every CVMDIError is one of these; the replay raises
        return np.concatenate([self.rates(points[i:i + 1], owner[i:i + 1])
                               for i in range(len(points))])


def _protocol_objective(spec: OptimizationSpec):
    """Evaluator of a protocol-mode search's rounds over a cache: a fresh point
    draws one block, from the stream indexed by the points drawn before it."""
    cache: dict[tuple[float, ...], float] = {}

    def evaluate(points: np.ndarray, *_) -> np.ndarray:
        for v_m, ratio in map(tuple, points.tolist()):
            if (v_m, ratio) not in cache:
                protocol = ProtocolParams(v_m=v_m, xi=spec.xi)
                fs = FiniteSizeParams.from_ratio(spec.n_bar, ratio, eps_pa=spec.eps_pa)
                sim = SimulationSpec(spec.channel, v_m, fs.m, trials=1, seed=spec.seed)
                report = estimate_channel(sample_dataset(sim, trial_index=len(cache)), v_m,
                                          z=spec.z)
                cache[v_m, ratio] = finite_size_key_rate(protocol, report, fs,
                                                         spec.delta_prefactor)
        return np.array([cache[point] for point in map(tuple, points.tolist())])

    return evaluate


def _optimize(spec: OptimizationSpec) -> OptimizationResult:
    """The spec's search alone: analysis rounds replayed where they raise."""
    group = _Group([spec])
    return group.run(group.replayed if spec.mode == "analysis"
                     else _protocol_objective(spec))[0]


def optimize_key_rate(spec: OptimizationSpec) -> OptimizationResult:
    """Deterministic search for the best (v_m, ratio) pair.  Refinement
    never returns a point worse than the coarse-grid incumbent, which is
    carried across rounds, and the reported rate equals a re-evaluation at
    the winning point exactly: analysis-mode values are bitwise the
    oracle's, and protocol mode serves repeated points from its cache.  A
    spec with n_bar=None searches K_inf over v_m."""
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
    for all of them.  specs is an iterable of analysis-mode
    OptimizationSpecs, K_inf searches (n_bar=None) among them.  Returns what
    optimize_key_rate returns for each, in order, bit for bit.  The error
    raised is the one that running each spec as soon as specs produces it
    raises first: a raising round reruns the searches one at a time, in
    order, and a raising producer is re-raised only after the specs before
    it ran.  A protocol-mode search draws its blocks in its own order, so
    it is rejected before anything runs; run it with optimize_key_rate."""
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
        group = _Group(built)
        results = group.run(group.rates)
    except (ValueError, ArithmeticError):
        # one at a time, the searches raise the sequential run's first error
        results = [_optimize(spec) for spec in built]
    if error is not None:
        raise error
    return results
