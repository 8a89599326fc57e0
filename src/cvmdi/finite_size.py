"""Finite-size key rate: block bookkeeping and the entropic penalty.

The rate is (n/n_bar)(K_inf - penalty), with K_inf taken at the worst-case
bounds of `estimation`'s one spreads-and-bounds stage.  projected_key_rate,
with finite_size_rate and report_from_parameters, is the scalar oracle for
one analysis-mode point; the tests hold the batch to it.  The batch route,
a round of every search of a sweep, is _block_splits on the round's ratio
axis, in arrays save where n_bar > 2**53 or a parameter is invalid, then
_rates, one bounds call and one kernel call, K_inf searches (n_bar=None)
included as points at n_bar = inf.  It equals the oracle bit for bit and
raises if and only if the oracle raises at some point of the round; on
one point it raises the oracle's error, save that it checks v_m and xi
last (OptimizationSpec checks its grid) and the penalty before the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, NoiseVars, noise_from_attack
from .errors import DomainError
from .estimation import (_parameter_bounds, DEFAULT_Z, EstimationReport,
                         report_from_parameters)
from .keyrate import key_rate_batch, key_rate_breakdown, ProtocolParams, RateBreakdown

# Privacy-amplification failure probability.
DEFAULT_EPS_PA = 1e-10
# Penalty prefactor: 1 is the bare square-root form.
DEFAULT_DELTA_PREFACTOR = 1.0


@dataclass(frozen=True)
class FiniteSizeParams:
    """Split of a finite block into estimation and key-generation signals.

    n_bar signals are exchanged in total, m of them spent on estimation;
    eps_pa is the privacy-amplification failure probability entering the
    penalty.  The confidence multiplier z of the worst-case bounds belongs
    to the EstimationReport, not to the block split.
    """

    n_bar: int
    m: int
    eps_pa: float = DEFAULT_EPS_PA

    def __post_init__(self):
        if self.n_bar <= 0:
            raise DomainError(f"block size must be positive, got {self.n_bar}")
        if not 0 < self.m < self.n_bar:
            raise DomainError(
                f"estimation samples must satisfy 0 < m < n_bar, got "
                f"m={self.m}, n_bar={self.n_bar}")
        if not 0.0 < self.eps_pa < 1.0:
            raise DomainError(f"eps_pa must lie in (0, 1), got {self.eps_pa}")

    @property
    def n(self) -> int:
        """Signals left for the key."""
        return self.n_bar - self.m

    @property
    def ratio(self) -> float:
        """Key fraction n / n_bar."""
        return self.n / self.n_bar

    @classmethod
    def from_ratio(cls, n_bar: int, ratio: float, **kwargs) -> "FiniteSizeParams":
        """Build from the key fraction; m is rounded and kept in range."""
        if not 0.0 < ratio < 1.0:
            raise DomainError(f"key fraction must lie in (0, 1), got {ratio}")
        n_bar = int(n_bar)
        m = n_bar - round(ratio * n_bar)
        m = min(max(m, 2), n_bar - 1)
        return cls(n_bar=n_bar, m=m, **kwargs)


def finite_size_penalty(n: int, eps_pa: float,
                        prefactor: float = DEFAULT_DELTA_PREFACTOR) -> float:
    """Rate penalty sqrt(log2(2/eps_pa) / n) for keying on n signals.

    Decreasing in n and vanishing as n grows; the optional prefactor
    defaults to 1 (the bare square-root form).
    """
    if n < 1:
        raise DomainError(f"key signal count must be >= 1, got {n}")
    if not 0.0 < eps_pa < 1.0:
        raise DomainError(f"eps_pa must lie in (0, 1), got {eps_pa}")
    if not 0.0 <= prefactor < math.inf:
        raise DomainError(f"delta prefactor must be finite and >= 0, got {prefactor}")
    return prefactor * math.sqrt(math.log2(2.0 / eps_pa) / n)


@dataclass(frozen=True)
class FiniteSizeRate:
    """k = (n/n_bar) * (worst_case.k_infinity - penalty), with its parts."""

    worst_case: RateBreakdown
    penalty: float
    k: float


def finite_size_rate(protocol: ProtocolParams, report: EstimationReport,
                     fs: FiniteSizeParams,
                     delta_prefactor: float = DEFAULT_DELTA_PREFACTOR) -> FiniteSizeRate:
    """Finite-size rate and its parts, from the report's worst-case bounds:
    lower transmissivities, upper excess noise."""
    worst = key_rate_breakdown(protocol, report.tau_a_low, report.tau_b_low,
                               NoiseVars(report.excess_q_up, report.excess_p_up))
    penalty = finite_size_penalty(fs.n, fs.eps_pa, delta_prefactor)
    return FiniteSizeRate(worst, penalty, fs.ratio * (worst.k_infinity - penalty))


def finite_size_key_rate(protocol: ProtocolParams, report: EstimationReport,
                         fs: FiniteSizeParams,
                         delta_prefactor: float = DEFAULT_DELTA_PREFACTOR) -> float:
    """Finite-size rate (n/n_bar) * (K_inf(worst case) - penalty), as
    finite_size_rate.  May be negative; truncation is left to the reporting
    layer."""
    return finite_size_rate(protocol, report, fs, delta_prefactor).k


def projected_key_rate(protocol: ProtocolParams, channel: ChannelParams,
                       fs: FiniteSizeParams,
                       delta_prefactor: float = DEFAULT_DELTA_PREFACTOR,
                       z: float = DEFAULT_Z) -> float:
    """Finite-size rate a protocol run over the true channel would report.

    Estimator spreads come from the analytic variance formulas evaluated
    at the true parameters (analysis mode), widened by z into worst-case
    bounds; use estimate_channel plus finite_size_key_rate for the
    data-driven pipeline instead.
    """
    noise = noise_from_attack(channel)
    report = report_from_parameters(channel.tau_a, channel.tau_b, noise,
                                    protocol.v_m, fs.m, z=z)
    return finite_size_key_rate(protocol, report, fs, delta_prefactor)


def _split_table(blocks) -> np.ndarray:
    """_block_splits' row (n_bar, c = log2(2 / eps_pa), prefactor) per block
    (n_bar, eps_pa, prefactor): n_bar is inf for None, and nan (the Python
    route) unless it is an int in [3, 2**53] and the penalty is finite."""
    rows = [(math.inf, 1.0, 0.0) if block[0] is None else (math.nan, 1.0, 1.0)
            for block in blocks]
    for row, (n_bar, eps_pa, prefactor) in enumerate(blocks):
        if (type(n_bar) is int and 3 <= n_bar <= 2 ** 53 and isinstance(eps_pa, float)
                and isinstance(prefactor, float) and 0.0 < eps_pa < 1.0 and 0.0 <= prefactor
                and prefactor * math.sqrt(c := math.log2(2.0 / eps_pa)) < math.inf):
            rows[row] = (float(n_bar), c, prefactor)
    return np.array(rows).reshape(-1, 3)


def _block_splits(blocks, table: np.ndarray, ratios: np.ndarray,
                  owners: np.ndarray) -> np.ndarray:
    """(m, key fraction, penalty) of each ratios[i] in blocks[owners[i]],
    shape (3, k), m as float(m), (inf, 1, 0) where n_bar is None; table is
    _split_table(blocks).  While 3 <= n_bar <= 2**53 and the parameters are
    valid this is IEEE-exact array arithmetic: np.rint(ratio * n_bar), half
    to even as round, the clamps, n / n_bar and prefactor * sqrt(c / n).
    Elsewhere from_ratio and finite_size_penalty run once per distinct
    block and ratio, exact past 2**53, raising what they raise."""
    n_bar, c, prefactor = table[owners].T
    exact = (n_bar < math.inf) & (ratios > 0.0) & (ratios < 1.0)
    at_inf = n_bar == math.inf
    n_bar = np.where(exact, n_bar, 3.0)  # a block the array route can split
    m = np.minimum(np.maximum(n_bar - np.rint(ratios * n_bar), 2.0), n_bar - 1.0)
    n = n_bar - m
    splits = np.array([m, n / n_bar, prefactor * np.sqrt(c / n)])
    splits[:, at_inf] = ((math.inf,), (1.0,), (0.0,))
    distinct: dict = {}
    for i in np.flatnonzero(~(exact | at_inf)).tolist():
        (n_bar, eps_pa, prefactor), ratio = key = (blocks[owners[i]], ratios[i].item())
        if key not in distinct:
            fs = FiniteSizeParams.from_ratio(n_bar, ratio, eps_pa=eps_pa)
            penalty = finite_size_penalty(fs.n, eps_pa, prefactor)
            distinct[key] = (float(fs.m), fs.ratio, penalty)
        splits[:, i] = distinct[key]
    return splits


def _rates(v_m: np.ndarray, kernel: np.ndarray, splits: np.ndarray) -> np.ndarray:
    """Rates (n/n_bar)(K_inf - penalty) at points (k,) of many searches, from
    one bounds call and one kernel call; kernel rows are xi, tau_a, tau_b,
    excess_q, excess_p and z, splits rows m, key fraction and penalty.  At
    m = inf, n_bar = inf: K_inf at the true channel (its spreads would be
    0/0), and 1.0 * (K_inf - 0.0) is K_inf bit for bit, NaN and -0.0 too.
    Raises if and only if some point's oracle raises."""
    m, key_fraction, penalty = splits
    worst = kernel[1:5].copy()
    finite = np.flatnonzero(m < math.inf)
    if len(finite):
        tau_a, tau_b, excess_q, excess_p = worst[:, finite]
        worst[:2, finite], worst[2:, finite] = _parameter_bounds(
            tau_a, tau_b, (excess_q, excess_p), v_m[finite], m[finite], kernel[5, finite])
    return key_fraction * (key_rate_batch(v_m, kernel[0], *worst)[2] - penalty)
