"""Finite-size key rate: block bookkeeping and the entropic penalty.

The rate is (n/n_bar)(K_inf - penalty), with K_inf taken at the worst-case
bounds of `estimation`'s one spreads-and-bounds stage.
projected_key_rate, with finite_size_rate and report_from_parameters, is
the scalar oracle for one analysis-mode point; the tests hold the batch
to it, and the optimizer never calls it.  The batch route is
_block_splits, the block split and penalty per distinct ratio, then
_rates, one bounds call and one kernel call over arrays of points that
each carry their own channel, efficiency, z and block split: the
optimizer runs a round of every search of a sweep through it at once, the
K_inf searches (OptimizationSpec with n_bar=None) included as points at
n_bar = inf, and replays a round that raises one point at a time.  Both
routes read the bounds off that stage and K_inf off keyrate's one kernel,
so the batch equals the oracle bit for bit, and it raises if and only if
the oracle raises at some point of the round.  On one point it raises the
oracle's error, save that it checks v_m and xi last (OptimizationSpec
checks its grid when it is built) and the penalty before the bounds.
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


def _block_splits(n_bar: int, ratios: np.ndarray, eps_pa: float,
                  delta_prefactor: float) -> np.ndarray:
    """(m, key fraction, penalty) at each ratio for a block of n_bar, shape
    (3, len(ratios)), with m as float(m).

    FiniteSizeParams.from_ratio and finite_size_penalty run in Python once
    per distinct ratio, so block sizes past 2**53 split exactly, and raise
    what they raise for some ratio.
    """
    # a dict, not np.unique: a first sort maps about 1 MB of numpy's sorting
    # code into the process
    distinct: dict[float, int] = {}
    which = [distinct.setdefault(ratio, len(distinct)) for ratio in ratios.tolist()]
    splits = []
    for ratio in distinct:
        fs = FiniteSizeParams.from_ratio(n_bar, ratio, eps_pa=eps_pa)
        splits.append((float(fs.m), fs.ratio,
                       finite_size_penalty(fs.n, eps_pa, delta_prefactor)))
    return np.array(splits).reshape(-1, 3)[which].T


def _rates(v_m: np.ndarray, xi, tau_a, tau_b, noise, m: np.ndarray,
           key_fraction: np.ndarray, penalty: np.ndarray, z) -> np.ndarray:
    """Rates (n/n_bar)(K_inf - penalty) over arrays of points (k,), from one
    bounds call and one kernel call.

    xi, tau_a, tau_b and z are scalars or one per point, and noise is an
    (excess_q, excess_p) pair of the same kind, so that points of many
    searches share a round.  A point with m = inf is at n_bar = inf: key
    fraction 1, penalty 0 and K_inf at the true channel, since its spreads
    would be 0/0; its rate 1.0 * (K_inf - 0.0) is K_inf bit for bit, NaN and
    -0.0 included.  Raises if and only if some point's oracle raises.
    """
    worst = np.array(np.broadcast_arrays(tau_a, tau_b, *noise, v_m)[:4])
    finite = m < math.inf
    if finite.any():
        tau_low, excess_up = _parameter_bounds(
            *worst[:2, finite], worst[2:, finite], v_m[finite], m[finite],
            np.broadcast_to(z, v_m.shape)[finite])
        worst[:2, finite], worst[2:, finite] = tau_low, excess_up
    k_infinity = key_rate_batch(v_m, xi, *worst)[2]
    return key_fraction * (k_infinity - penalty)
