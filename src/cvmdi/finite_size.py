"""Finite-size key rate: block bookkeeping and the entropic penalty."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelParams, NoiseVars, noise_from_attack
from .errors import ConfigurationError, DomainError
from .estimation import EstimationReport, report_from_parameters
from .keyrate import ProtocolParams, asymptotic_key_rate


@dataclass(frozen=True)
class FiniteSizeParams:
    """Split of a finite block into estimation and key-generation signals.

    n_bar signals are exchanged in total, m of them spent on estimation.
    z = 6.5 keeps the chance of a parameter escaping its confidence band at
    the eps_pe = 1e-10 level (one-sided Gaussian tail ~4e-11); eps_pa is
    the privacy-amplification failure probability entering the penalty.
    """

    n_bar: int
    m: int
    eps_pe: float = 1e-10
    eps_pa: float = 1e-10
    z: float = 6.5

    def __post_init__(self):
        if self.n_bar <= 0:
            raise DomainError(f"block size must be positive, got {self.n_bar}")
        if not 0 < self.m < self.n_bar:
            raise DomainError(
                f"estimation samples must satisfy 0 < m < n_bar, got "
                f"m={self.m}, n_bar={self.n_bar}")
        for name in ("eps_pe", "eps_pa"):
            eps = getattr(self, name)
            if not 0.0 < eps < 1.0:
                raise DomainError(f"{name} must lie in (0, 1), got {eps}")
        if not 0.0 <= self.z < math.inf:
            raise DomainError(
                f"z (confidence multiplier) must be finite and >= 0, got {self.z}")

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


def finite_size_penalty(n: int, eps_pa: float, prefactor: float = 1.0) -> float:
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


def finite_size_key_rate(protocol: ProtocolParams, report: EstimationReport,
                         fs: FiniteSizeParams, delta_prefactor: float = 1.0) -> float:
    """Finite-size rate (n/n_bar) * (K_inf(worst case) - penalty).

    The asymptotic rate is evaluated at the report's pessimistic bounds.
    May be negative; truncation is left to the reporting layer.
    """
    if not report.bounded:
        raise ConfigurationError(
            "estimation report lacks worst-case bounds; apply worst_case first")
    worst_noise = NoiseVars(report.excess_q_up, report.excess_p_up)
    k_inf = asymptotic_key_rate(protocol, report.tau_a_low, report.tau_b_low,
                                worst_noise)
    return fs.ratio * (k_inf - finite_size_penalty(fs.n, fs.eps_pa, delta_prefactor))


def projected_key_rate(protocol: ProtocolParams, channel: ChannelParams,
                       fs: FiniteSizeParams, delta_prefactor: float = 1.0) -> float:
    """Finite-size rate a protocol run over the true channel would report.

    Estimator spreads come from the analytic variance formulas evaluated
    at the true parameters (analysis mode); use estimate_channel plus
    finite_size_key_rate for the data-driven pipeline instead.
    """
    noise = noise_from_attack(channel)
    report = report_from_parameters(channel.tau_a, channel.tau_b, noise,
                                    protocol.v_m, fs.m, z=fs.z)
    return finite_size_key_rate(protocol, report, fs, delta_prefactor)
