"""Monte Carlo generation of relay records and estimator validation.

This is the brute-force oracle for the estimation module: it samples the
relay input-output relations directly and compares empirical estimator
statistics against the analytic variance formulas.

Sampling model: modulation records are drawn at variance v_m and all shot
noise is lumped into the relay noise columns, so that the modulation-relay
covariance is sqrt(tau/2) * v_m and the relay output variance is
(tau_a + tau_b) v_m / 2 + total noise.  Eve's ancilla correlations reach
the relay statistics only through the per-quadrature excess noise, so the
lumped noise is sampled instead of a four-mode purification; every
quantity the estimators touch is identical either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, NoiseVars, noise_from_attack
from .errors import DomainError
from .estimation import (
    _residual_power,
    estimate_channel,
    estimate_covariances,
    excess_noise_variance,
    QuadratureDataset,
    transmissivities_per_quadrature,
    transmissivity_variance,
)

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class SimulationSpec:
    """One Monte Carlo campaign: channel, modulation, block and trial sizes."""

    channel: ChannelParams
    v_m: float
    m: int
    trials: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.v_m < math.inf:
            raise DomainError(f"v_m (modulation variance) must be finite and >= 0, "
                              f"got {self.v_m}")
        if self.m < 2:
            raise DomainError(f"samples per trial must be >= 2, got {self.m}")
        if self.trials < 1:
            raise DomainError(f"trial count must be >= 1, got {self.trials}")


def trial_generator(seed: int, trial_index: int) -> np.random.Generator:
    """PCG64 stream for one trial; (seed, trial_index) fixes every draw."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial_index),))
    return np.random.default_rng(ss)


def sample_dataset(spec: SimulationSpec, trial_index: int = 0) -> QuadratureDataset:
    """Draw one block of modulation and relay records.

    Draw order is fixed (a_q, a_p, b_q, b_p, then the two noise columns),
    each as standard normals scaled by the target standard deviation, so
    identical (seed, trial_index) reproduce the dataset bit for bit.
    """
    noise = noise_from_attack(spec.channel)
    rng = trial_generator(spec.seed, trial_index)
    s_mod = math.sqrt(spec.v_m)
    a_q = s_mod * rng.standard_normal(spec.m)
    a_p = s_mod * rng.standard_normal(spec.m)
    b_q = s_mod * rng.standard_normal(spec.m)
    b_p = s_mod * rng.standard_normal(spec.m)
    n_q = math.sqrt(noise.total_q) * rng.standard_normal(spec.m)
    n_p = math.sqrt(noise.total_p) * rng.standard_normal(spec.m)
    root_a = math.sqrt(spec.channel.tau_a)
    root_b = math.sqrt(spec.channel.tau_b)
    r_q = _SQRT_HALF * (root_b * b_q - root_a * a_q) + n_q
    r_p = _SQRT_HALF * (root_b * b_p + root_a * a_p) + n_p
    return QuadratureDataset(a_q, a_p, b_q, b_p, r_q, r_p)


@dataclass
class _Moments:
    """Streaming mean/variance accumulator (order-independent sums)."""

    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        self.total += x
        self.total_sq += x * x

    def mean(self) -> float:
        return self.total / self.count

    def variance(self) -> float | None:
        """Unbiased sample variance; None with fewer than two samples."""
        if self.count < 2:
            return None
        m = self.mean()
        return max((self.total_sq - self.count * m * m) / (self.count - 1), 0.0)


_TRACKED = (
    "tau_a", "tau_b", "tau_a_q", "tau_a_p", "tau_b_q", "tau_b_p",
    "excess_q", "excess_p", "cov_a_q", "cov_a_p", "cov_b_q", "cov_b_p",
    "chi2_q", "chi2_p",
)


@dataclass
class TrialStatistics:
    """Aggregated estimator statistics next to their analytic targets."""

    channel: ChannelParams
    v_m: float
    m: int
    trials: int
    seed: int
    noise: NoiseVars
    expected: dict[str, float]
    means: dict[str, float]
    variances: dict[str, float | None]
    comparisons: list[dict] = field(default_factory=list)

    @property
    def insufficient_data(self) -> bool:
        return self.trials < 2

    def to_dict(self) -> dict:
        ch = self.channel
        return {
            "channel": {
                "tau_a": ch.tau_a, "tau_b": ch.tau_b,
                "omega_a": ch.omega_a, "omega_b": ch.omega_b,
                "corr_q": ch.corr_q, "corr_p": ch.corr_p,
            },
            "v_m": self.v_m,
            "m": self.m,
            "trials": self.trials,
            "seed": self.seed,
            "true_excess_q": self.noise.excess_q,
            "true_excess_p": self.noise.excess_p,
            "expected": dict(self.expected),
            "means": dict(self.means),
            "variances": dict(self.variances),
            "comparisons": [dict(c) for c in self.comparisons],
            "insufficient_data": self.insufficient_data,
        }


def _expected_statistics(channel: ChannelParams, noise: NoiseVars,
                         v_m: float, m: int) -> dict[str, float]:
    var_aq, var_ap, var_a = transmissivity_variance(
        channel.tau_a, channel.tau_b, v_m, noise, m)
    var_bq, var_bp, var_b = transmissivity_variance(
        channel.tau_b, channel.tau_a, v_m, noise, m)
    s_q_sq, s_p_sq = excess_noise_variance(noise, m)
    c_a = math.sqrt(channel.tau_a / 2.0) * v_m
    c_b = math.sqrt(channel.tau_b / 2.0) * v_m
    return {
        "tau_a": channel.tau_a,
        "tau_b": channel.tau_b,
        "excess_q": noise.excess_q,
        "excess_p": noise.excess_p,
        # Alice's q record enters the relay output with a minus sign.
        "cov_a_q": -c_a,
        "cov_a_p": c_a,
        "cov_b_q": c_b,
        "cov_b_p": c_b,
        "var_tau_a_q": var_aq,
        "var_tau_a_p": var_ap,
        "var_tau_a": var_a,
        "var_tau_b_q": var_bq,
        "var_tau_b_p": var_bp,
        "var_tau_b": var_b,
        "var_excess_q": s_q_sq,
        "var_excess_p": s_p_sq,
        "chi2_mean": float(m),
        "chi2_var": 2.0 * m,
    }


def _build_comparisons(expected: dict[str, float], means: dict[str, float],
                       variances: dict[str, float | None],
                       trials: int) -> list[dict]:
    records: list[dict] = []

    def relative(name: str, analytic: float, empirical: float | None) -> None:
        rel = None if (empirical is None or analytic == 0.0) \
            else empirical / analytic - 1.0
        records.append({"name": name, "kind": "relative", "analytic": analytic,
                        "empirical": empirical, "rel_deviation": rel})

    def zscored(name: str, analytic: float, empirical: float,
                var: float | None) -> None:
        if var is None or var == 0.0:
            std_err, z = None, None
        else:
            std_err = math.sqrt(var / trials)
            z = (empirical - analytic) / std_err
        records.append({"name": name, "kind": "z", "analytic": analytic,
                        "empirical": empirical, "std_error": std_err,
                        "z_score": z})

    for key in ("tau_a_q", "tau_a_p", "tau_a", "tau_b_q", "tau_b_p", "tau_b",
                "excess_q", "excess_p"):
        relative(f"var({key})", expected[f"var_{key}"], variances[key])
    for quad in ("q", "p"):
        relative(f"mean(chi2_{quad})", expected["chi2_mean"], means[f"chi2_{quad}"])
        relative(f"var(chi2_{quad})", expected["chi2_var"], variances[f"chi2_{quad}"])
    for key in ("tau_a", "tau_b", "excess_q", "excess_p",
                "cov_a_q", "cov_a_p", "cov_b_q", "cov_b_p"):
        zscored(f"mean({key})", expected[key], means[key], variances[key])
    return records


def run_trials(spec: SimulationSpec) -> TrialStatistics:
    """Run the full estimation pipeline over many independent blocks.

    Each trial owns its own RNG stream derived from (seed, trial index);
    aggregation uses order-independent moment sums.  The chi-square
    statistic (normalized residual sum at the true parameters) is tracked
    alongside the estimators as a distributional cross-check.  Every one is
    read from the moments the block is reduced to once, when it is drawn.
    """
    channel = spec.channel
    noise = noise_from_attack(channel)
    acc = {name: _Moments() for name in _TRACKED}

    for trial in range(spec.trials):
        d = sample_dataset(spec, trial)
        c_aq, c_ap, c_bq, c_bp = estimate_covariances(d)
        ta_q, ta_p, tb_q, tb_p = transmissivities_per_quadrature(d, spec.v_m)
        report = estimate_channel(d, spec.v_m)
        power_q, power_p = _residual_power(d, channel.tau_a, channel.tau_b)
        chi2_q = spec.m * power_q / noise.total_q
        chi2_p = spec.m * power_p / noise.total_p

        acc["tau_a"].add(report.tau_a)
        acc["tau_b"].add(report.tau_b)
        acc["tau_a_q"].add(ta_q)
        acc["tau_a_p"].add(ta_p)
        acc["tau_b_q"].add(tb_q)
        acc["tau_b_p"].add(tb_p)
        acc["excess_q"].add(report.excess_q)
        acc["excess_p"].add(report.excess_p)
        acc["cov_a_q"].add(c_aq)
        acc["cov_a_p"].add(c_ap)
        acc["cov_b_q"].add(c_bq)
        acc["cov_b_p"].add(c_bp)
        acc["chi2_q"].add(chi2_q)
        acc["chi2_p"].add(chi2_p)

    expected = _expected_statistics(channel, noise, spec.v_m, spec.m)
    means = {name: acc[name].mean() for name in _TRACKED}
    variances = {name: acc[name].variance() for name in _TRACKED}
    comparisons = _build_comparisons(expected, means, variances, spec.trials)
    return TrialStatistics(channel, spec.v_m, spec.m, spec.trials, spec.seed,
                           noise, expected, means, variances, comparisons)
