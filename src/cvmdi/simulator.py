"""Monte Carlo generation of relay blocks and estimator validation.

This is the brute-force oracle for the estimation module: it draws blocks
of relay data and compares empirical estimator statistics against the
analytic variance formulas.

Sampling model: modulation records are drawn at variance v_m and all shot
noise is lumped into the relay noise columns, so that the modulation-relay
covariance is sqrt(tau/2) * v_m and the relay output variance is
(tau_a + tau_b) v_m / 2 + total noise.  Eve's ancilla correlations reach
the relay statistics only through the per-quadrature excess noise, so the
lumped noise is sampled instead of a four-mode purification; every
quantity the estimators touch is identical either way.

Two samplers draw a block from the stream of its (seed, trial index):

- `sample_dataset` draws the records themselves, O(m) per block.  It is
  the record-level reference, and it serves dataset dumps and protocol mode.
- `sample_moments` draws only the two moment matrices the estimators read,
  in O(1).  Each use's records are x = L z, with z = (z_a, z_b, z_n)
  standard normal and L the lower-triangular record map, so m G = L W L^T
  with W ~ Wishart(m, I_3).  W = A A^T is drawn by Bartlett's decomposition
  (Smith & Hocking, Appl. Stat. 21:341, 1972): A is lower triangular with
  A_ii^2 ~ chi^2(m - i) and standard normals below the diagonal.
  `run_trials` uses it, so a trial costs the same at any block size.

The two share the law of a block, not its draws: the same (seed, trial
index) gives unrelated blocks in the two samplers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, NoiseVars, noise_from_attack
from .errors import DomainError
from .estimation import (
    _residual_power,
    BlockMoments,
    estimate_channel,
    estimate_covariances,
    excess_noise_variance,
    QuadratureDataset,
    transmissivities_per_quadrature,
    transmissivity_variance,
)

_SQRT_HALF = math.sqrt(0.5)
_DIAGONAL = np.arange(3)
_BELOW = np.tril_indices(3, -1)


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


def _record_map(spec: SimulationSpec, noise: NoiseVars) -> np.ndarray:
    """Lower-triangular maps, q then p, from standard normals (z_a, z_b, z_n)
    to one use's records (a, b, r)."""
    s_mod = math.sqrt(spec.v_m)
    half_a = math.sqrt(spec.channel.tau_a / 2.0) * s_mod
    half_b = math.sqrt(spec.channel.tau_b / 2.0) * s_mod
    # Alice's q record enters the relay output with a minus sign.
    return np.array([
        [[s_mod, 0.0, 0.0], [0.0, s_mod, 0.0], [-half_a, half_b, math.sqrt(noise.total_q)]],
        [[s_mod, 0.0, 0.0], [0.0, s_mod, 0.0], [half_a, half_b, math.sqrt(noise.total_p)]],
    ])


def _draw_moments(spec: SimulationSpec, record_map: np.ndarray,
                  trial_index: int) -> BlockMoments:
    rng = trial_generator(spec.seed, trial_index)
    bartlett = np.zeros((2, 3, 3))
    # chi^2(k) as 2 Gamma(k/2), which is 0 at k = 0 (m = 2) where
    # Generator.chisquare raises.
    bartlett[:, _DIAGONAL, _DIAGONAL] = np.sqrt(
        2.0 * rng.standard_gamma((spec.m - _DIAGONAL) / 2.0, size=(2, 3)))
    bartlett[:, _BELOW[0], _BELOW[1]] = rng.standard_normal((2, 3))
    loaded = record_map @ bartlett
    return BlockMoments(loaded @ loaded.transpose(0, 2, 1) / spec.m, spec.m)


def sample_moments(spec: SimulationSpec, trial_index: int = 0) -> BlockMoments:
    """Draw one block's moment matrices in O(1), by Bartlett's decomposition.

    The law is that of sample_dataset(spec, trial_index).moments; the draws
    come from the same (seed, trial_index) stream but are not those of the
    records, and no record is drawn.
    """
    return _draw_moments(spec, _record_map(spec, noise_from_attack(spec.channel)),
                         trial_index)


@dataclass
class _Moments:
    """Streaming mean and variance.  The variance sums squared deviations
    from the running mean (Welford, Technometrics 4:419, 1962), which does
    not cancel, as sum(x^2) - n mean^2 does, when the spread is tiny."""

    count: int = 0
    total: float = 0.0
    running_mean: float = 0.0
    sum_sq_dev: float = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        self.total += x
        delta = x - self.running_mean
        self.running_mean += delta / self.count
        self.sum_sq_dev += delta * (x - self.running_mean)

    def mean(self) -> float:
        return self.total / self.count

    def variance(self) -> float | None:
        """Unbiased sample variance; None with fewer than two samples."""
        if self.count < 2:
            return None
        return self.sum_sq_dev / (self.count - 1)


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


def _trial_values(block: BlockMoments, v_m: float, channel: ChannelParams,
                  noise: NoiseVars) -> tuple[float, ...]:
    """The _TRACKED values of one block, in that order."""
    c_aq, c_ap, c_bq, c_bp = estimate_covariances(block)
    ta_q, ta_p, tb_q, tb_p = transmissivities_per_quadrature(block, v_m)
    report = estimate_channel(block, v_m)
    power_q, power_p = _residual_power(block, channel.tau_a, channel.tau_b)
    return (report.tau_a, report.tau_b, ta_q, ta_p, tb_q, tb_p,
            report.excess_q, report.excess_p, c_aq, c_ap, c_bq, c_bp,
            block.m * power_q / noise.total_q, block.m * power_p / noise.total_p)


def run_trials(spec: SimulationSpec) -> TrialStatistics:
    """Run the full estimation pipeline over many independent blocks.

    Each trial draws one block's moment matrices as `sample_moments` does,
    in O(1), from its own RNG stream derived from (seed, trial index);
    means and variances accumulate trial by trial in O(1) memory.  The
    chi-square statistic (normalized residual sum at the true parameters)
    is tracked alongside the estimators as a distributional cross-check.
    """
    channel = spec.channel
    noise = noise_from_attack(channel)
    record_map = _record_map(spec, noise)
    acc = {name: _Moments() for name in _TRACKED}

    for trial in range(spec.trials):
        block = _draw_moments(spec, record_map, trial)
        for name, value in zip(_TRACKED, _trial_values(block, spec.v_m, channel, noise)):
            acc[name].add(value)

    expected = _expected_statistics(channel, noise, spec.v_m, spec.m)
    means = {name: acc[name].mean() for name in _TRACKED}
    variances = {name: acc[name].variance() for name in _TRACKED}
    comparisons = _build_comparisons(expected, means, variances, spec.trials)
    return TrialStatistics(channel, spec.v_m, spec.m, spec.trials, spec.seed,
                           noise, expected, means, variances, comparisons)
