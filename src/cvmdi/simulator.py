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

Two samplers draw blocks:

- `sample_dataset` draws the records themselves, O(m) per block, from the
  stream of its (seed, trial index).  It is the record-level reference,
  and it serves dataset dumps and protocol mode.
- `sample_moments` draws only the two moment matrices the estimators read,
  in O(1).  Each use's records are x = L z, with z = (z_a, z_b, z_n)
  standard normal and L the lower-triangular record map, so m G = L W L^T
  with W ~ Wishart(m, I_3).  W = A A^T is drawn by Bartlett's decomposition
  (Smith & Hocking, Appl. Stat. 21:341, 1972): A is lower triangular with
  A_ii^2 ~ chi^2(m - i) and standard normals below the diagonal.

Moment draws come in stream blocks of B = _STREAM_BLOCK trials: block j draws
the Bartlett factors of trials j B, ..., j B + B - 1 with one gamma and one
normal call on its own stream, keyed by (seed, j) apart from the trial
streams, and trial t is row t mod B of block t div B.  A trial's moments
therefore depend on (seed, t) alone, not on the trials drawn with it, and
the two samplers share the law of a block, not its draws.

`run_trials` draws moments, so a trial costs the same at any block size.
It works in chunks of whole stream blocks: a chunk's moments are bitwise
those of `sample_moments`, and its estimates come from a few array
expressions that follow the scalar estimators of `estimation` operation by
operation, bitwise.  Means and variances are merged chunk by chunk, so
memory stays bounded at any trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, NoiseVars, noise_from_attack
from .errors import DomainError, NumericalDegeneracyError
from .estimation import (
    _MIN_TOTAL,
    _transmissivity_scale,
    BlockMoments,
    DEFAULT_Z,
    excess_noise_variance,
    QuadratureDataset,
    transmissivity_variance,
)

_SQRT_HALF = math.sqrt(0.5)
_DIAGONAL = np.arange(3)
_BELOW = np.tril_indices(3, -1)
# Trials per moment stream; a private constant, not a knob, since changing
# it changes every draw.
_STREAM_BLOCK = 64
# Leading spawn-key word of the moment streams, an arbitrary one ("mom" in
# ASCII): block j's key (tag, j) is two words long, so no trial stream (t,)
# with t < 2^32 shares it.
_MOMENT_STREAM_TAG = 0x6D6F6D
# Largest block size.  A block's statistics spread by about sqrt(2/m) of
# their size, 1.4e-12 at m = 1e24, still 6e3 float64 ulps; beyond it rounding
# takes over from sampling, and from m ~ 1e170 the chi-square sums overflow.
_MAX_M = 10**24


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
        if not 2 <= self.m <= _MAX_M:
            raise DomainError(f"samples per trial must be >= 2 and <= {_MAX_M:.0e}, "
                              f"got {self.m}")
        if self.trials < 1:
            raise DomainError(f"trial count must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


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


def _moment_generator(seed: int, block: int) -> np.random.Generator:
    """PCG64 stream of one moment stream block."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(_MOMENT_STREAM_TAG, int(block)))
    return np.random.default_rng(ss)


def _draw_moments(spec: SimulationSpec, record_map: np.ndarray, first: int,
                  count: int) -> np.ndarray:
    """Moment matrices, shape (count, 2, 3, 3), of trials first, first + 1, ...

    Draws every stream block the range touches, whole, and keeps the
    range's rows, so a trial's moments do not depend on the range.
    """
    first_block, offset = divmod(first, _STREAM_BLOCK)
    blocks = (offset + count - 1) // _STREAM_BLOCK + 1
    # m - i in Python integers, as m may pass the int64 range.
    half_dof = np.array([(spec.m - i) / 2.0 for i in range(3)])
    gammas = np.empty((blocks, _STREAM_BLOCK, 2, 3))
    normals = np.empty((blocks, _STREAM_BLOCK, 2, 3))
    for j in range(blocks):
        rng = _moment_generator(spec.seed, first_block + j)
        # chi^2(k) as 2 Gamma(k/2), which is 0 at k = 0 (m = 2) where
        # Generator.chisquare raises.
        rng.standard_gamma(half_dof, out=gammas[j])
        rng.standard_normal(out=normals[j])
    rows = slice(offset, offset + count)
    bartlett = np.zeros((count, 2, 3, 3))
    bartlett[..., _DIAGONAL, _DIAGONAL] = np.sqrt(2.0 * gammas.reshape(-1, 2, 3)[rows])
    bartlett[..., _BELOW[0], _BELOW[1]] = normals.reshape(-1, 2, 3)[rows]
    loaded = record_map @ bartlett
    return loaded @ loaded.transpose(0, 1, 3, 2) / spec.m


def sample_moments(spec: SimulationSpec, trial_index: int = 0) -> BlockMoments:
    """Draw one block's moment matrices in O(1), by Bartlett's decomposition.

    The law is that of sample_dataset(spec, trial_index).moments, and the
    draws are row trial_index of a campaign's moments; no record is drawn.
    """
    record_map = _record_map(spec, noise_from_attack(spec.channel))
    return BlockMoments(_draw_moments(spec, record_map, trial_index, 1)[0], spec.m)


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


def _residual_powers(moments: np.ndarray, tau_a, tau_b) -> np.ndarray:
    """_residual_power of each block of a stack, shape (k, 2): q, then p.
    tau_a and tau_b hold one value per block, or one for all."""
    half_a = np.sqrt(np.minimum(np.maximum(tau_a, 0.0), 1.0) / 2.0)
    half_b = np.sqrt(np.minimum(np.maximum(tau_b, 0.0), 1.0) / 2.0)
    w = np.ones((len(moments), 2, 1, 3))
    w[:, 0, 0, 0] = half_a
    w[:, 1, 0, 0] = -half_a
    w[:, :, 0, 1] = -half_b[..., None]
    return ((w @ moments) @ w.transpose(0, 1, 3, 2))[:, :, 0, 0]


def _plugin_totals(excess: np.ndarray) -> np.ndarray:
    """Total noise of _plugin_noise for each row of excess (k, 2), after
    NoiseVars' finiteness check; the floor keeps every total positive."""
    floored = np.maximum(excess, _MIN_TOTAL - 1.0)
    bad = np.argwhere(~np.isfinite(floored))
    if len(bad):
        block, quad = bad[0]
        raise DomainError(f"excess_{'qp'[quad]} must be finite, "
                          f"got {floored[block, quad]}")
    return 1.0 + floored


def _transmissivity_variances(tau: np.ndarray, other: np.ndarray, v_m: float,
                              totals: np.ndarray, m: int):
    """transmissivity_variance over a stack: (var_q, var_p, combined)."""
    weight = tau + 0.5 * other
    base = 8.0 * tau * weight / m
    var_q = base * (1.0 + totals[:, 0] / (weight * v_m))
    var_p = base * (1.0 + totals[:, 1] / (weight * v_m))
    combined = var_q * var_p / (var_q + var_p)
    signal_free = tau == 0.0
    return (np.where(signal_free, 0.0, var_q), np.where(signal_free, 0.0, var_p),
            np.where(signal_free, 0.0, combined))


def _combine(est_q: np.ndarray, est_p: np.ndarray, var_q: np.ndarray,
             var_p: np.ndarray) -> np.ndarray:
    den = var_q + var_p
    return np.where(den == 0.0, 0.5 * (est_q + est_p),
                    (est_q * var_p + est_p * var_q) / den)


def _tracked_values(moments: np.ndarray, m: int, v_m: float,
                    channel: ChannelParams, noise: NoiseVars) -> np.ndarray:
    """The _TRACKED values, shape (14, k), of a stack of blocks' moments
    (k, 2, 3, 3).

    Column t is bitwise what the scalar estimators give for block t: each
    array expression follows estimate_covariances,
    transmissivities_per_quadrature, estimate_channel and _residual_power
    operation by operation.  Their checks hold over the whole stack and
    raise the same exception types.
    """
    scale = _transmissivity_scale(v_m)
    if m < 1:
        raise DomainError(f"sample count must be >= 1, got {m}")
    # The scalar estimators work in Python floats, which overflow to inf
    # and turn invalid operations into NaN without a warning, and np.where
    # evaluates the branches the scalar code skips.  The checks below raise
    # where the scalar code raises.
    with np.errstate(all="ignore"):
        covs = np.stack([moments[:, 0, 0, 2], moments[:, 1, 0, 2],
                         moments[:, 0, 1, 2], moments[:, 1, 1, 2]])
        ta_q, ta_p, tb_q, tb_p = per_quad = scale * covs * covs
        ta0 = 0.5 * (ta_q + ta_p)
        tb0 = 0.5 * (tb_q + tb_p)
        totals = _plugin_totals(_residual_powers(moments, ta0, tb0) - 1.0)
        tau_a = _combine(ta_q, ta_p,
                         *_transmissivity_variances(ta0, tb0, v_m, totals, m)[:2])
        tau_b = _combine(tb_q, tb_p,
                         *_transmissivity_variances(tb0, ta0, v_m, totals, m)[:2])

        excess = _residual_powers(moments, tau_a, tau_b) - 1.0
        totals = _plugin_totals(excess)
        squares = totals ** 2
        if not np.isfinite(squares).all():
            block = np.argwhere(~np.isfinite(squares))[0][0]
            raise NumericalDegeneracyError(
                f"excess-noise variance overflows: total noise ({totals[block, 0]:.6g}, "
                f"{totals[block, 1]:.6g}) is too large to square")
        _check_report(tau_a, tau_b,
                      _transmissivity_variances(tau_a, tau_b, v_m, totals, m)[2],
                      _transmissivity_variances(tau_b, tau_a, v_m, totals, m)[2],
                      excess, 2.0 * squares / m)

        true_power = _residual_powers(moments, channel.tau_a, channel.tau_b)
        chi2 = m * true_power / np.array([noise.total_q, noise.total_p])
    return np.vstack([tau_a, tau_b, per_quad, excess.T, covs, chi2.T])


def _check_report(tau_a: np.ndarray, tau_b: np.ndarray, var_a: np.ndarray,
                  var_b: np.ndarray, excess: np.ndarray, excess_var: np.ndarray) -> None:
    """EstimationReport's checks at DEFAULT_Z, over a stack."""
    variances = np.stack([var_a, var_b, *excess_var.T])
    if (variances < 0.0).any():
        raise DomainError("standard deviations must be >= 0")
    std_a, std_b, *excess_std = DEFAULT_Z * np.sqrt(variances)
    tau_a_low = np.minimum(np.maximum(tau_a - std_a, 0.0), 1.0)
    tau_b_low = np.minimum(np.maximum(tau_b - std_b, 0.0), 1.0)
    excess_up = excess + np.transpose(excess_std)
    if not ((tau_a_low <= tau_a) & (tau_b_low <= tau_b)
            & (excess_up >= excess).all(axis=1)).all():
        raise DomainError("worst-case bounds must lie below the transmissivities "
                          "and above the excess noise")


# Trials drawn and estimated together; bounds run_trials' memory at any
# trial count.  A multiple of _STREAM_BLOCK, so no chunk draws a stream
# block twice.
_CHUNK = 1024


def run_trials(spec: SimulationSpec) -> TrialStatistics:
    """Run the full estimation pipeline over many independent blocks.

    Trials go in chunks of up to _CHUNK blocks, a whole number of stream
    blocks: trial t's moments are row t mod _STREAM_BLOCK of the stream
    block t div _STREAM_BLOCK, bitwise what `sample_moments` draws, and a
    chunk's values come from `_tracked_values`.  Each chunk is reduced to
    its mean and sum of squared deviations (two passes), and chunks merge
    by the pairwise update of Chan, Golub & LeVeque (Am. Stat. 37:242,
    1983), which does not cancel, as sum(x^2) - n mean^2 does, when the
    spread is tiny.  The chi-square statistic (normalized residual sum at
    the true parameters) is tracked alongside the estimators as a
    distributional cross-check.
    """
    channel = spec.channel
    noise = noise_from_attack(channel)
    record_map = _record_map(spec, noise)
    count = 0
    mean = np.zeros(len(_TRACKED))
    sum_sq_dev = np.zeros(len(_TRACKED))
    for first in range(0, spec.trials, _CHUNK):
        size = min(_CHUNK, spec.trials - first)
        values = _tracked_values(_draw_moments(spec, record_map, first, size),
                                 spec.m, spec.v_m, channel, noise)
        chunk_mean = values.mean(axis=1)
        chunk_sq_dev = ((values - chunk_mean[:, None]) ** 2).sum(axis=1)
        delta = chunk_mean - mean
        merged = count + size
        mean = mean + delta * (size / merged)
        sum_sq_dev = sum_sq_dev + chunk_sq_dev + delta * delta * (count * size / merged)
        count = merged

    expected = _expected_statistics(channel, noise, spec.v_m, spec.m)
    means = dict(zip(_TRACKED, mean.tolist()))
    variances = dict.fromkeys(_TRACKED) if count < 2 else \
        dict(zip(_TRACKED, (sum_sq_dev / (count - 1)).tolist()))
    comparisons = _build_comparisons(expected, means, variances, spec.trials)
    return TrialStatistics(channel, spec.v_m, spec.m, spec.trials, spec.seed,
                           noise, expected, means, variances, comparisons)
