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
those of `sample_moments`, and `estimation` estimates the chunk as one
stack, with the pipeline that estimates a single block in protocol mode.
Means and variances are merged chunk by chunk, so memory stays bounded at
any trial count.  The mean excess-noise estimates are z-tested against the
truth plus the estimators' first-order bias, `excess_noise_bias`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, NoiseVars, noise_from_attack
from .errors import DomainError
from .estimation import (
    _estimate,
    _residual_powers,
    _transmissivity_variances,
    _variances,
    BlockMoments,
    QuadratureDataset,
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


@np.errstate(all="ignore")
def _expected_statistics(channel: ChannelParams, noise: NoiseVars,
                         v_m: float, m: int) -> dict[str, float]:
    tau = np.array([[channel.tau_a], [channel.tau_b]])
    totals = np.array([[noise.total_q], [noise.total_p]])
    (var_aq, var_ap), (var_bq, var_bp) = \
        _transmissivity_variances(tau, v_m, totals, m)[..., 0].tolist()
    var_a, var_b, s_q_sq, s_p_sq = _variances(tau, totals, v_m, m)[:, 0].tolist()
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


def excess_noise_bias(channel: ChannelParams, v_m: float, m: int) -> tuple[float, float]:
    """First-order bias (q, p) of the excess-noise estimates.

    Delta method through the pipeline: the mean residual power at gains
    h = sqrt(tau/2) is T + v_m |h - h_true|^2, flat at the truth, so to
    order 1/m the bias is E[grad_h R . dh] + v_m E|dh|^2, with dh linear in
    the moment fluctuations.  The preliminary tau and plug-in noise enter
    only through the weights, at their true values.  The records' Wishart
    moments then give, with A_x = v_m (tau + other / 2) + T_x for each link
    (tau, other) and the q estimate's weight w = A_p / (A_q + A_p),

        bias_q = sum over links [A_q A_p / (A_q + A_p) - 2 w T_q] / m
        bias_p = sum over links [A_q A_p / (A_q + A_p) - 2 (1 - w) T_p] / m

    The clamp of tau to [0, 1] is left out, so this overstates the bias
    where a transmissivity lies within a few standard deviations of 1
    (tau_a = 0.98 at m <= 1e4).
    """
    noise = noise_from_attack(channel)
    totals = np.array([noise.total_q, noise.total_p])
    bias = np.zeros(2)
    for tau, other in ((channel.tau_a, channel.tau_b), (channel.tau_b, channel.tau_a)):
        a = v_m * (tau + 0.5 * other) + totals  # (A_q, A_p)
        weights = a[::-1] / a.sum()  # of the q and the p estimate
        bias += a.prod() / a.sum() - 2.0 * weights * totals
    return tuple((bias / m).tolist())


def _build_comparisons(expected: dict[str, float], means: dict[str, float],
                       variances: dict[str, float | None], trials: int,
                       biases: dict[str, float]) -> list[dict]:
    records: list[dict] = []

    def relative(name: str, analytic: float, empirical: float | None) -> None:
        rel = None if (empirical is None or analytic == 0.0) \
            else empirical / analytic - 1.0
        records.append({"name": name, "kind": "relative", "analytic": analytic,
                        "empirical": empirical, "rel_deviation": rel})

    def zscored(name: str, analytic: float, empirical: float,
                var: float | None, bias: float | None) -> None:
        if var is None or var == 0.0:
            std_err, z = None, None
        else:
            std_err = math.sqrt(var / trials)
            z = (empirical - (analytic if bias is None else analytic + bias)) / std_err
        record = {"name": name, "kind": "z", "analytic": analytic,
                  "empirical": empirical, "std_error": std_err, "z_score": z}
        if bias is not None:
            record["bias"] = bias
        records.append(record)

    for key in ("tau_a_q", "tau_a_p", "tau_a", "tau_b_q", "tau_b_p", "tau_b",
                "excess_q", "excess_p"):
        relative(f"var({key})", expected[f"var_{key}"], variances[key])
    for quad in ("q", "p"):
        relative(f"mean(chi2_{quad})", expected["chi2_mean"], means[f"chi2_{quad}"])
        relative(f"var(chi2_{quad})", expected["chi2_var"], variances[f"chi2_{quad}"])
    for key in ("tau_a", "tau_b", "excess_q", "excess_p",
                "cov_a_q", "cov_a_p", "cov_b_q", "cov_b_p"):
        zscored(f"mean({key})", expected[key], means[key], variances[key],
                biases.get(key))
    return records


@np.errstate(all="ignore")
def _tracked_values(moments: np.ndarray, m: int, v_m: float,
                    channel: ChannelParams, noise: NoiseVars) -> np.ndarray:
    """The _TRACKED values, shape (14, k), of a stack of blocks' moments
    (k, 2, 3, 3): the estimators' values, then chi^2 at the true
    transmissivities."""
    covariances, per_quad, tau, excess, _ = _estimate(moments, m, v_m)
    chi2 = m * _residual_powers(moments, (channel.tau_a, channel.tau_b)) \
        / np.array([[noise.total_q], [noise.total_p]])
    return np.vstack([tau, per_quad, excess, covariances, chi2])


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
    biases = dict(zip(("excess_q", "excess_p"),
                      excess_noise_bias(channel, spec.v_m, spec.m)))
    comparisons = _build_comparisons(expected, means, variances, spec.trials, biases)
    return TrialStatistics(channel, spec.v_m, spec.m, spec.trials, spec.seed,
                           noise, expected, means, variances, comparisons)
