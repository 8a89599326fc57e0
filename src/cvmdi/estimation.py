"""Maximum-likelihood channel estimation from relay broadcast records.

The relay publishes one (q, p) outcome per use while Alice and Bob keep
their own modulation records.  Transmissivities are estimated from the
modulation-relay covariances, quadrature by quadrature, and combined by
inverse-variance weighting.  Excess noise is the mean squared residual
after subtracting the reconstructed signal part, minus the shot noise.
Worst-case bounds follow the z-sigma confidence-interval rule: lower
transmissivities, upper excess noise.

Every estimator depends on the records only through the mean products of
(a, b, r) in q and in p, and reads a block as a `BlockMoments`: these two
3x3 moment matrices and the block size.  A dataset reduces itself to them
once, when it is built, and each estimator is an O(1) read of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import NoiseVars
from .errors import (ConfigurationError, DatasetError, DomainError,
                     NumericalDegeneracyError)

CSV_HEADER = "a_q,a_p,b_q,b_p,r_q,r_p"

_FIELDS = ("a_q", "a_p", "b_q", "b_p", "r_q", "r_p")
# Floor for plug-in total noise so that degenerate (signal-free) records do
# not poison the variance formulas with a non-positive variance.
_MIN_TOTAL = 1e-12
# Worst-case confidence multiplier: a one-sided Gaussian tail of 4.0e-11.
DEFAULT_Z = 6.5


@dataclass(frozen=True, eq=False)
class BlockMoments:
    """One block of m uses as the estimators see it.

    moments holds the mean products (1/m) x.y over the records (a, b, r),
    shape (2, 3, 3): quadrature q, then p.
    """

    moments: np.ndarray = field(repr=False)
    m: int


@dataclass(frozen=True, eq=False)
class QuadratureDataset(BlockMoments):
    """Per-use modulation and relay records, all of one common length,
    reduced once, when built, to their moments."""

    moments: np.ndarray = field(init=False, repr=False)
    m: int = field(init=False)
    a_q: np.ndarray
    a_p: np.ndarray
    b_q: np.ndarray
    b_p: np.ndarray
    r_q: np.ndarray
    r_p: np.ndarray

    def __post_init__(self):
        lengths = set()
        for name in _FIELDS:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise DatasetError(f"column {name} must be one-dimensional")
            object.__setattr__(self, name, arr)
            lengths.add(arr.shape[0])
        if len(lengths) != 1:
            raise DatasetError(f"columns have mismatched lengths {sorted(lengths)}")
        m = lengths.pop()
        if m < 2:
            raise DatasetError(f"need at least 2 samples per column, got {m}")
        moments = np.empty((2, 3, 3))
        for quad, cols in enumerate(((self.a_q, self.b_q, self.r_q),
                                     (self.a_p, self.b_p, self.r_p))):
            for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
                moments[quad, i, j] = moments[quad, j, i] = cols[i] @ cols[j] / m
        # A NaN or infinite record always reaches its own mean square.
        if not np.isfinite(moments).all():
            raise DatasetError("records must be finite: a column holds NaN, "
                               "an infinity or a value too large to square")
        object.__setattr__(self, "moments", moments)
        object.__setattr__(self, "m", m)

    def to_csv(self, path) -> None:
        """Write the six columns under the canonical header, full precision."""
        data = np.column_stack([getattr(self, name) for name in _FIELDS])
        np.savetxt(path, data, delimiter=",", header=CSV_HEADER, comments="",
                   fmt="%.17g")

    @classmethod
    def from_csv(cls, path) -> "QuadratureDataset":
        with open(path) as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise DatasetError(
                    f"unexpected header {header!r}, want {CSV_HEADER!r}")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.shape[1] != len(_FIELDS):
            raise DatasetError(f"expected {len(_FIELDS)} columns, got {data.shape[1]}")
        return cls(*(data[:, i] for i in range(len(_FIELDS))))


def _check_v_m(v_m: float) -> None:
    if not 0.0 < v_m < math.inf:
        raise ConfigurationError(
            f"modulation variance must be finite and positive for estimation, got {v_m}")


def _transmissivity_scale(v_m: float) -> float:
    """2 / v_m^2, which maps a squared covariance to a transmissivity."""
    _check_v_m(v_m)
    square = v_m * v_m
    scale = 2.0 / square if square > 0.0 else math.inf
    if scale == math.inf:
        raise NumericalDegeneracyError(
            f"modulation variance {v_m:.6g} is too small: 2 / v_m^2 overflows")
    return scale


def estimate_covariances(d: BlockMoments) -> tuple[float, float, float, float]:
    """Empirical mean products between modulation and relay records.

    Returns (alice-q, alice-p, bob-q, bob-p).  Under the relay sign
    convention Alice's q enters the q output with a minus sign, so the
    alice-q covariance comes out negative; the transmissivity estimator
    squares it away.
    """
    g_q, g_p = d.moments
    return (float(g_q[0, 2]), float(g_p[0, 2]), float(g_q[1, 2]), float(g_p[1, 2]))


def transmissivities_per_quadrature(
        d: BlockMoments, v_m: float) -> tuple[float, float, float, float]:
    """Per-quadrature transmissivity estimates 2 C^2 / v_m^2 for both links."""
    scale = _transmissivity_scale(v_m)
    c_aq, c_ap, c_bq, c_bp = estimate_covariances(d)
    return (scale * c_aq * c_aq, scale * c_ap * c_ap,
            scale * c_bq * c_bq, scale * c_bp * c_bp)


def estimate_transmissivities(d: BlockMoments, v_m: float) -> tuple[float, float]:
    """Combined transmissivity estimates for both links.

    The per-quadrature estimates are averaged with inverse-variance
    weights.  The weights use the analytic variance formulas evaluated at
    plug-in values (preliminary equal-weight estimates plus the
    residual-based noise estimate); they only deviate from 1/2 when the
    two quadratures see different noise.
    """
    ta_q, ta_p, tb_q, tb_p = transmissivities_per_quadrature(d, v_m)
    ta0 = 0.5 * (ta_q + ta_p)
    tb0 = 0.5 * (tb_q + tb_p)
    noise = _plugin_noise(*estimate_excess_noise(d, ta0, tb0))
    tau_a = _combine(ta_q, ta_p, transmissivity_variance(ta0, tb0, v_m, noise, d.m))
    tau_b = _combine(tb_q, tb_p, transmissivity_variance(tb0, ta0, v_m, noise, d.m))
    return tau_a, tau_b


def _combine(est_q: float, est_p: float,
             variances: tuple[float, float, float]) -> float:
    var_q, var_p, _ = variances
    den = var_q + var_p
    if den == 0.0:
        return 0.5 * (est_q + est_p)
    return (est_q * var_p + est_p * var_q) / den


def estimate_excess_noise(d: BlockMoments, tau_a_hat: float,
                          tau_b_hat: float) -> tuple[float, float]:
    """Residual-based excess-noise estimates for both quadratures.

    The transmissivity estimates are clamped to [0, 1] before the square
    roots so that noisy small-sample runs stay real.  Estimates may be
    negative; an exactly signal-free record bottoms out at -1, the
    residual-free floor left by the shot-noise subtraction.
    """
    power_q, power_p = _residual_power(d, tau_a_hat, tau_b_hat)
    return power_q - 1.0, power_p - 1.0


def _residual_power(d: BlockMoments, tau_a: float,
                    tau_b: float) -> tuple[float, float]:
    """Mean squares (q, p) of r - sqrt(tau_b/2) b -+ sqrt(tau_a/2) a, the relay
    record less its signal part, as w.G.w with w = (+-sqrt(tau_a/2),
    -sqrt(tau_b/2), 1) and G the quadrature's moment matrix."""
    half_a = math.sqrt(min(max(tau_a, 0.0), 1.0) / 2.0)
    half_b = math.sqrt(min(max(tau_b, 0.0), 1.0) / 2.0)
    g_q, g_p = d.moments
    w_q = np.array([half_a, -half_b, 1.0])
    w_p = np.array([-half_a, -half_b, 1.0])
    return float(w_q @ g_q @ w_q), float(w_p @ g_p @ w_p)


def transmissivity_variance(tau_a: float, tau_b: float, v_m: float,
                            noise: NoiseVars, m: int) -> tuple[float, float, float]:
    """Analytic estimator variances (q, p, combined) for the first link.

    Var = (8 tau_a / m)(tau_a + tau_b/2)[1 + total/((tau_a + tau_b/2) v_m)]
    per quadrature; the combined value is the optimal inverse-variance mix
    of the two.  Swap the transmissivity arguments for the second link.
    """
    if m < 1:
        raise DomainError(f"sample count must be >= 1, got {m}")
    _check_v_m(v_m)
    if tau_a == 0.0:
        return 0.0, 0.0, 0.0
    weight = tau_a + 0.5 * tau_b
    base = 8.0 * tau_a * weight / m
    var_q = base * (1.0 + noise.total_q / (weight * v_m))
    var_p = base * (1.0 + noise.total_p / (weight * v_m))
    return var_q, var_p, var_q * var_p / (var_q + var_p)


def excess_noise_variance(noise: NoiseVars, m: int) -> tuple[float, float]:
    """Analytic variances (2/m) * total^2 of the excess-noise estimators."""
    if m < 1:
        raise DomainError(f"sample count must be >= 1, got {m}")
    try:
        return 2.0 * noise.total_q ** 2 / m, 2.0 * noise.total_p ** 2 / m
    except OverflowError:
        raise NumericalDegeneracyError(
            f"excess-noise variance overflows: total noise ({noise.total_q:.6g}, "
            f"{noise.total_p:.6g}) is too large to square") from None


@dataclass(frozen=True)
class EstimationReport:
    """Point estimates, their spreads, and the worst-case bounds they imply.

    The bounds are computed on construction from the report's own z, so
    dataclasses.replace(report, z=...) recomputes them:
    tau_low = clip(tau - z*std, 0, 1) and excess_up = excess + z*std.
    """

    tau_a: float
    tau_b: float
    tau_a_std: float
    tau_b_std: float
    excess_q: float
    excess_p: float
    excess_q_std: float
    excess_p_std: float
    z: float = DEFAULT_Z
    tau_a_low: float = field(init=False)
    tau_b_low: float = field(init=False)
    excess_q_up: float = field(init=False)
    excess_p_up: float = field(init=False)

    def __post_init__(self):
        stds = (self.tau_a_std, self.tau_b_std, self.excess_q_std, self.excess_p_std)
        if min(stds) < 0.0:
            raise DomainError("standard deviations must be >= 0")
        z = self.z
        if not 0.0 <= z < math.inf:
            raise DomainError(f"z (confidence multiplier) must be finite and >= 0, got {z}")
        bounds = {
            "tau_a_low": min(max(self.tau_a - z * self.tau_a_std, 0.0), 1.0),
            "tau_b_low": min(max(self.tau_b - z * self.tau_b_std, 0.0), 1.0),
            "excess_q_up": self.excess_q + z * self.excess_q_std,
            "excess_p_up": self.excess_p + z * self.excess_p_std,
        }
        for name, value in bounds.items():
            object.__setattr__(self, name, value)
        if not (self.tau_a_low <= self.tau_a and self.tau_b_low <= self.tau_b
                and self.excess_q_up >= self.excess_q
                and self.excess_p_up >= self.excess_p):
            raise DomainError("worst-case bounds must lie below the transmissivities "
                              "and above the excess noise")


def _plugin_noise(excess_q: float, excess_p: float) -> NoiseVars:
    """NoiseVars for plug-in variance formulas, flooring pathological
    below-shot-noise estimates instead of rejecting them."""
    floor = _MIN_TOTAL - 1.0
    return NoiseVars(max(excess_q, floor), max(excess_p, floor))


def estimate_channel(d: BlockMoments, v_m: float, z: float = DEFAULT_Z) -> EstimationReport:
    """Full protocol-mode pipeline: estimates, plug-in spreads, bounds.

    The variance formulas are evaluated at the estimated parameters (the
    true ones are unknown at run time), which is asymptotically equivalent.
    """
    tau_a, tau_b = estimate_transmissivities(d, v_m)
    excess_q, excess_p = estimate_excess_noise(d, tau_a, tau_b)
    noise = _plugin_noise(excess_q, excess_p)
    _, _, var_a = transmissivity_variance(tau_a, tau_b, v_m, noise, d.m)
    _, _, var_b = transmissivity_variance(tau_b, tau_a, v_m, noise, d.m)
    s_q_sq, s_p_sq = excess_noise_variance(noise, d.m)
    return EstimationReport(
        tau_a, tau_b, math.sqrt(var_a), math.sqrt(var_b),
        excess_q, excess_p, math.sqrt(s_q_sq), math.sqrt(s_p_sq), z=z)


def report_from_parameters(tau_a: float, tau_b: float, noise: NoiseVars,
                           v_m: float, m: int, z: float = DEFAULT_Z) -> EstimationReport:
    """Analysis-mode report: true values with analytic spreads and bounds.

    This is what a run over the given channel would report on average; it
    powers figure-style curves without simulating data.
    """
    _, _, var_a = transmissivity_variance(tau_a, tau_b, v_m, noise, m)
    _, _, var_b = transmissivity_variance(tau_b, tau_a, v_m, noise, m)
    s_q_sq, s_p_sq = excess_noise_variance(noise, m)
    return EstimationReport(
        tau_a, tau_b, math.sqrt(var_a), math.sqrt(var_b),
        noise.excess_q, noise.excess_p, math.sqrt(s_q_sq), math.sqrt(s_p_sq), z=z)
