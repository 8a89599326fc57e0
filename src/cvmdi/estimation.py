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

One pipeline estimates a stack of blocks' moments, shape (k, 2, 3, 3), in
a few array expressions per stage.  The public estimators are its k = 1
case and `simulator` runs it on chunks of trials.  It runs under
errstate(all="ignore"), overflowing to inf as Python floats do, and raises
the same typed error for a bad block wherever it sits.

Both modes read one spreads-and-bounds stage: `_variances` gives the
analytic variances of the four estimates at given transmissivities and
total noise, and the pipeline's typed errors for them; their square roots
are the spreads, and `_bounds` applies the worst-case rule adapted from
Ruppert et al. (PRA 90, 062310, 2014), tau_low = clip(tau - z sigma, 0, 1)
and excess_up = excess + z sigma.  Protocol mode evaluates the stage at
the estimates, analysis mode at the true parameters:
`report_from_parameters` for one point, and `_parameter_bounds` for a
whole optimizer round, raising if and only if the report raises at some
point.  The stage raises the typed error of the first block or point that
fails a check.
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
# Sign of Alice's record in the relay residual, q then p.
_ALICE_SIGNS = np.array([1.0, -1.0])


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


def _covariances(moments: np.ndarray) -> np.ndarray:
    """Modulation-relay mean products, shape (4, k): alice-q, alice-p,
    bob-q, bob-p, of a stack of blocks' moments (k, 2, 3, 3)."""
    return moments[:, :, :2, 2].transpose(2, 1, 0).reshape(4, -1)


def _per_quadrature(covariances: np.ndarray, v_m: float) -> np.ndarray:
    """Per-quadrature transmissivities 2 C^2 / v_m^2, shape (4, k)."""
    return _transmissivity_scale(v_m) * covariances * covariances


def _residual_powers(moments: np.ndarray, tau) -> np.ndarray:
    """Mean squares, shape (2, k): q then p, of r - sqrt(tau_b/2) b -+
    sqrt(tau_a/2) a, the relay record less its signal part, as w.G.w with
    w = (+-sqrt(tau_a/2), -sqrt(tau_b/2), 1) and G the quadrature's moment
    matrix.  tau = (tau_a, tau_b), clamped to [0, 1], holds one pair per
    block or one for all."""
    half_a, half_b = np.sqrt(np.minimum(np.maximum(tau, 0.0), 1.0) / 2.0)
    w = np.ones((len(moments), 2, 1, 3))
    w[:, :, 0, 0] = half_a[..., None] * _ALICE_SIGNS
    w[:, :, 0, 1] = -half_b[..., None]
    return ((w @ moments) @ w.transpose(0, 1, 3, 2))[:, :, 0, 0].T


def _plugin_totals(excess: np.ndarray) -> np.ndarray:
    """Total noise for the plug-in variance formulas, from excess-noise
    estimates (2, k): NoiseVars' finiteness check, then pathological
    below-shot-noise estimates floored instead of rejected."""
    floored = np.maximum(excess, _MIN_TOTAL - 1.0)
    if not np.isfinite(floored).all():
        quad, block = np.argwhere(~np.isfinite(floored))[0]
        raise DomainError(f"excess_{'qp'[quad]} must be finite, "
                          f"got {floored[quad, block]}")
    return 1.0 + floored


def _transmissivity_variances(tau: np.ndarray, v_m: float, totals: np.ndarray,
                              m: int) -> np.ndarray:
    """Per-quadrature estimator variances, shape (2, 2, k): link (a, then b),
    quadrature (q, then p), block.  For a link at tau beside tau' and total
    noise T, Var = (8 tau / m)(tau + tau'/2)[1 + T / ((tau + tau'/2) v_m)],
    and 0 at tau = 0.  tau (2, k) and the totals (2, k) may be (2, 1) when
    v_m and m hold one value per point (k,)."""
    weight = tau + 0.5 * tau[::-1]
    base = 8.0 * tau * weight / m
    variances = base[:, None] * (1.0 + totals / (weight[:, None] * v_m))
    return np.where((tau == 0.0)[:, None], 0.0, variances)


def _variances(tau: np.ndarray, totals: np.ndarray, v_m, m):
    """Analytic variances, shape (4, k), of the estimates of tau_a, tau_b,
    excess_q and excess_p at transmissivities tau (2, k) and total noise
    (2, k): each link's inverse-variance mix q p / (q + p) of
    _transmissivity_variances, 0 at tau = 0, then 2 T^2 / m, with T^2
    numpy's correctly rounded square.  Their square roots are the spreads.

    Raises NumericalDegeneracyError where a total noise is too large to
    square, and DomainError where a link's mix is NaN: its two quadrature
    variances underflow to 0 (a subnormal transmissivity) or overflow to
    inf (a subnormal v_m), and their mix is 0/0 or inf/inf.
    """
    squares = np.square(totals)
    if not np.isfinite(squares).all():
        block = np.argwhere(~np.isfinite(squares))[0][1]
        raise NumericalDegeneracyError(
            f"excess-noise variance overflows: total noise ({totals[0, block]:.6g}, "
            f"{totals[1, block]:.6g}) is too large to square")
    var = _transmissivity_variances(tau, v_m, totals, m)
    mixed = np.where(tau == 0.0, 0.0, var[:, 0] * var[:, 1] / (var[:, 0] + var[:, 1]))
    if np.isnan(mixed).any():
        link, block = np.argwhere(np.isnan(mixed))[0]
        raise DomainError(
            f"tau_{'ab'[link]} spread is undefined: at tau_{'ab'[link]} = "
            f"{np.broadcast_to(tau, mixed.shape)[link, block].item()} and v_m = "
            f"{np.broadcast_to(v_m, mixed.shape[1:])[block].item()} its two quadrature "
            "variances underflow to 0 or overflow to inf")
    return np.concatenate([mixed, 2.0 * squares / m])


def _bounds(tau: np.ndarray, excess: np.ndarray, spreads: np.ndarray, z):
    """Worst-case bounds tau_low = clip(tau - z sigma, 0, 1) and excess_up =
    excess + z sigma, each (2, k), from spreads (4, k), with one z or one
    per point (k,).  Raises DomainError for the first z that is not finite
    and >= 0, and where some bound is out of order; a NaN bound stays NaN,
    and so is out of order."""
    valid = (0.0 <= z) & (z < math.inf)
    if not np.all(valid):
        bad = np.ravel(z)[np.argmin(np.ravel(valid))].item()
        raise DomainError(f"z (confidence multiplier) must be finite and >= 0, got {bad}")
    low = tau - z * spreads[:2]
    low = np.where(0.0 > low, 0.0, low)
    tau_low = np.where(1.0 < low, 1.0, low)
    excess_up = excess + z * spreads[2:]
    if not ((tau_low <= tau) & (excess_up >= excess)).all():
        raise DomainError("worst-case bounds must lie below the transmissivities "
                          "and above the excess noise")
    return tau_low, excess_up


def _transmissivities(moments: np.ndarray, m: int, v_m: float):
    """The covariances and per-quadrature transmissivities (4, k each) of a
    stack of blocks, and tau_a and tau_b (2, k), combined as
    estimate_transmissivities describes."""
    covariances = _covariances(moments)
    per_quad = _per_quadrature(covariances, v_m)
    if m < 1:
        raise DomainError(f"sample count must be >= 1, got {m}")
    est = per_quad.reshape(2, 2, -1)
    tau0 = 0.5 * (est[:, 0] + est[:, 1])
    totals = _plugin_totals(_residual_powers(moments, tau0) - 1.0)
    var = _transmissivity_variances(tau0, v_m, totals, m)
    den = var[:, 0] + var[:, 1]
    return covariances, per_quad, np.where(
        den == 0.0, tau0, (est[:, 0] * var[:, 1] + est[:, 1] * var[:, 0]) / den)


@np.errstate(all="ignore")
def _estimate(moments: np.ndarray, m: int, v_m: float):
    """estimate_channel over a stack of blocks' moments (k, 2, 3, 3): the
    covariances and per-quadrature transmissivities (4, k each), tau_a and
    tau_b (2, k), excess_q and excess_p (2, k) and the spreads of all four."""
    covariances, per_quad, tau = _transmissivities(moments, m, v_m)
    excess = _residual_powers(moments, tau) - 1.0
    spreads = np.sqrt(_variances(tau, _plugin_totals(excess), v_m, m))
    return covariances, per_quad, tau, excess, spreads


def estimate_covariances(d: BlockMoments) -> tuple[float, float, float, float]:
    """Empirical mean products between modulation and relay records.

    Returns (alice-q, alice-p, bob-q, bob-p).  Under the relay sign
    convention Alice's q enters the q output with a minus sign, so the
    alice-q covariance comes out negative; the transmissivity estimator
    squares it away.
    """
    return tuple(_covariances(d.moments[None])[:, 0].tolist())


@np.errstate(all="ignore")
def transmissivities_per_quadrature(
        d: BlockMoments, v_m: float) -> tuple[float, float, float, float]:
    """Per-quadrature transmissivity estimates 2 C^2 / v_m^2 for both links."""
    return tuple(_per_quadrature(_covariances(d.moments[None]), v_m)[:, 0].tolist())


@np.errstate(all="ignore")
def estimate_transmissivities(d: BlockMoments, v_m: float) -> tuple[float, float]:
    """Combined transmissivity estimates for both links.

    The per-quadrature estimates are averaged with inverse-variance
    weights.  The weights use the analytic variance formulas evaluated at
    plug-in values (preliminary equal-weight estimates plus the
    residual-based noise estimate); they only deviate from 1/2 when the
    two quadratures see different noise.
    """
    return tuple(_transmissivities(d.moments[None], d.m, v_m)[2][:, 0].tolist())


@np.errstate(all="ignore")
def estimate_excess_noise(d: BlockMoments, tau_a_hat: float,
                          tau_b_hat: float) -> tuple[float, float]:
    """Residual-based excess-noise estimates for both quadratures.

    The transmissivity estimates are clamped to [0, 1] before the square
    roots so that noisy small-sample runs stay real.  Estimates may be
    negative; an exactly signal-free record bottoms out at -1, the
    residual-free floor left by the shot-noise subtraction.
    """
    for name, tau in (("tau_a_hat", tau_a_hat), ("tau_b_hat", tau_b_hat)):
        if not math.isfinite(tau):
            raise DomainError(f"{name} must be finite, got {tau}")
    return tuple((_residual_powers(d.moments[None], (tau_a_hat, tau_b_hat))[:, 0]
                  - 1.0).tolist())


@np.errstate(all="ignore")
def _parameter_bounds(tau_a, tau_b, noise, v_m: np.ndarray, m: np.ndarray, z):
    """report_from_parameters' worst-case bounds at arrays v_m and m (k,),
    bitwise equal elementwise: tau_low (2, k), links a then b, and
    excess_up (2, k), q then p.  tau_a, tau_b and z are scalars or one per
    point, and noise is a NoiseVars or an (excess_q, excess_p) pair of the
    same kind, so that points on many channels share one call.  Raises if
    and only if the report raises at some point, with the error of the
    first point that fails the earliest check.  m holds float(m), with
    m >= 1."""
    # the first v_m that _check_v_m rejects, or a valid one
    _check_v_m(v_m[np.argmin((0.0 < v_m) & (v_m < math.inf))].item())
    if isinstance(noise, NoiseVars):
        noise = (noise.excess_q, noise.excess_p)
    *tau, excess_q, excess_p, _ = np.broadcast_arrays(tau_a, tau_b, *noise, v_m)
    tau, excess = np.array(tau), np.array([excess_q, excess_p])
    # 1 + excess, as NoiseVars.total_q and total_p compute it
    spreads = np.sqrt(_variances(tau, 1.0 + excess, v_m, m))
    return _bounds(tau, excess, spreads, z)


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

    @np.errstate(all="ignore")
    def __post_init__(self):
        stds = (self.tau_a_std, self.tau_b_std, self.excess_q_std, self.excess_p_std)
        if min(stds) < 0.0:
            raise DomainError("standard deviations must be >= 0")
        tau_low, excess_up = _bounds(
            np.array([[self.tau_a], [self.tau_b]]),
            np.array([[self.excess_q], [self.excess_p]]), np.array(stds)[:, None], self.z)
        for name, value in zip(("tau_a_low", "tau_b_low", "excess_q_up", "excess_p_up"),
                               np.concatenate([tau_low, excess_up])[:, 0].tolist()):
            object.__setattr__(self, name, value)


def estimate_channel(d: BlockMoments, v_m: float, z: float = DEFAULT_Z) -> EstimationReport:
    """Full protocol-mode pipeline: estimates, plug-in spreads, bounds.

    The variance formulas are evaluated at the estimated parameters (the
    true ones are unknown at run time), which is asymptotically equivalent.
    """
    _, _, tau, excess, spreads = _estimate(d.moments[None], d.m, v_m)
    (tau_a, tau_b), (excess_q, excess_p) = tau[:, 0].tolist(), excess[:, 0].tolist()
    std_a, std_b, std_q, std_p = spreads[:, 0].tolist()
    return EstimationReport(tau_a, tau_b, std_a, std_b, excess_q, excess_p,
                            std_q, std_p, z=z)


@np.errstate(all="ignore")
def report_from_parameters(tau_a: float, tau_b: float, noise: NoiseVars,
                           v_m: float, m: int, z: float = DEFAULT_Z) -> EstimationReport:
    """Analysis-mode report: true values with analytic spreads and bounds.

    This is the rate's input at the true parameters with the spreads the
    estimators would have there, a first-order prediction of a protocol
    run, not its average: protocol-mode rates average lower (1.1 % at 2 dB
    and n_bar = 1e6), since the rate is nonlinear in the bounds and the
    excess-noise estimates are biased.  It powers figure-style curves
    without simulating data.
    """
    if m < 1:
        raise DomainError(f"sample count must be >= 1, got {m}")
    _check_v_m(v_m)
    variances = _variances(np.array([[tau_a], [tau_b]]),
                           np.array([[noise.total_q], [noise.total_p]]), v_m, m)
    std_a, std_b, std_q, std_p = np.sqrt(variances)[:, 0].tolist()
    return EstimationReport(tau_a, tau_b, std_a, std_b, noise.excess_q, noise.excess_p,
                            std_q, std_p, z=z)
