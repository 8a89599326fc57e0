"""Asymptotic secret-key rate from the post-measurement covariance matrices.

The relay broadcast leaves Alice and Bob with a joint two-mode Gaussian
state; Alice's heterodyne detection then conditions Bob's mode further.
The achievable rate is the reconciliation-scaled mutual information minus
the Holevo bound on the eavesdropper, both computed from these conditional
covariance matrices.

The joint state is always q/p-separable, so the rate has a closed form in
the matrix entries, with no matrix built.  key_rate_batch is that closed
form, written once: K_inf over arrays of points, such as a whole optimizer
round, with the spectrum from gaussian.separable_spectra.  It raises the
typed error of the first check that some point fails, so on one point it
raises what that point's route raises, and on many it raises if and only
if some point would.  key_rate_breakdown and asymptotic_key_rate are its
one-point case.  conditional_cms with mutual_information and holevo_bound
is the general 4x4 route, kept as the oracle the closed form is tested
against; it shares the conditional-state entries and the physicality
checks with the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import NoiseVars
from .errors import ConfigurationError, DomainError, PhysicalityError
from .gaussian import (
    _check_band,
    _raise_at_first,
    entropy_terms,
    PHYSICALITY_TOL,
    separable_spectra,
    symplectic_eigenvalues,
    von_neumann_entropy,
)


@dataclass(frozen=True)
class ProtocolParams:
    """Gaussian modulation variance and reconciliation efficiency."""

    v_m: float
    xi: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.v_m < math.inf:
            raise DomainError(f"v_m (modulation variance) must be finite and >= 0, "
                              f"got {self.v_m}")
        if not 0.0 < self.xi <= 1.0:
            raise DomainError(
                f"reconciliation efficiency must lie in (0, 1], got {self.xi}")


@dataclass(frozen=True, eq=False)
class ConditionalState:
    """Alice-Bob state after the relay broadcast (and Alice's heterodyne).

    cm_joint: 4x4 covariance matrix of the kept modes given the relay outcome.
    cm_bob: 2x2 covariance matrix of Bob's mode once Alice's heterodyne
        outcome is known as well.
    denom_q / denom_p: per-quadrature conditioning denominators.
    bob_eigenvalue: symplectic eigenvalue sqrt(det cm_bob).
    """

    cm_joint: np.ndarray
    cm_bob: np.ndarray
    denom_q: float
    denom_p: float
    bob_eigenvalue: float


def _conditional_entries(v_m, tau_a, tau_b, excess_q, excess_p):
    """Entries of the conditional states over arrays of points, after the
    checks both routes share.

    Returns ((q11, q12, q22), (p11, p12, p22), (bob_q, bob_p),
    (denom_q, denom_p)): the q and p blocks of the joint matrix (Alice's
    mode first), Bob's variances once Alice's outcome is known as well,
    and the per-quadrature conditioning denominators.  Raises, at the first
    point that fails, for a transmissivity outside [0, 1], then a
    denominator that is not positive, then a Bob variance that is not.
    """
    _raise_at_first((0.0 <= tau_a) & (tau_a <= 1.0) & (0.0 <= tau_b) & (tau_b <= 1.0),
                    DomainError, "transmissivities must lie in [0, 1], got ({}, {})",
                    tau_a, tau_b)
    mu = v_m + 1.0
    load = (tau_a + tau_b) * v_m + 2.0
    denom_q = load + 2.0 * excess_q
    denom_p = load + 2.0 * excess_p
    _raise_at_first((denom_q > 0.0) & (denom_p > 0.0), ConfigurationError,
                    "degenerate configuration: conditioning denominators ({}, {}) "
                    "must be positive", denom_q, denom_p)

    # Each quadrature block is mu * I - (strength / denom) * [[tau_a, -s * cross],
    # [-s * cross, tau_b]], with s = +1 on q and s = -1 on p.
    strength = v_m * (v_m + 2.0)
    cross = np.sqrt(tau_a * tau_b)
    q = (mu - strength * (tau_a / denom_q), strength * (cross / denom_q),
         mu - strength * (tau_b / denom_q))
    p = (mu - strength * (tau_a / denom_p), -(strength * (cross / denom_p)),
         mu - strength * (tau_b / denom_p))

    total_q = 1.0 + excess_q
    total_p = 1.0 + excess_p
    signal = tau_b * v_m
    bob_q = (2.0 * mu * total_q - signal) / (2.0 * total_q + signal)
    bob_p = (2.0 * mu * total_p - signal) / (2.0 * total_p + signal)
    _raise_at_first((bob_q > 0.0) & (bob_p > 0.0), PhysicalityError,
                    "conditional Bob variances ({}, {}) are not positive", bob_q, bob_p)
    return q, p, (bob_q, bob_p), (denom_q, denom_p)


def _check_physical(nu_min, bob_eigenvalue) -> None:
    # Written so that NaN fails too: joint states first, then Bob's.
    floor = 1.0 - PHYSICALITY_TOL
    _raise_at_first(nu_min >= floor, PhysicalityError,
                    "conditional joint state is unphysical: eigenvalue {:.12g} < 1", nu_min)
    _raise_at_first(bob_eigenvalue >= floor, PhysicalityError,
                    "conditional Bob state is unphysical: eigenvalue {:.12g} < 1",
                    bob_eigenvalue)


def _one_point(*values):
    """Each value as an array of one point."""
    return np.array(values, dtype=float)[:, None]


@np.errstate(all="ignore")
def conditional_cms(protocol: ProtocolParams, tau_a: float, tau_b: float,
                    noise: NoiseVars) -> ConditionalState:
    """Conditional covariance matrices for the given links and relay noise."""
    (q11, q12, q22), (p11, p12, p22), (bob_q, bob_p), (denom_q, denom_p) = (
        [x.item() for x in part] for part in _conditional_entries(*_one_point(
            protocol.v_m, tau_a, tau_b, noise.excess_q, noise.excess_p)))
    cm_joint = np.array([
        [q11, 0.0, q12, 0.0],
        [0.0, p11, 0.0, p12],
        [q12, 0.0, q22, 0.0],
        [0.0, p12, 0.0, p22],
    ])
    cm_bob = np.diag([bob_q, bob_p])
    bob_eigenvalue = math.sqrt(bob_q * bob_p)
    _check_physical(*_one_point(symplectic_eigenvalues(cm_joint)[-1], bob_eigenvalue))
    return ConditionalState(cm_joint, cm_bob, denom_q, denom_p, bob_eigenvalue)


def _mutual_information(vq_relay, vp_relay, vq_cond, vp_cond):
    """(1/2) log2((V+1)/(V'+1)) summed over the two quadratures, over 1-D
    arrays; the logs go through math, as in gaussian.entropy_terms."""
    ratios = np.concatenate([(vq_relay + 1.0) / (vq_cond + 1.0),
                             (vp_relay + 1.0) / (vp_cond + 1.0)])
    log_q, log_p = np.fromiter(map(math.log2, ratios.tolist()), float,
                               len(ratios)).reshape(2, -1)
    return 0.5 * log_q + 0.5 * log_p


def mutual_information(state: ConditionalState) -> float:
    """Alice-Bob mutual information in bits (heterodyne convention).

    Uses Bob's variances before and after conditioning on Alice:
    (1/2) log2((V+1)/(V'+1)) summed over the two quadratures.
    """
    return _mutual_information(*_one_point(
        state.cm_joint[2, 2], state.cm_joint[3, 3],
        state.cm_bob[0, 0], state.cm_bob[1, 1])).item()


def holevo_bound(state: ConditionalState) -> float:
    """Upper bound on Eve's accessible information, in bits.

    Difference of the conditional-state entropies; Eve holds the
    purification, so this is computable entirely from the local spectra.
    """
    return von_neumann_entropy(state.cm_joint) - von_neumann_entropy(state.cm_bob)


@dataclass(frozen=True)
class RateBreakdown:
    i_ab: float
    i_h: float
    k_infinity: float


def key_rate_breakdown(protocol: ProtocolParams, tau_a: float, tau_b: float,
                       noise: NoiseVars) -> RateBreakdown:
    """Mutual information, Holevo bound and asymptotic rate in one pass.

    key_rate_batch on one point; it equals the 4x4 route (conditional_cms,
    mutual_information, holevo_bound) up to rounding and raises the same
    errors.
    """
    v_m, tau_a, tau_b, excess_q, excess_p = _one_point(
        protocol.v_m, tau_a, tau_b, noise.excess_q, noise.excess_p)
    return RateBreakdown(*(x.item() for x in key_rate_batch(
        v_m, protocol.xi, tau_a, tau_b, excess_q, excess_p)))


@np.errstate(all="ignore")
def key_rate_batch(v_m, xi, tau_a, tau_b, excess_q, excess_p):
    """I_AB, I_H and K_inf = xi I_AB - I_H over arrays of points.

    v_m is 1-D; the efficiency, the transmissivities and the excess noise
    are scalars or of its shape.  Returns (i_ab, i_h, k_infinity),
    arrays over the points.  The checks run over all points, each in turn,
    and raise at the first point that fails: ProtocolParams' and NoiseVars'
    own, the transmissivity range, the denominators, Bob's variances, the
    spectrum's degeneracies, joint then Bob's physicality, then the larger
    joint eigenvalue's band.  Where nothing raises, each value is bitwise
    that of the point on its own, NaN and inf included.
    """
    v_m, xi, tau_a, tau_b, excess_q, excess_p = (
        np.asarray(x, dtype=float) for x in (v_m, xi, tau_a, tau_b, excess_q, excess_p))
    valid = ((0.0 <= v_m) & (v_m < math.inf) & (0.0 < xi) & (xi <= 1.0)
             & np.isfinite(excess_q) & np.isfinite(excess_p)
             & (1.0 + excess_q > 0.0) & (1.0 + excess_p > 0.0))
    if not valid.all():
        # ProtocolParams or NoiseVars raises its own error at the first
        # point it rejects
        v, x, q, p = (np.broadcast_to(a, valid.shape)[np.argmin(valid)].item()
                      for a in (v_m, xi, excess_q, excess_p))
        ProtocolParams(v, x)
        NoiseVars(q, p)

    q, p, (bob_q, bob_p), _ = _conditional_entries(v_m, tau_a, tau_b, excess_q, excess_p)
    hi, lo = separable_spectra(*q, *p)
    bob = np.sqrt(bob_q * bob_p)
    _check_physical(lo, bob)
    i_ab = _mutual_information(q[2], p[2], bob_q, bob_p)
    _check_band(hi)
    h_hi, h_lo, h_bob = entropy_terms(np.concatenate([hi, lo, bob])).reshape(3, -1)
    i_h = (h_hi + h_lo) - h_bob
    return i_ab, i_h, xi * i_ab - i_h


def asymptotic_key_rate(protocol: ProtocolParams, tau_a: float, tau_b: float,
                        noise: NoiseVars) -> float:
    """Asymptotic rate xi * I_AB - I_H in bits per use; may be negative."""
    return key_rate_breakdown(protocol, tau_a, tau_b, noise).k_infinity
