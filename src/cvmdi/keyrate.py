"""Asymptotic secret-key rate from the post-measurement covariance matrices.

The relay broadcast leaves Alice and Bob with a joint two-mode Gaussian
state; Alice's heterodyne detection then conditions Bob's mode further.
The achievable rate is the reconciliation-scaled mutual information minus
the Holevo bound on the eavesdropper, both computed from these conditional
covariance matrices.

The joint state is always q/p-separable, so key_rate_breakdown evaluates
the rate in closed form from the matrix entries: the spectrum comes from
gaussian.separable_spectrum, in plain floats, with no matrix built.
conditional_cms with mutual_information and holevo_bound is the general
4x4 route, kept as the oracle the closed form is tested against.

key_rate_batch is the batch evaluator of the same closed form: K_inf for a
whole optimizer round in one array pass, bitwise equal to the scalar
oracle key_rate_breakdown wherever it does not flag a point, and flagging
every point where that raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import NoiseVars
from .errors import ConfigurationError, DomainError, PhysicalityError
from .gaussian import (
    entropy_terms,
    PHYSICALITY_TOL,
    separable_spectra,
    separable_spectrum,
    spectrum_entropy,
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


def _conditional_entries(protocol: ProtocolParams, tau_a: float, tau_b: float,
                         noise: NoiseVars):
    """Entries of the conditional states, after the checks both routes share.

    Returns ((q11, q12, q22), (p11, p12, p22), (bob_q, bob_p),
    (denom_q, denom_p)): the q and p blocks of the joint matrix (Alice's
    mode first), Bob's variances once Alice's outcome is known as well,
    and the per-quadrature conditioning denominators.
    """
    if not 0.0 <= tau_a <= 1.0 or not 0.0 <= tau_b <= 1.0:
        raise DomainError(f"transmissivities must lie in [0, 1], got ({tau_a}, {tau_b})")
    v_m = protocol.v_m
    mu = v_m + 1.0
    denom_q = (tau_a + tau_b) * v_m + 2.0 + 2.0 * noise.excess_q
    denom_p = (tau_a + tau_b) * v_m + 2.0 + 2.0 * noise.excess_p
    if denom_q <= 0.0 or denom_p <= 0.0:
        raise ConfigurationError(
            "degenerate configuration: conditioning denominators "
            f"({denom_q}, {denom_p}) must be positive")

    # Each quadrature block is mu * I - (strength / denom) * [[tau_a, -s * cross],
    # [-s * cross, tau_b]], with s = +1 on q and s = -1 on p.
    strength = v_m * (v_m + 2.0)
    cross = math.sqrt(tau_a * tau_b)
    q = (mu - strength * (tau_a / denom_q), strength * (cross / denom_q),
         mu - strength * (tau_b / denom_q))
    p = (mu - strength * (tau_a / denom_p), -(strength * (cross / denom_p)),
         mu - strength * (tau_b / denom_p))

    bob_q = ((2.0 * mu * noise.total_q - tau_b * v_m)
             / (2.0 * noise.total_q + tau_b * v_m))
    bob_p = ((2.0 * mu * noise.total_p - tau_b * v_m)
             / (2.0 * noise.total_p + tau_b * v_m))
    if bob_q <= 0.0 or bob_p <= 0.0:
        raise PhysicalityError(
            f"conditional Bob variances ({bob_q}, {bob_p}) are not positive")
    return q, p, (bob_q, bob_p), (denom_q, denom_p)


def _check_physical(nu_min: float, bob_eigenvalue: float) -> None:
    # Written so that NaN fails too.
    if not nu_min >= 1.0 - PHYSICALITY_TOL:
        raise PhysicalityError(
            f"conditional joint state is unphysical: eigenvalue {nu_min:.12g} < 1")
    if not bob_eigenvalue >= 1.0 - PHYSICALITY_TOL:
        raise PhysicalityError(
            f"conditional Bob state is unphysical: eigenvalue {bob_eigenvalue:.12g} < 1")


def conditional_cms(protocol: ProtocolParams, tau_a: float, tau_b: float,
                    noise: NoiseVars) -> ConditionalState:
    """Conditional covariance matrices for the given links and relay noise."""
    (q11, q12, q22), (p11, p12, p22), (bob_q, bob_p), (denom_q, denom_p) = \
        _conditional_entries(protocol, tau_a, tau_b, noise)
    cm_joint = np.array([
        [q11, 0.0, q12, 0.0],
        [0.0, p11, 0.0, p12],
        [q12, 0.0, q22, 0.0],
        [0.0, p12, 0.0, p22],
    ])
    cm_bob = np.diag([bob_q, bob_p])
    bob_eigenvalue = math.sqrt(bob_q * bob_p)
    _check_physical(symplectic_eigenvalues(cm_joint)[-1], bob_eigenvalue)
    return ConditionalState(cm_joint, cm_bob, denom_q, denom_p, bob_eigenvalue)


def _mutual_information(vq_relay: float, vp_relay: float,
                        vq_cond: float, vp_cond: float) -> float:
    return (0.5 * math.log2((vq_relay + 1.0) / (vq_cond + 1.0))
            + 0.5 * math.log2((vp_relay + 1.0) / (vp_cond + 1.0)))


def mutual_information(state: ConditionalState) -> float:
    """Alice-Bob mutual information in bits (heterodyne convention).

    Uses Bob's variances before and after conditioning on Alice:
    (1/2) log2((V+1)/(V'+1)) summed over the two quadratures.
    """
    return _mutual_information(state.cm_joint[2, 2], state.cm_joint[3, 3],
                               state.cm_bob[0, 0], state.cm_bob[1, 1])


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

    Closed form on the conditional-state entries; it equals the 4x4 route
    (conditional_cms, mutual_information, holevo_bound) up to rounding and
    raises the same errors.
    """
    q, p, (bob_q, bob_p), _ = _conditional_entries(protocol, tau_a, tau_b, noise)
    spectrum = separable_spectrum(*q, *p)
    bob_eigenvalue = math.sqrt(bob_q * bob_p)
    _check_physical(spectrum[1], bob_eigenvalue)
    i_ab = _mutual_information(q[2], p[2], bob_q, bob_p)
    i_h = spectrum_entropy(spectrum) - spectrum_entropy((bob_eigenvalue,))
    return RateBreakdown(i_ab, i_h, protocol.xi * i_ab - i_h)


@np.errstate(all="ignore")
def key_rate_batch(v_m, xi: float, tau_a, tau_b, excess_q, excess_p):
    """K_inf of key_rate_breakdown over arrays, bitwise equal elementwise.

    v_m, the transmissivities and the excess noise broadcast together;
    xi is one efficiency.  Returns (k_infinity, suspect): suspect marks
    every element where ProtocolParams, NoiseVars or key_rate_breakdown
    would raise, and may mark more (any NaN, any infinite rate); the other
    elements hold exactly the scalar oracle's k_infinity.  v_m is 1-D;
    the other arrays are scalars or of its shape.
    """
    v_m, tau_a, tau_b, excess_q, excess_p = (
        np.asarray(x, dtype=float) for x in (v_m, tau_a, tau_b, excess_q, excess_p))
    total_q = 1.0 + excess_q
    total_p = 1.0 + excess_p
    suspect = ~((0.0 <= v_m) & (v_m < math.inf)) | (not 0.0 < xi <= 1.0)
    suspect |= ~(np.isfinite(excess_q) & np.isfinite(excess_p)
                 & (total_q > 0.0) & (total_p > 0.0))
    suspect |= ~((0.0 <= tau_a) & (tau_a <= 1.0) & (0.0 <= tau_b) & (tau_b <= 1.0))

    # _conditional_entries, operation for operation
    mu = v_m + 1.0
    load = (tau_a + tau_b) * v_m + 2.0
    denom_q = load + 2.0 * excess_q
    denom_p = load + 2.0 * excess_p
    suspect |= ~((denom_q > 0.0) & (denom_p > 0.0))
    strength = v_m * (v_m + 2.0)
    cross = np.sqrt(tau_a * tau_b)
    q11 = mu - strength * (tau_a / denom_q)
    q12 = strength * (cross / denom_q)
    q22 = mu - strength * (tau_b / denom_q)
    p11 = mu - strength * (tau_a / denom_p)
    p12 = -(strength * (cross / denom_p))
    p22 = mu - strength * (tau_b / denom_p)
    signal = tau_b * v_m
    bob_q = (2.0 * mu * total_q - signal) / (2.0 * total_q + signal)
    bob_p = (2.0 * mu * total_p - signal) / (2.0 * total_p + signal)
    suspect |= ~((bob_q > 0.0) & (bob_p > 0.0))

    hi, lo, degenerate = separable_spectra(q11, q12, q22, p11, p12, p22)
    bob = np.sqrt(bob_q * bob_p)
    floor = 1.0 - PHYSICALITY_TOL
    suspect |= degenerate | ~((hi >= floor) & (lo >= floor) & (bob >= floor))

    ratios = np.concatenate([(q22 + 1.0) / (bob_q + 1.0), (p22 + 1.0) / (bob_p + 1.0)])
    positive = ratios > 0.0
    suspect |= ~positive.reshape(2, -1).all(axis=0)
    logs = np.fromiter(map(math.log2, np.where(positive, ratios, 1.0).tolist()),
                       float, len(ratios))
    log_q, log_p = logs.reshape(2, -1)
    i_ab = 0.5 * log_q + 0.5 * log_p
    h_hi, h_lo, h_bob = entropy_terms(np.concatenate([hi, lo, bob])).reshape(3, -1)
    i_h = (h_hi + h_lo) - h_bob
    k = xi * i_ab - i_h
    return k, suspect | ~np.isfinite(k)


def asymptotic_key_rate(protocol: ProtocolParams, tau_a: float, tau_b: float,
                        noise: NoiseVars) -> float:
    """Asymptotic rate xi * I_AB - I_H in bits per use; may be negative."""
    return key_rate_breakdown(protocol, tau_a, tau_b, noise).k_infinity
