"""Asymptotic secret-key rate from the post-measurement covariance matrices.

The relay broadcast leaves Alice and Bob with a joint two-mode Gaussian
state; Alice's heterodyne detection then conditions Bob's mode further.
The achievable rate is the reconciliation-scaled mutual information minus
the Holevo bound on the eavesdropper, both computed from these conditional
covariance matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import NoiseVars
from .errors import ConfigurationError, DomainError, PhysicalityError
from .gaussian import PHYSICALITY_TOL, symplectic_eigenvalues, von_neumann_entropy


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


def conditional_cms(protocol: ProtocolParams, tau_a: float, tau_b: float,
                    noise: NoiseVars) -> ConditionalState:
    """Conditional covariance matrices for the given links and relay noise."""
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

    strength = v_m * (v_m + 2.0)
    cross = math.sqrt(tau_a * tau_b)
    reduction = np.array([
        [tau_a / denom_q, 0.0, -cross / denom_q, 0.0],
        [0.0, tau_a / denom_p, 0.0, cross / denom_p],
        [-cross / denom_q, 0.0, tau_b / denom_q, 0.0],
        [0.0, cross / denom_p, 0.0, tau_b / denom_p],
    ])
    cm_joint = mu * np.eye(4) - strength * reduction

    bob_q = ((2.0 * mu * noise.total_q - tau_b * v_m)
             / (2.0 * noise.total_q + tau_b * v_m))
    bob_p = ((2.0 * mu * noise.total_p - tau_b * v_m)
             / (2.0 * noise.total_p + tau_b * v_m))
    if bob_q <= 0.0 or bob_p <= 0.0:
        raise PhysicalityError(
            f"conditional Bob variances ({bob_q}, {bob_p}) are not positive")
    cm_bob = np.diag([bob_q, bob_p])

    nu_min = symplectic_eigenvalues(cm_joint)[-1]
    if nu_min < 1.0 - PHYSICALITY_TOL:
        raise PhysicalityError(
            f"conditional joint state is unphysical: eigenvalue {nu_min:.12g} < 1")
    bob_eigenvalue = math.sqrt(bob_q * bob_p)
    if bob_eigenvalue < 1.0 - PHYSICALITY_TOL:
        raise PhysicalityError(
            f"conditional Bob state is unphysical: eigenvalue {bob_eigenvalue:.12g} < 1")
    return ConditionalState(cm_joint, cm_bob, denom_q, denom_p, bob_eigenvalue)


def mutual_information(state: ConditionalState) -> float:
    """Alice-Bob mutual information in bits (heterodyne convention).

    Uses Bob's variances before and after conditioning on Alice:
    (1/2) log2((V+1)/(V'+1)) summed over the two quadratures.
    """
    vq_relay = state.cm_joint[2, 2]
    vp_relay = state.cm_joint[3, 3]
    vq_cond = state.cm_bob[0, 0]
    vp_cond = state.cm_bob[1, 1]
    return (0.5 * math.log2((vq_relay + 1.0) / (vq_cond + 1.0))
            + 0.5 * math.log2((vp_relay + 1.0) / (vp_cond + 1.0)))


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
    """Mutual information, Holevo bound and asymptotic rate in one pass."""
    state = conditional_cms(protocol, tau_a, tau_b, noise)
    i_ab = mutual_information(state)
    i_h = holevo_bound(state)
    return RateBreakdown(i_ab, i_h, protocol.xi * i_ab - i_h)


def asymptotic_key_rate(protocol: ProtocolParams, tau_a: float, tau_b: float,
                        noise: NoiseVars) -> float:
    """Asymptotic rate xi * I_AB - I_H in bits per use; may be negative."""
    return key_rate_breakdown(protocol, tau_a, tau_b, noise).k_infinity
