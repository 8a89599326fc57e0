"""Two-mode Gaussian attack model and the relay noise it induces.

The attack on the two links is parameterized by the thermal variances
(omega_a, omega_b) of Eve's ancilla pair and by the quadrature correlations
(corr_q, corr_p) between the ancillas.  corr_q = corr_p = 0 reduces to two
independent entangling cloners; the strongest physical correlations give
the optimal two-mode attack.  Everything downstream of this module sees the
attack only through the per-quadrature excess noise at the relay output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, PhysicalityError
from .gaussian import PHYSICALITY_TOL, min_symplectic_eigenvalue


@dataclass(frozen=True)
class ChannelParams:
    """Physical scenario: link transmissivities plus Eve's attack."""

    tau_a: float
    tau_b: float
    omega_a: float = 1.0
    omega_b: float = 1.0
    corr_q: float = 0.0
    corr_p: float = 0.0

    def __post_init__(self):
        for name in ("tau_a", "tau_b"):
            tau = getattr(self, name)
            if not 0.0 <= tau <= 1.0:
                raise DomainError(f"{name} must lie in [0, 1], got {tau}")
        for name in ("omega_a", "omega_b"):
            omega = getattr(self, name)
            if not 1.0 <= omega < math.inf:
                raise DomainError(f"{name} must be finite and >= 1, got {omega}")
        # Rejects correlations too strong for the thermal variances.
        eve_cm(self)

    @classmethod
    def pure_loss(cls, tau_a: float, tau_b: float) -> "ChannelParams":
        return cls(tau_a, tau_b)

    @classmethod
    def collective(cls, tau_a: float, tau_b: float,
                   omega_a: float, omega_b: float) -> "ChannelParams":
        """Independent entangling cloners (no ancilla correlations)."""
        return cls(tau_a, tau_b, omega_a, omega_b)

    @classmethod
    def two_mode_optimal(cls, tau_a: float, tau_b: float,
                         omega_a: float, omega_b: float) -> "ChannelParams":
        corr_q, corr_p = optimal_two_mode_attack(omega_a, omega_b)
        return cls(tau_a, tau_b, omega_a, omega_b, corr_q, corr_p)


@dataclass(frozen=True)
class NoiseVars:
    """Excess-noise variance per quadrature at the relay output (SNU).

    Entangled attacks can legitimately push the excess noise negative; the
    total noise (shot noise included) must stay positive.
    """

    excess_q: float
    excess_p: float

    def __post_init__(self):
        if 1.0 + self.excess_q <= 0.0 or 1.0 + self.excess_p <= 0.0:
            raise ConfigurationError(
                "total relay noise must stay positive; attack is noisier than "
                f"physically representable (excess_q={self.excess_q}, "
                f"excess_p={self.excess_p})")

    @property
    def total_q(self) -> float:
        """Total q-quadrature noise variance at the relay, shot noise included."""
        return 1.0 + self.excess_q

    @property
    def total_p(self) -> float:
        return 1.0 + self.excess_p


def eve_cm(params: ChannelParams) -> np.ndarray:
    """4x4 covariance matrix of Eve's ancilla pair.

    Thermal blocks omega*I on the diagonal, diag(corr_q, corr_p) off it.
    Raises PhysicalityError when the correlations are too strong for the
    chosen thermal variances.
    """
    wa, wb = params.omega_a, params.omega_b
    gq, gp = params.corr_q, params.corr_p
    cm = np.array([
        [wa, 0.0, gq, 0.0],
        [0.0, wa, 0.0, gp],
        [gq, 0.0, wb, 0.0],
        [0.0, gp, 0.0, wb],
    ])
    nu_min = min_symplectic_eigenvalue(cm)
    if nu_min < 1.0 - PHYSICALITY_TOL:
        raise PhysicalityError(
            "attack covariance matrix is unphysical: smallest symplectic "
            f"eigenvalue {nu_min:.12g} < 1")
    return cm


def optimal_two_mode_attack(omega_a: float, omega_b: float) -> tuple[float, float]:
    """Strongest physical correlation pair for the given thermal variances.

    Returns (corr_q, corr_p) with corr_p = -corr_q; the pair sits on the
    physicality boundary of the ancilla covariance matrix.
    """
    if omega_a < 1.0 or omega_b < 1.0:
        raise DomainError(
            f"thermal variances must be >= 1, got ({omega_a}, {omega_b})")
    g = min(math.sqrt((omega_a - 1.0) * (omega_b + 1.0)),
            math.sqrt((omega_b - 1.0) * (omega_a + 1.0)))
    return g, -g


def noise_from_attack(params: ChannelParams) -> NoiseVars:
    """Map attack parameters to the per-quadrature excess noise at the relay."""
    lost_a = 1.0 - params.tau_a
    lost_b = 1.0 - params.tau_b
    thermal = 0.5 * (lost_b * (params.omega_b - 1.0) + lost_a * (params.omega_a - 1.0))
    overlap = math.sqrt(lost_b * lost_a)
    return NoiseVars(thermal - params.corr_q * overlap,
                     thermal + params.corr_p * overlap)


def db_to_transmissivity(attenuation_db: float) -> float:
    """Convert a fibre attenuation in dB to a transmissivity in (0, 1]."""
    if attenuation_db < 0.0:
        raise DomainError(f"attenuation must be >= 0 dB, got {attenuation_db}")
    return 10.0 ** (-attenuation_db / 10.0)
