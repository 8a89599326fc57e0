import math

import numpy as np
import pytest

from cvmdi import noise_from_attack


def rotation_symplectic(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def squeeze_symplectic(r: float) -> np.ndarray:
    return np.diag([math.exp(r), math.exp(-r)])


def beamsplitter_symplectic(theta: float) -> np.ndarray:
    """Two-mode beam splitter in interleaved (q1, p1, q2, p2) ordering."""
    c, s = math.cos(theta), math.sin(theta)
    eye = np.eye(2)
    return np.block([[c * eye, s * eye], [-s * eye, c * eye]])


def random_two_mode_symplectic(rng: np.random.Generator) -> np.ndarray:
    """Random symplectic built from per-mode Euler decompositions and a BS."""
    blocks = []
    for _ in range(2):
        s = (rotation_symplectic(rng.uniform(0, 2 * math.pi))
             @ squeeze_symplectic(rng.uniform(-0.8, 0.8))
             @ rotation_symplectic(rng.uniform(0, 2 * math.pi)))
        blocks.append(s)
    local = np.block([
        [blocks[0], np.zeros((2, 2))],
        [np.zeros((2, 2)), blocks[1]],
    ])
    return beamsplitter_symplectic(rng.uniform(0, 2 * math.pi)) @ local


def random_physical_cm(rng: np.random.Generator, pure: bool = False) -> np.ndarray:
    """Random physical two-mode covariance matrix (Williamson form outward)."""
    if pure:
        nu = np.ones(2)
    else:
        nu = 1.0 + rng.exponential(0.7, size=2)
    s = random_two_mode_symplectic(rng)
    core = np.diag([nu[0], nu[0], nu[1], nu[1]])
    v = s @ core @ s.T
    return 0.5 * (v + v.T)


def excess_noise_bias(channel, v_m: float, m: int) -> tuple[float, float]:
    """First-order bias (q, p) of estimate_channel's excess-noise estimates.

    Delta method through the estimation pipeline.  The mean residual power
    at gains h = sqrt(tau/2) is T + v_m |h - h_true|^2, flat at the truth,
    so to order 1/m the bias is E[grad_h R . dh] + v_m E|dh|^2, with dh
    linear in the moment fluctuations.  The equal-weight preliminary tau and
    the plug-in noise reach dh only through the inverse-variance weights,
    which enter at their true values.  The Wishart moments of the records
    then give, summed over the two links (tau, other) = (tau_a, tau_b) and
    (tau_b, tau_a), with A_x = v_m (tau + other / 2) + T_x and the weight of
    the q estimate w = A_p / (A_q + A_p):

        bias_q = sum [A_q A_p / (A_q + A_p) - 2 w T_q] / m
        bias_p = sum [A_q A_p / (A_q + A_p) - 2 (1 - w) T_p] / m

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
    return tuple(bias / m)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
