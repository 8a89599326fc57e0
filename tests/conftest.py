import math

import numpy as np
import pytest


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
