"""Gaussian-state linear algebra in shot-noise units.

Covariance matrices are plain square ndarrays with quadratures interleaved
as (q1, p1, q2, p2, ...) and vacuum variance 1.  A matrix is physical when
every symplectic eigenvalue is >= 1; eigenvalues inside a 1e-9 band below 1
are treated as rounding dust and clamped, anything lower is an error.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalDegeneracyError, PhysicalityError

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9
_LN_2 = math.log(2.0)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form for n modes in interleaved quadrature ordering."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n_modes), block)


def ensure_cov_matrix(v) -> np.ndarray:
    """Validate shape and symmetry, returning the matrix as a float ndarray."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise DomainError(f"covariance matrix must be square, got shape {v.shape}")
    dim = v.shape[0]
    if dim == 0 or dim % 2:
        raise DomainError(f"covariance matrix dimension must be even and positive, got {dim}")
    if not np.allclose(v, v.T, rtol=0.0, atol=SYMMETRY_TOL):
        raise DomainError("covariance matrix is not symmetric within 1e-12")
    return v


def entropy_term(x: float) -> float:
    """Entropy contribution h(x) of a single symplectic eigenvalue, in bits.

    h(x) = ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2)

    h(1) = 0 under the 0*log(0) = 0 convention and h(inf) = inf.  For large
    x, h approaches log2(e*x/2); the form below needs no such asymptote, as
    it stays within 2.1e-16 relative of h for x from 1e4 to 1e300.
    """
    x = float(x)
    if x < 1.0:
        raise DomainError(f"symplectic eigenvalue must be >= 1, got {x}")
    if x == 1.0:
        return 0.0
    if x == math.inf:
        return math.inf
    up = 0.5 * (x + 1.0)
    down = 0.5 * (x - 1.0)
    # The same h, rewritten as down * log2(1 + 1/down) + log2(up): the
    # textbook difference of two ~(x/2) log2(x/2) terms loses about
    # log10(x) digits to cancellation (1e-11 absolute near x = 1e4).
    return down * math.log1p(1.0 / down) / _LN_2 + math.log2(up)


def symplectic_eigenvalues(v) -> list[float]:
    """Symplectic spectrum, sorted descending (n values for a 2n x 2n matrix).

    Uses sqrt(det V) for one mode, the two-mode invariant formula for two
    modes, and the moduli of the eigenvalues of i*Omega*V in general.
    """
    v = ensure_cov_matrix(v)
    dim = v.shape[0]
    if dim == 2:
        return [_clamped_root(float(np.linalg.det(v)), scale=1.0)]
    if dim == 4:
        return _two_mode_spectrum(v)
    omega = symplectic_form(dim // 2)
    moduli = np.sort(np.abs(np.linalg.eigvals(1j * (omega @ v))))[::-1]
    return [float(x) for x in moduli[::2]]


def _clamped_root(value: float, scale: float) -> float:
    if value < 0.0:
        if value < -PHYSICALITY_TOL * max(scale, 1.0):
            raise NumericalDegeneracyError(
                f"negative discriminant {value} beyond tolerance")
        value = 0.0
    return math.sqrt(value)


def _two_mode_spectrum(v: np.ndarray) -> list[float]:
    if _qp_separable(v):
        return _separable_spectrum(v)
    det_a = float(np.linalg.det(v[:2, :2]))
    det_b = float(np.linalg.det(v[2:, 2:]))
    det_c = float(np.linalg.det(v[:2, 2:]))
    det_v = float(np.linalg.det(v))
    delta = det_a + det_b + 2.0 * det_c
    root = _clamped_root(delta * delta - 4.0 * det_v, scale=delta * delta)
    hi_sq = 0.5 * (delta + root)
    if hi_sq <= 0.0:
        raise NumericalDegeneracyError(f"two-mode invariant {delta} is not positive")
    # det V = (nu_hi * nu_lo)^2, so dividing sidesteps the cancellation that
    # (delta - root)/2 suffers when the two eigenvalues are far apart.
    lo_sq = det_v / hi_sq
    return [math.sqrt(hi_sq), _clamped_root(lo_sq, scale=1.0)]


def _qp_separable(v: np.ndarray) -> bool:
    """True when the matrix couples only (q1, q2) and (p1, p2)."""
    return (v[0, 1] == 0.0 and v[0, 3] == 0.0
            and v[1, 2] == 0.0 and v[2, 3] == 0.0)


def _separable_spectrum(v: np.ndarray) -> list[float]:
    # Python floats, which overflow to inf without a numpy RuntimeWarning
    return list(separable_spectrum(*v[(0, 0, 2, 1, 1, 3), (0, 2, 2, 1, 3, 3)].tolist()))


def separable_spectrum(q11: float, q12: float, q22: float,
                       p11: float, p12: float, p22: float) -> tuple[float, float]:
    """Spectrum (hi, lo) of a q/p-separable two-mode matrix, without cancellation.

    The arguments are the entries of the q block Vq = [[q11, q12], [q12, q22]]
    and the p block Vp, mode 1 first.  For such matrices the squared
    symplectic eigenvalues are the eigenvalues of Vq @ Vp.  Solving that 2x2
    problem keeps the rounding error linear in machine precision even for
    near-pure states, where the generic invariant formula loses half its
    digits to the sqrt of a vanishing discriminant.
    """
    m11 = q11 * p11 + q12 * p12
    m12 = q11 * p12 + q12 * p22
    m21 = q12 * p11 + q22 * p12
    m22 = q12 * p12 + q22 * p22
    trace = m11 + m22
    gap = m11 - m22
    disc = gap * gap + 4.0 * m12 * m21
    root = _clamped_root(disc, scale=trace * trace)
    hi_sq = 0.5 * (trace + root)
    if hi_sq <= 0.0:
        raise NumericalDegeneracyError(f"two-mode trace {trace} is not positive")
    det_m = (q11 * q22 - q12 * q12) * (p11 * p22 - p12 * p12)
    lo_sq = det_m / hi_sq
    return math.sqrt(hi_sq), _clamped_root(lo_sq, scale=1.0)


@np.errstate(all="ignore")
def separable_spectra(q11, q12, q22, p11, p12, p22):
    """separable_spectrum over arrays of entries, bitwise equal elementwise.

    Returns (hi, lo, suspect).  suspect marks every element where
    separable_spectrum raises, plus NaN elements, whose outcome the caller's
    own checks settle; elsewhere hi and lo are its values.
    """
    m11 = q11 * p11 + q12 * p12
    m12 = q11 * p12 + q12 * p22
    m21 = q12 * p11 + q22 * p12
    m22 = q12 * p12 + q22 * p22
    trace = m11 + m22
    gap = m11 - m22
    disc = gap * gap + 4.0 * m12 * m21
    # _clamped_root: a negative value inside the band becomes 0, one below it
    # raises; the band scales by max(scale, 1.0), whose NaN it keeps.
    scale = trace * trace
    negative = disc < 0.0
    suspect = negative & (disc < -PHYSICALITY_TOL * np.where(1.0 > scale, 1.0, scale))
    hi_sq = 0.5 * (trace + np.sqrt(np.where(negative, 0.0, disc)))
    suspect |= ~(hi_sq > 0.0)
    det_m = (q11 * q22 - q12 * q12) * (p11 * p22 - p12 * p12)
    lo_sq = det_m / hi_sq
    suspect |= lo_sq < -PHYSICALITY_TOL
    return np.sqrt(hi_sq), np.sqrt(np.where(lo_sq < 0.0, 0.0, lo_sq)), suspect


def min_symplectic_eigenvalue(v) -> float:
    return symplectic_eigenvalues(v)[-1]


def is_physical(v, tol: float = PHYSICALITY_TOL) -> bool:
    """True when every symplectic eigenvalue is >= 1 - tol."""
    return min_symplectic_eigenvalue(v) >= 1.0 - tol


def von_neumann_entropy(v) -> float:
    """Entropy of the Gaussian state with covariance matrix v, in bits.

    Zero exactly for pure states.  Eigenvalues inside the clamping band
    below 1 contribute nothing; anything lower raises PhysicalityError.
    """
    return spectrum_entropy(symplectic_eigenvalues(v))


def spectrum_entropy(nus) -> float:
    """Sum of h(nu) over a symplectic spectrum, in bits.

    Eigenvalues inside the clamping band below 1 contribute nothing; lower
    ones, and NaN, raise PhysicalityError.
    """
    total = 0.0
    for nu in nus:
        if not nu >= 1.0 - PHYSICALITY_TOL:
            raise PhysicalityError(
                f"unphysical covariance matrix: symplectic eigenvalue {nu:.12g} < 1")
        if nu > 1.0:
            total += entropy_term(nu)
    return total


@np.errstate(all="ignore")
def entropy_terms(nus: np.ndarray) -> np.ndarray:
    """entropy_term over an array, bitwise equal elementwise, with 0 where
    nu <= 1 or NaN, as spectrum_entropy counts the band below 1.

    The logs go through math, not numpy: numpy's SIMD log1p and log2 may
    differ from the C library's by one ulp.  The caller checks the band.
    """
    live = nus > 1.0
    x = np.where(live, nus, 2.0)
    up = 0.5 * (x + 1.0)
    down = 0.5 * (x - 1.0)
    log1p = np.fromiter(map(math.log1p, (1.0 / down).tolist()), float, len(x))
    log2 = np.fromiter(map(math.log2, up.tolist()), float, len(x))
    terms = np.where(x == math.inf, math.inf, down * log1p / _LN_2 + log2)
    return np.where(live, terms, 0.0)


def tmsv_cm(mu: float) -> np.ndarray:
    """4x4 covariance matrix of a two-mode squeezed vacuum with variance mu.

    Diagonal blocks mu*I, off-diagonal blocks sqrt(mu^2 - 1) * diag(1, -1);
    mu = 1 is vacuum.  The state is pure for every mu >= 1.
    """
    mu = float(mu)
    if mu < 1.0:
        raise DomainError(f"TMSV variance must be >= 1, got {mu}")
    c = math.sqrt(mu * mu - 1.0)
    return np.array([
        [mu, 0.0, c, 0.0],
        [0.0, mu, 0.0, -c],
        [c, 0.0, mu, 0.0],
        [0.0, -c, 0.0, mu],
    ])
