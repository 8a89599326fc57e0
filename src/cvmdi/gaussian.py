"""Gaussian-state linear algebra in shot-noise units.

Covariance matrices are plain square ndarrays with quadratures interleaved
as (q1, p1, q2, p2, ...) and vacuum variance 1.  A matrix is physical when
every symplectic eigenvalue is >= 1; eigenvalues inside a 1e-9 band below 1
are treated as rounding dust and clamped, anything lower is an error.

The spectrum of a q/p-separable two-mode matrix (separable_spectra) and
the entropy h(nu) (entropy_terms) are written once, over arrays of points,
as the key-rate kernel evaluates them; the 4x4 route and entropy_term are
their one-point calls.  Their checks raise the typed error of the first
point that fails, with its values in the message.
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

    h(1) = 0 under the 0*log(0) = 0 convention and h(inf) = inf; NaN gives
    NaN.  This is entropy_terms on one point.
    """
    x = float(x)
    if x < 1.0:
        raise DomainError(f"symplectic eigenvalue must be >= 1, got {x}")
    return entropy_terms(np.array([x])).item()


def symplectic_eigenvalues(v) -> list[float]:
    """Symplectic spectrum, sorted descending (n values for a 2n x 2n matrix).

    Uses sqrt(det V) for one mode, the two-mode invariant formula for two
    modes, and the moduli of the eigenvalues of i*Omega*V in general.
    """
    v = ensure_cov_matrix(v)
    dim = v.shape[0]
    if dim == 2:
        return [float(_clamped_root(np.linalg.det(v), scale=1.0))]
    if dim == 4:
        return _two_mode_spectrum(v)
    omega = symplectic_form(dim // 2)
    moduli = np.sort(np.abs(np.linalg.eigvals(1j * (omega @ v))))[::-1]
    return [float(x) for x in moduli[::2]]


def _raise_at_first(ok, error, template: str, *values) -> None:
    """Raise error(template filled in with the values at the first point
    where ok is False, as Python floats); ok and the values broadcast."""
    if not ok.all():
        ok, *values = np.broadcast_arrays(ok, *values)
        first = np.argmin(ok)
        raise error(template.format(*(value.flat[first].item() for value in values)))


def _clamped_root(value, scale):
    """Elementwise sqrt, with a negative value inside the band
    PHYSICALITY_TOL * max(scale, 1) taken as 0 and one below it raising.
    A NaN scale keeps its NaN, as Python's max(nan, 1.0) does, and so lets
    every value through; a NaN value passes as NaN."""
    value = np.asarray(value)
    negative = value < 0.0
    _raise_at_first(~(value < -PHYSICALITY_TOL * np.maximum(scale, 1.0)),
                    NumericalDegeneracyError, "negative discriminant {} beyond tolerance",
                    value)
    return np.sqrt(np.where(negative, 0.0, value))


def _two_mode_spectrum(v: np.ndarray) -> list[float]:
    if _qp_separable(v):
        hi, lo = separable_spectra(*v[(0, 0, 2, 1, 1, 3), (0, 2, 2, 1, 3, 3)])
        return [hi.item(), lo.item()]
    det_a = float(np.linalg.det(v[:2, :2]))
    det_b = float(np.linalg.det(v[2:, 2:]))
    det_c = float(np.linalg.det(v[:2, 2:]))
    det_v = float(np.linalg.det(v))
    delta = det_a + det_b + 2.0 * det_c
    root = float(_clamped_root(delta * delta - 4.0 * det_v, scale=delta * delta))
    hi_sq = 0.5 * (delta + root)
    if hi_sq <= 0.0:
        raise NumericalDegeneracyError(f"two-mode invariant {delta} is not positive")
    # det V = (nu_hi * nu_lo)^2, so dividing sidesteps the cancellation that
    # (delta - root)/2 suffers when the two eigenvalues are far apart.
    lo_sq = det_v / hi_sq
    return [math.sqrt(hi_sq), float(_clamped_root(lo_sq, scale=1.0))]


def _qp_separable(v: np.ndarray) -> bool:
    """True when the matrix couples only (q1, q2) and (p1, p2)."""
    return (v[0, 1] == 0.0 and v[0, 3] == 0.0
            and v[1, 2] == 0.0 and v[2, 3] == 0.0)


@np.errstate(all="ignore")
def separable_spectra(q11, q12, q22, p11, p12, p22):
    """Spectra (hi, lo) of q/p-separable two-mode matrices, without cancellation.

    The arguments are arrays, or numpy scalars for one matrix, of the
    entries of the q blocks Vq = [[q11, q12], [q12, q22]] and the p blocks
    Vp, mode 1 first.  For such matrices the squared symplectic
    eigenvalues are the eigenvalues of Vq @ Vp.  Solving that 2x2 problem
    keeps the rounding error linear in machine precision even for
    near-pure states, where the generic invariant formula loses half its
    digits to the sqrt of a vanishing discriminant.  Overflow runs to inf
    and NaN, as in Python floats, without a RuntimeWarning.

    Raises NumericalDegeneracyError at the first matrix whose discriminant
    is negative beyond the clamping band, then at the first whose trace is
    not positive, then at the first whose lo^2 is; NaN passes.
    """
    m11 = q11 * p11 + q12 * p12
    m12 = q11 * p12 + q12 * p22
    m21 = q12 * p11 + q22 * p12
    m22 = q12 * p12 + q22 * p22
    trace = m11 + m22
    gap = m11 - m22
    hi_sq = 0.5 * (trace + _clamped_root(gap * gap + 4.0 * m12 * m21, scale=trace * trace))
    _raise_at_first(~(hi_sq <= 0.0), NumericalDegeneracyError,
                    "two-mode trace {} is not positive", trace)
    det_m = (q11 * q22 - q12 * q12) * (p11 * p22 - p12 * p12)
    return np.sqrt(hi_sq), _clamped_root(det_m / hi_sq, scale=1.0)


def is_physical(v, tol: float = PHYSICALITY_TOL) -> bool:
    """True when every symplectic eigenvalue is >= 1 - tol."""
    return symplectic_eigenvalues(v)[-1] >= 1.0 - tol


def von_neumann_entropy(v) -> float:
    """Entropy of the Gaussian state with covariance matrix v, in bits.

    Zero exactly for pure states.  Eigenvalues inside the clamping band
    below 1 contribute nothing; anything lower raises PhysicalityError.
    """
    return spectrum_entropy(symplectic_eigenvalues(v))


def _check_band(nus: np.ndarray) -> None:
    """Raise PhysicalityError at the first eigenvalue below the clamping
    band under 1, or NaN."""
    _raise_at_first(nus >= 1.0 - PHYSICALITY_TOL, PhysicalityError,
                    "unphysical covariance matrix: symplectic eigenvalue {:.12g} < 1", nus)


def spectrum_entropy(nus) -> float:
    """Sum of h(nu) over a symplectic spectrum, in bits.

    Eigenvalues inside the clamping band below 1 contribute nothing; lower
    ones, and NaN, raise PhysicalityError.
    """
    nus = np.asarray(nus, dtype=float)
    _check_band(nus)
    total = 0.0
    for term in entropy_terms(nus).tolist():
        total += term
    return total


@np.errstate(all="ignore")
def entropy_terms(nus: np.ndarray) -> np.ndarray:
    """h(nu) elementwise over a 1-D array, in bits, with 0 where nu <= 1
    (spectrum_entropy's band below 1 included) and NaN kept.

    h is rewritten as down * log2(1 + 1/down) + log2(up), with up = (x+1)/2
    and down = (x-1)/2: the textbook difference of two ~(x/2) log2(x/2)
    terms loses about log10(x) digits to cancellation (1e-11 absolute near
    x = 1e4), and this form stays within 2.1e-16 relative of h for x from
    1e4 to 1e300, with no asymptote.  The logs go through math, not numpy:
    numpy's SIMD log1p and log2 may differ from the C library's by one ulp.
    """
    dead = nus <= 1.0
    x = np.where(dead, 2.0, nus)
    up = 0.5 * (x + 1.0)
    down = 0.5 * (x - 1.0)
    log1p = np.fromiter(map(math.log1p, (1.0 / down).tolist()), float, len(x))
    log2 = np.fromiter(map(math.log2, up.tolist()), float, len(x))
    terms = np.where(x == math.inf, math.inf, down * log1p / _LN_2 + log2)
    return np.where(dead, 0.0, terms)


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
