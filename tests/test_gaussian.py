import math

import numpy as np
import pytest

from cvmdi import (
    DomainError,
    entropy_term,
    is_physical,
    PhysicalityError,
    symplectic_eigenvalues,
    symplectic_form,
    tmsv_cm,
    von_neumann_entropy,
)
from cvmdi.gaussian import ensure_cov_matrix, separable_spectra, spectrum_entropy

from conftest import (
    beamsplitter_symplectic,
    random_physical_cm,
    random_two_mode_symplectic,
    squeeze_symplectic,
)


def h_direct(x):
    """Reference evaluation of the entropy function, straight off the formula."""
    up = (x + 1.0) / 2.0
    down = (x - 1.0) / 2.0
    return up * math.log2(up) - down * math.log2(down)


class TestEntropyTerm:
    def test_vacuum_limit(self):
        assert entropy_term(1.0) == 0.0

    def test_exact_at_three(self):
        # 2*log2(2) - 1*log2(1) = 2
        assert entropy_term(3.0) == 2.0

    def test_asymptote_at_1e6(self):
        expected = math.log2(math.e * 1e6 / 2.0)
        assert entropy_term(1e6) == pytest.approx(expected, rel=1e-6)

    def test_asymptote_matches_direct_form(self):
        # the closed form and the asymptote agree where the switch happens
        for x in (1e4, 3e4, 1e6):
            assert entropy_term(x) == pytest.approx(h_direct(x), rel=1e-9)

    def test_accurate_without_the_asymptote(self):
        # 350 digits resolve (x + 1)/2 against (x - 1)/2 up to x = 1e300; the
        # log2(e*x/2) asymptote is 2e-10 relative off h at x = 1e4.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(350):
            for x in np.geomspace(1e4, 1e300, 60).tolist():
                up, down = (mpmath.mpf(x) + 1) / 2, (mpmath.mpf(x) - 1) / 2
                exact = up * mpmath.log(up, 2) - down * mpmath.log(down, 2)
                assert abs(entropy_term(x) - exact) <= 1e-15 * exact
        assert entropy_term(math.inf) == math.inf

    def test_below_one_raises_with_value(self):
        with pytest.raises(DomainError, match="0.5"):
            entropy_term(0.5)

    def test_monotone_on_grid(self):
        grid = np.geomspace(1.0, 1e6, 100)
        values = [entropy_term(x) for x in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_continuous_near_one(self):
        assert entropy_term(1.0 + 1e-14) == pytest.approx(0.0, abs=1e-12)


class TestSymplecticEigenvalues:
    def test_identity_four(self):
        assert symplectic_eigenvalues(np.eye(4)) == pytest.approx([1.0, 1.0])

    def test_tmsv_is_pure(self):
        for mu in (1.0, 2.0, 5.0, 10.0, 100.0):
            nus = symplectic_eigenvalues(tmsv_cm(mu))
            assert nus == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_thermal_tensor_product(self):
        v = np.diag([1.5, 1.5, 1.5, 1.5])
        assert symplectic_eigenvalues(v) == pytest.approx([1.5, 1.5])

    def test_single_mode_sqrt_det(self):
        assert symplectic_eigenvalues(np.diag([3.0, 3.0])) == pytest.approx([3.0])
        assert symplectic_eigenvalues(np.diag([4.0, 1.0])) == pytest.approx([2.0])

    def test_descending_order(self, rng):
        for _ in range(50):
            nus = symplectic_eigenvalues(random_physical_cm(rng))
            assert nus[0] >= nus[1]

    def test_formula_matches_general_method(self, rng):
        # two-mode invariant route vs moduli of eigenvalues of i*Omega*V
        omega = symplectic_form(2)
        for _ in range(1000):
            v = random_physical_cm(rng)
            fast = symplectic_eigenvalues(v)
            general = np.sort(np.abs(np.linalg.eigvals(1j * omega @ v)))[::-1][::2]
            np.testing.assert_allclose(fast, general, rtol=0, atol=1e-9)

    def test_separable_formula_matches_general_method(self, rng):
        # local squeezers along q/p and a beam splitter keep q and p apart
        omega = symplectic_form(2)
        for _ in range(200):
            nu = 1.0 + rng.exponential(0.7, size=2)
            local = np.zeros((4, 4))
            local[:2, :2] = squeeze_symplectic(rng.uniform(-0.8, 0.8))
            local[2:, 2:] = squeeze_symplectic(rng.uniform(-0.8, 0.8))
            s = beamsplitter_symplectic(rng.uniform(0, 2 * math.pi)) @ local
            v = s @ np.diag([nu[0], nu[0], nu[1], nu[1]]) @ s.T
            v = 0.5 * (v + v.T)
            entries = v[(0, 0, 2, 1, 1, 3), (0, 2, 2, 1, 3, 3)]  # Vq, then Vp
            hi, lo = (x.item() for x in separable_spectra(*entries[:, None]))
            general = np.sort(np.abs(np.linalg.eigvals(1j * omega @ v)))[::-1][::2]
            np.testing.assert_allclose([hi, lo], general, rtol=0, atol=1e-9)
            assert [hi, lo] == symplectic_eigenvalues(v)

    def test_six_mode_path(self):
        v = np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        assert symplectic_eigenvalues(v) == pytest.approx([3.0, 2.0, 1.0])

    def test_rejects_asymmetric(self):
        v = np.eye(4)
        v[0, 1] = 1e-6
        with pytest.raises(DomainError):
            symplectic_eigenvalues(v)

    def test_rejects_odd_dimension(self):
        with pytest.raises(DomainError):
            symplectic_eigenvalues(np.eye(3))


class TestVonNeumannEntropy:
    def test_tmsv_pure(self):
        assert von_neumann_entropy(tmsv_cm(10.0)) == pytest.approx(0.0, abs=1e-8)

    def test_thermal_single_mode(self):
        assert von_neumann_entropy(np.diag([3.0, 3.0])) == pytest.approx(2.0)

    def test_identity(self):
        assert von_neumann_entropy(np.eye(2)) == 0.0

    def test_additive_over_modes(self):
        v = np.diag([3.0, 3.0, 5.0, 5.0])
        expected = entropy_term(3.0) + entropy_term(5.0)
        assert von_neumann_entropy(v) == pytest.approx(expected)

    def test_unphysical_raises(self):
        with pytest.raises(PhysicalityError):
            von_neumann_entropy(np.diag([0.5, 0.5]))

    def test_clamps_rounding_dust(self):
        nu = 1.0 - 5e-10
        assert von_neumann_entropy(np.diag([nu, nu])) == 0.0

    def test_nan_eigenvalue_raises(self):
        with pytest.raises(PhysicalityError):
            spectrum_entropy([2.0, math.nan])

    def test_symplectic_invariance(self, rng):
        for _ in range(50):
            v = random_physical_cm(rng)
            s = random_two_mode_symplectic(rng)
            transported = s @ v @ s.T
            transported = 0.5 * (transported + transported.T)
            assert von_neumann_entropy(transported) == pytest.approx(
                von_neumann_entropy(v), abs=1e-8)


class TestTmsvCm:
    def test_vacuum(self):
        np.testing.assert_array_equal(tmsv_cm(1.0), np.eye(4))

    def test_mu_two_off_diagonal(self):
        v = tmsv_cm(2.0)
        c = math.sqrt(3.0)
        np.testing.assert_allclose(v[:2, 2:], np.diag([c, -c]))
        np.testing.assert_allclose(v[:2, :2], 2.0 * np.eye(2))

    def test_physical_and_pure_everywhere(self, rng):
        for mu in 1.0 + rng.exponential(20.0, size=25):
            v = tmsv_cm(mu)
            assert is_physical(v)
            assert symplectic_eigenvalues(v) == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_below_one_rejected(self):
        with pytest.raises(DomainError):
            tmsv_cm(0.999)


def test_symplectic_form_squares_to_minus_identity():
    omega = symplectic_form(3)
    np.testing.assert_array_equal(omega @ omega, -np.eye(6))


def test_constructed_symplectics_preserve_form(rng):
    omega = symplectic_form(2)
    for _ in range(20):
        s = random_two_mode_symplectic(rng)
        np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-12)


def test_ensure_cov_matrix_accepts_lists():
    v = ensure_cov_matrix([[1.0, 0.0], [0.0, 1.0]])
    assert isinstance(v, np.ndarray)
