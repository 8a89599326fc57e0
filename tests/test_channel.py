import math

import numpy as np
import pytest

from cvmdi import (
    ChannelParams,
    ConfigurationError,
    db_to_transmissivity,
    DomainError,
    eve_cm,
    is_physical,
    NoiseVars,
    noise_from_attack,
    optimal_two_mode_attack,
    PhysicalityError,
    symplectic_eigenvalues,
)


class TestEveCm:
    def test_pure_loss_is_identity(self):
        np.testing.assert_array_equal(
            eve_cm(ChannelParams(0.5, 0.5)), np.eye(4))

    def test_independent_cloners(self):
        cm = eve_cm(ChannelParams(0.5, 0.5, 1.01, 1.01))
        np.testing.assert_allclose(cm, np.diag([1.01] * 4))

    def test_correlated_attack_physical(self):
        # 0.1417 sits just inside the physicality boundary sqrt(0.01 * 2.01)
        ch = ChannelParams(0.5, 0.5, 1.01, 1.01, 0.1417, -0.1417)
        nus = symplectic_eigenvalues(eve_cm(ch))
        assert min(nus) >= 1.0 - 1e-9

    def test_too_strong_correlation_rejected(self):
        with pytest.raises(PhysicalityError, match="eigenvalue"):
            ChannelParams(0.5, 0.5, 1.01, 1.01, 0.5, -0.5)

    def test_optimal_attack_sits_on_boundary(self):
        # strongest correlations leave the smallest eigenvalue exactly at 1
        ch = ChannelParams.two_mode_optimal(0.9, 0.4, 1.02, 1.05)
        nus = symplectic_eigenvalues(eve_cm(ch))
        assert nus[-1] == pytest.approx(1.0, abs=1e-9)


class TestOptimalTwoModeAttack:
    def test_pure_loss_has_no_correlations(self):
        assert optimal_two_mode_attack(1.0, 1.0) == (0.0, 0.0)

    def test_symmetric_value(self):
        g, g_prime = optimal_two_mode_attack(1.01, 1.01)
        assert g == pytest.approx(math.sqrt(0.01 * 2.01))
        assert g == pytest.approx(0.14177, abs=5e-6)
        assert g_prime == -g

    def test_min_selects_weaker_branch(self):
        g, _ = optimal_two_mode_attack(1.02, 1.01)
        assert g == pytest.approx(math.sqrt(0.01 * 2.02))
        assert g == pytest.approx(0.14213, abs=5e-6)

    def test_returned_pair_is_physical(self, rng):
        for _ in range(50):
            wa, wb = 1.0 + rng.exponential(0.5, size=2)
            gq, gp = optimal_two_mode_attack(wa, wb)
            ch = ChannelParams(0.5, 0.5, wa, wb, gq, gp)
            assert is_physical(eve_cm(ch))


class TestNoiseFromAttack:
    def test_lossless_links_no_noise(self):
        noise = noise_from_attack(ChannelParams(1.0, 1.0, 2.0, 3.0))
        assert noise.excess_q == 0.0 and noise.excess_p == 0.0

    def test_collective_attack_value(self):
        noise = noise_from_attack(ChannelParams(0.5, 0.5, 1.01, 1.01))
        assert noise.excess_q == pytest.approx(0.005)
        assert noise.excess_p == pytest.approx(0.005)

    def test_optimal_attack_negative_excess(self):
        ch = ChannelParams.two_mode_optimal(0.5, 0.5, 1.01, 1.01)
        noise = noise_from_attack(ch)
        expected = 0.005 - math.sqrt(0.01 * 2.01) * 0.5
        assert noise.excess_q == pytest.approx(expected)
        assert noise.excess_q == pytest.approx(-0.06589, abs=5e-6)
        assert noise.excess_q == noise.excess_p

    def test_no_correlations_is_symmetric(self, rng):
        for _ in range(20):
            ta, tb = rng.uniform(0, 1, size=2)
            wa, wb = 1.0 + rng.exponential(0.3, size=2)
            noise = noise_from_attack(ChannelParams(ta, tb, wa, wb))
            assert noise.excess_q == noise.excess_p

    def test_monotone_in_thermal_variance(self):
        taus = dict(tau_a=0.8, tau_b=0.4)
        grid = np.linspace(1.0, 2.0, 8)
        for wb in grid:
            values = [noise_from_attack(ChannelParams(**taus, omega_a=wa, omega_b=wb)).excess_q
                      for wa in grid]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_conditional_form_bit_for_bit(self, rng):
        # same quantity written the way the conditional matrices use it:
        # (lost_b*(wb-1) + lost_a*(wa-1) - 2 g sqrt(lost_b*lost_a)) / 2
        for _ in range(1000):
            ta, tb = rng.uniform(0, 1, size=2)
            wa, wb = 1.0 + rng.exponential(0.3, size=2)
            scale = rng.uniform(0, 1)
            gq, gp = optimal_two_mode_attack(wa, wb)
            gq, gp = scale * gq, scale * gp
            ch = ChannelParams(ta, tb, wa, wb, gq, gp)
            noise = noise_from_attack(ch)
            lost_a, lost_b = 1.0 - ta, 1.0 - tb
            base = lost_b * (wb - 1.0) + lost_a * (wa - 1.0)
            cross = math.sqrt(lost_b * lost_a)
            assert noise.excess_q == 0.5 * (base - 2.0 * gq * cross)
            assert noise.excess_p == 0.5 * (base + 2.0 * gp * cross)


class TestNoiseVars:
    def test_totals(self):
        noise = NoiseVars(0.02, -0.01)
        assert noise.total_q == 1.02
        assert noise.total_p == 0.99

    def test_nonpositive_total_rejected(self):
        with pytest.raises(ConfigurationError, match="noisier"):
            NoiseVars(-1.0, 0.0)

    @pytest.mark.parametrize("excess, name", [
        ((math.nan, 0.0), "excess_q"),
        ((0.0, math.inf), "excess_p"),
        ((0.0, -math.inf), "excess_p"),
    ])
    def test_non_finite_rejected_by_name(self, excess, name):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            NoiseVars(*excess)


class TestChannelParams:
    @pytest.mark.parametrize("kwargs", [
        dict(tau_a=-0.1, tau_b=0.5),
        dict(tau_a=0.5, tau_b=1.1),
        dict(tau_a=0.5, tau_b=0.5, omega_a=0.99),
    ])
    def test_range_validation(self, kwargs):
        with pytest.raises(DomainError):
            ChannelParams(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("corr_q", math.nan), ("corr_p", math.inf), ("corr_p", math.nan),
        ("corr_q", -math.inf),
    ])
    def test_non_finite_correlation_rejected_by_name(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            ChannelParams(0.9, 0.5, 1.01, 1.01, **{name: value})

    def test_constructors(self):
        ch = ChannelParams.collective(0.9, 0.8, 1.05, 1.02)
        assert ch.corr_q == 0.0
        ch = ChannelParams.two_mode_optimal(0.9, 0.8, 1.05, 1.02)
        assert ch.corr_p == -ch.corr_q < 0.0


class TestDbConversion:
    def test_zero_db(self):
        assert db_to_transmissivity(0.0) == 1.0

    def test_ten_db(self):
        assert db_to_transmissivity(10.0) == pytest.approx(0.1)

    def test_three_db_is_half(self):
        assert db_to_transmissivity(3.0103) == pytest.approx(0.5, abs=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            db_to_transmissivity(-1.0)
