import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvmdi import (
    asymptotic_key_rate,
    ChannelParams,
    conditional_cms,
    CVMDIError,
    db_to_transmissivity,
    DomainError,
    holevo_bound,
    key_rate_breakdown,
    mutual_information,
    NoiseVars,
    noise_from_attack,
    PhysicalityError,
    ProtocolParams,
    symplectic_eigenvalues,
    symplectic_form,
)

NO_NOISE = NoiseVars(0.0, 0.0)


class TestProtocolParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            ProtocolParams(-1.0)
        with pytest.raises(DomainError):
            ProtocolParams(10.0, xi=0.0)
        with pytest.raises(DomainError):
            ProtocolParams(10.0, xi=1.2)


class TestConditionalCms:
    def test_no_modulation_gives_identities(self):
        state = conditional_cms(ProtocolParams(0.0), 0.9, 0.4, NoiseVars(0.01, 0.02))
        np.testing.assert_allclose(state.cm_joint, np.eye(4))
        np.testing.assert_allclose(state.cm_bob, np.eye(2))
        assert state.bob_eigenvalue == pytest.approx(1.0)

    def test_lossless_joint_state_is_pure(self):
        state = conditional_cms(ProtocolParams(4.0), 1.0, 1.0, NO_NOISE)
        nus = symplectic_eigenvalues(state.cm_joint)
        assert nus == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_denominators(self):
        state = conditional_cms(ProtocolParams(10.0), 0.98, 0.5, NoiseVars(0.01, 0.03))
        assert state.denom_q == pytest.approx((0.98 + 0.5) * 10 + 2 + 0.02)
        assert state.denom_p == pytest.approx((0.98 + 0.5) * 10 + 2 + 0.06)

    def test_bob_eigenvalue_cross_check(self):
        # sqrt(det) route vs moduli of the eigenvalues of i*Omega*V
        state = conditional_cms(ProtocolParams(10.0), 0.98, 0.5, NO_NOISE)
        omega = symplectic_form(1)
        via_eig = np.abs(np.linalg.eigvals(1j * omega @ state.cm_bob))[0]
        assert state.bob_eigenvalue == pytest.approx(via_eig, abs=1e-10)

    def test_transmissivity_range_checked(self):
        with pytest.raises(DomainError):
            conditional_cms(ProtocolParams(1.0), 1.5, 0.5, NO_NOISE)


class TestMutualInformation:
    def test_zero_without_modulation(self):
        state = conditional_cms(ProtocolParams(0.0), 0.9, 0.9, NO_NOISE)
        assert mutual_information(state) == pytest.approx(0.0)

    def test_lossless_closed_form(self):
        # both quadratures contribute log2((x+1)/2) with x = (mu^2+1)/(2 mu)
        v_m = 4.0
        mu = v_m + 1.0
        state = conditional_cms(ProtocolParams(v_m), 1.0, 1.0, NO_NOISE)
        expected = math.log2(((mu * mu + 1.0) / (2.0 * mu) + 1.0) / 2.0)
        assert mutual_information(state) == pytest.approx(expected)

    def test_increasing_in_modulation(self):
        values = [mutual_information(conditional_cms(ProtocolParams(v), 1.0, 1.0, NO_NOISE))
                  for v in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_decreasing_in_bob_attenuation(self):
        values = [mutual_information(conditional_cms(ProtocolParams(40.0), 0.98, tb, NO_NOISE))
                  for tb in (1.0, 0.8, 0.5, 0.2)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestHolevoBound:
    def test_lossless_is_zero(self):
        for v_m in (1.0, 4.0, 40.0):
            state = conditional_cms(ProtocolParams(v_m), 1.0, 1.0, NO_NOISE)
            assert holevo_bound(state) == pytest.approx(0.0, abs=1e-8)

    def test_zero_without_modulation(self):
        state = conditional_cms(ProtocolParams(0.0), 0.5, 0.5, NoiseVars(0.01, 0.01))
        assert holevo_bound(state) == pytest.approx(0.0)

    def test_nonnegative_on_grid(self):
        for tau_b in np.linspace(0.05, 1.0, 6):
            for omega in (1.0, 1.01, 1.05):
                ch = ChannelParams.two_mode_optimal(0.98, tau_b, omega, omega)
                state = conditional_cms(ProtocolParams(20.0), ch.tau_a, ch.tau_b,
                                        noise_from_attack(ch))
                assert holevo_bound(state) >= -1e-8

    def test_against_symbolic_reimplementation(self):
        # independent route: exact-rational conditional matrices, symbolic
        # eigenvalues of i*Omega*V, 50-digit entropy evaluation
        sympy = pytest.importorskip("sympy")
        sp = sympy
        tau_a, tau_b = sp.Rational(49, 50), sp.Rational(1, 2)
        omega, v_m = sp.Rational(101, 100), sp.Integer(40)
        g = sp.sqrt((omega - 1) * (omega + 1))
        lost_a, lost_b = 1 - tau_a, 1 - tau_b
        base = lost_b * (omega - 1) + lost_a * (omega - 1)
        cross = sp.sqrt(lost_b * lost_a)
        veq = (base - 2 * g * cross) / 2
        vep = (base - 2 * g * cross) / 2
        mu = v_m + 1
        dq = (tau_a + tau_b) * v_m + 2 + 2 * veq
        dp = (tau_a + tau_b) * v_m + 2 + 2 * vep
        w = v_m * (v_m + 2)
        rt = sp.sqrt(tau_a * tau_b)
        joint = sp.Matrix([
            [mu - w * tau_a / dq, 0, w * rt / dq, 0],
            [0, mu - w * tau_a / dp, 0, -w * rt / dp],
            [w * rt / dq, 0, mu - w * tau_b / dq, 0],
            [0, -w * rt / dp, 0, mu - w * tau_b / dp],
        ])
        j_block = sp.Matrix([[0, 1], [-1, 0]])
        m = sp.I * sp.diag(j_block, j_block) * joint
        nus = sorted({abs(sp.N(e, 50)) for e in m.eigenvals()}, reverse=True)
        assert len(nus) == 2

        def h(x):
            return ((x + 1) / 2) * sp.log((x + 1) / 2, 2) \
                - ((x - 1) / 2) * sp.log((x - 1) / 2, 2)

        bq = (2 * mu * (1 + veq) - tau_b * v_m) / (2 * (1 + veq) + tau_b * v_m)
        bp = (2 * mu * (1 + vep) - tau_b * v_m) / (2 * (1 + vep) + tau_b * v_m)
        expected = float(sum(sp.N(h(nu), 50) for nu in nus)
                         - sp.N(h(sp.N(sp.sqrt(bq * bp), 50)), 50))

        ch = ChannelParams.two_mode_optimal(0.98, 0.5, 1.01, 1.01)
        state = conditional_cms(ProtocolParams(40.0), 0.98, 0.5,
                                noise_from_attack(ch))
        assert holevo_bound(state) == pytest.approx(expected, abs=1e-10)


class TestAsymptoticKeyRate:
    def test_lossless_equals_scaled_mutual_information(self):
        protocol = ProtocolParams(4.0, xi=1.0)
        breakdown = key_rate_breakdown(protocol, 1.0, 1.0, NO_NOISE)
        assert breakdown.k_infinity == pytest.approx(breakdown.i_ab, abs=1e-8)

    def test_zero_without_modulation(self):
        assert asymptotic_key_rate(ProtocolParams(0.0, 0.9), 0.5, 0.5,
                                   NoiseVars(0.01, 0.01)) == pytest.approx(0.0)

    def test_metropolitan_order_of_magnitude(self):
        # relay near Alice, Bob a few dB away, weak two-mode optimal attack
        ch = ChannelParams.two_mode_optimal(
            0.98, db_to_transmissivity(2.0), 1.01, 1.01)
        noise = noise_from_attack(ch)
        best = max(asymptotic_key_rate(ProtocolParams(v, 0.98), ch.tau_a, ch.tau_b, noise)
                   for v in np.geomspace(1, 1000, 25))
        assert best >= 1e-2

    def test_nonincreasing_in_thermal_noise(self):
        # more thermal noise at fixed correlations can only hurt; note that
        # re-deriving the optimal correlations per omega does NOT preserve
        # this (stronger entanglement can lower the relay's effective noise)
        protocol = ProtocolParams(50.0, 0.98)
        from cvmdi import optimal_two_mode_attack
        gq, gp = optimal_two_mode_attack(1.01, 1.01)
        rates = []
        for omega in np.linspace(1.01, 1.05, 5):
            ch = ChannelParams(0.98, 0.6, omega, omega, gq, gp)
            rates.append(asymptotic_key_rate(protocol, ch.tau_a, ch.tau_b,
                                             noise_from_attack(ch)))
        assert all(b <= a + 1e-10 for a, b in zip(rates, rates[1:]))

    def test_nonincreasing_in_attenuation(self):
        protocol = ProtocolParams(50.0, 0.98)
        from cvmdi import optimal_two_mode_attack
        gq, gp = optimal_two_mode_attack(1.01, 1.01)
        rates = []
        for db in np.linspace(0.0, 10.0, 5):
            ch = ChannelParams(0.98, db_to_transmissivity(db), 1.01, 1.01, gq, gp)
            rates.append(asymptotic_key_rate(protocol, ch.tau_a, ch.tau_b,
                                             noise_from_attack(ch)))
        assert all(b <= a + 1e-10 for a, b in zip(rates, rates[1:]))

    def test_pure_loss_unit_efficiency_monotone_in_modulation(self):
        rates = [asymptotic_key_rate(ProtocolParams(v, 1.0), 0.98, 0.7, NO_NOISE)
                 for v in np.geomspace(1.0, 1e4, 20)]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_pure_loss_interior_maximum_below_unit_efficiency(self):
        grid = np.geomspace(1.0, 1e3, 25)
        rates = [asymptotic_key_rate(ProtocolParams(v, 0.95), 0.98, 0.7, NO_NOISE)
                 for v in grid]
        top = int(np.argmax(rates))
        assert 0 < top < len(grid) - 1
        assert rates[top] > max(rates[0], rates[-1])


def test_role_swap_leaves_spectrum_invariant(rng):
    # swapping the two links together with the correlation roles relabels
    # the modes; denominators and the joint spectrum are unchanged
    for _ in range(25):
        ta, tb = rng.uniform(0.05, 1.0, size=2)
        wa, wb = 1.0 + rng.exponential(0.2, size=2)
        scale = rng.uniform(0.0, 1.0)
        gq, gp = (scale * g for g in
                  __import__("cvmdi").optimal_two_mode_attack(wa, wb))
        protocol = ProtocolParams(rng.uniform(0.5, 60.0))
        noise = noise_from_attack(ChannelParams(ta, tb, wa, wb, gq, gp))
        state = conditional_cms(protocol, ta, tb, noise)
        swapped_noise = noise_from_attack(ChannelParams(tb, ta, wb, wa, gq, gp))
        swapped = conditional_cms(protocol, tb, ta, swapped_noise)
        assert state.denom_q == pytest.approx(swapped.denom_q)
        assert state.denom_p == pytest.approx(swapped.denom_p)
        np.testing.assert_allclose(
            symplectic_eigenvalues(state.cm_joint),
            symplectic_eigenvalues(swapped.cm_joint), rtol=0, atol=1e-10)


def _oracle_breakdown(protocol, tau_a, tau_b, noise):
    state = conditional_cms(protocol, tau_a, tau_b, noise)
    i_ab = mutual_information(state)
    i_h = holevo_bound(state)
    return i_ab, i_h, protocol.xi * i_ab - i_h


class TestClosedFormAgainstOracle:
    """key_rate_breakdown (closed form) against the general 4x4 route."""

    @settings(max_examples=400, deadline=None)
    @given(attack=st.sampled_from(["pure-loss", "collective", "two-mode-optimal"]),
           tau_a=st.floats(0.0, 1.0), tau_b=st.floats(0.0, 1.0),
           omega=st.floats(1.0, 1.1),
           # log10 v_m; above v_m ~ 2e4 the larger joint eigenvalue lies
           # past the 1e4 entropy asymptote cutoff
           log_v_m=st.floats(-3.0, 6.0),
           xi=st.floats(0.5, 1.0))
    def test_matches_oracle(self, attack, tau_a, tau_b, omega, log_v_m, xi):
        if attack == "pure-loss":
            channel = ChannelParams.pure_loss(tau_a, tau_b)
        elif attack == "collective":
            channel = ChannelParams.collective(tau_a, tau_b, omega, omega)
        else:
            channel = ChannelParams.two_mode_optimal(tau_a, tau_b, omega, omega)
        protocol = ProtocolParams(10.0 ** log_v_m, xi)
        args = (protocol, tau_a, tau_b, noise_from_attack(channel))
        try:
            expected = _oracle_breakdown(*args)
        except CVMDIError as exc:
            with pytest.raises(type(exc)):
                key_rate_breakdown(*args)
            return
        got = key_rate_breakdown(*args)
        assert (got.i_ab, got.i_h, got.k_infinity) == pytest.approx(
            expected, rel=0, abs=1e-11)

    def test_asymptote_region_agrees(self):
        # the larger joint eigenvalue lies past the 1e4 entropy cutoff
        ch = ChannelParams.two_mode_optimal(0.9, 0.3, 1.05, 1.05)
        args = (ProtocolParams(1e6, 0.98), 0.9, 0.3, noise_from_attack(ch))
        assert symplectic_eigenvalues(conditional_cms(*args).cm_joint)[0] > 1e4
        got = key_rate_breakdown(*args)
        assert (got.i_ab, got.i_h, got.k_infinity) == pytest.approx(
            _oracle_breakdown(*args), rel=0, abs=1e-11)

    def test_builds_no_matrix(self, monkeypatch):
        from cvmdi import gaussian, keyrate

        def forbidden(*args, **kwargs):
            raise AssertionError("matrix route used on the closed-form path")

        noise = noise_from_attack(ChannelParams.two_mode_optimal(0.98, 0.5, 1.01, 1.01))
        monkeypatch.setattr(keyrate, "symplectic_eigenvalues", forbidden)
        monkeypatch.setattr(gaussian, "ensure_cov_matrix", forbidden)
        assert key_rate_breakdown(ProtocolParams(40.0, 0.98), 0.98, 0.5,
                                  noise).k_infinity > 0.0

    def test_overflowing_modulation_is_unphysical_not_nan(self):
        # v_m * (v_m + 2) overflows to inf and the spectrum turns NaN; the
        # physicality checks must reject NaN rather than let it through
        for route in (key_rate_breakdown, conditional_cms):
            with pytest.raises(PhysicalityError), np.errstate(all="ignore"):
                route(ProtocolParams(1e200), 0.9, 0.5, NO_NOISE)
