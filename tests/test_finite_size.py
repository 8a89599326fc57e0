import math

import pytest

from cvmdi import (
    ChannelParams,
    db_to_transmissivity,
    DomainError,
    EstimationReport,
    finite_size_key_rate,
    finite_size_penalty,
    FiniteSizeParams,
    noise_from_attack,
    projected_key_rate,
    ProtocolParams,
    report_from_parameters,
)


class TestFiniteSizeParams:
    def test_bookkeeping(self):
        fs = FiniteSizeParams(n_bar=10**6, m=4 * 10**5)
        assert fs.n == 6 * 10**5
        assert fs.ratio == pytest.approx(0.6)

    def test_from_ratio(self):
        fs = FiniteSizeParams.from_ratio(10**6, 0.25)
        assert fs.n == 25 * 10**4
        assert fs.m == 75 * 10**4

    def test_from_ratio_keeps_m_in_range(self):
        fs = FiniteSizeParams.from_ratio(1000, 0.9999)
        assert fs.m == 2

    @pytest.mark.parametrize("kwargs", [
        dict(n_bar=100, m=0),
        dict(n_bar=100, m=100),
        dict(n_bar=0, m=1),
        dict(n_bar=100, m=10, eps_pa=0.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            FiniteSizeParams(**kwargs)


class TestPenalty:
    def test_reference_value(self):
        # log2(2e10) = 1 + 10 log2(10) = 34.2193...
        assert finite_size_penalty(10**6, 1e-10) == pytest.approx(5.850e-3, abs=5e-7)
        assert finite_size_penalty(10**6, 1e-10) == pytest.approx(
            math.sqrt(math.log2(2e10) / 10**6))

    def test_quadrupling_n_halves_penalty(self):
        n = 12345
        assert finite_size_penalty(4 * n, 1e-10) == pytest.approx(
            finite_size_penalty(n, 1e-10) / 2.0)

    def test_decreasing_in_n(self):
        values = [finite_size_penalty(n, 1e-10) for n in (10, 100, 1000)]
        assert values[0] > values[1] > values[2]

    def test_domain(self):
        with pytest.raises(DomainError):
            finite_size_penalty(0, 1e-10)
        with pytest.raises(DomainError):
            finite_size_penalty(100, 2.0)

    def test_prefactor(self):
        assert finite_size_penalty(100, 1e-10, prefactor=2.0) == pytest.approx(
            2.0 * finite_size_penalty(100, 1e-10))


class TestFiniteSizeKeyRate:
    def setup_method(self):
        self.channel = ChannelParams.two_mode_optimal(
            0.98, db_to_transmissivity(2.0), 1.01, 1.01)
        self.noise = noise_from_attack(self.channel)
        self.protocol = ProtocolParams(60.0, 0.98)

    def test_exact_parameters_reduce_to_scaled_asymptotic(self):
        # zero spreads and a unit penalty prefactor of 0: K = ratio * K_inf
        from cvmdi import asymptotic_key_rate
        report = EstimationReport(
            self.channel.tau_a, self.channel.tau_b, 0.0, 0.0,
            self.noise.excess_q, self.noise.excess_p, 0.0, 0.0)
        fs = FiniteSizeParams(n_bar=10**6, m=2)
        k = finite_size_key_rate(self.protocol, report, fs, delta_prefactor=0.0)
        k_inf = asymptotic_key_rate(self.protocol, self.channel.tau_a,
                                    self.channel.tau_b, self.noise)
        assert k == pytest.approx(fs.ratio * k_inf)
        assert fs.ratio > 0.999997

    def test_worst_case_bounds_cost_rate(self):
        fs = FiniteSizeParams.from_ratio(10**6, 0.5)
        k = projected_key_rate(self.protocol, self.channel, fs)
        from cvmdi import asymptotic_key_rate
        k_inf = asymptotic_key_rate(self.protocol, self.channel.tau_a,
                                    self.channel.tau_b, self.noise)
        assert k < fs.ratio * k_inf

    def test_projected_rate_honours_z(self):
        from cvmdi.estimation import DEFAULT_Z
        fs = FiniteSizeParams.from_ratio(10**6, 0.5)
        zs = (DEFAULT_Z, 1.0, 0.0)
        rates = [projected_key_rate(self.protocol, self.channel, fs, z=z) for z in zs]
        for z, rate in zip(zs, rates):
            report = report_from_parameters(self.channel.tau_a, self.channel.tau_b,
                                            self.noise, self.protocol.v_m, fs.m, z=z)
            assert rate == finite_size_key_rate(self.protocol, report, fs)
        # narrower bounds, higher rate; the block split carries no z of its own
        assert rates[0] < rates[1] < rates[2]
        assert projected_key_rate(self.protocol, self.channel, fs) == rates[0]
        with pytest.raises(TypeError):
            FiniteSizeParams(n_bar=10**6, m=10, z=1.0)

    def test_monotone_in_block_size_at_fixed_ratio(self):
        rates = [projected_key_rate(self.protocol, self.channel,
                                    FiniteSizeParams.from_ratio(n, 0.5))
                 for n in (10**6, 10**7, 10**8, 10**9)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_converges_to_ratio_scaled_asymptotic(self):
        from cvmdi import asymptotic_key_rate
        k_inf = asymptotic_key_rate(self.protocol, self.channel.tau_a,
                                    self.channel.tau_b, self.noise)
        ratio = 0.5
        rates = [projected_key_rate(self.protocol, self.channel,
                                    FiniteSizeParams.from_ratio(n, ratio))
                 for n in (10**6, 10**8, 10**10, 10**12)]
        gaps = [abs(k - ratio * k_inf) for k in rates]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3 * abs(k_inf)

    def test_large_block_close_to_asymptotic(self):
        # half the block spent on estimation still lands within 5% of the
        # asymptotic rate evaluated at the same worst-case inputs
        fs = FiniteSizeParams.from_ratio(10**12, 0.5)
        noise = self.noise
        report = report_from_parameters(self.channel.tau_a, self.channel.tau_b,
                                        noise, self.protocol.v_m, fs.m)
        from cvmdi import asymptotic_key_rate, finite_size_penalty, NoiseVars
        k = finite_size_key_rate(self.protocol, report, fs)
        k_inf_worst = asymptotic_key_rate(
            self.protocol, report.tau_a_low, report.tau_b_low,
            NoiseVars(report.excess_q_up, report.excess_p_up))
        penalty = finite_size_penalty(fs.n, fs.eps_pa)
        assert k == pytest.approx(fs.ratio * (k_inf_worst - penalty), rel=1e-12)
        assert k_inf_worst == pytest.approx(
            asymptotic_key_rate(self.protocol, self.channel.tau_a,
                                self.channel.tau_b, noise), rel=5e-2)
