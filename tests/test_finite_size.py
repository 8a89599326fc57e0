import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
from cvmdi.finite_size import _block_splits, _split_table


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


# The block split of a search round: array arithmetic while 3 <= n_bar <=
# 2**53 and the parameters are valid, the Python route elsewhere.  Both are
# held to FiniteSizeParams.from_ratio plus finite_size_penalty, bit for bit.

def python_split(n_bar, ratio, eps_pa, prefactor):
    """(m, key fraction, penalty) by the scalar route, or its error."""
    try:
        fs = FiniteSizeParams.from_ratio(n_bar, ratio, eps_pa=eps_pa)
        return [float(fs.m).hex(), fs.ratio.hex(),
                finite_size_penalty(fs.n, eps_pa, prefactor).hex()]
    except Exception as exc:  # whatever the scalar route raises
        return type(exc), str(exc)


def scalar_splits(n_bar, ratios, eps_pa, prefactor):
    """python_split at each ratio, or the first error among them."""
    splits = [python_split(n_bar, ratio, eps_pa, prefactor) for ratio in ratios]
    return next((split for split in splits if isinstance(split, tuple)), splits)


def batch_split(n_bar, ratios, eps_pa, prefactor):
    """_block_splits of one block at ratios, per ratio, or its error."""
    blocks = [(n_bar, eps_pa, prefactor)]
    try:
        splits = _block_splits(blocks, _split_table(blocks), np.array(ratios),
                               np.zeros(len(ratios), int))
        return [[x.hex() for x in column] for column in splits.T.tolist()]
    except Exception as exc:
        return type(exc), str(exc)


unit_ratios = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
eps_pas = st.floats(1e-300, 1.0, exclude_max=True) | st.sampled_from((1e-10, 0.5))
prefactors = st.floats(0.0, 1e6) | st.sampled_from((0.0, 1.0, 1e300))


@st.composite
def edge_ratios(draw, n_bar):
    """Ratios where ratio * n_bar lands on k + 1/2 (exact when n_bar is a
    power of two), or where m clamps to 2 or to n_bar - 1."""
    k = draw(st.integers(0, n_bar - 1))
    return draw(st.sampled_from((
        (k + 0.5) / n_bar, (k + 1.5) / n_bar if k + 2 < n_bar else 0.5,
        0.5 / n_bar, 1.5 / n_bar, 5e-324, 1e-300,
        (n_bar - 0.5) / n_bar, (n_bar - 1.5) / n_bar, 1.0 - 2.0 ** -53)))


class TestBlockSplits:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_bar=st.integers(3, 2 ** 53) | st.sampled_from((3, 4, 2 ** 53)),
           eps_pa=eps_pas, prefactor=prefactors)
    def test_array_split_is_the_scalar_split(self, data, n_bar, eps_pa, prefactor):
        ratios = data.draw(st.lists(unit_ratios | edge_ratios(n_bar), min_size=1,
                                    max_size=8))
        assert _split_table([(n_bar, eps_pa, prefactor)])[0, 0] == n_bar  # array route
        assert batch_split(n_bar, ratios, eps_pa, prefactor) == scalar_splits(
            n_bar, ratios, eps_pa, prefactor)

    @settings(max_examples=200, deadline=None)
    @given(exponent=st.integers(2, 52), data=st.data())
    def test_half_way_products_round_to_even(self, exponent, data):
        # n_bar = 2**e makes (k + 1/2) / n_bar and its product with n_bar exact
        n_bar = 2 ** exponent
        k = data.draw(st.integers(0, n_bar - 1))
        ratio = (k + 0.5) / n_bar
        assert ratio * n_bar == k + 0.5
        assert batch_split(n_bar, [ratio], 1e-10, 1.0) == scalar_splits(
            n_bar, [ratio], 1e-10, 1.0)

    @pytest.mark.parametrize("n_bar, ratio, m", [
        (10, 0.95, 2), (10, 0.01, 9), (3, 0.999, 2), (3, 1e-300, 2), (4, 1e-300, 3)])
    def test_clamps(self, n_bar, ratio, m):
        (split,) = batch_split(n_bar, [ratio], 1e-10, 1.0)
        assert float.fromhex(split[0]) == m
        assert [split] == scalar_splits(n_bar, [ratio], 1e-10, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(n_bar=st.integers(2 ** 53 + 1, 10 ** 30) | st.integers(-5, 2) | st.integers(3, 10 ** 6)
           | st.sampled_from((2 ** 53 + 1, 2 ** 64 + 3, 10 ** 20 + 7)),
           eps_pa=eps_pas | st.sampled_from((0.0, 1.0, 1.5, -0.1, math.nan, 1e-320)),
           prefactor=prefactors | st.sampled_from((-1.0, math.nan, math.inf, 1e308, 1e307)),
           ratio=unit_ratios)
    def test_python_route_gives_the_scalar_result_or_error(self, n_bar, eps_pa, prefactor,
                                                          ratio):
        assume(not (3 <= n_bar <= 2 ** 53 and 0.0 < eps_pa < 1.0 and 0.0 <= prefactor
                    and prefactor * math.sqrt(math.log2(2.0 / eps_pa)) < math.inf))
        assert math.isnan(_split_table([(n_bar, eps_pa, prefactor)])[0, 0])
        assert batch_split(n_bar, [ratio, 0.5], eps_pa, prefactor) == scalar_splits(
            n_bar, [ratio, 0.5], eps_pa, prefactor)

    def test_block_without_size_is_at_n_bar_inf(self):
        assert batch_split(None, [1.0, 1.0], 1e-10, 1.0) == [
            [math.inf.hex(), (1.0).hex(), (0.0).hex()]] * 2
