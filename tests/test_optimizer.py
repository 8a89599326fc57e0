import math

import numpy as np
import pytest

from cvmdi import (
    ChannelParams,
    ConfigurationError,
    db_to_transmissivity,
    FiniteSizeParams,
    optimize_asymptotic,
    optimize_key_rate,
    OptimizationSpec,
    projected_key_rate,
    ProtocolParams,
)
from cvmdi.optimizer import _linear_window, _log_window

CHANNEL = ChannelParams.two_mode_optimal(0.98, db_to_transmissivity(2.0), 1.01, 1.01)


def small_spec(**overrides):
    kwargs = dict(channel=CHANNEL, xi=0.98, n_bar=10**6,
                  v_m_grid=tuple(np.geomspace(1, 1000, 9)),
                  r_grid=tuple(np.linspace(0.1, 0.9, 5)))
    kwargs.update(overrides)
    return OptimizationSpec(**kwargs)


class TestOptimizeKeyRate:
    def test_result_consistent_with_direct_evaluation(self):
        result = optimize_key_rate(small_spec())
        fs = FiniteSizeParams.from_ratio(10**6, result.ratio)
        direct = projected_key_rate(ProtocolParams(result.v_m, 0.98), CHANNEL, fs)
        assert result.rate == direct

    def test_refinement_beats_coarse_grid(self):
        coarse = optimize_key_rate(small_spec(refinement_rounds=0))
        refined = optimize_key_rate(small_spec(refinement_rounds=2))
        assert refined.rate >= coarse.rate

    def test_trace_contains_best_point(self):
        result = optimize_key_rate(small_spec())
        assert (result.v_m, result.ratio, result.rate) in result.trace
        assert result.rate == max(t[2] for t in result.trace)

    def test_deterministic(self):
        a = optimize_key_rate(small_spec())
        b = optimize_key_rate(small_spec())
        assert (a.v_m, a.ratio, a.rate) == (b.v_m, b.ratio, b.rate)
        assert a.trace == b.trace

    def test_no_positive_rate_at_high_attenuation(self):
        far = ChannelParams.two_mode_optimal(
            db_to_transmissivity(60.0), db_to_transmissivity(60.0), 1.01, 1.01)
        result = optimize_key_rate(small_spec(channel=far))
        assert result.no_positive_rate
        assert result.rate <= 0.0

    def test_positive_rate_flag_off_near_relay(self):
        result = optimize_key_rate(small_spec())
        assert not result.no_positive_rate

    def test_protocol_mode_runs_and_is_deterministic(self):
        spec = small_spec(n_bar=20000, mode="protocol", seed=3,
                          v_m_grid=(5.0, 20.0, 80.0), r_grid=(0.3, 0.6),
                          refinement_rounds=1)
        a = optimize_key_rate(spec)
        b = optimize_key_rate(spec)
        assert a.rate == b.rate
        assert (a.v_m, a.ratio) == (b.v_m, b.ratio)

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            small_spec(v_m_grid=())
        with pytest.raises(ConfigurationError):
            small_spec(r_grid=(0.0, 0.5))
        with pytest.raises(ConfigurationError):
            small_spec(mode="magic")

    def test_tie_breaking_prefers_small_modulation(self):
        # a flat surface (penalty prefactor dominates; rate all equal) is
        # impossible to build exactly, so exercise the comparator directly
        from cvmdi.optimizer import _better
        assert _better((1.0, 2.0, 0.5), (1.0, 3.0, 0.5))
        assert _better((1.0, 2.0, 0.6), (1.0, 2.0, 0.5))
        assert not _better((1.0, 2.0, 0.5), (1.0, 2.0, 0.6))
        assert _better((2.0, 9.0, 0.1), (1.0, 2.0, 0.6))
        # the 1-D asymptotic search compares (rate, v_m) pairs the same way
        assert _better((1.0, 2.0), (1.0, 3.0))
        assert not _better((1.0, 2.0), (1.0, 2.0))


class TestOptimizeAsymptotic:
    def test_monotone_surface_returns_grid_maximum(self):
        # unit reconciliation efficiency over pure loss: rate climbs with
        # modulation, so the search pins the top of the grid
        channel = ChannelParams.pure_loss(0.98, 0.7)
        grid = tuple(np.geomspace(1, 1000, 9))
        v_m, rate, trace = optimize_asymptotic(channel, 1.0, grid)
        assert v_m == pytest.approx(1000.0)
        assert rate == max(t[1] for t in trace)

    def test_interior_maximum_below_unit_efficiency(self):
        channel = ChannelParams.pure_loss(0.98, 0.7)
        grid = tuple(np.geomspace(1, 1000, 13))
        v_m, rate, _ = optimize_asymptotic(channel, 0.95, grid)
        assert grid[0] < v_m < grid[-1]

    def test_refinement_improves_over_coarse(self):
        v0, r0, _ = optimize_asymptotic(CHANNEL, 0.98, refinement_rounds=0)
        v2, r2, _ = optimize_asymptotic(CHANNEL, 0.98, refinement_rounds=2)
        assert r2 >= r0

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            optimize_asymptotic(CHANNEL, 0.98, ())


class TestRefinementWindows:
    @pytest.mark.parametrize("window, center, lo, hi", [
        (_log_window, 30.0, 1.0, 1e3),
        (_linear_window, 0.7, 0.1, 0.9),
        (_log_window, 5.0, 5.0, 5.0),
    ])
    def test_zero_width_window_keeps_the_incumbent(self, window, center, lo, hi):
        # a factor past the hull's width, or a one-point hull, leaves no width
        assert window(center, 9, lo, hi, math.inf) == [center]

    def test_overflowing_shrink_factor_is_a_configuration_error(self):
        # 4.0 ** 512 overflows a float
        optimize_asymptotic(CHANNEL, 0.98, (1.0, 10.0), refinement_rounds=511)
        for search in (lambda: optimize_asymptotic(CHANNEL, 0.98, refinement_rounds=512),
                       lambda: optimize_key_rate(small_spec(refinement_rounds=10**6))):
            with pytest.raises(ConfigurationError, match="refinement_rounds .* too large"):
                search()
