import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvmdi import (
    ChannelParams,
    ConfigurationError,
    CVMDIError,
    db_to_transmissivity,
    DomainError,
    default_v_m_grid,
    FiniteSizeParams,
    finite_size,
    optimize_asymptotic,
    optimize_key_rate,
    optimize_lockstep,
    OptimizationSpec,
    projected_key_rate,
    ProtocolParams,
)
from cvmdi import optimizer
from cvmdi.keyrate import key_rate_batch
from cvmdi.optimizer import _better, _incumbent, _linear_window, _log_window

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

    def test_is_the_search_of_a_spec_without_block_size(self):
        # n_bar=None replaces a valid r_grid with the key-fraction axis (1.0,)
        result = optimize_key_rate(OptimizationSpec(CHANNEL, 0.98, None, r_grid=(0.5,)))
        v_m, rate, trace = optimize_asymptotic(CHANNEL, 0.98)
        assert [x.hex() for x in (result.v_m, result.ratio, result.rate)] == [
            x.hex() for x in (v_m, 1.0, rate)]
        assert result.trace == [(v, 1.0, k) for v, k in trace]
        assert result.evaluations == len(trace) == 3 * len(default_v_m_grid())

    def test_spec_without_block_size_rejects_protocol_mode(self):
        with pytest.raises(ConfigurationError, match="analysis mode only"):
            OptimizationSpec(CHANNEL, 0.98, None, mode="protocol")


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


# Lockstep searches against the same searches run one at a time.

ATTACKS = ("pure-loss", "collective", "two-mode-optimal")


def make_channel(attack, tau_a, tau_b, omega_a, omega_b):
    if attack == "pure-loss":
        return ChannelParams.pure_loss(tau_a, tau_b)
    if attack == "collective":
        return ChannelParams.collective(tau_a, tau_b, omega_a, omega_b)
    return ChannelParams.two_mode_optimal(tau_a, tau_b, omega_a, omega_b)


@st.composite
def lockstep_rows(draw):
    """A sweep row's channel, efficiency and z.  Besides any of the three
    attacks, a near-lossless pure-loss pair, where a conditional state can
    fall below the physicality band (exit 3), and a subnormal link, whose
    spread is 0/0 (exit 2)."""
    kind = draw(st.sampled_from(("attack", "attack", "near-lossless", "subnormal")))
    if kind == "near-lossless":
        near = st.floats(0.999, 1.0)
        channel = ChannelParams.pure_loss(
            *draw(st.just((0.999257, 1.0)) | st.tuples(near, near)))
    else:
        tau = st.floats(0.0, 1.0) if kind == "attack" else st.just(1e-320)
        channel = make_channel(draw(st.sampled_from(ATTACKS)), draw(tau),
                               draw(st.floats(0.0, 1.0)), draw(st.floats(1.0, 1.1)),
                               draw(st.floats(1.0, 1.1)))
    return channel, draw(st.floats(0.5, 1.0)), draw(st.floats(0.0, 10.0))


@st.composite
def lockstep_groups(draw):
    """The searches of a sweep: per row an asymptotic search, then one
    finite-size search per block size, over shared grids and rounds.  Rows
    differ in efficiency and z as well, which a sweep's rows do not, so
    that every per-point input of the kernel call varies."""
    v_m_grid = draw(st.one_of(
        st.just(default_v_m_grid()),
        st.lists(st.floats(-2.0, 5.0).map(lambda e: 10.0 ** e), min_size=1, max_size=6)))
    r_grid = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                           min_size=1, max_size=4))
    # 4 ** 512 overflows a float, a configuration error
    rounds = draw(st.sampled_from((0, 1, 2, 3) * 3 + (512,)))
    n_bars = draw(st.lists(st.sampled_from((10**3, 10**5, 10**6, 10**9, 10**20 + 7)),
                           min_size=1, max_size=4, unique=True))
    searches = []
    for channel, xi, z in draw(st.lists(lockstep_rows(), min_size=1, max_size=3)):
        searches.append(OptimizationSpec(channel, xi, None, tuple(v_m_grid),
                                         refinement_rounds=rounds))
        searches += [OptimizationSpec(channel, xi, n_bar, tuple(v_m_grid), tuple(r_grid),
                                      z=z, refinement_rounds=rounds)
                     for n_bar in n_bars]
    return searches


def search_bits(result):
    """A search's result with every float as its bit pattern."""
    return ([x.hex() for x in (result.v_m, result.ratio, result.rate)],
            (result.no_positive_rate, result.evaluations),
            [tuple(x.hex() for x in row) for row in result.trace])


def outcome(run):
    try:
        return [search_bits(result) for result in run()]
    except CVMDIError as exc:
        return type(exc), str(exc)


class TestLockstep:
    @settings(max_examples=150, deadline=None)
    @given(lockstep_groups())
    def test_lockstep_equals_searches_run_one_at_a_time(self, searches):
        assert outcome(lambda: optimize_lockstep(searches)) == outcome(
            lambda: [optimize_key_rate(search) for search in searches])

    @settings(max_examples=60, deadline=None)
    @given(searches=lockstep_groups(), data=st.data())
    def test_a_raising_producer_runs_the_specs_before_it_first(self, searches, data):
        count = data.draw(st.integers(0, len(searches)))

        def produced():
            yield from searches[:count]
            raise DomainError("no further spec")

        def one_at_a_time():
            for search in searches[:count]:
                optimize_key_rate(search)
            raise DomainError("no further spec")

        assert outcome(lambda: optimize_lockstep(produced())) == outcome(one_at_a_time)

    def test_a_protocol_spec_is_rejected_before_anything_runs(self, monkeypatch):
        runs = []
        monkeypatch.setattr(optimizer, "_grid_refine", lambda *args: runs.append(args))
        near_lossless = ChannelParams.pure_loss(0.999257, 1.0)

        def produced():
            # the first search alone would exit 3, and the producer fails last
            yield OptimizationSpec(near_lossless, 0.932263, None)
            yield small_spec(mode="protocol")
            raise DomainError("no further spec")

        with pytest.raises(ConfigurationError, match="lockstep searches run in analysis"):
            optimize_lockstep(produced())
        assert runs == []

    def test_a_round_of_all_searches_is_one_kernel_call(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return key_rate_batch(*args)

        monkeypatch.setattr(finite_size, "key_rate_batch", counted)
        searches = [small_spec(n_bar=None, v_m_grid=default_v_m_grid()), small_spec(),
                    small_spec(n_bar=10**9)]
        optimize_lockstep(searches)
        assert calls == [25 + 2 * 45] * 3

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), axes=st.integers(1, 2))
    def test_incumbent_is_the_scalar_scan_of_the_round(self, data, axes):
        # few distinct values, so that ties, -0.0 against 0.0 and NaN occur
        rates = st.sampled_from((math.nan, -math.inf, -1.0, -0.0, 0.0, 2.5, math.inf))
        coordinates = st.sampled_from((1.0, 2.0, 3.0))
        point = st.tuples(*[coordinates] * axes)
        rows = data.draw(st.lists(st.tuples(rates, point), min_size=1, max_size=12))
        best = data.draw(st.none() | st.tuples(rates, point).map(
            lambda row: (row[0], *row[1])))
        expected = best
        for rate, coords in rows:
            if expected is None or (rate >= expected[0]
                                    and _better((rate, *coords), expected)):
                expected = (rate, *coords)
        got = _incumbent(best, np.array([coords for _, coords in rows]),
                         np.array([rate for rate, _ in rows]))
        assert [x.hex() for x in got] == [x.hex() for x in expected]
