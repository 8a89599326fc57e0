"""Analysis-mode batch evaluators against their scalar oracles.

optimizer._Group.rates and keyrate.key_rate_batch evaluate a whole
search round in one array pass.  They must raise if and only if
projected_key_rate or asymptotic_key_rate raises at some point of the
round, and otherwise equal them at each point bit for bit.  The rate
properties at the end run on both routes, and the kernel's I_AB, I_H and
K_inf are checked against a 40-digit evaluation.
"""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cvmdi import (
    asymptotic_key_rate,
    ChannelParams,
    conditional_cms,
    CVMDIError,
    db_to_transmissivity,
    DomainError,
    FiniteSizeParams,
    noise_from_attack,
    optimize_asymptotic,
    optimize_key_rate,
    OptimizationSpec,
    PhysicalityError,
    projected_key_rate,
    ProtocolParams,
    key_rate_breakdown,
    report_from_parameters,
)
from cvmdi import finite_size, keyrate, optimizer
from cvmdi.estimation import _parameter_bounds
from cvmdi.keyrate import key_rate_batch
from cvmdi.optimizer import _Group

ATTACKS = ("pure-loss", "collective", "two-mode-optimal")


def make_channel(attack, tau_a, tau_b, omega_a, omega_b):
    if attack == "pure-loss":
        return ChannelParams.pure_loss(tau_a, tau_b)
    if attack == "collective":
        return ChannelParams.collective(tau_a, tau_b, omega_a, omega_b)
    return ChannelParams.two_mode_optimal(tau_a, tau_b, omega_a, omega_b)


def log_floats(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


unit = st.floats(0.0, 1.0)
omegas = st.floats(1.0, 1.1)
# n_bar from 1e3 to 1e20 with an odd offset, so block sizes past 2**53 and
# past int64 are split as Python ints
n_bars = st.tuples(st.floats(3.0, 20.0), st.integers(0, 999)).map(
    lambda t: int(10.0 ** t[0]) + t[1])
ratios = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def channels(draw):
    """Any of the three attacks over [0, 1]^2, or a near-lossless pure-loss
    pair, where the conditional state sits at the physicality band."""
    if draw(st.booleans()):
        near = st.floats(0.999, 1.0)
        return ChannelParams.pure_loss(draw(near), draw(near))
    return make_channel(draw(st.sampled_from(ATTACKS)), draw(unit), draw(unit),
                        draw(omegas), draw(omegas))


def outcome(fn):
    """Result as bit patterns, or the exception's type and message."""
    try:
        return [float(x).hex() for x in fn()]
    except Exception as exc:  # the oracle's own errors, whatever they are
        return type(exc), str(exc)


def assert_raises_iff_a_point_raises(batch, per_point):
    """batch is the outcome of a batch call and per_point the oracle's
    outcome at each of its points: the batch raises, with an error the
    optimizer replays, if and only if some point raises, and otherwise it
    equals each point bit for bit."""
    if any(isinstance(expected, tuple) for expected in per_point):
        assert isinstance(batch, tuple) and issubclass(batch[0], (ValueError,
                                                                 ArithmeticError))
    else:
        assert batch == [bits for expected in per_point for bits in expected]


def oracle_rate(spec, v_m, ratio):
    protocol = ProtocolParams(v_m, spec.xi)
    fs = FiniteSizeParams.from_ratio(spec.n_bar, ratio, eps_pa=spec.eps_pa)
    return projected_key_rate(protocol, spec.channel, fs, spec.delta_prefactor, spec.z)


def batch_rates(spec, points):
    """The production batch of one search's round, without the replay, with
    its block splits taken on the round's distinct ratios."""
    points = np.array(points)
    ratios = list(dict.fromkeys(points[:, 1].tolist()))
    owner = np.zeros(len(points), int)
    axis = (np.array(ratios), owner[:len(ratios)],
            np.array([ratios.index(ratio) for ratio in points[:, 1].tolist()]))
    return _Group([spec]).rates(points, owner, axis)


@st.composite
def rounds(draw):
    """A spec and one round of its (v_m, ratio) points, in row-major order."""
    spec = OptimizationSpec(channel=draw(channels()), xi=draw(st.floats(0.5, 1.0)),
                            n_bar=draw(n_bars), z=draw(st.floats(0.0, 10.0)))
    v_ms = draw(st.lists(log_floats(-2.0, 5.0), min_size=1, max_size=6))
    rs = draw(st.lists(ratios, min_size=1, max_size=4))
    return spec, list(itertools.product(v_ms, rs))


class TestRoundsMatchTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(rounds())
    def test_round_equals_scalar_objective(self, drawn):
        spec, points = drawn
        expected = outcome(lambda: [oracle_rate(spec, *point) for point in points])
        assert outcome(lambda: _Group([spec]).replayed(
            np.array(points), np.zeros(len(points), int))) == expected

    @settings(max_examples=300, deadline=None)
    @given(rounds())
    def test_raises_iff_a_point_raises_and_matches_the_rest(self, drawn):
        spec, points = drawn
        assert_raises_iff_a_point_raises(
            outcome(lambda: batch_rates(spec, points)),
            [outcome(lambda: [oracle_rate(spec, *point)]) for point in points])

    @settings(max_examples=300, deadline=None)
    @given(channel=channels(), xi=st.floats(0.5, 1.0),
           v_ms=st.lists(log_floats(-2.0, 5.0), min_size=1, max_size=12))
    def test_k_infinity_matches_asymptotic_rate(self, channel, xi, v_ms):
        noise = noise_from_attack(channel)
        assert_raises_iff_a_point_raises(
            outcome(lambda: key_rate_batch(v_ms, xi, channel.tau_a, channel.tau_b,
                                           noise.excess_q, noise.excess_p)[2]),
            [outcome(lambda: [asymptotic_key_rate(ProtocolParams(v_m, xi), channel.tau_a,
                                                  channel.tau_b, noise)])
             for v_m in v_ms])

    @pytest.mark.parametrize("attack", ATTACKS)
    @pytest.mark.parametrize("db", [0.0, 2.0, 10.0, 20.0])
    def test_default_grid_takes_the_batch_path(self, attack, db):
        channel = make_channel(attack, 0.95, db_to_transmissivity(db), 1.02, 1.03)
        spec = OptimizationSpec(channel=channel, xi=0.95, n_bar=10**6)
        points = list(itertools.product(spec.v_m_grid, spec.r_grid))
        # a raising batch would send the round to the point-by-point replay
        assert [rate.hex() for rate in batch_rates(spec, points).tolist()] == [
            oracle_rate(spec, *point).hex() for point in points]

    def test_analysis_search_calls_no_scalar_oracle(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scalar oracle called on the batch path")

        # a raising round replays through the batch as well
        assert not hasattr(optimizer, "projected_key_rate")
        assert not hasattr(optimizer, "asymptotic_key_rate")
        monkeypatch.setattr(finite_size, "projected_key_rate", forbidden)
        monkeypatch.setattr(keyrate, "asymptotic_key_rate", forbidden)
        channel = ChannelParams.two_mode_optimal(0.98, db_to_transmissivity(2.0),
                                                 1.01, 1.01)
        result = optimize_key_rate(OptimizationSpec(channel=channel, xi=0.98,
                                                    n_bar=10**9))
        assert result.evaluations == 675
        assert optimize_asymptotic(channel, 0.98)[1] > 0.0
        with pytest.raises(PhysicalityError, match="eigenvalue 0.999999998884 < 1"):
            optimize_asymptotic(ChannelParams.pure_loss(0.999257, 1.0), 0.932263)

    def test_near_lossless_search_replays_the_oracle_error(self):
        # a rounding error puts the conditional state 1.1e-9 below the band
        channel = ChannelParams.pure_loss(0.999257, 1.0)
        with pytest.raises(PhysicalityError, match="eigenvalue 0.999999998884 < 1"):
            optimize_asymptotic(channel, 0.932263)

    def test_block_sizes_past_int64_split_as_python_ints(self):
        channel = ChannelParams.collective(0.97, 0.6, 1.01, 1.02)
        spec = OptimizationSpec(channel=channel, xi=0.97, n_bar=10**20 + 7)
        points = [(30.0, 0.3), (30.0, 0.7)]
        assert batch_rates(spec, points).tolist() == [oracle_rate(spec, *point)
                                                      for point in points]


# Rate properties, each on the batch evaluator and on the scalar oracle.
# On the positive-rate region K_inf rises with either transmissivity at a
# fixed relay noise; where K_inf <= 0 it need not, so the finite-size bound
# reads rate <= r max(K_inf, 0) and the monotonicity checks start from a
# positive rate.


def rounding_tol(v_m):
    """Bound on K_inf's rounding error.  The conditional blocks' determinants
    cancel entries of size (1 + v_m)**2, and the entropy of an eigenvalue
    just above 1 amplifies that: one-ulp moves of a transmissivity near 1
    change K_inf by up to 1.6e-12 (1 + v_m)**2 (2e5 draws, v_m up to 1e5)."""
    return 1e-11 * (1.0 + v_m) ** 2


@st.composite
def points_on_channel(draw):
    channel = draw(channels())
    return (channel, draw(st.floats(0.5, 1.0)), draw(log_floats(-2.0, 5.0)),
            draw(n_bars), draw(ratios), draw(st.floats(0.0, 10.0)))


class TestFiniteSizeRateBelowAsymptotic:
    @settings(max_examples=150, deadline=None)
    @given(points_on_channel())
    def test_scalar_oracle(self, drawn):
        channel, xi, v_m, n_bar, ratio, z = drawn
        protocol = ProtocolParams(v_m, xi)
        try:
            fs = FiniteSizeParams.from_ratio(n_bar, ratio)
            rate = projected_key_rate(protocol, channel, fs, z=z)
            k_inf = asymptotic_key_rate(protocol, channel.tau_a, channel.tau_b,
                                        noise_from_attack(channel))
        except (CVMDIError, ArithmeticError):
            assume(False)
        assert rate <= fs.ratio * (max(k_inf, 0.0) + rounding_tol(v_m))

    @settings(max_examples=150, deadline=None)
    @given(points_on_channel())
    def test_batch_evaluator(self, drawn):
        channel, xi, v_m, n_bar, ratio, z = drawn
        noise = noise_from_attack(channel)
        try:
            (rate,) = batch_rates(OptimizationSpec(channel, xi, n_bar, z=z),
                                  [(v_m, ratio)])
            (k_inf,) = key_rate_batch([v_m], xi, channel.tau_a, channel.tau_b,
                                      noise.excess_q, noise.excess_p)[2]
        except (CVMDIError, ArithmeticError):
            assume(False)
        key_fraction = FiniteSizeParams.from_ratio(n_bar, ratio).ratio
        assert rate <= key_fraction * (max(k_inf, 0.0) + rounding_tol(v_m))


@st.composite
def monotone_cases(draw):
    """Two transmissivity pairs, the second above the first on one link,
    at one relay noise."""
    # Both links near 1, where the rate is positive for most draws
    near_one = st.floats(-6.0, -1.0).map(lambda e: 1.0 - 10.0 ** e)
    channel = make_channel(draw(st.sampled_from(ATTACKS)), draw(near_one),
                           draw(near_one), draw(omegas), draw(omegas))
    low = (channel.tau_a, channel.tau_b)
    link = draw(st.sampled_from((0, 1)))
    high = list(low)
    high[link] = draw(st.floats(low[link], 1.0))
    return (noise_from_attack(channel), draw(st.floats(0.5, 1.0)),
            draw(log_floats(-2.0, 5.0)), low, tuple(high))


class TestKInfinityMonotoneInTransmissivity:
    @settings(max_examples=150, deadline=None)
    @given(monotone_cases())
    def test_scalar_oracle(self, drawn):
        noise, xi, v_m, low, high = drawn
        protocol = ProtocolParams(v_m, xi)
        try:
            k_low = asymptotic_key_rate(protocol, *low, noise)
            k_high = asymptotic_key_rate(protocol, *high, noise)
        except CVMDIError:
            assume(False)
        assume(k_low > 0.0)
        assert k_high >= k_low - rounding_tol(v_m)

    @settings(max_examples=150, deadline=None)
    @given(monotone_cases())
    def test_batch_evaluator(self, drawn):
        noise, xi, v_m, low, high = drawn
        (tau_a, tau_b) = np.array([low, high]).T
        try:
            k_low, k_high = key_rate_batch(
                [v_m, v_m], xi, tau_a, tau_b, noise.excess_q, noise.excess_p)[2]
        except CVMDIError:
            assume(False)
        assume(k_low > 0.0)
        assert k_high >= k_low - rounding_tol(v_m)


@st.composite
def report_cases(draw):
    # transmissivities down to the smallest subnormal, where both quadrature
    # variances of a link underflow to 0 and their mix is NaN
    tau = st.one_of(st.just(0.0), st.floats(5e-324, 1.0), log_floats(-323.3, -150.0))
    channel = make_channel(draw(st.sampled_from(ATTACKS)), draw(tau), draw(tau),
                           draw(omegas), draw(omegas))
    return (channel.tau_a, channel.tau_b, noise_from_attack(channel),
            draw(log_floats(-2.0, 5.0)), draw(st.integers(1, 10**20)),
            draw(st.one_of(st.just(0.0), st.floats(0.0, 1e6))))


NAN_SPREAD = re.compile(r"tau_([ab]) spread is undefined: at tau_\1 = (\S+) and "
                        r"v_m = (\S+) its two quadrature variances underflow to 0 or "
                        r"overflow to inf")


def is_nan_spread(error, taus, v_m):
    """error, an outcome, is the NaN-spread DomainError naming a link with
    its drawn transmissivity, below 1e-150, and the drawn v_m."""
    kind, message = error
    match = NAN_SPREAD.fullmatch(message)
    tau = match and taus["ab".index(match[1])]
    return (kind is DomainError and match is not None and 0.0 < tau < 1e-150
            and (float(match[2]), float(match[3])) == (tau, v_m))


class TestWorstCaseOrdering:
    """tau_low <= tau and excess_up >= excess for every z >= 0; a report
    with a NaN spread raises, and the batch raises exactly there, with the
    report's error."""

    @settings(max_examples=150, deadline=None)
    @given(report_cases())
    def test_scalar_oracle(self, drawn):
        tau_a, tau_b, noise, v_m, m, z = drawn
        try:
            report = report_from_parameters(tau_a, tau_b, noise, v_m, m, z=z)
        except DomainError as exc:
            assert is_nan_spread((type(exc), str(exc)), (tau_a, tau_b), v_m)
            return
        assert report.tau_a_low <= report.tau_a and report.tau_b_low <= report.tau_b
        assert report.excess_q_up >= report.excess_q
        assert report.excess_p_up >= report.excess_p

    @settings(max_examples=150, deadline=None)
    @given(report_cases())
    def test_batch_evaluator(self, drawn):
        tau_a, tau_b, noise, v_m, m, z = drawn
        bounds = outcome(lambda: np.concatenate(_parameter_bounds(
            tau_a, tau_b, noise, np.array([v_m]), np.array([float(m)]), z))[:, 0])
        report = outcome(lambda: [report_from_parameters(tau_a, tau_b, noise, v_m, m,
                                                         z=z).tau_a_low])
        if isinstance(report, tuple):
            assert bounds == report and is_nan_spread(report, (tau_a, tau_b), v_m)
            return
        tau_low, excess_up = np.array(list(map(float.fromhex, bounds))).reshape(2, 2)
        assert (tau_low <= (tau_a, tau_b)).all()
        assert (excess_up >= (noise.excess_q, noise.excess_p)).all()


def mp_breakdown(state, xi):
    """I_AB, I_H and K_inf at 40 digits from the conditional matrices'
    float entries: the eigenvalues of Vq Vp, h of their square roots and of
    Bob's, then the I_AB logs.  An eigenvalue at or below 1, as the
    clamping band allows, contributes nothing."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        v = mp.matrix(state.cm_joint.tolist())
        vq = mp.matrix([[v[0, 0], v[0, 2]], [v[2, 0], v[2, 2]]])
        vp = mp.matrix([[v[1, 1], v[1, 3]], [v[3, 1], v[3, 3]]])
        prod = vq * vp
        trace = prod[0, 0] + prod[1, 1]
        det = prod[0, 0] * prod[1, 1] - prod[0, 1] * prod[1, 0]
        root = mp.sqrt(max(trace * trace - 4 * det, 0))
        bob_q, bob_p = (mp.mpf(x) for x in np.diag(state.cm_bob).tolist())

        def h(nu):
            if nu <= 1:
                return mp.mpf(0)
            up, down = (nu + 1) / 2, (nu - 1) / 2
            return up * mp.log(up, 2) - down * mp.log(down, 2)

        i_h = (h(mp.sqrt((trace + root) / 2)) + h(mp.sqrt(max((trace - root) / 2, 0)))
               - h(mp.sqrt(bob_q * bob_p)))
        i_ab = (mp.log((v[2, 2] + 1) / (bob_q + 1), 2) / 2
                + mp.log((v[3, 3] + 1) / (bob_p + 1), 2) / 2)
        return [float(x) for x in (i_ab, i_h, xi * i_ab - i_h)]


class TestKernelAgainstMpmath:
    """The closed-form kernel against an independent high-precision
    evaluation of its spectrum, entropies and logs."""

    @settings(max_examples=200, deadline=None)
    @given(channel=channels(), xi=st.floats(0.5, 1.0), v_m=log_floats(-2.0, 5.0))
    def test_matches_forty_digits(self, channel, xi, v_m):
        args = (ProtocolParams(v_m, xi), channel.tau_a, channel.tau_b,
                noise_from_attack(channel))
        try:
            got = key_rate_breakdown(*args)
        except CVMDIError:
            assume(False)
        expected = mp_breakdown(conditional_cms(*args), xi)
        assert [got.i_ab, got.i_h, got.k_infinity] == pytest.approx(
            expected, rel=0, abs=rounding_tol(v_m))
