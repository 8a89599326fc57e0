import math

import numpy as np
import pytest

from cvmdi import (
    BlockMoments,
    ChannelParams,
    ConfigurationError,
    CVMDIError,
    DomainError,
    estimate_channel,
    estimate_covariances,
    NoiseVars,
    noise_from_attack,
    NumericalDegeneracyError,
    run_trials,
    sample_dataset,
    sample_moments,
    SimulationSpec,
    transmissivities_per_quadrature,
)
from cvmdi import simulator
from cvmdi.estimation import _residual_power

PURE_LOSS = ChannelParams.pure_loss(0.98, 0.5)
ATTACKS = {
    "pure-loss": PURE_LOSS,
    "collective": ChannelParams.collective(0.98, 0.5, 1.05, 1.05),
    "two-mode-optimal": ChannelParams.two_mode_optimal(0.98, 0.5, 1.01, 1.01),
}
# The six distinct entries of a symmetric 3x3 moment matrix.
UPPER = np.triu_indices(3)


def entry_statistics(blocks):
    """Per distinct moment entry (shape 2 x 6): the sample mean and the
    sample variance, each with the variance of its own estimate."""
    x = np.array([b.moments[:, UPPER[0], UPPER[1]] for b in blocks])
    n = len(x)
    mean = x.mean(axis=0)
    dev = x - mean
    var = (dev ** 2).sum(axis=0) / (n - 1)
    fourth = (dev ** 4).mean(axis=0)
    return (mean, var / n), (var, (fourth - var ** 2) / n)


def scalar_values(block, v_m, channel, noise):
    """simulator._TRACKED values of one block from estimation's scalar
    estimators.  chi^2 reads the residual power at the true transmissivities
    from _residual_power, which estimate_excess_noise returns less 1; adding
    the 1 back would round once for powers below 1/2."""
    report = estimate_channel(block, v_m)
    power_q, power_p = _residual_power(block, channel.tau_a, channel.tau_b)
    return (report.tau_a, report.tau_b, *transmissivities_per_quadrature(block, v_m),
            report.excess_q, report.excess_p, *estimate_covariances(block),
            block.m * power_q / noise.total_q, block.m * power_p / noise.total_p)


def scalar_campaign(spec):
    """Per-trial scalar values of a campaign, shape (trials, 14)."""
    noise = noise_from_attack(spec.channel)
    return np.array([scalar_values(sample_moments(spec, t), spec.v_m, spec.channel, noise)
                     for t in range(spec.trials)])


def two_sample_z(first, second):
    """z-scores of the differences of two estimates, leaving out the entries
    that both know exactly, which must agree."""
    (a, var_a), (b, var_b) = first, second
    spread = np.sqrt(var_a + var_b)
    exact = spread == 0.0
    assert np.array_equal(a[exact], b[exact])
    return np.abs(a - b)[~exact] / spread[~exact]


class TestSampleDataset:
    def test_deterministic_per_trial(self):
        spec = SimulationSpec(PURE_LOSS, 10.0, 100, 2, seed=11)
        first = sample_dataset(spec, 3)
        again = sample_dataset(spec, 3)
        for name in ("a_q", "a_p", "b_q", "b_p", "r_q", "r_p"):
            np.testing.assert_array_equal(getattr(first, name), getattr(again, name))

    def test_trials_differ(self):
        spec = SimulationSpec(PURE_LOSS, 10.0, 100, 2, seed=11)
        assert not np.array_equal(sample_dataset(spec, 0).a_q,
                                  sample_dataset(spec, 1).a_q)

    def test_seeds_differ(self):
        a = sample_dataset(SimulationSpec(PURE_LOSS, 10.0, 100, 1, seed=1), 0)
        b = sample_dataset(SimulationSpec(PURE_LOSS, 10.0, 100, 1, seed=2), 0)
        assert not np.array_equal(a.a_q, b.a_q)

    def test_shot_noise_only(self):
        # no modulation over lossless links: relay variance is the shot noise
        spec = SimulationSpec(ChannelParams.pure_loss(1.0, 1.0), 0.0,
                              10**5, 1, seed=5)
        d = sample_dataset(spec, 0)
        assert float(np.var(d.r_q)) == pytest.approx(1.0, abs=0.02)
        assert np.all(d.a_q == 0.0)

    def test_relay_variance_bookkeeping(self):
        # Var(r_q) = (tau_a + tau_b) v_m / 2 + 1 = 8.4 for this scenario
        spec = SimulationSpec(PURE_LOSS, 10.0, 10**6, 1, seed=5)
        d = sample_dataset(spec, 0)
        sigma = 8.4 * math.sqrt(2.0 / 10**6)  # 1 sigma of a sample variance
        assert float(np.var(d.r_q)) == pytest.approx(8.4, abs=3 * sigma)

    def test_covariance_sign_audit(self):
        # Alice couples negatively in q and positively in p; Bob positively
        spec = SimulationSpec(PURE_LOSS, 10.0, 10**6, 1, seed=5)
        d = sample_dataset(spec, 0)
        m = spec.m
        c_a = math.sqrt(0.98 / 2.0) * 10.0
        band = 3.0 * math.sqrt(1.45 * 100.0 / m)
        assert float(d.a_q @ d.r_q) / m == pytest.approx(-c_a, abs=band)
        assert float(d.a_p @ d.r_p) / m == pytest.approx(c_a, abs=band)
        assert float(d.b_q @ d.r_q) / m == pytest.approx(5.0, abs=band)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SimulationSpec(PURE_LOSS, -1.0, 100, 1, seed=0)
        with pytest.raises(DomainError):
            SimulationSpec(PURE_LOSS, 1.0, 1, 1, seed=0)
        with pytest.raises(DomainError):
            SimulationSpec(PURE_LOSS, 1.0, 100, 0, seed=0)


class TestSampleMoments:
    BLOCKS = 4000
    Z_BOUND = 5.0

    @pytest.mark.parametrize("m", [2, 7])
    @pytest.mark.parametrize("v_m", [0.0, 10.0])
    @pytest.mark.parametrize("attack", sorted(ATTACKS))
    def test_law_matches_the_records(self, attack, v_m, m):
        # separate seeds keep the two samples independent
        records = [sample_dataset(SimulationSpec(ATTACKS[attack], v_m, m, 1, seed=1), t)
                   for t in range(self.BLOCKS)]
        drawn = [sample_moments(SimulationSpec(ATTACKS[attack], v_m, m, 1, seed=2), t)
                 for t in range(self.BLOCKS)]
        for want, got in zip(entry_statistics(records), entry_statistics(drawn)):
            assert np.max(two_sample_z(want, got), initial=0.0) < self.Z_BOUND

    def test_deterministic_per_trial(self):
        spec = SimulationSpec(PURE_LOSS, 10.0, 10**9, 1, seed=11)
        first = sample_moments(spec, 3)
        assert isinstance(first, BlockMoments) and first.m == 10**9
        np.testing.assert_array_equal(first.moments, sample_moments(spec, 3).moments)
        assert not np.array_equal(first.moments, sample_moments(spec, 4).moments)

    def test_run_trials_draws_no_record(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_trials drew records")

        monkeypatch.setattr(simulator, "sample_dataset", refuse)
        monkeypatch.setattr(simulator, "QuadratureDataset", refuse)
        stats = run_trials(SimulationSpec(PURE_LOSS, 10.0, 10**9, 3, seed=1))
        assert stats.means["chi2_q"] == pytest.approx(10**9, rel=1e-3)


class TestRunTrials:
    def test_statistics_match_formulas_loosely(self):
        # small campaign; the acceptance suite runs the full-size version
        spec = SimulationSpec(PURE_LOSS, 10.0, 5000, 300, seed=9)
        stats = run_trials(spec)
        for name in ("tau_a_q", "tau_a_p", "excess_q", "excess_p"):
            emp = stats.variances[name]
            ana = stats.expected[f"var_{name}"]
            assert emp == pytest.approx(ana, rel=0.25)

    def test_mean_estimates_unbiased_enough(self):
        spec = SimulationSpec(PURE_LOSS, 10.0, 5000, 300, seed=9)
        stats = run_trials(spec)
        for name in ("tau_a", "tau_b"):
            se = math.sqrt(stats.variances[name] / spec.trials)
            bias_allowance = 4.0 * stats.expected[f"var_{name}"] * spec.m / spec.m
            assert abs(stats.means[name] - stats.expected[name]) < 5 * se + 1e-3

    def test_chi_square_statistic(self):
        spec = SimulationSpec(PURE_LOSS, 10.0, 2000, 500, seed=9)
        stats = run_trials(spec)
        assert stats.means["chi2_q"] == pytest.approx(2000, rel=0.02)
        assert stats.variances["chi2_q"] == pytest.approx(4000, rel=0.30)

    def test_optimal_attack_noise_estimates_coincide(self):
        channel = ChannelParams.two_mode_optimal(0.98, 0.5, 1.01, 1.01)
        spec = SimulationSpec(channel, 10.0, 5000, 400, seed=13)
        stats = run_trials(spec)
        assert stats.noise.excess_q == stats.noise.excess_p
        se = math.sqrt((stats.variances["excess_q"] + stats.variances["excess_p"])
                       / spec.trials)
        assert abs(stats.means["excess_q"] - stats.means["excess_p"]) < 4 * se

    def test_comparison_records_structure(self):
        spec = SimulationSpec(PURE_LOSS, 10.0, 100, 5, seed=1)
        stats = run_trials(spec)
        names = {c["name"] for c in stats.comparisons}
        assert "var(tau_a_q)" in names
        assert "mean(excess_p)" in names
        kinds = {c["kind"] for c in stats.comparisons}
        assert kinds == {"relative", "z"}

    @pytest.mark.parametrize("m", [10**14, 10**16])
    def test_variances_do_not_cancel_at_large_blocks(self, m):
        # At large m the per-trial spread is tiny next to the mean, where
        # sum(x^2) - n mean^2 loses every significant digit.
        spec = SimulationSpec(PURE_LOSS, 10.0, m, trials=500, seed=7)
        values = scalar_campaign(spec)
        variances = run_trials(spec).variances
        for name, column in zip(simulator._TRACKED, values.T):
            assert variances[name] == pytest.approx(np.var(column, ddof=1), rel=1e-8)

    def test_single_trial_marks_insufficient_data(self):
        spec = SimulationSpec(PURE_LOSS, 10.0, 100, 1, seed=1)
        stats = run_trials(spec)
        assert stats.insufficient_data
        assert stats.variances["tau_a"] is None
        payload = stats.to_dict()
        assert payload["insufficient_data"] is True

    def test_to_dict_is_json_ready(self):
        import json
        spec = SimulationSpec(PURE_LOSS, 10.0, 100, 3, seed=1)
        text = json.dumps(run_trials(spec).to_dict(), sort_keys=True)
        assert "chi2_q" in text

    def test_deterministic_given_seed(self):
        spec = SimulationSpec(PURE_LOSS, 10.0, 500, 20, seed=21)
        a = run_trials(spec)
        b = run_trials(spec)
        assert a.means == b.means
        assert a.variances == b.variances


class TestBatchedValues:
    """run_trials' array expressions against the scalar estimators."""

    @pytest.mark.parametrize("m", [2, 7, 10**5, 10**16])
    @pytest.mark.parametrize("attack", sorted(ATTACKS))
    def test_values_equal_the_scalar_estimators(self, attack, m):
        channel = ATTACKS[attack]
        spec = SimulationSpec(channel, 10.0, m, trials=200, seed=5)
        noise = noise_from_attack(channel)
        moments = simulator._draw_moments(spec, simulator._record_map(spec, noise),
                                          0, spec.trials)
        for t in range(spec.trials):
            np.testing.assert_array_equal(moments[t], sample_moments(spec, t).moments)
        np.testing.assert_array_equal(
            simulator._tracked_values(moments, m, spec.v_m, channel, noise).T,
            scalar_campaign(spec))

    def test_chunks_merge_to_the_campaign_statistics(self, monkeypatch):
        monkeypatch.setattr(simulator, "_CHUNK", 7)
        spec = SimulationSpec(ATTACKS["collective"], 10.0, 1000, trials=50, seed=3)
        values = scalar_campaign(spec)
        stats = run_trials(spec)
        for name, column in zip(simulator._TRACKED, values.T):
            np.testing.assert_allclose(stats.means[name], np.mean(column),
                                       rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(stats.variances[name], np.var(column, ddof=1),
                                       rtol=1e-12, atol=0.0)

    @staticmethod
    def outcome(call):
        try:
            return np.asarray(call(), dtype=float)
        except CVMDIError as exc:
            return type(exc)

    @pytest.mark.parametrize("entries, m, v_m, error", [
        pytest.param([(np.s_[0, 2, 2], math.nan)], 100, 10.0, DomainError, id="nan-relay"),
        pytest.param([(np.s_[1, 2, 2], math.inf)], 100, 10.0, DomainError, id="inf-relay"),
        pytest.param([(np.s_[0, 0, 2], math.nan), (np.s_[0, 2, 0], math.nan)], 100, 10.0,
                     DomainError, id="nan-covariance"),
        pytest.param([(np.s_[:, 0, 2], 1e300), (np.s_[:, 2, 0], 1e300)], 100, 10.0,
                     DomainError, id="transmissivity-overflow"),
        pytest.param([(np.s_[:, 2, 2], 1e300)], 100, 10.0, NumericalDegeneracyError,
                     id="excess-variance-overflow"),
        pytest.param([(np.s_[:, 2, 2], -5.0)], 100, 10.0, None, id="plug-in-floor"),
        pytest.param([(np.s_[...], 0.0)], 100, 10.0, None, id="signal-free"),
        pytest.param([], 100, 0.0, ConfigurationError, id="zero-v_m"),
        pytest.param([], 0, 10.0, DomainError, id="zero-m"),
    ])
    def test_bad_blocks_raise_as_the_scalar_path(self, entries, m, v_m, error):
        spec = SimulationSpec(ATTACKS["collective"], 10.0, 100, trials=3, seed=1)
        noise = noise_from_attack(spec.channel)
        stack = np.array([sample_moments(spec, t).moments for t in range(3)])
        for index, value in entries:
            stack[1][index] = value
        scalar = self.outcome(lambda: [
            scalar_values(BlockMoments(g, m), v_m, spec.channel, noise) for g in stack])
        batched = self.outcome(lambda: simulator._tracked_values(
            stack, m, v_m, spec.channel, noise).T)
        if error is None:
            np.testing.assert_array_equal(batched, scalar)
        else:
            assert scalar is error and batched is error
