import dataclasses
import math
import re

import numpy as np
import pytest

from cvmdi import (
    ChannelParams,
    ConfigurationError,
    DatasetError,
    DomainError,
    estimate_channel,
    estimate_covariances,
    estimate_excess_noise,
    estimate_transmissivities,
    EstimationReport,
    noise_from_attack,
    NoiseVars,
    NumericalDegeneracyError,
    QuadratureDataset,
    report_from_parameters,
    sample_dataset,
    SimulationSpec,
    transmissivities_per_quadrature,
)
from cvmdi.estimation import _transmissivity_variances, _variances
from cvmdi.simulator import _tracked_values

PURE_LOSS = NoiseVars(0.0, 0.0)


def make_dataset(rng, m, tau_a, tau_b, v_m, noise=PURE_LOSS):
    """Synthetic records straight off the relay input-output relations."""
    a_q, a_p, b_q, b_p = (math.sqrt(v_m) * rng.standard_normal(m) for _ in range(4))
    n_q = math.sqrt(noise.total_q) * rng.standard_normal(m)
    n_p = math.sqrt(noise.total_p) * rng.standard_normal(m)
    r_q = (math.sqrt(tau_b) * b_q - math.sqrt(tau_a) * a_q) / math.sqrt(2) + n_q
    r_p = (math.sqrt(tau_b) * b_p + math.sqrt(tau_a) * a_p) / math.sqrt(2) + n_p
    return QuadratureDataset(a_q, a_p, b_q, b_p, r_q, r_p)


# Per-record reference: the estimators written as passes over the records,
# which the library replaces with reads of the per-quadrature moments.

def ref_covariances(d):
    m = d.m
    return (float(d.a_q @ d.r_q) / m, float(d.a_p @ d.r_p) / m,
            float(d.b_q @ d.r_q) / m, float(d.b_p @ d.r_p) / m)


def ref_per_quadrature(d, v_m):
    return tuple(2.0 * c * c / (v_m * v_m) for c in ref_covariances(d))


def ref_residuals(d, tau_a, tau_b):
    root_a = math.sqrt(min(max(tau_a, 0.0), 1.0))
    root_b = math.sqrt(min(max(tau_b, 0.0), 1.0))
    res_q = d.r_q - (root_b * d.b_q - root_a * d.a_q) / math.sqrt(2)
    res_p = d.r_p - (root_b * d.b_p + root_a * d.a_p) / math.sqrt(2)
    return res_q, res_p


def ref_excess_noise(d, tau_a, tau_b):
    res_q, res_p = ref_residuals(d, tau_a, tau_b)
    return float(res_q @ res_q) / d.m - 1.0, float(res_p @ res_p) / d.m - 1.0


def ref_transmissivity_variance(tau_a, tau_b, v_m, noise, m):
    """Closed-form (q, p, combined) variances of the first link's estimate."""
    if tau_a == 0.0:
        return 0.0, 0.0, 0.0
    weight = tau_a + 0.5 * tau_b
    base = 8.0 * tau_a * weight / m
    var_q = base * (1.0 + noise.total_q / (weight * v_m))
    var_p = base * (1.0 + noise.total_p / (weight * v_m))
    return var_q, var_p, var_q * var_p / (var_q + var_p)


def ref_excess_noise_variance(noise, m):
    return 2.0 * noise.total_q ** 2 / m, 2.0 * noise.total_p ** 2 / m


def ref_estimate_channel(d, v_m):
    def plugin(excess):
        return NoiseVars(*(max(e, 1e-12 - 1.0) for e in excess))

    def combine(est_q, est_p, variances):
        var_q, var_p, _ = variances
        return (est_q * var_p + est_p * var_q) / (var_q + var_p)

    ta_q, ta_p, tb_q, tb_p = ref_per_quadrature(d, v_m)
    ta0, tb0 = 0.5 * (ta_q + ta_p), 0.5 * (tb_q + tb_p)
    noise = plugin(ref_excess_noise(d, ta0, tb0))
    tau_a = combine(ta_q, ta_p, ref_transmissivity_variance(ta0, tb0, v_m, noise, d.m))
    tau_b = combine(tb_q, tb_p, ref_transmissivity_variance(tb0, ta0, v_m, noise, d.m))
    excess = ref_excess_noise(d, tau_a, tau_b)
    noise = plugin(excess)
    var_a = ref_transmissivity_variance(tau_a, tau_b, v_m, noise, d.m)[2]
    var_b = ref_transmissivity_variance(tau_b, tau_a, v_m, noise, d.m)[2]
    s_q_sq, s_p_sq = ref_excess_noise_variance(noise, d.m)
    return EstimationReport(
        tau_a, tau_b, math.sqrt(var_a), math.sqrt(var_b), *excess,
        math.sqrt(s_q_sq), math.sqrt(s_p_sq))


class TestMomentsAgainstRecords:
    """Estimators read from the moments agree with the per-record passes."""

    ATOL = 1e-10

    @pytest.mark.parametrize("tau_b", [0.3, 1.0])
    @pytest.mark.parametrize("v_m", [2.0, 10.0, 1000.0])
    def test_estimators(self, v_m, tau_b):
        rng = np.random.default_rng([int(v_m), int(10 * tau_b)])
        # unequal noise makes the inverse-variance weights differ from 1/2
        d = make_dataset(rng, 20_000, 0.9, tau_b, v_m, NoiseVars(0.05, 0.01))
        close = dict(rtol=0.0, atol=self.ATOL)
        np.testing.assert_allclose(estimate_covariances(d), ref_covariances(d), **close)
        np.testing.assert_allclose(transmissivities_per_quadrature(d, v_m),
                                   ref_per_quadrature(d, v_m), **close)
        for tau_a_hat, tau_b_hat in ((0.9, tau_b), (-0.2, 1.3), (0.0, 0.0)):
            np.testing.assert_allclose(
                estimate_excess_noise(d, tau_a_hat, tau_b_hat),
                ref_excess_noise(d, tau_a_hat, tau_b_hat), **close)
        got, want = estimate_channel(d, v_m), ref_estimate_channel(d, v_m)
        fields = ("tau_a", "tau_b", "tau_a_std", "tau_b_std", "excess_q",
                  "excess_p", "excess_q_std", "excess_p_std", "tau_a_low",
                  "tau_b_low", "excess_q_up", "excess_p_up")
        np.testing.assert_allclose([getattr(got, f) for f in fields],
                                   [getattr(want, f) for f in fields], **close)

    @pytest.mark.parametrize("tau_b", [0.3, 1.0])
    @pytest.mark.parametrize("v_m", [2.0, 10.0, 1000.0])
    def test_chi_square_means(self, v_m, tau_b):
        channel = ChannelParams.two_mode_optimal(0.9, tau_b, 1.02, 1.01)
        noise = noise_from_attack(channel)
        spec = SimulationSpec(channel, v_m, 2000, 4, seed=17)
        totals = (noise.total_q, noise.total_p)
        got, want = np.zeros(2), np.zeros(2)
        for trial in range(spec.trials):
            d = sample_dataset(spec, trial)
            got += _tracked_values(d.moments[None], d.m, v_m, channel, noise)[-2:, 0]
            residuals = ref_residuals(d, channel.tau_a, channel.tau_b)
            want += [float(res @ res) / total for res, total in zip(residuals, totals)]
        # chi^2 grows with m, so it is compared per record, on the scale of
        # the excess noise
        np.testing.assert_allclose(got / spec.m, want / spec.m,
                                   rtol=0.0, atol=self.ATOL)


class TestQuadratureDataset:
    def test_length_mismatch(self):
        cols = [np.zeros(4)] * 5 + [np.zeros(3)]
        with pytest.raises(DatasetError, match="mismatch"):
            QuadratureDataset(*cols)

    def test_too_short(self):
        with pytest.raises(DatasetError):
            QuadratureDataset(*[np.zeros(1)] * 6)

    def test_csv_round_trip(self, rng, tmp_path):
        d = make_dataset(rng, 50, 0.9, 0.5, 10.0)
        path = tmp_path / "records.csv"
        d.to_csv(path)
        back = QuadratureDataset.from_csv(path)
        for name in ("a_q", "a_p", "b_q", "b_p", "r_q", "r_p"):
            np.testing.assert_array_equal(getattr(d, name), getattr(back, name))

    def test_csv_header(self, rng, tmp_path):
        path = tmp_path / "records.csv"
        make_dataset(rng, 5, 0.9, 0.5, 10.0).to_csv(path)
        assert path.read_text().splitlines()[0] == "a_q,a_p,b_q,b_p,r_q,r_p"

    def test_csv_fixture_parses(self, tmp_path):
        # minimal hand-written fixture, the cross-implementation format
        path = tmp_path / "fixture.csv"
        path.write_text("a_q,a_p,b_q,b_p,r_q,r_p\n1,2,3,4,5,6\n-1,0,1,0,-1,0\n")
        d = QuadratureDataset.from_csv(path)
        assert d.m == 2
        assert d.r_q[0] == 5.0

    def test_non_finite_records_rejected(self, tmp_path):
        for bad in (np.nan, np.inf, -np.inf):
            cols = [np.ones(4) for _ in range(6)]
            cols[4][2] = bad
            with pytest.raises(DatasetError, match="finite"):
                QuadratureDataset(*cols)
        path = tmp_path / "nan.csv"
        path.write_text("a_q,a_p,b_q,b_p,r_q,r_p\n1,2,3,4,5,6\n1,nan,3,4,5,6\n")
        with pytest.raises(DatasetError, match="finite"):
            QuadratureDataset.from_csv(path)

    def test_csv_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(DatasetError):
            QuadratureDataset.from_csv(path)


class TestEstimateCovariances:
    def test_all_zero(self):
        d = QuadratureDataset(*[np.zeros(8)] * 6)
        assert estimate_covariances(d) == (0.0, 0.0, 0.0, 0.0)

    def test_identity_coupling(self, rng):
        a_q = rng.standard_normal(500)
        zeros = np.zeros(500)
        d = QuadratureDataset(a_q, zeros, zeros, zeros, a_q, zeros)
        c_aq = estimate_covariances(d)[0]
        assert c_aq == pytest.approx(float(a_q @ a_q) / 500)

    def test_simulated_magnitude_and_sign(self, rng):
        # expectation sqrt(tau_a/2) * v_m = 7, negative in q per the relay
        # sign convention, positive in p
        d = make_dataset(rng, 10**5, 0.98, 0.5, 10.0)
        c_aq, c_ap, c_bq, c_bp = estimate_covariances(d)
        band = 3.0 * math.sqrt(1.33 * 100.0 / 10**5)  # 3 sigma of the estimator
        assert c_aq == pytest.approx(-7.0, abs=band)
        assert c_ap == pytest.approx(7.0, abs=band)
        assert c_bq == pytest.approx(5.0, abs=band)
        assert c_bp == pytest.approx(5.0, abs=band)


class TestEstimateTransmissivities:
    def test_zero_relay_record(self):
        zeros = np.zeros(16)
        ones = np.ones(16)
        d = QuadratureDataset(ones, ones, ones, ones, zeros, zeros)
        assert estimate_transmissivities(d, 10.0) == (0.0, 0.0)

    def test_zero_modulation_rejected(self, rng):
        d = make_dataset(rng, 16, 0.5, 0.5, 1.0)
        with pytest.raises(ConfigurationError):
            estimate_transmissivities(d, 0.0)

    def test_converges_to_truth(self, rng):
        d = make_dataset(rng, 2 * 10**5, 0.49, 0.81, 12.0)
        tau_a, tau_b = estimate_transmissivities(d, 12.0)
        assert tau_a == pytest.approx(0.49, abs=0.02)
        assert tau_b == pytest.approx(0.81, abs=0.02)

    def test_per_quadrature_estimates(self, rng):
        d = make_dataset(rng, 10**5, 0.98, 0.5, 10.0)
        ta_q, ta_p, tb_q, tb_p = transmissivities_per_quadrature(d, 10.0)
        for est, truth in ((ta_q, 0.98), (ta_p, 0.98), (tb_q, 0.5), (tb_p, 0.5)):
            assert est == pytest.approx(truth, abs=0.15)


class TestEstimateExcessNoise:
    def test_pure_loss_near_zero(self, rng):
        m = 10**5
        d = make_dataset(rng, m, 0.98, 0.5, 10.0)
        tau_a, tau_b = estimate_transmissivities(d, 10.0)
        eq, ep = estimate_excess_noise(d, tau_a, tau_b)
        band = 3.0 * math.sqrt(2.0 / m)
        assert eq == pytest.approx(0.0, abs=band)
        assert ep == pytest.approx(0.0, abs=band)

    def test_recovers_injected_noise(self, rng):
        noise = NoiseVars(0.02, 0.02)
        d = make_dataset(rng, 10**6, 0.98, 0.5, 10.0, noise)
        tau_a, tau_b = estimate_transmissivities(d, 10.0)
        eq, ep = estimate_excess_noise(d, tau_a, tau_b)
        band = 3.0 * math.sqrt(2.0 / 10**6) * 1.02
        assert eq == pytest.approx(0.02, abs=band)
        assert ep == pytest.approx(0.02, abs=band)

    def test_residual_free_floor(self):
        # zero relay records with zero transmissivities leave -1, the floor
        # exposed by the shot-noise subtraction
        zeros = np.zeros(8)
        d = QuadratureDataset(zeros, zeros, zeros, zeros, zeros, zeros)
        assert estimate_excess_noise(d, 0.0, 0.0) == (-1.0, -1.0)

    def test_negative_tau_clamped(self, rng):
        d = make_dataset(rng, 64, 0.5, 0.5, 4.0)
        eq, ep = estimate_excess_noise(d, -0.3, 0.5)  # clamps to tau_a = 0
        assert math.isfinite(eq) and math.isfinite(ep)

    @pytest.mark.parametrize("taus, name", [
        ((math.nan, 0.5), "tau_a_hat"),
        ((math.inf, 0.5), "tau_a_hat"),
        ((0.5, -math.inf), "tau_b_hat"),
        ((0.5, math.nan), "tau_b_hat"),
    ])
    def test_non_finite_transmissivity_rejected_by_name(self, rng, taus, name):
        # the clamp to [0, 1] would pass a NaN through as a NaN estimate
        d = make_dataset(rng, 64, 0.5, 0.5, 4.0)
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            estimate_excess_noise(d, *taus)


@np.errstate(all="ignore")
def stage(tau_a, tau_b, noise, v_m, m):
    """The spreads stage at one point: per-quadrature variances (2, 2), link
    then quadrature, and the variances of tau_a, tau_b, excess_q, excess_p."""
    tau = np.array([[tau_a], [tau_b]])
    totals = np.array([[noise.total_q], [noise.total_p]])
    return (_transmissivity_variances(tau, v_m, totals, m)[..., 0].tolist(),
            _variances(tau, totals, v_m, m)[:, 0].tolist())


class TestTransmissivityVariance:
    def test_zero_transmissivity(self):
        (per_quad_a, _), (var_a, *_) = stage(0.0, 0.5, PURE_LOSS, 10.0, 100)
        assert (*per_quad_a, var_a) == (0.0, 0.0, 0.0)
        assert report_from_parameters(0.0, 0.5, PURE_LOSS, 10.0, 100).tau_a_std == 0.0

    def test_reference_value(self):
        # 7.84 * 1.23 * (1 + 1/12.3) / 1e5
        (var_q, var_p), _ = stage(0.98, 0.5, PURE_LOSS, 10.0, 10**5)[0]
        assert var_q == pytest.approx(1.042718e-4, rel=1e-5)
        assert var_p == var_q

    def test_combined_is_half_when_symmetric(self):
        ((var_q, var_p), _), (var_c, *_) = stage(0.8, 0.3, PURE_LOSS, 8.0, 1000)
        assert var_q == var_p
        assert var_c == pytest.approx(var_q / 2.0)

    def test_asymmetric_noise_shifts_combination(self):
        ((var_q, var_p), _), (var_c, *_) = stage(0.8, 0.3, NoiseVars(0.5, 0.0), 8.0, 1000)
        assert var_q > var_p
        assert var_c == pytest.approx(var_q * var_p / (var_q + var_p))

    @pytest.mark.parametrize("taus", [(5e-324, 0.63), (0.63, 1e-320), (1e-200, 1e-200)])
    def test_underflowing_mix_is_a_domain_error(self, taus):
        # both quadrature variances underflow to 0, so their mix is 0/0; the
        # error names the first such link
        link, tau = ("a", taus[0]) if taus[0] < 1e-150 else ("b", taus[1])
        with pytest.raises(DomainError, match=re.escape(
                f"tau_{link} spread is undefined: at tau_{link} = {tau} and v_m = 10.0 "
                "its two quadrature variances underflow to 0 or overflow to inf")):
            report_from_parameters(*taus, PURE_LOSS, 10.0, 10**6)


class TestExcessNoiseVariance:
    def test_unit_total_two_samples(self):
        assert stage(0.5, 0.5, PURE_LOSS, 10.0, 2)[1][2:] == [1.0, 1.0]
        report = report_from_parameters(0.5, 0.5, PURE_LOSS, 10.0, 2)
        assert (report.excess_q_std, report.excess_p_std) == (1.0, 1.0)

    def test_reference_value(self):
        s_q_sq = stage(0.5, 0.5, NoiseVars(0.02, 0.02), 10.0, 10**6)[1][2]
        assert s_q_sq == pytest.approx(2.0808e-6, rel=1e-6)

    def test_total_too_large_to_square_is_typed(self):
        with pytest.raises(NumericalDegeneracyError, match="overflows"):
            report_from_parameters(0.5, 0.5, NoiseVars(1e300, 0.0), 10.0, 10)


class TestWorstCase:
    def test_arithmetic(self):
        report = EstimationReport(0.5, 0.5, 0.01, 0.01, 0.01, 0.01, 0.001, 0.001,
                                  z=6.5)
        assert report.tau_a_low == pytest.approx(0.435)
        assert report.excess_q_up == pytest.approx(0.0165)

    def test_clamps_to_zero(self):
        report = EstimationReport(0.5, 0.5, 0.2, 0.2, 0.0, 0.0, 0.0, 0.0, z=6.5)
        assert report.tau_a_low == 0.0

    def test_orderings(self, rng):
        for _ in range(20):
            report = EstimationReport(
                rng.uniform(0, 1), rng.uniform(0, 1),
                rng.uniform(0, 0.1), rng.uniform(0, 0.1),
                rng.normal(0, 0.05), rng.normal(0, 0.05),
                rng.uniform(0, 0.01), rng.uniform(0, 0.01))
            assert report.tau_a_low <= report.tau_a
            assert report.tau_b_low <= report.tau_b
            assert report.excess_q_up >= report.excess_q
            assert report.excess_p_up >= report.excess_p

    def test_default_z(self):
        report = EstimationReport(0.5, 0.5, 0.01, 0.01, 0.0, 0.0, 0.001, 0.001)
        assert report.z == 6.5
        assert report.tau_a_low == pytest.approx(0.435)

    def test_replacing_z_recomputes_the_bounds(self):
        report = EstimationReport(0.5, 0.5, 0.01, 0.02, 0.01, 0.02, 0.001, 0.002)
        wider = dataclasses.replace(report, z=10.0)
        assert wider.z == 10.0
        assert wider.tau_a_low == 0.5 - 10.0 * 0.01
        assert wider.excess_p_up == 0.02 + 10.0 * 0.002
        assert wider == EstimationReport(0.5, 0.5, 0.01, 0.02, 0.01, 0.02,
                                         0.001, 0.002, z=10.0)

    @pytest.mark.parametrize("z", [-1.0, math.inf, math.nan])
    def test_bad_z_rejected_by_name(self, z, rng):
        by_name = "z \\(confidence multiplier\\)"
        with pytest.raises(DomainError, match=by_name):
            EstimationReport(0.5, 0.5, 0.01, 0.01, 0.0, 0.0, 0.001, 0.001, z=z)
        # the estimation pipeline checks its own bounds before the report's
        d = make_dataset(rng, 1000, 0.9, 0.5, 10.0)
        with pytest.raises(DomainError, match=by_name):
            estimate_channel(d, 10.0, z=z)


class TestPipelines:
    def test_estimate_channel_completes_report(self, rng):
        d = make_dataset(rng, 10**4, 0.98, 0.5, 10.0)
        report = estimate_channel(d, 10.0)
        assert report.tau_a_low < report.tau_a
        assert report.tau_a == pytest.approx(0.98, abs=0.1)
        assert report.tau_a_std > 0

    def test_analysis_report_uses_true_values(self):
        report = report_from_parameters(0.98, 0.5, PURE_LOSS, 10.0, 10**5)
        assert report.tau_a == 0.98
        assert report.excess_q == 0.0
        assert report.tau_a_std == pytest.approx(math.sqrt(1.042718e-4 / 2.0), rel=1e-5)
        assert report.tau_a_low == 0.98 - 6.5 * report.tau_a_std

    def test_analysis_and_protocol_modes_agree_statistically(self, rng):
        truth = report_from_parameters(0.98, 0.5, PURE_LOSS, 10.0, 10**5, z=6.5)
        d = make_dataset(rng, 10**5, 0.98, 0.5, 10.0)
        measured = estimate_channel(d, 10.0)
        assert measured.tau_a == pytest.approx(truth.tau_a, abs=6.5 * truth.tau_a_std)
        assert measured.excess_q == pytest.approx(0.0, abs=6.5 * truth.excess_q_std)
