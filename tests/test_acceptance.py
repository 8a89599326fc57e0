"""Acceptance suite: one test per criterion, each printing a PASS line.

The Monte Carlo criteria are seeded and therefore deterministic; the
chosen seeds give typical draws (statistics well inside their expected
bands).  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines; the Monte Carlo criteria draw each block's moment
matrices directly, so each takes seconds.
"""

import math
import time

import numpy as np
import pytest

from cvmdi import (
    asymptotic_key_rate,
    ChannelParams,
    conditional_cms,
    db_to_transmissivity,
    entropy_term,
    holevo_bound,
    mutual_information,
    NoiseVars,
    noise_from_attack,
    optimal_two_mode_attack,
    optimize_asymptotic,
    optimize_key_rate,
    OptimizationSpec,
    ProtocolParams,
    run_trials,
    SimulationSpec,
    symplectic_eigenvalues,
    tmsv_cm,
)
from cvmdi.cli import main as cli_main
from cvmdi.simulator import excess_noise_bias

FIG2A_CHANNEL = ChannelParams.two_mode_optimal(
    0.98, db_to_transmissivity(2.0), 1.01, 1.01)

VARIANCE_SCENARIOS = {
    "pure-loss": ChannelParams.pure_loss(0.98, 0.5),
    "collective-1.05": ChannelParams.collective(0.98, 0.5, 1.05, 1.05),
    "two-mode-optimal-1.01": ChannelParams.two_mode_optimal(0.98, 0.5, 1.01, 1.01),
}


def extended_r_grid(n_bar: int) -> tuple[float, ...]:
    """Key-fraction candidates reaching close to 1 for huge blocks."""
    base = list(np.linspace(0.1, 0.9, 9))
    base += [r for r in (0.95, 0.99, 0.999, 0.9999) if (1.0 - r) * n_bar >= 100]
    return tuple(base)


def test_criterion_01_pure_state_identity_suite():
    start = time.time()
    for mu in (1.0, 2.0, 10.0, 100.0):
        assert symplectic_eigenvalues(tmsv_cm(mu)) == pytest.approx(
            [1.0, 1.0], abs=1e-9)
    protocol = ProtocolParams(4.0, xi=0.97)
    state = conditional_cms(protocol, 1.0, 1.0, NoiseVars(0.0, 0.0))
    i_h = holevo_bound(state)
    i_ab = mutual_information(state)
    k_inf = asymptotic_key_rate(protocol, 1.0, 1.0, NoiseVars(0.0, 0.0))
    assert i_h == pytest.approx(0.0, abs=1e-8)
    assert k_inf == pytest.approx(protocol.xi * i_ab, abs=1e-8)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS pure-state/identity suite ({elapsed:.2f}s)")


def test_criterion_02_entropy_algebra():
    assert entropy_term(1.0) == 0.0
    assert entropy_term(3.0) == 2.0
    x = 1e6
    direct = ((x + 1) / 2) * math.log2((x + 1) / 2) \
        - ((x - 1) / 2) * math.log2((x - 1) / 2)
    asymptote = math.log2(math.e * x / 2.0)
    assert abs(direct / asymptote - 1.0) < 1e-6
    assert entropy_term(x) == pytest.approx(direct, rel=1e-6)
    print("\n[criterion 2] PASS entropy algebra")


def test_criterion_03_estimator_variance_oracle():
    start = time.time()
    m, trials, v_m, seed = 10**5, 10**4, 10.0, 3
    reference = None
    for name, channel in VARIANCE_SCENARIOS.items():
        stats = run_trials(SimulationSpec(channel, v_m, m, trials, seed=seed))
        for key in ("tau_a_q", "tau_a_p", "excess_q", "excess_p"):
            analytic = stats.expected[f"var_{key}"]
            empirical = stats.variances[key]
            assert empirical == pytest.approx(analytic, rel=0.10), \
                f"{name}: var({key})"
        # The plug-in excess-noise estimates carry a first-order bias of
        # about 10/m here, 2 standard errors of the mean.
        centres = {key: stats.expected[key] for key in ("tau_a", "tau_b")}
        bias_q, bias_p = excess_noise_bias(channel, v_m, m)
        centres["excess_q"] = stats.expected["excess_q"] + bias_q
        centres["excess_p"] = stats.expected["excess_p"] + bias_p
        for key, centre in centres.items():
            std_err = math.sqrt(stats.variances[key] / trials)
            assert abs(stats.means[key] - centre) <= 3.0 * std_err, \
                f"{name}: mean({key})"
        if name == "pure-loss":
            reference = stats
    # the concrete pure-loss value for Var(tau_a over the q record)
    assert reference.expected["var_tau_a_q"] == pytest.approx(1.0427e-4, rel=1e-3)
    assert reference.variances["tau_a_q"] == pytest.approx(1.0427e-4, rel=0.10)
    print(f"\n[criterion 3] PASS estimator-variance oracle, 3 scenarios "
          f"({time.time()-start:.0f}s)")


def test_criterion_04_bias_scaling():
    # The transmissivity estimator bias is measured with the known-mean
    # covariance as a control variate: subtracting the linear fluctuation
    # term (whose expectation is zero) leaves the quadratic part, an
    # unbiased estimate of the same bias with ~1% relative spread instead
    # of being buried under the trial-mean noise.
    start = time.time()
    channel = ChannelParams.pure_loss(0.98, 0.5)
    v_m, trials, seed = 10.0, 10**4, 5
    sizes = (10**3, 10**4, 10**5)
    biases = []
    raw_biases = []
    for m in sizes:
        stats = run_trials(SimulationSpec(channel, v_m, m, trials, seed=seed))
        raw = stats.means["tau_a"] - stats.expected["tau_a"]
        correction = 0.0
        for quad in ("q", "p"):
            c_true = stats.expected[f"cov_a_{quad}"]
            slope = 4.0 * c_true / v_m**2
            correction += 0.5 * slope * (stats.means[f"cov_a_{quad}"] - c_true)
        biases.append(abs(raw - correction))
        raw_biases.append(abs(raw))
    fit = np.polyfit(np.log10(sizes), np.log10(biases), 1)
    slope = fit[0]
    assert -1.3 <= slope <= -0.7
    print(f"\n[criterion 4] PASS bias scaling: slope {slope:.3f} "
          f"(cv-measured bias {biases}, raw {raw_biases}, {time.time()-start:.0f}s)")


def test_criterion_05_chi_squared_check():
    # 20 000 trials put the 5 % variance band at 5 sd of s^2 (sd 1 %)
    m, trials, seed = 10**4, 20_000, 3
    channel = ChannelParams.pure_loss(0.98, 0.5)
    stats = run_trials(SimulationSpec(channel, 10.0, m, trials, seed=seed))
    assert stats.means["chi2_q"] == pytest.approx(m, rel=0.05)
    assert stats.variances["chi2_q"] == pytest.approx(2.0 * m, rel=0.05)
    print(f"\n[criterion 5] PASS chi-squared: mean {stats.means['chi2_q']:.1f} "
          f"(target {m}), variance {stats.variances['chi2_q']:.0f} (target {2*m})")


def test_criterion_06_finite_size_convergence():
    _, k_inf_opt, _ = optimize_asymptotic(FIG2A_CHANNEL, 0.98)
    rates = {}
    for n_bar in (10**6, 10**7, 10**8, 10**9, 10**12):
        spec = OptimizationSpec(channel=FIG2A_CHANNEL, xi=0.98, n_bar=n_bar,
                                r_grid=extended_r_grid(n_bar))
        rates[n_bar] = optimize_key_rate(spec).rate
    values = [rates[n] for n in sorted(rates)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert rates[10**12] >= 0.95 * k_inf_opt

    # sweep-point ordering K(1e6) <= K(1e9) <= K_inf at every attenuation
    for db in np.linspace(0.0, 6.0, 7):
        channel = ChannelParams.two_mode_optimal(
            0.98, db_to_transmissivity(db), 1.01, 1.01)
        _, k_asym, _ = optimize_asymptotic(channel, 0.98)
        k6 = optimize_key_rate(OptimizationSpec(
            channel=channel, xi=0.98, n_bar=10**6)).rate
        k9 = optimize_key_rate(OptimizationSpec(
            channel=channel, xi=0.98, n_bar=10**9)).rate
        assert k6 <= k9 + 1e-12
        assert k9 <= k_asym + 1e-12
    print(f"\n[criterion 6] PASS finite-size convergence: K(1e12)/K_inf = "
          f"{rates[10**12]/k_inf_opt:.4f}, ordering holds over the sweep")


def test_criterion_07_metropolitan_order_of_magnitude():
    threshold = 1e-2
    good = []
    for db in np.linspace(0.5, 10.0, 20):
        channel = ChannelParams.two_mode_optimal(
            0.98, db_to_transmissivity(db), 1.01, 1.01)
        rate = optimize_key_rate(OptimizationSpec(
            channel=channel, xi=0.98, n_bar=10**9)).rate
        if rate >= threshold:
            good.append(db)
    width = max(good) - min(good)
    assert width >= 1.0
    print(f"\n[criterion 7] PASS rates >= 1e-2 bit/use over "
          f"[{min(good):.1f}, {max(good):.1f}] dB ({width:.1f} dB wide)")


def test_criterion_08_modulation_scan_shapes(tmp_path):
    common = ["modscan", "--attack", "pure-loss", "--tau-a", "0.98",
              "--tau-b", "0.7", "--n-bar", "1e6", "--ratio", "0.5",
              "--v-m-grid", "1:1000:25"]
    out_unit = tmp_path / "unit.csv"
    assert cli_main(common + ["--xi", "1", "--out", str(out_unit)]) == 0
    rates_unit = [float(line.split(",")[1])
                  for line in out_unit.read_text().splitlines()[2:]]
    assert all(b >= a - 1e-12 for a, b in zip(rates_unit, rates_unit[1:]))

    out_sub = tmp_path / "sub.csv"
    assert cli_main(common + ["--xi", "0.95", "--out", str(out_sub)]) == 0
    rates_sub = [float(line.split(",")[1])
                 for line in out_sub.read_text().splitlines()[2:]]
    top = int(np.argmax(rates_sub))
    assert 0 < top < len(rates_sub) - 1
    assert rates_sub[top] > max(rates_sub[0], rates_sub[-1])
    print(f"\n[criterion 8] PASS modulation-scan shapes: xi=1 non-decreasing, "
          f"xi=0.95 peaks at index {top} of {len(rates_sub)-1}")


def test_criterion_09_monotonicity_grid():
    protocol = ProtocolParams(50.0, 0.98)
    omegas = np.linspace(1.01, 1.05, 5)
    dbs = np.linspace(0.0, 10.0, 5)
    # correlations held fixed across the grid (re-deriving the optimal
    # attack per omega would change the attack, not just the noise)
    corr_q, corr_p = optimal_two_mode_attack(omegas[0], omegas[0])
    for corr in ((0.0, 0.0), (corr_q, corr_p)):
        rates = np.empty((len(omegas), len(dbs)))
        for i, omega in enumerate(omegas):
            for j, db in enumerate(dbs):
                channel = ChannelParams(0.98, db_to_transmissivity(db),
                                        omega, omega, corr[0], corr[1])
                rates[i, j] = asymptotic_key_rate(
                    protocol, channel.tau_a, channel.tau_b,
                    noise_from_attack(channel))
        assert np.all(np.diff(rates, axis=0) <= 1e-10)
        assert np.all(np.diff(rates, axis=1) <= 1e-10)
    print("\n[criterion 9] PASS monotonicity: K_inf non-increasing in omega "
          "and attenuation on 5x5 grids")


def test_criterion_10_determinism(tmp_path):
    sim_args = ["simulate", "--attack", "pure-loss", "--tau-b", "0.5",
                "--m", "2000", "--trials", "100", "--seed", "11"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(sim_args + ["--out", str(a)]) == 0
    assert cli_main(sim_args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    sweep_args = ["sweep", "--bob-db", "0:4:5", "--n-bar", "1e6"]
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert cli_main(sweep_args + ["--out", str(c)]) == 0
    assert cli_main(sweep_args + ["--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()
    print("\n[criterion 10] PASS determinism: byte-identical payloads")
