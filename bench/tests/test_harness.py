"""Self-tests of the benchmark: job generation, oracles and tracing.

Run with `python3 -m pytest bench/tests`; they are not part of the
package's own test suite.
"""

import json
import math

import numpy as np
import pytest

import oracle
import reference
import tracing
import workloads
import worker


def _run(argvs):
    return worker.run_job(workloads.Job(tuple(map(tuple, argvs)), 0))


def _with_payload(text, edit):
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_jobs_are_deterministic_per_seed_and_differ_across_seeds(name):
    make_job, _ = workloads.WORKLOADS[name]
    first = [make_job(5, index) for index in range(4)]
    assert first == [make_job(5, index) for index in range(4)]
    assert first != [make_job(6, index) for index in range(4)]
    assert len({job.argvs for job in first}) == 4


# analysis-sweep: one asymmetric row at 10 dB keeps the test short.
SWEEP_ARGV = ("sweep", "--bob-db", "10:10:1", "--attack", "two-mode-optimal",
              "--tau-a", "0.97", "--omega-a", "1.02", "--omega-b", "1.01",
              "--xi", "0.95", "--format", "json")


@pytest.fixture(scope="module")
def sweep_output():
    ((code, text),) = _run([SWEEP_ARGV])
    assert code == 0
    return text


def test_sweep_oracle_accepts_the_program(sweep_output):
    assert workloads._check_sweep_payload(SWEEP_ARGV, json.loads(sweep_output)) == []


@pytest.mark.parametrize("column", [1, 2, 3])
def test_sweep_oracle_rejects_a_rate_scaled_by_one_ppm(sweep_output, column):
    def scale(payload):
        payload["rows"][0][column] *= 1.0 + 1e-6

    text = _with_payload(sweep_output, scale)
    assert len(workloads._check_sweep_payload(SWEEP_ARGV, json.loads(text))) == 1


def test_sweep_check_fails_every_cell_of_a_failed_command(sweep_output):
    job = workloads.Job((SWEEP_ARGV,), 3)
    assert workloads.check_sweep(job, [(3, "")]) == (3, ["sweep --bob-db 10:10:1: exit 3"] * 3)


def test_oracle_spectrum_matches_a_thermal_state():
    nu = np.array([3.0, 1.5])
    cm = np.diag(np.repeat(nu, 2))[None]
    assert oracle.symplectic_spectrum(cm)[0] == pytest.approx(nu, rel=1e-14)


# mc-validate: m and trials are smaller than the workload's, the bands scale.
SIMULATE_ARGV = ("simulate", "--attack", "collective", "--tau-a", "0.95",
                 "--omega-a", "1.02", "--omega-b", "1.03", "--tau-b", "0.6",
                 "--v-m", "10", "--m", "4000", "--trials", str(workloads.SIMULATE_TRIALS),
                 "--seed", "11")


@pytest.fixture(scope="module")
def simulate_output():
    ((code, text),) = _run([SIMULATE_ARGV])
    assert code == 0
    return text


def _check_simulate(text):
    job = workloads.Job((SIMULATE_ARGV,), 20)
    return workloads.check_simulate(job, [(0, text)])


def test_simulate_oracle_accepts_the_program(simulate_output):
    assert _check_simulate(simulate_output) == (20, [])


@pytest.mark.parametrize("field", ["empirical", "analytic"])
@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_simulate_oracle_rejects_a_variance_off_by_two(simulate_output, field, factor):
    def perturb(payload):
        for record in payload["comparisons"]:
            if record["name"] == "var(tau_b)":
                record[field] *= factor

    _, failures = _check_simulate(_with_payload(simulate_output, perturb))
    assert len(failures) == 1 and failures[0].startswith("var(tau_b)")


def test_simulate_oracle_rejects_a_shifted_mean(simulate_output):
    def shift(payload):
        for record in payload["comparisons"]:
            if record["name"] == "mean(excess_q)":
                record["empirical"] += 10.0 * math.sqrt(2.0 / 4000 / workloads.SIMULATE_TRIALS)

    _, failures = _check_simulate(_with_payload(simulate_output, shift))
    assert len(failures) == 1 and failures[0].startswith("mean(excess_q)")


# protocol-optimize: a 3 x 3 grid and a smaller block keep the test short.
OPTIMIZE_ARGV = ("optimize", "--mode", "protocol", "--n-bar", str(workloads.OPTIMIZE_N_BAR),
                 "--attack", "two-mode-optimal", "--tau-a", "0.98", "--omega-a", "1.01",
                 "--omega-b", "1.01", "--bob-db", "2", "--xi", "0.97", "--seed", "3",
                 "--v-m-grid", "5:50:3", "--r-grid", "0.5:0.9:3",
                 "--refinement-rounds", "1", "--trace-out", "-")


@pytest.fixture(scope="module")
def optimize_output():
    ((code, text),) = _run([OPTIMIZE_ARGV])
    assert code == 0
    return text


def _check_optimize(text):
    return workloads.check_optimize(workloads.Job((OPTIMIZE_ARGV,), 1), [(0, text)])


def test_optimize_oracle_accepts_the_program(optimize_output):
    assert _check_optimize(optimize_output) == (1, [])


def _with_trace_edit(text, edit):
    """Applies edit(rows, payload) and reassembles the trace and payload."""
    rows, payload = workloads._split_trace(text)
    rows = [list(row) for row in rows]
    edit(rows, payload)
    header = text.splitlines()[:2]
    return "\n".join(header + [",".join(row) for row in rows]) + "\n" + json.dumps(payload)


def test_optimize_oracle_rejects_a_rate_scaled_by_one_ppm(optimize_output):
    def scale(rows, payload):
        payload["rate"] *= 1.0 + 1e-6

    _, failures = _check_optimize(_with_trace_edit(optimize_output, scale))
    assert len(failures) == 1 and "not in the trace" in failures[0]


def test_optimize_oracle_rejects_a_winner_above_the_ceiling(optimize_output):
    def inflate(rows, payload):
        payload["rate"] = 1.0
        rows.append([format(payload["v_m"], ".12g"), format(payload["ratio"], ".12g"), "1"])

    _, failures = _check_optimize(_with_trace_edit(optimize_output, inflate))
    assert len(failures) == 1 and "above r* K_inf" in failures[0]


def test_optimize_oracle_rejects_a_candidate_below_its_band(optimize_output):
    rows, _ = workloads._split_trace(optimize_output)
    keys = list(dict.fromkeys(rows))
    candidates = np.array(keys, dtype=float)
    low, high = workloads.candidate_bands(OPTIMIZE_ARGV, workloads._channel(
        OPTIMIZE_ARGV, 10.0 ** -0.2), 0.97, candidates)
    assert np.all((low < candidates[:, 2]) & (candidates[:, 2] < high))
    # Lower the smallest rate of the trace, so that the winner stays its maximum.
    index = int(np.argmin(candidates[:, 2]))
    moved = repr(float(low[index] - 0.01 * (high[index] - low[index])))

    def lower(rows, payload):
        for row in rows:
            if tuple(row) == keys[index]:
                row[2] = moved

    _, failures = _check_optimize(_with_trace_edit(optimize_output, lower))
    assert len(failures) == 1 and "outside the oracle's band" in failures[0]


def test_self_times_on_a_synthetic_span_tree():
    # main [0, 10] -> a [1, 4] -> c [2, 3]; main -> b [5, 9]; second root d [11, 12]
    spans = [("main", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
             ("b", 5.0, 9.0, 0), ("d", 11.0, 12.0, -1), ("c", 6.0, 8.0, 3)]
    assert tracing.self_times(spans) == {"main": 3.0, "a": 2.0, "c": 3.0,
                                         "b": 2.0, "d": 1.0}
    assert tracing.call_counts(spans)["c"] == 2


def test_tracer_records_nested_spans_and_restores_the_package():
    import cvmdi.gaussian
    import cvmdi.keyrate

    original = cvmdi.keyrate.symplectic_eigenvalues
    tracer = tracing.Tracer()
    with tracer.patch():
        assert cvmdi.keyrate.symplectic_eigenvalues is not original
        cvmdi.gaussian.von_neumann_entropy(np.eye(4) * 2.0)
    assert cvmdi.keyrate.symplectic_eigenvalues is original
    assert cvmdi.gaussian.symplectic_eigenvalues is original
    names = [(span[0], span[3]) for span in tracer.spans]
    assert names == [("gaussian.von_neumann_entropy", -1),
                     ("gaussian.symplectic_eigenvalues", 0)]


def test_calibrated_clock_scales_by_the_readings_around_each_interval(monkeypatch):
    # Readings of three kernel calls each: median 2, then 4, then 8 (ms).
    calls = iter([2, 1, 3, 4, 9, 4, 8, 8, 0])
    monkeypatch.setattr(reference, "kernel_seconds", lambda kernel: 1e-3 * next(calls))
    monkeypatch.setitem(reference.KERNELS, "fake", (None, 3, 1.5e-3))
    clock = reference.CalibratedClock("fake")
    result, first_raw, first = clock.time(lambda: 7)
    _, second_raw, second = clock.time(lambda: None)
    assert result == 7
    assert first == pytest.approx(first_raw * 1.5 / 3.0)
    assert second == pytest.approx(second_raw * 1.5 / 6.0)


@pytest.mark.xfail(strict=True, reason="known defect: a near-lossless pure-loss sweep "
                   "exits 3 on a rounding error; analysis-sweep keeps tau_a <= 0.99 "
                   "until it is fixed")
def test_near_lossless_pure_loss_sweep_succeeds():
    argv = ("sweep", "--bob-db", "0:0:1", "--attack", "pure-loss", "--tau-a", "0.999257",
            "--xi", "0.932263", "--format", "json")
    ((code, _),) = _run([argv])
    assert code == 0
