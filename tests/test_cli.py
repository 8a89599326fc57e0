import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvmdi
from cvmdi import cli
from cvmdi.cli import main


def run_cli(*argv):
    return main(list(argv))


def read_config_line(path):
    first = path.read_text().splitlines()[0]
    assert first.startswith("# config: ")
    return json.loads(first[len("# config: "):])


class TestRate:
    def test_identity_channel(self, tmp_path, capsys):
        out = tmp_path / "rate.json"
        code = run_cli("rate", "--tau-a", "1", "--tau-b", "1",
                       "--attack", "pure-loss", "--xi", "1", "--v-m", "4",
                       "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        asym = payload["asymptotic"]
        assert asym["i_h"] == pytest.approx(0.0, abs=1e-8)
        assert asym["k_infinity"] == pytest.approx(asym["i_ab"], abs=1e-8)
        assert payload["no_positive_rate"] is False

    def test_finite_size_point(self, tmp_path):
        out = tmp_path / "rate.json"
        code = run_cli("rate", "--bob-db", "2", "--n-bar", "1e9", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        finite = payload["finite_size"]
        assert 1e-2 <= finite["k"] <= 1.0
        assert finite["worst_case"]["tau_a_low"] < 0.98
        assert finite["penalty"] > 0.0

    def test_finite_size_parts_are_the_optimizer_rate(self, capsys):
        from cvmdi import (ChannelParams, db_to_transmissivity, FiniteSizeParams,
                           optimize_key_rate, OptimizationSpec, projected_key_rate,
                           ProtocolParams)
        assert run_cli("rate", "--n-bar", "1e6", "--z", "5",
                       "--delta-prefactor", "2") == 0
        finite = json.loads(capsys.readouterr().out)["finite_size"]
        channel = ChannelParams.two_mode_optimal(0.98, db_to_transmissivity(2.0),
                                                 1.01, 1.01)
        spec = OptimizationSpec(channel, 0.98, 10**6, z=5.0, delta_prefactor=2.0)
        v_m, ratio = finite["v_m"], finite["ratio"]
        fs = FiniteSizeParams.from_ratio(10**6, ratio)
        assert finite["k"] == optimize_key_rate(spec).rate
        assert finite["k"] == projected_key_rate(ProtocolParams(v_m, 0.98), channel,
                                                 fs, 2.0, z=5.0)
        assert finite["k"] == ratio * (finite["worst_case"]["k_infinity"]
                                       - finite["penalty"])

    def test_asymptotic_search_honours_refinement_rounds(self, capsys):
        grid = np.geomspace(1.0, 1000.0, 25).tolist()
        assert run_cli("rate", "--bob-db", "2", "--refinement-rounds", "0") == 0
        assert json.loads(capsys.readouterr().out)["asymptotic"]["v_m"] in grid

    def test_eps_pe_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("rate", "--n-bar", "1e6", "--eps-pe", "1e-10")
        assert exit_info.value.code == 2

    def test_no_positive_rate_still_exits_zero(self, tmp_path):
        out = tmp_path / "rate.json"
        code = run_cli("rate", "--tau-a", "0.001", "--bob-db", "60",
                       "--n-bar", "1e6", "--v-m", "10", "--ratio", "0.5",
                       "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["no_positive_rate"] is True

    def test_bad_config_exits_two(self, capsys):
        assert run_cli("rate", "--tau-a", "1.4") == 2
        assert "error" in capsys.readouterr().err

    def test_unphysical_attack_exits_three(self, capsys):
        code = run_cli("rate", "--attack", "collective", "--omega-a", "1.0",
                       "--omega-b", "1.0", "--epsilon", "-0.5")
        assert code == 2 or code == 3  # range error (2) or physicality (3)

    def test_physicality_error_exit_code(self, capsys, monkeypatch):
        # force an unphysical matrix through a direct channel construction
        from cvmdi import cli as cli_module

        def boom(args, tau_a, tau_b):
            from cvmdi.errors import PhysicalityError
            raise PhysicalityError("synthetic")

        monkeypatch.setattr(cli_module, "_channel_for", boom)
        assert run_cli("rate", "--tau-a", "0.9") == 3


class TestSweep:
    def test_default_columns_and_ordering(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--bob-db", "0:6:4", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        assert header[:6] == ["attenuation_db", "k_asymptotic", "k_N1e9",
                              "k_N1e6", "v_m_star", "r_star"]
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
        assert rows.shape[0] == 4
        # finite-size curves sit below the asymptotic one, ordered by block
        assert np.all(rows[:, 3] <= rows[:, 2] + 1e-12)
        assert np.all(rows[:, 2] <= rows[:, 1] + 1e-12)

    def test_symmetric_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--common-db", "0:3:3", "--n-bar", "1e6",
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[:3] == ["attenuation_db", "k_asymptotic", "k_N1e6"]

    def test_asymptotic_column_honours_refinement_rounds(self, capsys):
        from cvmdi import ChannelParams, db_to_transmissivity, optimize_asymptotic
        assert run_cli("sweep", "--bob-db", "2", "--n-bar", "1e6", "--format", "json",
                       "--refinement-rounds", "0") == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        channel = ChannelParams.two_mode_optimal(0.98, db_to_transmissivity(2.0),
                                                 1.01, 1.01)
        _, coarse, _ = optimize_asymptotic(channel, 0.98, refinement_rounds=0)
        assert row[1] == coarse

    def test_zero_length_grid_is_config_error(self, capsys):
        assert run_cli("sweep", "--bob-db", "0:5:0") == 2

    def test_metadata_round_trip(self, tmp_path):
        # rebuilding the command line from the embedded config reproduces
        # the numeric payload exactly
        out = tmp_path / "sweep.csv"
        run_cli("sweep", "--bob-db", "1:3:3", "--n-bar", "1e6", "--out", str(out))
        config = read_config_line(out)
        args = ["sweep"]
        for key, value in config.items():
            if key == "command" or value in (None, False):
                continue
            args.append(f"--{key}")
            if value is not True:
                args.append(str(value))
        rerun = tmp_path / "sweep2.csv"
        assert run_cli(*args, "--out", str(rerun)) == 0
        assert out.read_bytes() == rerun.read_bytes()

    @pytest.mark.parametrize("n_bars", ["1e6,1e6", "1e9,1e6,1000000"])
    def test_repeated_block_size_exits_two(self, capsys, n_bars):
        assert run_cli("sweep", "--bob-db", "2", "--n-bar", n_bars) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: block-size list {n_bars!r} repeats 1000000\n"

    @pytest.mark.parametrize("link", [("--bob-db", "2"), ("--common-db", "3")])
    def test_tau_b_exits_two(self, capsys, link):
        # sweep reads Bob's link from its dB grid; --tau-b would be ignored
        assert run_cli("sweep", *link, "--n-bar", "1e6", "--tau-b", "0.3") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tau-b" in captured.err

    @pytest.mark.parametrize("command", ["sweep", "rate", "modscan", "simulate",
                                         "optimize"])
    def test_help_says_whether_tau_b_is_accepted(self, capsys, command):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        text = " ".join(capsys.readouterr().out.split())
        accepted = "--tau-b TAU_B Bob-link transmissivity (alternative to --bob-db)"
        rejected = ("--tau-b TAU_B not accepted: sweep takes Bob's link from "
                    "--bob-db or --common-db (exits 2)")
        assert (rejected if command == "sweep" else accepted) in text

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = run_cli("sweep", "--bob-db", "1:2:2", "--n-bar", "1e6",
                       "--format", "json", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "attenuation_db"
        assert len(payload["rows"]) == 2


class TestModscan:
    def test_unit_efficiency_non_decreasing(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli("modscan", "--attack", "pure-loss", "--tau-a", "0.98",
                       "--tau-b", "0.7", "--xi", "1", "--n-bar", "1e6",
                       "--ratio", "0.5", "--v-m-grid", "1:1000:9",
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "v_m,rate"
        rates = [float(line.split(",")[1]) for line in lines[2:]]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli("modscan", "--attack", "pure-loss", "--tau-b", "0.7",
                       "--xi", "1", "--n-bar", "1e6", "--ratio", "0.5",
                       "--v-m-grid", "40", "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    SCAN = ("modscan", "--tau-b", "0.7", "--n-bar", "1e6", "--v-m-grid", "10:1000:3",
            "--r-grid", "0.1:0.9:5", "--format", "json")

    def scan_rows(self, capsys, *extra):
        assert run_cli(*self.SCAN, *extra) == 0
        return json.loads(capsys.readouterr().out)["rows"]

    def test_pinned_ratio_rows_are_the_projected_rates(self, capsys):
        from cvmdi import (ChannelParams, FiniteSizeParams, projected_key_rate,
                           ProtocolParams)
        channel = ChannelParams.two_mode_optimal(0.98, 0.7, 1.01, 1.01)
        fs = FiniteSizeParams.from_ratio(10**6, 0.5)
        expected = [[v_m, projected_key_rate(ProtocolParams(v_m, 0.98), channel, fs)]
                    for v_m in np.geomspace(10.0, 1000.0, 3).tolist()]
        assert self.scan_rows(capsys, "--ratio", "0.5") == expected

    def test_omitted_ratio_is_optimized_over_the_grid(self, capsys):
        from cvmdi import ChannelParams, optimize_key_rate, OptimizationSpec
        channel = ChannelParams.two_mode_optimal(0.98, 0.7, 1.01, 1.01)
        rows = self.scan_rows(capsys)
        pinned = self.scan_rows(capsys, "--ratio", "0.5")
        for (v_m, rate), (_, rate_pinned) in zip(rows, pinned):
            spec = OptimizationSpec(channel, 0.98, 10**6, v_m_grid=(v_m,),
                                    r_grid=(0.1, 0.3, 0.5, 0.7, 0.9))
            assert rate == optimize_key_rate(spec).rate >= rate_pinned

    def test_ratio_with_optimize_ratio_exits_two(self, capsys):
        # omitting --ratio already optimizes it; --optimize-ratio is not an option
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*self.SCAN, "--ratio", "0.5", "--optimize-ratio")
        assert exit_info.value.code == 2
        assert "--optimize-ratio" in capsys.readouterr().err

    def test_v_m_exits_two_naming_the_grid(self, capsys):
        assert run_cli("modscan", "--tau-b", "0.7", "--n-bar", "1e6", "--ratio", "0.5",
                       "--v-m-grid", "10:100:2", "--v-m", "5") == 2
        assert "--v-m-grid" in capsys.readouterr().err


class TestSimulate:
    def test_small_run_payload(self, tmp_path):
        out = tmp_path / "sim.json"
        code = run_cli("simulate", "--attack", "pure-loss", "--tau-b", "0.5",
                       "--m", "2000", "--trials", "50", "--seed", "4",
                       "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["insufficient_data"] is False
        assert any(c["name"] == "var(tau_a_q)" for c in payload["comparisons"])
        assert all("pass" in c for c in payload["comparisons"])

    def test_single_trial_insufficient_data(self, tmp_path):
        out = tmp_path / "sim.json"
        code = run_cli("simulate", "--attack", "pure-loss", "--tau-b", "0.5",
                       "--m", "500", "--trials", "1", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["insufficient_data"] is True

    def test_seed_repeatability_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["simulate", "--attack", "pure-loss", "--tau-b", "0.5",
                "--m", "1000", "--trials", "20", "--seed", "17"]
        assert run_cli(*argv, "--out", str(a)) == 0
        assert run_cli(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_paper_block_size(self, capsys):
        assert run_cli("simulate", "--attack", "pure-loss", "--tau-b", "0.5",
                       "--m", "1e9", "--trials", "1000") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == payload["config"]["m"] == 10**9
        assert payload["all_pass"] is True

    def test_default_verdict_allows_for_the_excess_noise_bias(self, capsys):
        # Uncorrected, the ~10/m bias of the excess-noise estimates is ~2
        # standard errors at the defaults, and 12 of these 40 records failed.
        failed = []
        for seed in range(1, 21):
            assert run_cli("simulate", "--bob-db", "2", "--seed", str(seed)) == 0
            payload = json.loads(capsys.readouterr().out)
            failed += [(seed, c["name"]) for c in payload["comparisons"]
                       if c["name"].startswith("mean(excess_") and not c["pass"]]
        assert len(failed) <= 1, failed

    @pytest.mark.parametrize("m", ["1.5", "1e9.5", "inf", "nan", "many"])
    def test_non_integral_block_size_exits_two(self, capsys, m):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("simulate", "--tau-b", "0.5", "--m", m, "--trials", "2")
        assert exit_info.value.code == 2
        assert "argument --m" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["9223372036854775808", "1e19", "1e24"])
    def test_block_sizes_past_int64_run(self, capsys, m):
        assert run_cli("simulate", "--tau-b", "0.5", "--m", m, "--trials", "200") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == int(float(m))
        assert all(math.isfinite(value) for value in
                   (*payload["means"].values(), *payload["variances"].values()))

    def test_dataset_dump(self, tmp_path):
        out = tmp_path / "sim.json"
        dump = tmp_path / "trial0.csv"
        run_cli("simulate", "--attack", "pure-loss", "--tau-b", "0.5",
                "--m", "100", "--trials", "2", "--dump-dataset", str(dump),
                "--out", str(out))
        from cvmdi import QuadratureDataset
        assert QuadratureDataset.from_csv(dump).m == 100


class TestOptimize:
    def test_summary_and_trace(self, tmp_path):
        out = tmp_path / "opt.json"
        trace = tmp_path / "trace.csv"
        code = run_cli("optimize", "--bob-db", "2", "--n-bar", "1e6",
                       "--v-m-grid", "1:1000:7", "--r-grid", "0.1:0.9:5",
                       "--out", str(out), "--trace-out", str(trace))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["rate"] > 0
        lines = trace.read_text().splitlines()
        assert lines[1] == "v_m,r,rate"
        assert len(lines) == 2 + payload["evaluations"]

    def test_stdout_output(self, capsys):
        code = run_cli("optimize", "--bob-db", "2", "--n-bar", "1e6",
                       "--v-m-grid", "10:100:3", "--r-grid", "0.5",
                       "--refinement-rounds", "0")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["command"] == "optimize"

    @pytest.mark.parametrize("mode, n_bar", [("analysis", "1e9"), ("protocol", "1e5")])
    def test_pinned_point_is_the_one_evaluated(self, capsys, mode, n_bar):
        code = run_cli("optimize", "--bob-db", "2", "--n-bar", n_bar,
                       "--v-m", "5", "--ratio", "0.5", "--mode", mode)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["v_m"], payload["ratio"], payload["evaluations"]) == (5.0, 0.5, 1)


def fresh_process_output(*argv) -> str:
    """stdout of `python -m cvmdi argv` in a new interpreter."""
    src = str(Path(cvmdi.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "cvmdi", *argv], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout


class TestParserReuse:
    NEXT = ("sweep", "--bob-db", "2", "--n-bar", "1e6")

    @pytest.fixture(scope="class")
    def next_payload(self):
        return fresh_process_output(*self.NEXT)

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_many_calls_build_the_parser_once(self, monkeypatch, capsys):
        built, build_parser = [], cli.build_parser

        def counting_build_parser():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        payloads = set()
        for _ in range(5):
            assert run_cli("rate", "--bob-db", "2", "--v-m", "4") == 0
            payloads.add(capsys.readouterr().out)
        assert len(built) == 1
        assert len(payloads) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("argv, code", [
        # argparse exits, ConfigurationError, PhysicalityError
        (("sweep", "--tau-a", "0.5", "--attack", "pure-loss", "--format", "xml"), 2),
        (("sweep", "--tau-a", "0.5", "--attack", "pure-loss", "--common-db", "1",
          "--n-bar", "1e6,1e6"), 2),
        (("sweep", "--bob-db", "0:0:1", "--attack", "pure-loss",
          "--tau-a", "0.999257"), 3),
    ])
    def test_failed_call_leaves_next_payload_unchanged(self, capsys, next_payload,
                                                      argv, code):
        try:
            assert run_cli(*argv) == code
        except SystemExit as exc:
            assert exc.code == code
        capsys.readouterr()
        assert run_cli(*self.NEXT) == 0
        assert capsys.readouterr().out == next_payload


class TestDefaults:
    @pytest.mark.parametrize("command", ["rate", "sweep", "modscan", "optimize"])
    def test_search_flags_default_to_the_library(self, command):
        from cvmdi import (ChannelParams, default_r_grid, default_v_m_grid,
                           OptimizationSpec)
        from cvmdi.cli import _parse_axis, _parse_log_axis, build_parser
        args = build_parser().parse_args([command])
        assert tuple(_parse_log_axis(args.v_m_grid, "v-m")) == default_v_m_grid()
        assert tuple(_parse_axis(args.r_grid, "ratio")) == default_r_grid()
        spec = OptimizationSpec(ChannelParams.pure_loss(0.9, 0.9), 0.98, 10**6)
        for name in ("eps_pa", "z", "delta_prefactor", "refinement_rounds"):
            flag, field = getattr(args, name), getattr(spec, name)
            assert (flag, type(flag)) == (field, type(field))


class TestBadInput:
    @pytest.mark.parametrize("command", ["simulate", "modscan"])
    def test_missing_link_flag_exits_two(self, capsys, command):
        assert run_cli(command) == 2
        assert "--bob-db or --tau-b" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (("rate", "--n-bar", "1e6", "--z", "nan"), "z"),
        (("rate", "--n-bar", "1e6", "--z", "inf"), "z"),
        (("simulate", "--tau-b", "0.5", "--v-m", "nan", "--m", "100",
          "--trials", "2"), "v_m"),
        (("rate", "--v-m", "nan"), "v_m"),
        (("rate", "--omega-a", "nan"), "omega_a"),
        (("rate", "--n-bar", "1e6", "--delta-prefactor", "nan"), "delta prefactor"),
        (("rate", "--n-bar", "1e6", "--delta-prefactor", "-1"), "delta prefactor"),
        (("simulate", "--tau-b", "0.5", "--m", "100", "--trials", "3",
          "--tolerance", "nan"), "tolerance"),
        (("simulate", "--tau-b", "0.5", "--m", "100", "--trials", "3",
          "--tolerance", "-0.1"), "tolerance"),
        (("rate", "--n-bar", "inf"), "bad block-size list"),
        (("rate", "--n-bar", "1e6,2.5"), "bad block-size list"),
        (("simulate", "--tau-b", "0.5", "--m", "100", "--trials", "2",
          "--seed", "-1"), "seed"),
        (("optimize", "--mode", "protocol", "--n-bar", "1e4", "--seed", "-1"), "seed"),
        (("simulate", "--tau-b", "0.5", "--m", "1e25", "--trials", "2"),
         "samples per trial"),
        (("rate", "--refinement-rounds", "600"), "refinement_rounds"),
    ])
    def test_invalid_number_exits_two_naming_it(self, capsys, argv, name):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} ")

    @pytest.mark.parametrize("argv", [
        ("rate", "--tau-a", "5e-324", "--bob-db", "2", "--n-bar", "1e9"),
        ("rate", "--tau-b", "1e-320", "--n-bar", "1e6"),
        ("optimize", "--tau-a", "1e-320", "--n-bar", "1e6"),
        ("sweep", "--tau-a", "1e-320", "--bob-db", "2", "--n-bar", "1e6"),
        ("simulate", "--tau-a", "1e-320", "--bob-db", "2", "--trials", "10"),
    ])
    def test_subnormal_transmissivity_exits_two(self, capsys, argv):
        # the link's quadrature variances underflow to 0, and their mix is 0/0
        assert run_cli(*argv) == 2
        link, tau = argv[1][-1], argv[2]
        err = capsys.readouterr().err
        assert err.startswith(f"error: tau_{link} spread is undefined: at tau_{link} = "
                              f"{tau} and v_m = ")
        assert err.endswith(" its two quadrature variances underflow to 0 or overflow "
                            "to inf\n")

    @pytest.mark.parametrize("rows, code, message", [
        ("0:3200:2", 3, "conditional joint state is unphysical: eigenvalue "
                        "0.999999998884 < 1"),
        ("3200:0:2", 2, "tau_b spread is undefined: at tau_b = 1e-320 and v_m = 1.0 its "
                        "two quadrature variances underflow to 0 or overflow to inf"),
    ])
    def test_multi_row_sweep_exits_with_the_first_row_error(self, capsys, rows, code,
                                                             message):
        # at 0 dB the asymptotic search meets a state below the physicality
        # band; at 3200 dB Bob's subnormal link has a 0/0 spread.  A sweep
        # runs its rows' searches in lockstep, yet fails as running them in
        # row order fails.
        assert run_cli("sweep", "--bob-db", rows, "--attack", "pure-loss",
                       "--tau-a", "0.999257", "--xi", "0.932263") == code
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ("sweep", "--bob-db", "0:0:1", "--r-grid", "0:2:3"),
        ("sweep", "--bob-db", "0:0:1", "--ratio", "1.5"),
        ("rate", "--bob-db", "0", "--n-bar", "1e6", "--ratio", "1.5"),
    ])
    def test_k_inf_search_error_precedes_a_bad_finite_size_flag(self, capsys, argv):
        # the K_inf search is built first and reads no finite-size flag, so
        # its state below the physicality band wins over the bad key
        # fraction, which fails only where the first finite-size search is
        # built
        assert run_cli(*argv, "--attack", "pure-loss", "--tau-a", "0.999257",
                       "--xi", "0.932263") == 3
        assert capsys.readouterr().err == ("error: conditional joint state is "
                                           "unphysical: eigenvalue 0.999999998884 < 1\n")

    @pytest.mark.parametrize("argv, message", [
        (("optimize", "--v-m", "inf"),
         "v_m (modulation variance) must be finite and >= 0, got inf"),
        (("optimize", "--v-m", "nan"),
         "v_m (modulation variance) must be finite and >= 0, got nan"),
        (("modscan", "--tau-b", "0.5", "--v-m-grid", "inf"),
         "v_m (modulation variance) must be finite and >= 0, got inf"),
        # the bad efficiency wins over the bad z, which the bounds reject
        (("optimize", "--xi", "1.5", "--z", "-1"),
         "reconciliation efficiency must lie in (0, 1], got 1.5"),
        # a sweep row's K_inf search at --v-m is a one-point spec, whose grid
        # must be positive
        (("sweep", "--v-m", "-1", "--bob-db", "2"),
         "v_m grid must be non-empty and positive"),
    ])
    def test_modulation_and_efficiency_are_checked_before_the_batch(self, capsys, argv,
                                                                     message):
        # the scalar route checks v_m and xi first and a batch last, so a spec
        # checks its grid and efficiency when it is built
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, name", [
        (("sweep", "--bob-db", "2", "--v-m-grid", "1:inf:3"), "v-m"),
        (("sweep", "--bob-db", "2", "--r-grid", "0.1:inf:3"), "ratio"),
        (("sweep", "--bob-db", "0:inf:3"), "bob-db"),
        (("sweep", "--bob-db", "0:1e309:2"), "bob-db"),
        (("sweep", "--common-db", "nan:1:2"), "common-db"),
    ])
    def test_non_finite_grid_endpoint_exits_two(self, capsys, argv, name):
        # rejected before np.linspace, which would warn on an inf endpoint
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == (f"error: bad {name} grid {argv[-1]!r}: start "
                                           "and stop must be finite\n")

    def test_subnormal_modulation_exits_two(self, capsys):
        # T / (tau v_m) overflows, so both quadrature variances are inf and
        # their mix is inf/inf
        assert run_cli("rate", "--v-m", "1e-320", "--n-bar", "1e6") == 2
        assert capsys.readouterr().err == (
            "error: tau_a spread is undefined: at tau_a = 0.98 and v_m = 1e-320 its two "
            "quadrature variances underflow to 0 or overflow to inf\n")

    def test_overflowing_attack_is_unphysical(self, capsys):
        # the ancilla matrix's spectrum overflows to NaN in Python floats,
        # without a numpy RuntimeWarning
        assert run_cli("rate", "--omega-a", "1e308") == 3
        assert capsys.readouterr().err.startswith(
            "error: attack covariance matrix is unphysical")

    def test_overflowing_noise_estimate_exits_three(self, capsys):
        # the estimated excess noise at v_m = 1e300 is too large to square
        assert run_cli("simulate", "--tau-b", "0.5", "--v-m", "1e300", "--m", "100",
                       "--trials", "2") == 3
        assert capsys.readouterr().err.startswith("error: excess-noise variance overflows")

    def test_underflowing_modulation_square_exits_three(self, capsys):
        # v_m = 1e-200 is positive, but v_m^2 underflows to 0
        assert run_cli("simulate", "--tau-b", "0.5", "--v-m", "1e-200", "--m", "100",
                       "--trials", "2") == 3
        assert capsys.readouterr().err.startswith("error: modulation variance 1e-200 ")


DATA = Path(__file__).resolve().parent / "data"


class TestGoldenPayloads:
    """Payload bytes of the rate-surface commands, written before their
    searches ran in lockstep, of `rate` and an `optimize` trace, written
    before the K_inf search became a spec, of `sweep --v-m`, written
    before its K_inf became a one-point spec, and of a sweep whose block
    sizes split in Python (1e20, past 2**53) and in arrays (1e9, 1e6),
    written before the split moved to arrays; any change to a printed
    digit shows here."""

    @pytest.mark.parametrize("name, argv", [
        ("sweep_default.csv", ("sweep",)),
        ("sweep_common_collective.json",
         ("sweep", "--common-db", "0:10:21", "--attack", "collective",
          "--n-bar", "1e5,1e7", "--format", "json")),
        ("modscan_pure_loss.csv",
         ("modscan", "--attack", "pure-loss", "--tau-b", "0.7", "--xi", "0.95",
          "--n-bar", "1e6")),
        ("rate_bob2_n1e9.json", ("rate", "--bob-db", "2", "--n-bar", "1e9")),
        ("optimize_n1e6_trace.txt", ("optimize", "--n-bar", "1e6", "--trace-out", "-")),
        ("sweep_v_m10.csv", ("sweep", "--v-m", "10", "--bob-db", "0:20:5")),
        ("sweep_n1e20_n1e9_n1e6.json",
         ("sweep", "--bob-db", "0:20:5", "--n-bar", "1e20,1e9,1e6", "--format", "json")),
    ])
    def test_payload_bytes(self, capsysbinary, name, argv):
        assert run_cli(*argv) == 0
        assert capsysbinary.readouterr().out == (DATA / name).read_bytes()
