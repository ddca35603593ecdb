"""Tests for the command line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opvol.cli import (
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_PASS,
    ConfigError,
    _fmt,
    load_config,
    main,
    resolve_scenario,
)
from opvol.experiments import default_scenario

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, name="scenario.json", **overrides):
    doc = {"replications": 24, "m_points": 10, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigLoading:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"lamda": 2.0}')
        with pytest.raises(ConfigError, match="'lamda'") as err:
            load_config(str(path))
        assert "valid fields" in str(err.value)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"rate": 2.0,}')
        with pytest.raises(ConfigError, match=r"c\.json:1:14"):
            load_config(str(path))

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.json"))

    def test_type_errors_name_the_field(self, tmp_path):
        cases = [
            ({"rate": "fast"}, "'rate' must be a number"),
            ({"d": True}, "'d' must be an integer"),
            ({"d": 8.5}, "'d' must be an integer"),
            ({"levels": [2, 2.5]}, r"'levels\[1\]' must be an integer"),
            ({"levels": "all"}, "'levels' must be a nonempty list"),
            ({"jump_gammas": 0.5}, "'jump_gammas' must be a nonempty list"),
            ({"truncation": 3}, "'truncation' must be a string"),
            ({"truncate_v0": 1}, "'truncate_v0' must be a boolean"),
        ]
        for doc, pattern in cases:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(ConfigError, match=pattern):
                load_config(str(path))

    def test_semantic_errors_become_config_errors(self, tmp_path):
        path = write_config(tmp_path, rate=-1.0)
        with pytest.raises(ConfigError, match="rate"):
            resolve_scenario(path, None)

    def test_shipped_default_matches_preset(self):
        sc = resolve_scenario("configs/default.json", None)
        ref = default_scenario()
        assert sc.levels == ref.levels
        assert sc.master_seed == ref.master_seed
        assert np.array_equal(sc.generator_spectrum, ref.generator_spectrum)
        assert np.array_equal(sc.jump_gammas, ref.jump_gammas)
        assert sc.truncation == "jumps"

    def test_shipped_generator_config(self):
        sc = resolve_scenario("configs/generator.json", None)
        assert sc.truncation == "generator"


class TestSeedPrecedence:
    def test_flag_wins(self, tmp_path):
        path = write_config(tmp_path, master_seed=42)
        assert resolve_scenario(path, 7).master_seed == 7

    def test_config_beats_environment(self, tmp_path):
        path = write_config(tmp_path, master_seed=42)
        sc = resolve_scenario(path, None, env={"OPVOL_SEED": "5"})
        assert sc.master_seed == 42

    def test_environment_fills_gap(self):
        sc = resolve_scenario(None, None, env={"OPVOL_SEED": "5"})
        assert sc.master_seed == 5

    def test_default_last(self):
        sc = resolve_scenario(None, None, env={})
        assert sc.master_seed == default_scenario().master_seed

    def test_bad_environment_seed(self):
        with pytest.raises(ConfigError, match="OPVOL_SEED"):
            resolve_scenario(None, None, env={"OPVOL_SEED": "abc"})


class TestFormatting:
    def test_seventeen_significant_digits(self):
        assert _fmt(1.0 / 3.0) == "0.33333333333333331"
        assert _fmt(0.0) == "0"
        assert _fmt(float("inf")) == "inf"

    def test_unix_newlines_and_header(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["verify", path, "--out-dir", str(out), "--threads", "1"]) == EXIT_PASS
        blob = (out / "bounds.csv").read_bytes()
        assert b"\r" not in blob
        head = blob.split(b"\n", 1)[0]
        assert head == b"bound_id,level,lhs,lhs_stderr,rhs,margin,pass"


class TestVerifyCommand:
    def test_default_scenario_passes(self, tmp_path):
        path = write_config(tmp_path)
        code = main(["verify", path, "--out-dir", str(tmp_path), "--threads", "1"])
        assert code == EXIT_PASS
        lines = (tmp_path / "bounds.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 3 + 9 * 3
        assert all(line.endswith(",true") for line in lines[1:])

    def test_full_level_rows_are_zero(self, tmp_path):
        path = write_config(tmp_path, levels=[8])
        code = main(["verify", path, "--out-dir", str(tmp_path), "--threads", "1"])
        assert code == EXIT_PASS
        lines = (tmp_path / "bounds.csv").read_text().strip().split("\n")[1:]
        per_level = [ln for ln in lines if ln.split(",")[1] == "8"]
        assert per_level
        for line in per_level:
            cols = line.split(",")
            assert cols[2] == "0" and cols[4] == "0"

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, rate=-2.0)
        code = main(["verify", path, "--out-dir", str(tmp_path)])
        assert code == EXIT_ERROR
        assert "rate" in capsys.readouterr().err
        assert not (tmp_path / "bounds.csv").exists()

    def test_non_finite_rate_exits_one(self, tmp_path, capsys):
        for value in (float("nan"), float("inf")):
            path = write_config(tmp_path, rate=value)
            code = main(["verify", path, "--out-dir", str(tmp_path)])
            assert code == EXIT_ERROR
            err = capsys.readouterr().err
            assert err.startswith("error: rate must be finite")
            assert err.count("\n") == 1
        assert not (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"replications": 4, "horizon": 1e308, "exercise_time": 1e308},
            {"replications": 4, "rate": 1e300},
        ],
    )
    def test_huge_expected_jump_count_exits_one(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, **overrides)
        code = main(["verify", path, "--threads", "1", "--out-dir", str(tmp_path)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: rate * horizon = ")
        assert "lower rate or horizon" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize("seed", ["12", "14", "29"])
    def test_one_jump_in_total_is_not_a_config_error(self, tmp_path, capsys, seed):
        # with a single jump |mean X|^2 and mean |X|^2 are the same number,
        # and their two roundings may put the first one ulp above the second
        path = write_config(tmp_path, rate=0.3, replications=2, m_points=20)
        code = main(["verify", path, "--seed", seed, "--threads", "1", "--out-dir", str(tmp_path)])
        assert code != EXIT_ERROR
        assert "exceeds" not in capsys.readouterr().err

    def test_huge_grid_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, m_points=10**6 + 1)
        code = main(["verify", path, "--threads", "1", "--out-dir", str(tmp_path)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: m_points = 1000001 exceeds 1000000; lower m_points\n"
        assert not (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_numerical_failure_exits_one_naming_the_slot(self, tmp_path, capsys, threads):
        # V(t) = V0 e^{1600 t} overflows to inf first at t = 0.5, slot 5 of the jump-free grid
        path = write_config(tmp_path, replications=4, rate=0.0, generator_spectrum=[800.0] * 8)
        with np.errstate(all="ignore"):
            code = main(["verify", path, "--threads", threads, "--out-dir", str(tmp_path)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        line = [ln for ln in err.splitlines() if ln.startswith("error: ")]
        assert line == [
            "error: numerical failure in replication 0, exact path, grid slot 5 (t = 0.5), "
            "first non-finite value: SVD did not converge"
        ]
        assert not (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_numerical_failure_prints_one_line_and_no_warnings(self, tmp_path, capfd, threads):
        # capfd sees the worker processes' stderr too: numpy's overflow and
        # invalid-value warnings from the replications must not reach it
        doc = {"generator_spectrum": [800.0] * 8, "replications": 4, "m_points": 20}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", str(path), "--threads", threads, "--out-dir", str(tmp_path)])
        assert code == EXIT_ERROR
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("error: numerical failure in replication 0, exact path, grid slot ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_statistic_exits_one_without_warnings(self, tmp_path, capfd, threads):
        # every replication finishes, but |V - V^n|_HS^2 overflows for entries
        # near 1e155: one line naming the statistic, no reduction, no warning
        doc = {"truncate_v0": True, "v0_diag": [1e155] * 8, "replications": 4, "m_points": 10}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", str(path), "--threads", threads, "--out-dir", str(tmp_path)])
        assert code == EXIT_ERROR
        out, err = capfd.readouterr()
        assert out == ""
        assert err == "error: numerical failure in replication 0: statistic sup_hs at level 2 is inf\n"
        assert not (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"truncation": "generator", "generator_spectrum": [184.0] * 8}, "generator_spectrum"),
            ({"truncation": "jumps", "generator_spectrum": [184.0] * 8}, "generator_spectrum"),
            ({"truncation": "jumps", "forward_spectrum": [400.0] * 8}, "forward_spectrum"),
        ],
        ids=["generator", "jumps", "forward"],
    )
    def test_overflowing_growth_factor_exits_one(self, tmp_path, capsys, overrides, field):
        # every replication finishes; the bound constant e^{2 T ||c||} (or
        # e^{2 k T}) would overflow, and that is one line naming the fields
        path = write_config(tmp_path, rate=0.0, replications=4, m_points=20, **overrides)
        code = main(["verify", path, "--threads", "1", "--out-dir", str(tmp_path)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: growth factor exp(")
        assert err.endswith(f") overflows: lower |{field}| or horizon\n")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "command, doc, line",
        [
            ("price", {"payoff_kind": "put", "payoff_strike": 1e308, "replications": 4, "m_points": 20},
             "error: numerical failure: pricing at level 2: price is inf\n"),
            ("verify", {"q_spectrum": [1e300, 1, 1, 1, 1, 1, 1, 1], "replications": 4, "m_points": 20},
             "error: numerical failure: forward_noise at level 2: lhs_stderr is inf\n"),
            ("converge", {"q_spectrum": [1e300, 1, 1, 1, 1, 1, 1, 1], "replications": 4, "m_points": 20},
             "error: numerical failure: forward_sup_sq at level 2: stderr is inf\n"),
        ],
        ids=["price-mean", "verify-stderr", "converge-stderr"],
    )
    def test_overflowing_reduction_exits_one_without_warnings(self, tmp_path, capfd, threads,
                                                              command, doc, line):
        # every statistic is finite, but a mean or a standard error of them
        # overflows: one line naming the row and the value, not a pass
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code = main([command, str(path), "--threads", threads, "--out-dir", str(tmp_path)])
        assert code == EXIT_ERROR
        out, err = capfd.readouterr()
        assert out == ""
        assert err == line
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command", ["price", "verify"])
    def test_exercise_time_near_a_grid_point_is_priced_there(self, tmp_path, capfd, threads, command):
        # 0.3333333333 is within the scenario's 1e-9 steps of the point 1/3
        # of a 3-step grid, though not within 1e-12 of it
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"m_points": 3, "exercise_time": 0.3333333333, "replications": 4}))
        code = main([command, str(path), "--threads", threads, "--out-dir", str(tmp_path)])
        out, err = capfd.readouterr()
        assert code == EXIT_PASS, err
        assert out == "" and err == ""
        exact = main([command, "--threads", "1", "--out-dir", str(tmp_path / "exact")] + [
            write_config(tmp_path, name="third.json", m_points=3, exercise_time=1.0 / 3.0,
                         replications=4)
        ])
        assert exact == EXIT_PASS
        name = "pricing.csv" if command == "price" else "bounds.csv"
        assert (tmp_path / name).read_bytes() == (tmp_path / "exact" / name).read_bytes()

    def test_threads_below_one_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path)
        for value in ("0", "-5"):
            code = main(["verify", path, "--threads", value, "--out-dir", str(tmp_path)])
            assert code == EXIT_ERROR
            assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("value", [-1, 8])
    def test_functional_coordinate_out_of_range_exits_one(self, tmp_path, capfd, threads, value):
        # d = 8: -1 would price the last coordinate, 8 would index none
        path = write_config(tmp_path, functional_coordinate=value, replications=4, m_points=20)
        code = main(["price", path, "--threads", threads, "--out-dir", str(tmp_path)])
        assert code == EXIT_ERROR
        out, err = capfd.readouterr()
        assert out == ""
        assert err == f"error: functional_coordinate must lie in 0..7, got {value}\n"
        assert not (tmp_path / "pricing.csv").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("source", ["config", "flag", "environment"])
    def test_negative_master_seed_exits_one(self, tmp_path, capfd, monkeypatch, threads, source):
        # rejected before any replication, whichever source the seed resolves from
        overrides = {"master_seed": -3} if source == "config" else {}
        path = write_config(tmp_path, replications=4, m_points=20, **overrides)
        argv = ["verify", path, "--threads", threads, "--out-dir", str(tmp_path)]
        if source == "flag":
            argv += ["--seed", "-3"]
        monkeypatch.delenv("OPVOL_SEED", raising=False)
        if source == "environment":
            monkeypatch.setenv("OPVOL_SEED", "-3")
        code = main(argv)
        assert code == EXIT_ERROR
        out, err = capfd.readouterr()
        assert out == ""
        assert err == "error: master_seed must be nonnegative, got -3\n"
        assert not (tmp_path / "bounds.csv").exists()

    def test_bound_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        import opvol.cli as cli_mod
        from opvol.experiments import ExperimentResult, make_report

        failing = ExperimentResult(
            default_scenario(), (make_report("x", 1, 1.0, 0.0, 0.0, 0.0),), ()
        )
        monkeypatch.setattr(cli_mod, "run_experiment", lambda scenario, workers=1: failing)
        code = main(["verify", "--out-dir", str(tmp_path)])
        assert code == EXIT_FAIL
        line = (tmp_path / "bounds.csv").read_text().strip().split("\n")[1]
        assert line.endswith(",false")
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "fail: x level 1 margin -inf lhs 1 rhs 0\n"

    def test_bound_failure_lists_only_failing_rows(self, tmp_path, monkeypatch, capsys):
        import opvol.cli as cli_mod
        from opvol.experiments import ExperimentResult, make_report

        reports = (
            make_report("variance_jumps", 2, 2.0, 0.25, 0.5, 0.0),
            make_report("variance_jumps", 4, 0.25, 0.25, 0.5, 0.0),
            make_report("sqrt_op", 6, 0.75, 0.0625, 0.5, 0.0),
        )
        result = ExperimentResult(default_scenario(), reports, ())
        monkeypatch.setattr(cli_mod, "run_experiment", lambda scenario, workers=1: result)
        assert main(["verify", "--out-dir", str(tmp_path)]) == EXIT_FAIL
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "fail: variance_jumps level 2 margin -6 lhs 2 rhs 0.5",
            "fail: sqrt_op level 6 margin -4 lhs 0.75 rhs 0.5",
        ]


class TestConvergeCommand:
    def test_default_levels_monotone(self, tmp_path):
        path = write_config(tmp_path, replications=60)
        code = main(["converge", path, "--out-dir", str(tmp_path), "--threads", "1"])
        assert code == EXIT_PASS
        lines = (tmp_path / "convergence.csv").read_text().strip().split("\n")
        assert lines[0] == "level,bound_id,estimate,stderr"
        assert len(lines) == 1 + 6 * 3

    def test_too_few_levels_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, levels=[4])
        code = main(["converge", path, "--out-dir", str(tmp_path)])
        assert code == EXIT_ERROR
        assert "three levels" in capsys.readouterr().err

    def test_non_monotone_series_exits_two_naming_it(self, tmp_path, monkeypatch, capsys):
        import opvol.cli as cli_mod
        from opvol.experiments import ConvergenceRow, ConvergenceStudy

        rows = (
            ConvergenceRow(2, "variance_sup_sq", 1.0, 0.0),
            ConvergenceRow(2, "forward_sup_sq", 0.5, 0.125),
            ConvergenceRow(4, "variance_sup_sq", 0.5, 0.0),
            ConvergenceRow(4, "forward_sup_sq", 2.0, 0.125),
        )
        study = ConvergenceStudy(
            default_scenario(), rows, {"variance_sup_sq": True, "forward_sup_sq": False}
        )
        monkeypatch.setattr(cli_mod, "convergence_study", lambda scenario, workers=1: study)
        assert main(["converge", "--out-dir", str(tmp_path)]) == EXIT_FAIL
        assert len((tmp_path / "convergence.csv").read_text().strip().split("\n")) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "fail: forward_sup_sq not weakly decreasing: "
            "level 2 0.5 +- 0.125, level 4 2 +- 0.125\n"
        )

    def test_seed_repeatability_bytes(self, tmp_path):
        path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["converge", path, "--seed", "7", "--out-dir", str(out_a), "--threads", "1"]) == EXIT_PASS
        assert main(["converge", path, "--seed", "7", "--out-dir", str(out_b), "--threads", "1"]) == EXIT_PASS
        assert (out_a / "convergence.csv").read_bytes() == (out_b / "convergence.csv").read_bytes()


class TestPriceCommand:
    def test_constant_payoff_constant_price(self, tmp_path):
        path = write_config(tmp_path, payoff_kind="constant", payoff_strike=5.0)
        code = main(["price", path, "--out-dir", str(tmp_path), "--threads", "1"])
        assert code == EXIT_PASS
        lines = (tmp_path / "pricing.csv").read_text().strip().split("\n")
        assert lines[0] == "level,P,stderr,price_diff,lipschitz_bound,theorem_cap,pass"
        for line in lines[1:]:
            cols = line.split(",")
            assert cols[1] == "5" and cols[2] == "0" and cols[3] == "0"
            assert cols[-1] == "true"

    def test_failing_rows_exit_two_naming_them(self, tmp_path, monkeypatch, capsys):
        import opvol.cli as cli_mod
        from opvol.experiments import ExperimentResult
        from opvol.pricing import PricingReport

        rows = (
            PricingReport(2, 1.0, 0.1, 0.5, 0.1, 0.5, 0.0, 0.25, 0.0),
            PricingReport(4, 1.0, 0.1, 0.9, 0.1, 0.125, 0.0, 0.25, 0.0, 1.0, 0.0),
        )
        result = ExperimentResult(default_scenario(), (), rows)
        monkeypatch.setattr(cli_mod, "run_experiment", lambda scenario, workers=1: result)
        assert main(["price", "--out-dir", str(tmp_path)]) == EXIT_FAIL
        lines = (tmp_path / "pricing.csv").read_text().strip().split("\n")[1:]
        assert [ln.endswith(",false") for ln in lines] == [True, False]
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "fail: pricing level 2 chain_margin -inf price_diff 0.5 lipschitz_bound 0.25 "
            "cap_margin inf theorem_cap inf\n"
        )

    def test_identity_payoff_centered(self, tmp_path):
        path = write_config(tmp_path, payoff_kind="identity", replications=200)
        code = main(["price", path, "--out-dir", str(tmp_path), "--threads", "1"])
        assert code == EXIT_PASS
        for line in (tmp_path / "pricing.csv").read_text().strip().split("\n")[1:]:
            cols = line.split(",")
            assert abs(float(cols[1])) <= 3.0 * float(cols[2])

    def test_chain_passes_on_reference(self, tmp_path):
        path = write_config(tmp_path, replications=80)
        code = main(["price", path, "--out-dir", str(tmp_path), "--threads", "1"])
        assert code == EXIT_PASS
        lines = (tmp_path / "pricing.csv").read_text().strip().split("\n")[1:]
        assert len(lines) == 3
        assert all(ln.endswith(",true") for ln in lines)


class TestDeterminismAcrossThreads:
    def test_verify_thread_count_invisible_in_bytes(self, tmp_path):
        path = write_config(tmp_path, replications=16)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", path, "--seed", "7", "--threads", "1", "--out-dir", str(out_a)]) == EXIT_PASS
        assert main(["verify", path, "--seed", "7", "--threads", "3", "--out-dir", str(out_b)]) == EXIT_PASS
        assert (out_a / "bounds.csv").read_bytes() == (out_b / "bounds.csv").read_bytes()

    @pytest.mark.parametrize("extreme", [-1e4, -1e300])
    def test_extreme_forward_exponents_verify_silently(self, tmp_path, capfd, extreme):
        # coordinates that decay within a step beside drift-free ones: the
        # transport stays finite and warns about nothing
        spectrum = [0.0, extreme] * 4
        path = write_config(tmp_path, replications=4, m_points=200, forward_spectrum=spectrum)
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert main(["verify", path, "--threads", threads, "--out-dir", str(out)]) == EXIT_PASS
            assert capfd.readouterr() == ("", "")
            csvs.append((out / "bounds.csv").read_bytes())
        assert csvs[0] == csvs[1]


class TestSetup:
    @pytest.mark.parametrize("command", ["verify", "price", "converge"])
    @pytest.mark.parametrize("truncation", ["jumps", "generator"])
    def test_a_run_imports_nothing_after_setup(self, tmp_path, command, truncation):
        # numpy loads some submodules on first use (numpy.random, numpy.ma);
        # one first used inside the engine is paid by the first replication
        path = write_config(tmp_path, replications=2, truncation=truncation)
        script = (
            "import sys\n"
            "from opvol import cli\n"
            "before = set(sys.modules)\n"
            f"code = cli.main([{command!r}, {path!r}, '--threads', '1', '--out-dir', {str(tmp_path)!r}])\n"
            "print(code, sorted(set(sys.modules) - before))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.stdout == "0 []\n", proc.stderr

    def test_import_leaves_the_process_pool_unloaded(self):
        # only a run with more than one worker imports the pool's modules
        script = (
            "import sys\n"
            "import opvol.cli\n"
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.stdout == "[]\n", proc.stderr


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["plot"])
