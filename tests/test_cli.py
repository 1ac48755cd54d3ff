import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
DATA = Path(__file__).resolve().parent / "data"


def run_cli(*argv, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "ietflow.cli", *argv],
                          capture_output=True, text=True, env=env)
    if check and proc.returncode != 0:
        raise AssertionError("cli failed (%d): %s\n%s"
                             % (proc.returncode, proc.stdout, proc.stderr))
    return proc


class TestBasics:
    def test_induct_matches_committed_fixture(self):
        proc = run_cli("rv", "induct", "--steps", "10")
        expected = (DATA / "golden_induct_10.jsonl").read_text()
        assert proc.stdout == expected

    def test_iet_eval(self):
        proc = run_cli("iet", "eval", "--x", "1/2", "--n", "1")
        out = json.loads(proc.stdout)
        # golden rotation: 1/2 + (sqrt5-1)/2 - 1 = (sqrt5 - 2)/2... check float
        assert out["float"] == pytest.approx((0.5 + 0.6180339887498949) % 1)

    def test_keane_exit_codes(self, tmp_path):
        proc = run_cli("iet", "keane", "--depth", "50")
        assert json.loads(proc.stdout)["satisfied_to_depth"] is True
        # a rational rotation collides: exit 1
        iet_file = tmp_path / "rat.iet"
        iet_file.write_text("alphabet = A B\ntop = A B\nbottom = B A\n"
                            "lengths = 2/3 1/3\n")
        proc = run_cli("iet", "keane", "--iet", str(iet_file), "--depth",
                       "10", check=False)
        assert proc.returncode == 1

    @pytest.mark.parametrize("iet_text,stdout,code", [
        (None, '{"colliding_pair": null, "depth": 1500, '
               '"satisfied_to_depth": true}\n', 0),
        ("bounded3", '{"colliding_pair": null, "depth": 1500, '
                     '"satisfied_to_depth": true}\n', 0),
        ("top = A B\nbottom = B A\nlengths = 2/3 1/3\n",
         '{"colliding_pair": "((0, 3), (\'disc\', \'2/3\'))", '
         '"depth": 1500, "satisfied_to_depth": false}\n', 1)],
        ids=["golden", "bounded3", "rotation_third"])
    def test_keane_report_at_depth_1500(self, tmp_path, iet_text, stdout,
                                        code):
        args = []
        if iet_text == "bounded3":
            args = ["--iet", str(Path(SRC) / "ietflow" / "data" /
                                 "bounded3.iet")]
        elif iet_text:
            (tmp_path / "rot.iet").write_text(iet_text)
            args = ["--iet", str(tmp_path / "rot.iet")]
        proc = run_cli("iet", "keane", "--depth", "1500", *args, check=False)
        assert (proc.stdout, proc.returncode) == (stdout, code)

    def test_zero_denominator_in_iet_file_is_usage_error(self, tmp_path):
        iet_file = tmp_path / "bad.iet"
        iet_file.write_text("alphabet = A B\ntop = A B\nbottom = B A\n"
                            "lengths = 1/2 1/0\n")
        proc = run_cli("rv", "induct", "--iet", str(iet_file), "--steps",
                       "2", check=False)
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "usage"

    def test_unknown_flag_usage_error(self):
        proc = run_cli("rv", "induct", "--steps", "2", "--nope", check=False)
        assert proc.returncode == 2

    def test_dc_ratner_depth_zero(self):
        proc = run_cli("dc", "ratner", "--depth", "0", "--steps", "8")
        out = json.loads(proc.stdout)
        assert out["bad_indices"] == []
        assert out["partial_sum"] == 0.0

    def test_towers_partition_flag(self):
        proc = run_cli("rv", "towers", "--at", "5")
        assert json.loads(proc.stdout)["partition_exact"] is True

    def test_zip_backward(self):
        proc = run_cli("zip", "backward", "--steps", "3")
        lines = [json.loads(l) for l in proc.stdout.splitlines()]
        assert len(lines) == 3
        assert all(line["type"] in ("top", "bottom") for line in lines)

    def test_accel(self):
        proc = run_cli("rv", "accel", "--steps", "20", "--nu", "3",
                       "--lbar-max", "4")
        out = json.loads(proc.stdout)
        assert out["lbar"] == 2
        assert out["count"] == 20

    def test_param_window_usage_error(self):
        proc = run_cli("dc", "mixing", "--depth", "5", "--tau", "2",
                       check=False)
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["field"] == "tau"


class TestExperimentLog:
    def test_log_record_and_replay_determinism(self, tmp_path):
        log = tmp_path / "exp.jsonl"
        argv = ["mix", "correlate", "--t", "2.0", "--samples", "5000",
                "--seed", "11", "--log", str(log)]
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.stdout == second.stdout
        records = [json.loads(l) for l in log.read_text().splitlines()]
        assert len(records) == 2
        assert records[0]["results"] == records[1]["results"]
        assert records[0]["config"]["samples"] == 5000
        assert records[0]["seed"] == 11

    def test_log_carries_fingerprint(self, tmp_path):
        log = tmp_path / "exp.jsonl"
        run_cli("rv", "towers", "--at", "4", "--log", str(log))
        record = json.loads(log.read_text())
        assert record["fingerprint"]
        assert record["command"] == "rv towers"


class TestAnalysisCommands:
    def test_bs_sigma_sets_csv(self):
        proc = run_cli("bs", "sigma-sets", "--l-max", "4", "--steps", "20",
                       "--csv")
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("ell,sigma,measure,bound,q,normA")
        assert len(lines) == 5

    def test_dc_mixing(self):
        proc = run_cli("dc", "mixing", "--depth", "10", "--steps", "25")
        out = json.loads(proc.stdout)
        assert out["all_balanced"] is True
        assert out["all_windows_positive"] is True

    def test_dc_summability(self):
        proc = run_cli("dc", "summability", "--depth", "8", "--steps", "30",
                       "--window-len", "0")
        out = json.loads(proc.stdout)
        assert out["members"] == list(range(1, 9))
        assert out["sum_sigma_eta"] == 0.0

    def test_ratner_forbac_small(self):
        proc = run_cli("ratner", "forbac", "--l-range", "6..7", "--grid",
                       "25", "--steps", "30")
        lines = proc.stdout.splitlines()
        summary = json.loads(lines[-1])
        assert summary["failures"] == 0

    def test_ratner_forbac_refuses_total_off_one(self, tmp_path):
        # the golden rotation scaled to total 1/2: the grid and the eps/8
        # margins are placed on [0, 1), so the scan names the total
        iet_file = tmp_path / "half.iet"
        iet_file.write_text("top = A B\nbottom = B A\n"
                            "lengths = (3-1*sqrt(5))/4 (-1+1*sqrt(5))/4\n")
        proc = run_cli("ratner", "forbac", "--iet", str(iet_file),
                       "--l-range", "6..6", "--grid", "5", "--steps", "30",
                       check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr) == {
            "error": "usage",
            "detail": "the SR witness needs an IET on [0, 1), got total 1/2"}

    def test_ratner_witness_small(self):
        proc = run_cli("ratner", "witness", "--eps", "0.2", "--pairs", "6",
                       "--seed", "3", "--rate-floor", "0.5")
        lines = [json.loads(l) for l in proc.stdout.splitlines()]
        summary = lines[-1]
        assert summary["pairs"] == 6
        assert summary["verified"] >= 3
        assert summary["reverified"] == summary["verified"]

    def test_ratner_witness_log_counts_failures_by_kind(self, tmp_path):
        # seed 4 draws one pair that fails on its Birkhoff deviation
        log = tmp_path / "exp.jsonl"
        proc = run_cli("ratner", "witness", "--eps", "0.2", "--pairs", "6",
                       "--seed", "4", "--rate-floor", "0.5", "--log",
                       str(log))
        rows = [json.loads(l) for l in proc.stdout.splitlines()][:-1]
        failures = json.loads(log.read_text())["results"]["failures"]
        assert failures == {"straddle": 0, "deviation": 1, "tie": 0}
        failed = [row for row in rows if row["verdict"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["reason"].startswith("Birkhoff deviation")

    def test_ratner_witness_impossible_gap_is_usage_error(self):
        # 19/20 is far above min(eps, eps^2) = 0.04: named before sampling
        proc = run_cli("ratner", "witness", "--eps", "0.2", "--pairs", "3",
                       "--gap", "19/20", check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""
        err = json.loads(proc.stderr)
        assert err["error"] == "usage"
        assert err["detail"].startswith("pair gap 19/20 outside (0, ")

    def test_mix_correlate_one_sample_is_usage_error(self):
        # no NaN stderr on stdout, which JSON cannot carry
        proc = run_cli("mix", "correlate", "--t", "1", "--samples", "1",
                       check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr) == {
            "error": "usage",
            "detail": "n_samples = 1: a mixing probe needs at least 2 "
                      "samples"}

    def test_ratner_witness_too_few_pairs_is_one_json_line(self, capsys,
                                                           monkeypatch):
        from ietflow import cli
        from ietflow.ratner import PairSamplingError

        def short_sample(*args, **kwargs):
            raise PairSamplingError(100, 7, 50)

        monkeypatch.setattr(cli, "witness_run", short_sample)
        code = cli.main(["ratner", "witness", "--eps", "0.2", "--pairs",
                         "100", "--steps", "30"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "PairSamplingError", "requested": 100, "found": 7,
            "max_tries": 50,
            "detail": "could not sample 100 good pairs: found 7 in 50 tries"}

    def test_bs_growth_stops_when_sigma_covers_the_range(self, capsys):
        # at r = 3 (scale 2) Sigma_2^+ is [0, 1]: every draw is excluded,
        # and the sampler gives up after its fixed number of draws
        from ietflow import cli
        from ietflow.ratner import SAMPLE_TRIES

        code = cli.main(["bs", "growth", "--r-grid", "3", "--points", "1",
                         "--steps", "30"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert json.loads(captured.err) == {
            "error": "PairSamplingError", "requested": 1, "found": 0,
            "max_tries": SAMPLE_TRIES,
            "detail": "could not sample 1 good pairs: found 0 in %d tries"
                      % SAMPLE_TRIES}

    def test_bs_growth_small(self):
        proc = run_cli("bs", "growth", "--r-grid", "500,1500", "--points",
                       "4", "--steps", "40", "--seed", "2", check=False)
        assert proc.returncode == 0
        lines = [json.loads(l) for l in proc.stdout.splitlines()]
        assert all(line["lower_ok"] and line["upper_ok"] for line in lines)


class TestErrorReports:
    """`_run` reports every error of a run as one JSON object on stderr."""

    @pytest.mark.parametrize("argv,value", [
        ("mix correlate --samples 100 --t nan", "t = nan"),
        ("mix correlate --samples 100 --t=-inf", "t = -inf"),
        ("flow orbit --x 1/3 --t inf", "y + t = inf"),
        ("flow orbit --x 1/3 --t nan", "y + t = nan"),
        ("flow orbit --x 1/3 --y 1e308 --t 1e308", "y + t = inf")])
    def test_non_finite_flow_time_is_a_usage_error(self, argv, value,
                                                   capsys):
        from ietflow import cli

        code = cli.main(argv.split())
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        err = json.loads(captured.err)
        assert err["error"] == "usage"
        assert err["detail"].startswith("flow time %s " % value)
        assert err["detail"].endswith("is not finite")

    @pytest.mark.parametrize("argv,step", [
        ("rv towers --at -1", -1), ("rv induct --steps -2", -2),
        ("dc mixing --depth 2 --steps -1", -1)])
    def test_negative_induction_step_is_a_usage_error(self, argv, step,
                                                      capsys):
        from ietflow import cli

        code = cli.main(argv.split())
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err) == {
            "error": "usage", "detail": "negative induction step %d" % step}

    @pytest.mark.parametrize("argv,flag,value", [
        (argv, "--eps", value)
        for argv in ("ratner witness --pairs 1",
                     "ratner forbac --l-range 6..6 --grid 1",
                     "bs growth --points 1")
        for value in ("inf", "-inf", "nan", "0", "-0.5", "1e400")] + [
        (argv, flag, value)
        for argv, flag in (("ratner witness --eps 0.2", "--pairs"),
                           ("ratner forbac --l-range 6..6", "--grid"),
                           ("bs growth", "--points"))
        for value in ("-1", "0")])
    def test_flag_outside_its_domain_is_a_usage_error(self, argv, flag,
                                                      value, capsys):
        # refused by the flag's argparse type before the command runs
        from ietflow import cli

        code = cli.main(argv.split() + ["%s=%s" % (flag, value)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert len(captured.err.splitlines()) == 1
        need = "a finite %s" % flag if flag == "--eps" else flag
        assert json.loads(captured.err) == {
            "error": "usage", "field": flag[2:],
            "detail": "need %s > 0, got %s" % (need, value)}

    @pytest.mark.parametrize("y,t", [("-1", "1"), ("-1e-300", "1"),
                                     ("-inf", "1"), ("-0.5", "-2")])
    def test_flow_point_below_the_base_is_a_usage_error(self, y, t, capsys):
        from ietflow import cli

        code = cli.main(["flow", "orbit", "--x", "1/3", "--t", t,
                         "--y=" + y])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert len(captured.err.splitlines()) == 1
        assert json.loads(captured.err) == {
            "error": "usage",
            "detail": "flow point y = %r is below 0, outside the flow space"
                      % float(y)}

    @pytest.mark.parametrize("command,flag", [
        ("ratner witness", "--eps"), ("ratner witness", "--pairs"),
        ("ratner forbac", "--eps"), ("ratner forbac", "--grid"),
        ("bs growth", "--eps"), ("bs growth", "--points")])
    def test_flag_help_states_its_domain(self, command, flag):
        from ietflow import cli

        parser = cli.build_parser()
        for word in command.split():
            sub = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
            parser = sub.choices[word]
        text = next(a.help for a in parser._actions
                    if flag in a.option_strings)
        assert text.endswith("> 0")
        assert ("finite" in text) == (flag == "--eps")

    @pytest.mark.parametrize("t", ["1", "-2"])
    def test_flow_point_at_negative_zero_flows_from_the_base(self, t,
                                                              capsys):
        # -0.0 is not below 0: it flows as y = 0 does
        from ietflow import cli

        ends = []
        for y in ("0", "-0.0"):
            code = cli.main(["flow", "orbit", "--x", "1/3", "--t", t,
                             "--y=" + y])
            out = json.loads(capsys.readouterr().out)
            assert code == 0
            ends.append((out["end_x"], out["end_y"],
                         out["discrete_iterations"]))
        assert ends[0] == ends[1]

    #: three accelerated times at --steps 30
    FOUR = ("top = A B C D\nbottom = D C B A\n"
            "lengths = 3/17 5/19 2/7 621/2261\n")

    @pytest.mark.parametrize("argv,need", [
        ("bs sigma-sets --l-max 2", 3), ("bs sigma-sets --l-max 3", 4),
        ("dc summability --depth 2 --window-len 0", 3),
        ("dc summability --depth 3 --window-len 0", 4),
        ("dc ratner --depth 2 --window-len 0", 3),
        ("dc ratner --depth 3 --window-len 0", 4)])
    def test_running_past_the_accelerated_times_is_a_usage_error(
            self, argv, need, tmp_path, capsys):
        from ietflow import cli

        iet_file = tmp_path / "four.iet"
        iet_file.write_text(self.FOUR)
        code = cli.main(argv.split() + ["--steps", "30", "--iet",
                                        str(iet_file)])
        captured = capsys.readouterr()
        if need <= 3:
            assert (code, captured.err) == (0, "")
            return
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err) == {
            "error": "usage",
            "detail": "acceleration too short: need %d times, have 3" % need}

    @pytest.mark.parametrize("argv", [
        "iet eval --x (1+1*sqrt(2))/4",
        "flow orbit --x (1+1*sqrt(2))/4 --t 1"])
    def test_point_in_another_field_is_a_usage_error(self, argv, capsys):
        from ietflow import cli

        code = cli.main(argv.split())
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err)["error"] == "usage"

    HALF = "top = A B\nbottom = B A\nlengths = 1/2 1/2\n"

    @pytest.mark.parametrize("argv", [
        "rv induct --steps 3", "bs sigma-sets --l-max 2",
        "bs growth --points 1 --r-grid 10",
        "ratner witness --eps 0.2 --pairs 1",
        "ratner forbac --l-range 1..1 --grid 1"])
    def test_undefined_induction_fails_each_command_alike(self, argv,
                                                          tmp_path, capsys):
        from ietflow import cli

        iet_file = tmp_path / "half.iet"
        iet_file.write_text(self.HALF)
        code = cli.main(argv.split() + ["--iet", str(iet_file)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert json.loads(captured.err) == {
            "error": "RVUndefined",
            "detail": "last top and bottom intervals both have length 1/2",
            "depth_reached": 0}

    def test_depth_rides_on_the_error(self):
        from ietflow.exact import ExactScalar
        from ietflow.iet import Iet, Permutation
        from ietflow.rauzy import InductionTrace, RVUndefinedError

        # 3/8 1/8 1/2 on A B C / C B A: a top step (1/2 > 3/8) leaves
        # C at 1/8, equal to B
        iet = Iet(Permutation("ABC", "CBA"),
                  [ExactScalar.parse(v) for v in ("3/8", "1/8", "1/2")])
        trace = InductionTrace(iet)
        with pytest.raises(RVUndefinedError) as exc:
            trace.extend(5)
        assert exc.value.depth == trace.depth == 1

    #: each bump flag and the BumpObservable field it sets
    BUMP_FIELDS = {"--gx": "x0", "--gw": "wx", "--gy": "y0", "--gwy": "wy",
                   "--hx": "x0", "--hw": "wx", "--hy": "y0", "--hwy": "wy"}

    @pytest.mark.parametrize("flag,value", [
        (flag, value) for flag in ("--gw", "--gwy", "--hw", "--hwy")
        for value in ("nan", "inf", "0", "-1")] + [
        (flag, value) for flag in ("--gx", "--gy", "--hx", "--hy")
        for value in ("nan", "inf")])
    def test_bump_outside_its_domain_is_a_usage_error(self, flag, value,
                                                      capsys):
        from ietflow import cli

        code = cli.main(["mix", "correlate", "--t", "1", "--samples", "100",
                         "%s=%s" % (flag, value)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)
        assert err["error"] == "usage"
        assert err["detail"].startswith("BumpObservable %s = "
                                        % self.BUMP_FIELDS[flag])

    @pytest.mark.parametrize("writer", ["_emit", "_rows", "_log_record"])
    def test_non_finite_output_is_one_json_error(self, writer, monkeypatch,
                                                 tmp_path, capsys):
        # strict JSON: a non-finite float in a payload, a row or a log
        # record fails the run (exit 1) before the line is written
        import types

        from ietflow import cli

        log = tmp_path / "exp.jsonl"
        argv = ["mix", "correlate", "--t", "1", "--samples", "100", "--log",
                str(log)]
        if writer == "_emit":
            monkeypatch.setattr(cli, "roof_area", lambda iet, spec: math.inf)
        elif writer == "_rows":
            argv = ["bs", "sigma-sets", "--l-max", "2", "--log", str(log)]
            monkeypatch.setattr(cli, "sigma_set", lambda *args:
                                types.SimpleNamespace(
                                    sigma=1, measure=math.nan, bound=1.0))
        else:
            emit = cli._emit

            def emit_then_spoil(payload):
                emit(payload)
                payload["estimate"] = -math.inf

            monkeypatch.setattr(cli, "_emit", emit_then_spoil)
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        # only the spoiled log record's payload was finite when printed
        assert (captured.out != "") == (writer == "_log_record")
        assert not log.exists()
        for text in (captured.out, captured.err):
            for token in ("Traceback", "NaN", "Infinity"):
                assert token not in text
        for line in captured.out.splitlines():
            json.loads(line)
        assert len(captured.err.splitlines()) == 1
        assert json.loads(captured.err) == {
            "error": "NonFiniteOutput",
            "detail": "Out of range float values are not JSON compliant"}

    @pytest.mark.parametrize("kind", ["straddle", "tie"])
    def test_witness_pair_with_no_deviation_prints_null(self, kind,
                                                        monkeypatch, capsys):
        # a straddling or tied pair never gets a certified deviation
        # (max_deviation = inf): its row prints max_dev null, strict JSON
        from ietflow import cli, ratner

        walk = ratner._pair_walk

        def failing(*args, **kwargs):
            checkpoints, straddle, deriv = walk(*args, **kwargs)
            if kind == "straddle":
                return checkpoints, 1, deriv
            v, e, d = checkpoints[-1]
            return checkpoints[:-1] + [(v, e, -d)], straddle, deriv

        monkeypatch.setattr(ratner, "_pair_walk", failing)
        code = cli.main(["ratner", "witness", "--eps", "0.2", "--pairs", "2",
                         "--steps", "30"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        *rows, summary = [json.loads(line)
                          for line in captured.out.splitlines()]
        assert [row["max_dev"] for row in rows] == [None, None]
        assert [row["verdict"] for row in rows] == ["failed", "failed"]
        assert summary["failures"][kind] == 2
        assert summary["rate"] == 0.0

    def test_mixing_with_no_positive_window_prints_null(self, monkeypatch,
                                                        capsys):
        # no window positive: every diameter is inf, and so is the report's
        # max_diameter, which prints null
        import dataclasses

        from ietflow import cli

        report = cli.mixing_dc_report

        def no_positive_window(*args):
            out = report(*args)
            return dataclasses.replace(
                out, windows_positive=[False] * len(out.diameters),
                diameters=[math.inf] * len(out.diameters))

        monkeypatch.setattr(cli, "mixing_dc_report", no_positive_window)
        code = cli.main(["dc", "mixing", "--depth", "3", "--steps", "20"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        out = json.loads(captured.out)
        assert out["max_diameter"] is None
        assert out["all_windows_positive"] is False

    def test_flow_step_budget_is_reported(self, monkeypatch, capsys):
        import functools

        from ietflow import cli, roof

        monkeypatch.setattr(cli, "_advance",
                            functools.partial(roof._advance, max_steps=50))
        code = cli.main(["flow", "orbit", "--x", "1/3", "--t", "1e9"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        err = json.loads(captured.err)
        assert err["error"] == "FlowStepBudgetError"
        assert err["detail"].startswith("flow advance exceeded 50 steps")

    @pytest.mark.parametrize("name", [
        "IndeterminateComparison", "SingularityTooClose",
        "ReturnBudgetError", "ExactHitError"])
    @pytest.mark.parametrize("argv,target", [
        ("flow birkhoff --x 1/3 --r 4", "birkhoff_sum"),
        ("dc summability --depth 4 --steps 30 --window-len 0",
         "summability_partial")])
    def test_package_errors_are_reported_by_type(self, name, argv, target,
                                                 monkeypatch, capsys,
                                                 tmp_path):
        from ietflow import cli
        from ietflow.birkhoff import ExactHitError
        from ietflow.diophantine import IndeterminateComparison
        from ietflow.exact import ExactScalar
        from ietflow.iet import ReturnBudgetError
        from ietflow.roof import SingularityTooClose

        exc = {"IndeterminateComparison": IndeterminateComparison("tied"),
               "SingularityTooClose": SingularityTooClose("A", "left", 0.0),
               "ReturnBudgetError": ReturnBudgetError(
                   ExactScalar(0), ExactScalar(1), 9),
               "ExactHitError": ExactHitError(3, ExactScalar(0))}[name]

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, target, fail)
        log = tmp_path / "exp.jsonl"
        code = cli.main(argv.split() + ["--log", str(log)])
        captured = capsys.readouterr()
        assert (code, captured.out, log.exists()) == (1, "", False)
        assert json.loads(captured.err) == {"error": name,
                                            "detail": str(exc)}

    @pytest.mark.parametrize("argv,extras", [
        ("bs sigma-sets --l-max 2 --tau 2", "--tau 2"),
        ("dc mixing --depth 5 --nope", "--nope")])
    def test_unknown_flag_shows_the_subcommand_usage(self, argv, extras,
                                                     capsys):
        from ietflow import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(argv.split())
        err = capsys.readouterr().err
        command = "ietflow " + " ".join(argv.split()[:2])
        assert exc.value.code == 2
        assert err.startswith("usage: %s [-h]" % command)
        assert err.endswith("%s: error: unrecognized arguments: %s\n"
                            % (command, extras))


class TestDefaults:
    """Without --iet and --roof the commands run on the golden rotation
    and `fixtures.asymmetric_log_roof` of the IET given."""

    def test_defaults_are_the_fixtures(self):
        from fractions import Fraction

        from ietflow import cli, fixtures
        from ietflow.roof import RoofSpec

        iet = cli._load_iet(argparse.Namespace(iet=None))
        assert iet == fixtures.golden_rotation()
        # the former bundled roofs: C- = 1 at the right end of A
        for labels in ("AB", "ABC"):
            target = iet if labels == "AB" else fixtures.bounded_type_3iet()
            zero = {a: Fraction(0) for a in labels}
            assert cli._load_roof(argparse.Namespace(roof=None), target) == \
                RoofSpec(c0=Fraction(1), cplus=zero,
                         cminus={**zero, "A": Fraction(1)})

    def test_default_roof_takes_the_iet_labels(self, tmp_path, capsys):
        from fractions import Fraction

        from ietflow import cli
        from ietflow.fixtures import asymmetric_log_roof
        from ietflow.roof import birkhoff_sum
        from ietflow.serialize import load_iet

        iet_file = tmp_path / "xy.iet"
        iet_file.write_text("alphabet = X Y\ntop = X Y\nbottom = Y X\n"
                            "lengths = 2/3 1/3\n")
        code = cli.main(["flow", "birkhoff", "--iet", str(iet_file), "--x",
                         "1/7", "--r", "3"])
        out = json.loads(capsys.readouterr().out)
        iet = load_iet(str(iet_file))
        value = birkhoff_sum(iet, asymmetric_log_roof(iet), Fraction(1, 7), 3)
        assert code == 0
        assert (out["sum"], out["error_radius"]) == (value.value, value.err)


class TestParserReuse:
    SEQUENCE = (
        ["rv", "towers", "--at", "4", "--log", "{log}"],
        ["rv", "induct", "--steps", "2", "--nope"],
        ["dc", "mixing", "--depth", "5", "--tau", "2"],
        ["iet", "eval", "--x", "1/3", "--n", "3", "--log", "{log}"],
    )

    @staticmethod
    def _run(sequence, log, capsys):
        from ietflow import cli

        out = []
        for argv in sequence:
            argv = [a.format(log=log) for a in argv]
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    def test_shared_parser_matches_fresh_parsers(self, tmp_path, capsys,
                                                 monkeypatch):
        # one process-long sequence through the parser main keeps: a valid
        # call, an argparse error, a usage error from the parameter window
        # check, then another command; the reference builds a fresh parser
        # for every call
        from ietflow import cli

        log = tmp_path / "exp.jsonl"
        shared = self._run(self.SEQUENCE, log, capsys)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self._run(self.SEQUENCE, log, capsys)
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, ("exit", 2), 2, 0]
        records = [json.loads(l) for l in log.read_text().splitlines()]
        assert len(records) == 4
        assert [r["config"] for r in records[:2]] == \
            [r["config"] for r in records[2:]]
        assert records[0]["config"]["at"] == 4
        assert records[1]["config"]["x"] == "1/3"

    def test_build_parser_returns_a_new_parser(self):
        from ietflow import cli

        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()


class TestEveryFlagIsRead:
    # one small argv per subcommand
    ARGV = {
        ("iet", "eval"): "--x 1/3",
        ("iet", "keane"): "--depth 5",
        ("rv", "induct"): "--steps 3",
        ("rv", "towers"): "--at 3",
        ("rv", "accel"): "--steps 10 --lbar-max 4",
        ("zip", "backward"): "--steps 2",
        ("flow", "orbit"): "--t 1 --x 1/3",
        ("flow", "birkhoff"): "--x 1/3 --r 5",
        ("bs", "growth"): "--r-grid 50 --points 1 --steps 30",
        ("bs", "sigma-sets"): "--l-max 2 --steps 20",
        ("dc", "mixing"): "--depth 3 --steps 20",
        ("dc", "ratner"): "--depth 3 --steps 20",
        ("dc", "summability"): "--depth 3 --steps 30 --window-len 0",
        ("ratner", "witness"): "--eps 0.2 --pairs 1 --steps 30 "
                               "--rate-floor 0",
        ("ratner", "forbac"): "--l-range 6..6 --grid 3 --steps 30",
        ("mix", "correlate"): "--t 1 --samples 100",
    }

    @staticmethod
    def _subcommands():
        from ietflow import cli

        groups = cli.build_parser()._subparsers._group_actions[0].choices
        return [((group, name), leaf)
                for group, sub in groups.items()
                for name, leaf in
                sub._subparsers._group_actions[0].choices.items()]

    @staticmethod
    def _recording_namespace():
        """A namespace and the set of attribute names read from it; the
        config echo's `vars(args)` reads only `__dict__`, which is not
        recorded."""
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                if not name.startswith("__"):
                    reads.add(name)
                return super().__getattribute__(name)

        return Recording(), reads

    def test_argv_for_every_subcommand(self):
        assert sorted(key for key, _ in self._subcommands()) == \
            sorted(self.ARGV)

    @pytest.mark.parametrize("key", sorted(ARGV), ids=" ".join)
    def test_every_registered_flag_is_read(self, key, tmp_path, capsys):
        from ietflow import cli

        leaf = dict(self._subcommands())[key]
        dests = {a.dest for a in leaf._actions if a.dest != "help"}
        args, reads = self._recording_namespace()
        argv = [*key, *self.ARGV[key].split(), "--log",
                str(tmp_path / "exp.jsonl")]
        cli.build_parser().parse_args(argv, namespace=args)
        reads.clear()           # parsing reads every dest
        assert cli._run(args) == 0
        capsys.readouterr()
        assert (tmp_path / "exp.jsonl").exists()
        assert dests - {"func", "group", "cmd"} - reads == set()

    @pytest.mark.parametrize("argv", [
        "iet eval --x 1/3 --csv", "rv induct --steps 2 --csv",
        "ratner witness --eps 0.2 --pairs 1 --csv",
        "bs sigma-sets --l-max 2 --tau 2", "bs growth --window asucons",
        "bs growth --lbar 2",
        "mix correlate --t 1 --samples 10 --tau 1.01"])
    def test_flags_a_command_does_not_read_are_refused(self, argv, capsys):
        from ietflow import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(argv.split())
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_precision_variable_changes_nothing(self, monkeypatch):
        argv = ("bs", "sigma-sets", "--l-max", "2", "--steps", "10", "--csv")
        plain = run_cli(*argv)
        monkeypatch.setenv("IETFLOW_PRECISION", "5")
        assert run_cli(*argv).stdout == plain.stdout
        assert plain.stdout.splitlines()[1].endswith(",17")
