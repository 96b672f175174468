"""End-to-end tests of the command line interface, run in-process."""

import json
import os
import re
import subprocess
import sys
import warnings
from argparse import SUPPRESS, Namespace
from pathlib import Path

import numpy as np
import pytest

from helpers import OVERFLOW_LIFTS
from rdeinv import cli, reconstruct
from rdeinv.cli import main
from rdeinv.rde import observe_flow, read_trajectory_csv, solve
from rdeinv.reconstruct import local_reconstruct_taylor
from rdeinv.roughpath import (
    circle_samples,
    lift_piecewise_linear,
    read_path_csv,
    sample_brownian_lift,
    write_path_csv,
)
from rdeinv.systems import rolling_ball


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRank:
    def test_unicycle_passes_with_one_point(self, capsys):
        code, out, _ = run(capsys, "rank", "--system", "unicycle", "--points", "0,0,0")
        report = json.loads(out)
        assert code == 0
        assert report["pass"] and report["rank"] == 3 and report["m"] == 3

    def test_kohn_fails(self, capsys):
        code, out, _ = run(capsys, "rank", "--system", "kohn", "--points", "0,0,0,0,0")
        report = json.loads(out)
        assert code == 1
        assert not report["pass"] and report["rank"] == 5 and report["m"] == 10

    def test_triple_product_recommended_points(self, capsys):
        code, out, _ = run(
            capsys, "rank", "--system", "triple_product", "--points", "1,1,1;1,2,3;3,1,2"
        )
        report = json.loads(out)
        assert code == 0 and report["rank"] == 6

    def test_cvt_domain_violation_exit_two(self, capsys):
        code, out, _ = run(capsys, "rank", "--system", "cvt", "--points", "0,0,0,1.5")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DomainViolation"

    def test_unknown_system_is_usage_error(self, capsys):
        code, _, err = run(capsys, "rank", "--system", "pendulum")
        assert code == 64
        assert "unknown system" in err

    @pytest.mark.parametrize(
        "system, points",
        [("rolling_ball", "nan,0,0,0,1,0,0,0,1"), ("unicycle", "nan,0,0"), ("unicycle", "0,inf,0")],
    )
    def test_non_finite_point_is_usage_error(self, system, points, capsys):
        code, out, err = run(capsys, "rank", "--system", system, "--points", points)
        assert code == 64 and out == ""
        assert err.startswith("usage error: base points must be finite")

    def test_overflowing_field_values_are_numerical_error(self, capsys):
        code, out, _ = run(
            capsys, "rank", "--system", "triple_product", "--points", "1e200,1e200,1;1,2,3;3,1,2"
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NonFinite"


class TestSystemNames:
    """--system names a system the way it reports itself: a builder, then its
    integer arguments, each after an underscore."""

    @pytest.mark.parametrize(
        "spec, name, m",
        [
            ("kohn_1", "kohn_1", 3),
            ("kohn", "kohn", 10),
            ("constant_2_3", "constant_2_3", 3),
            ("constant", "constant_2_2", 3),
            ("constant_2", "constant_2_2", 3),
        ],
    )
    def test_reported_name_round_trips(self, spec, name, m, capsys):
        code, out, _ = run(capsys, "rank", "--system", spec)
        report = json.loads(out)
        assert (report["system"], report["m"]) == (name, m)
        assert run(capsys, "rank", "--system", name) == (code, out, "")

    @pytest.mark.parametrize(
        "spec",
        ["kohn_1_2", "rolling_ball_1", "constant_2_3_4", "kohn_0", "constant_3_2", "kohn_",
         "kohn_x", "_1", "kohn_\u00b2", "kohn\n", "kohn_1000000", "constant_2_10000000000"],
    )
    def test_bad_spec_is_usage_error(self, spec, capsys):
        code, out, err = run(capsys, "rank", "--system", spec)
        assert code == 64 and out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize(
        "spec, rule",
        [("kohn_0", "kohn needs an integer d >= 1, got 0"),
         ("constant_3_2", "need 1 <= ell <= d, got ell=3, d=2"),
         ("constant_0_2", "need 1 <= ell <= d, got ell=0, d=2")],
    )
    def test_bad_argument_names_its_rule_not_a_size(self, spec, rule, capsys):
        code, out, err = run(capsys, "rank", "--system", spec)
        assert code == 64 and out == ""
        assert err == f"usage error: {rule}\n"

    def test_bad_spec_in_config_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "reconstruct", "--set", "experiment.system=kohn_1_2",
                           "--out-dir", str(tmp_path / "out"))
        assert code == 64
        assert err.startswith("usage error: system 'kohn_1_2': kohn takes the arguments")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--system", "unicycle", "--search"],
            ["rank", "--system", "unicycle", "--c-max", "3"],
            ["rank", "--system", "kohn", "--kohn-d", "1"],
            ["search-points", "--system", "constant", "--ell", "2"],
            ["solve", "--system", "constant", "--dim", "3", "--path", "p.csv", "--out", "t.csv"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        code, out, _ = run(capsys, *argv)
        assert code == 64 and out == ""

    @pytest.mark.parametrize(
        "key",
        ["experiment.ell", "experiment.dim", "experiment.kohn_d", "solver.max_iter", "solver.tol"],
    )
    def test_removed_config_keys_are_unknown(self, key, capsys, tmp_path):
        code, _, err = run(capsys, "reconstruct", "--set", f"{key}=2",
                           "--out-dir", str(tmp_path / "out"))
        assert code == 64
        assert err == f"usage error: unknown config key {key}\n"

    @pytest.mark.parametrize(
        "spec, ell", [("rolling_ball", 2), ("triple_product", 3), ("kohn_1", 2), ("constant_3_4", 3)]
    )
    def test_driver_ell_follows_the_system(self, spec, ell):
        def load(*argv):
            return cli._load_config(cli._build_parser().parse_args(["reconstruct", *argv]))

        cfg, system = load("--system", spec)
        assert cfg.ell == ell == system.fields.ell
        assert load("--system", spec, "--set", "driver.ell=5")[0].ell == 5

    def test_brownian_driver_takes_the_system_ell(self, capsys, tmp_path):
        sets = ["driver.kind=brownian", "driver.n_coarse=64", "driver.n_fine=4",
                "driver.horizon=0.05", "schedule.t=0.05", "schedule.n=4", "solver.n_internal=2"]
        code, _, err = run(capsys, "reconstruct", "--system", "triple_product",
                           *[arg for s in sets for arg in ("--set", s)],
                           "--out-dir", str(tmp_path / "out"))
        assert code == 0, err
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["m"] == 6 and len(results["results"]) == 4
        assert all(len(report["a_hat"]) == 3 for report in results["results"])

    def test_search_mode_reaches_full_rank_with_the_default_c_max(self, capsys, tmp_path):
        # the best single point of the search has rank 3 < m = 6 on
        # triple_product; the default c_max = 3 lets the search reach rank 6
        sets = ["points.mode=search", "driver.kind=brownian", "driver.ell=3", "driver.n_coarse=64",
                "driver.n_fine=2", "driver.horizon=0.05", "schedule.n=4", "solver.n_internal=1"]
        code, _, err = run(capsys, "reconstruct", "--system", "triple_product",
                           *[arg for s in sets for arg in ("--set", s)],
                           "--out-dir", str(tmp_path / "out"))
        assert code == 0, err
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["m"] == results["rank"] == 6 and len(results["results"]) == 4


class TestSearchPoints:
    def test_unicycle_json(self, capsys):
        code, out, _ = run(
            capsys, "search-points", "--system", "unicycle", "--c-max", "1", "--seed", "3"
        )
        report = json.loads(out)
        assert code == 0 and report["full_rank"] and report["rank"] == 3

    def test_deterministic(self, capsys):
        a = run(capsys, "search-points", "--system", "triple_product", "--seed", "7",
                "--box-lo", "-2,-2,-2", "--box-hi", "2,2,2")
        b = run(capsys, "search-points", "--system", "triple_product", "--seed", "7",
                "--box-lo", "-2,-2,-2", "--box-hi", "2,2,2")
        assert a[0] == 0 and a == b

    def test_sigma_min_is_zero_below_m_rows(self, capsys):
        # one point of triple_product gives 3 rows for m = 6 columns, so sigma_6 is 0
        code, out, _ = run(capsys, "search-points", "--system", "triple_product", "--c-max", "1",
                           "--box-lo", "-2", "--box-hi", "2")
        report = json.loads(out)
        assert code == 0 and len(report["points"]) == 1
        assert (report["full_rank"], report["rank"], report["m"]) == (False, 3, 6)
        assert report["sigma_min"] == 0.0

    def test_c_max_is_at_most_max_points(self, capsys, monkeypatch):
        argv = ["search-points", "--system", "kohn", "--c-max"]
        assert cli._build_parser().parse_args(argv + [str(cli.MAX_POINTS)]).c_max == cli.MAX_POINTS

        def fail(*args):
            raise AssertionError("the search began")

        monkeypatch.setattr(cli.reconstruct, "search_points", fail)
        code, out, err = run(capsys, *argv, str(cli.MAX_POINTS + 1))
        assert code == 64 and out == ""
        assert err == (f"usage error: argument --c-max: value must be at most {cli.MAX_POINTS}, "
                       f"got {cli.MAX_POINTS + 1}\n")

    @pytest.mark.parametrize(
        "box", [["--box-lo", "nan"], ["--box-hi", "inf"], ["--box-lo=-1e308", "--box-hi=1e308"]]
    )
    def test_non_finite_box_is_usage_error(self, box, capsys):
        code, out, err = run(capsys, "search-points", "--system", "unicycle", *box)
        assert code == 64 and out == ""
        assert err.startswith("usage error: box corners")


# one command per vector flag, each with a value that starts with "-"; {tmp} is the work directory
NEGATIVE_VECTORS = {
    "box-lo": ["search-points", "--system", "unicycle", "--box-lo", "-2,-2,-2", "--box-hi", "2,2,2"],
    "box-hi": ["search-points", "--system", "unicycle", "--box-lo", "-2,-2,-2",
               "--box-hi", "-1,-1,-1"],
    "points": ["rank", "--system", "unicycle", "--points", "-0.001,0,0;-1,2,0"],
    "v": ["lift", "--driver", "linear", "--v", "-0.5,0,1", "--n", "4", "--out", "{tmp}/p.csv"],
    "x0": ["solve", "--system", "unicycle", "--path", "{tmp}/path.csv", "--x0", "-1,0,-2",
           "--out", "{tmp}/traj.csv"],
    "intervals": ["observe", "--system", "unicycle", "--path", "{tmp}/neg.csv",
                  "--intervals", "-0.5,0", "--out", "{tmp}/p.csv"],
}


class TestNegativeVectorValues:
    @pytest.mark.parametrize("case", sorted(NEGATIVE_VECTORS))
    def test_space_form_equals_equals_form(self, case, capsys, tmp_path):
        (tmp_path / "path.csv").write_text(PATH_HEAD + "0.5,1,2,0\n1,1,2,0\n")
        (tmp_path / "neg.csv").write_text("t,X1,X2,A12\n-1,0,0,0\n-0.5,1,2,0\n0,1,2,0\n")
        argv = [a.format(tmp=tmp_path) for a in NEGATIVE_VECTORS[case]]
        flag = "--" + case
        k = argv.index(flag)
        joined = argv[:k] + [f"{flag}={argv[k + 1]}"] + argv[k + 2 :]
        outputs = []
        for form in (argv, joined):
            code, out, err = run(capsys, *form)
            assert code == 0, err
            written = [f.read_bytes() for f in sorted(tmp_path.glob("[pt]*.csv")) if f.name != "path.csv"]
            outputs.append((out, written))
        assert outputs[0] == outputs[1]

    def test_minus_inf_is_a_usage_error(self, capsys):
        # "-inf" does not start with "-" and a digit, so it reads as a flag and --box-lo has no value
        code, out, err = run(capsys, "search-points", "--system", "unicycle", "--box-lo", "-inf")
        assert code == 64 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1


class TestNonFiniteStartStates:
    @pytest.mark.parametrize("command", ["solve", "observe"])
    @pytest.mark.parametrize("state", ["nan,0,0", "0,-inf,0"])
    def test_non_finite_state_is_usage_error(self, command, state, capsys, tmp_path):
        path_file = tmp_path / "path.csv"
        run(capsys, "lift", "--driver", "linear", "--v", "0.5,0,0.1", "--n", "4",
            "--out", str(path_file))
        if command == "solve":
            extra = ["--x0", state]
        else:
            extra = ["--points", f"0,0,0;{state}", "--intervals", "0,0.5"]
        code, out, err = run(
            capsys, command, "--system", "unicycle", "--path", str(path_file), *extra,
            "--out", str(tmp_path / "out.csv"),
        )
        assert code == 64 and out == ""
        assert err.startswith("usage error: ") and "must be finite" in err
        assert not (tmp_path / "out.csv").exists()


class TestLiftSolveRoundTrip:
    def test_lift_circle_matches_in_process(self, capsys, tmp_path):
        out_file = tmp_path / "circle.csv"
        code, _, _ = run(capsys, "lift", "--driver", "circle", "--n", "64", "--out", str(out_file))
        assert code == 0
        from_file = read_path_csv(out_file)
        direct = lift_piecewise_linear(*circle_samples(64))
        assert np.array_equal(from_file.values, direct.values)
        assert np.array_equal(from_file.times, direct.times)

    def test_brownian_lift_deterministic_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (a, b):
            code, _, _ = run(
                capsys, "lift", "--driver", "brownian", "--seed", "11",
                "--n-coarse", "16", "--n-fine", "4", "--out", str(f),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_solve_file_roundtrip_bitwise(self, capsys, tmp_path):
        path_file = tmp_path / "path.csv"
        traj_file = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "lift", "--driver", "circle", "--n", "32", "--out", str(path_file))
        assert code == 0
        code, _, _ = run(
            capsys, "solve", "--system", "rolling_ball", "--path", str(path_file),
            "--n-sub", "8", "--out", str(traj_file),
        )
        assert code == 0
        sys_ = rolling_ball()
        direct = solve(
            sys_.fields, np.eye(3).ravel(), lift_piecewise_linear(*circle_samples(32)),
            method="logode", n_sub=8,
        )
        from_file = read_trajectory_csv(traj_file)
        assert np.array_equal(from_file.states, direct.states)

    def test_euler2_overflow_is_numerical_error_not_a_warning(self, capsys, tmp_path):
        # the triple-product state overflows; under warnings-as-errors this
        # used to end in a RuntimeWarning traceback from the field evaluation
        path_file, traj_file = tmp_path / "big.csv", tmp_path / "t.csv"
        code, _, _ = run(
            capsys, "lift", "--driver", "brownian", "--ell", "3", "--seed", "1",
            "--n-coarse", "64", "--n-fine", "2", "--horizon", "50", "--out", str(path_file),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "solve", "--system", "triple_product", "--path", str(path_file),
            "--method", "euler2", "--x0", "3,3,3", "--out", str(traj_file),
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NonFinite"
        assert not traj_file.exists()

    def test_euler2_leaving_the_belt_domain_is_a_domain_error(self, capsys, tmp_path):
        # from q = 0.5 the belt control reaches q = 1.1 after three of four steps; the
        # euler2 loop's fourth field evaluation raises, and the CLI exits 2
        path_file, traj_file = tmp_path / "belt.csv", tmp_path / "t.csv"
        path_file.write_text("t,X1,X2\n0,0,0\n0.25,0,0.2\n0.5,0,0.4\n0.75,0,0.6\n1,0,0.8\n")
        code, out, _ = run(
            capsys, "solve", "--system", "cvt", "--path", str(path_file), "--method", "euler2",
            "--out", str(traj_file),
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DomainViolation"
        assert not traj_file.exists()

    def test_file_driver_keeps_the_samples_and_drops_the_areas(self, capsys, tmp_path):
        given, lifted = tmp_path / "bm.csv", tmp_path / "lifted.csv"
        run(capsys, "lift", "--driver", "brownian", "--seed", "3", "--n-coarse", "8",
            "--n-fine", "4", "--out", str(given))
        code, _, _ = run(capsys, "lift", "--driver", "file", "--samples", str(given),
                         "--out", str(lifted))
        assert code == 0
        rows = [[line.split(",") for line in f.read_text().splitlines()] for f in (given, lifted)]
        assert [r[:3] for r in rows[1]] == [r[:3] for r in rows[0]]  # the t,X cells, as text
        assert any(float(r[3]) != 0.0 for r in rows[0][1:])
        assert all(float(r[3]) == 0.0 for r in rows[1][1:])

    def test_linear_driver_lift(self, capsys, tmp_path):
        out_file = tmp_path / "lin.csv"
        code, _, _ = run(
            capsys, "lift", "--driver", "linear", "--v", "0,0,1", "--ell", "2",
            "--n", "4", "--horizon", "2.0", "--out", str(out_file),
        )
        assert code == 0
        path = read_path_csv(out_file)
        assert path.increment(0, 4).a[0, 1] == pytest.approx(2.0, abs=1e-12)


class TestObserve:
    def test_constant_system_translation(self, capsys, tmp_path):
        path_file = tmp_path / "path.csv"
        obs_file = tmp_path / "obs.csv"
        run(capsys, "lift", "--driver", "linear", "--v", "0.5,0,0", "--ell", "2",
            "--n", "4", "--horizon", "1.0", "--out", str(path_file))
        code, _, _ = run(
            capsys, "observe", "--system", "constant_2_2",
            "--path", str(path_file), "--points", "0,0;1,1",
            "--intervals", "0,0.5;0.5,1", "--out", str(obs_file),
        )
        assert code == 0
        text = obs_file.read_text().splitlines()
        assert text[0] == "s,t,point_id,y1,y2,z1,z2"
        assert len(text) == 5

    def test_degenerate_interval_is_usage_error(self, capsys, tmp_path):
        path_file = tmp_path / "path.csv"
        run(capsys, "lift", "--driver", "circle", "--n", "16", "--out", str(path_file))
        code, _, err = run(
            capsys, "observe", "--system", "rolling_ball", "--path", str(path_file),
            "--intervals", "0,0", "--out", str(tmp_path / "o.csv"),
        )
        assert code == 64
        assert "need s < t" in err

    def test_intervals_written_in_the_order_given(self, capsys, tmp_path):
        path_file = tmp_path / "path.csv"
        obs_file = tmp_path / "obs.csv"
        run(capsys, "lift", "--driver", "brownian", "--seed", "3", "--n-coarse", "16",
            "--n-fine", "2", "--out", str(path_file))
        intervals = [(0.5, 1.0), (0.0, 0.25), (0.25, 0.75), (0.0, 1.0)]
        code, out, _ = run(
            capsys, "observe", "--system", "rolling_ball", "--path", str(path_file),
            "--intervals", ";".join(f"{s},{t}" for s, t in intervals), "--alpha", "0.4",
            "--n-internal", "2", "--n-sub", "2", "--out", str(obs_file),
        )
        assert code == 0 and json.loads(out)["intervals"] == 4
        rows = [line.split(",") for line in obs_file.read_text().splitlines()[1:]]
        c = len(rolling_ball().recommended_points)
        assert [(float(r[0]), float(r[1])) for r in rows[::c]] == intervals
        path = read_path_csv(path_file, 0.4)
        points = np.vstack(rolling_ball().recommended_points)
        for k, (s, t) in enumerate(intervals):
            want = observe_flow(
                rolling_ball().fields, points, path, round(s * 16), round(t * 16), 2, 2
            )
            got = np.array([[float(v) for v in r[3 + 9 :]] for r in rows[k * c : (k + 1) * c]])
            np.testing.assert_array_equal(got, want.observed)

    def test_repeated_interval_is_usage_error_and_writes_nothing(self, capsys, tmp_path):
        # an observation CSV holds one block per interval, as `reconstruct --obs` reads it
        path_file, obs_file = tmp_path / "path.csv", tmp_path / "dup.csv"
        assert run(capsys, "lift", "--driver", "linear", "--v", "0.5,0,0", "--n", "4",
                   "--out", str(path_file))[0] == 0
        code, out, err = run(
            capsys, "observe", "--system", "rolling_ball", "--path", str(path_file),
            "--intervals", "0,0.5;0,0.5", "--out", str(obs_file),
        )
        assert code == 64 and out == ""
        assert err.startswith("usage error: interval [0, 0.5] is repeated")
        assert not obs_file.exists()

    def test_default_observation_is_the_default_solve(self, capsys, tmp_path):
        # observe and solve take the same log-ODE substeps by default, so the
        # image of x0 over [0, t_j] is the trajectory's state j, bitwise
        path_file, traj_file, obs_file = (tmp_path / f for f in ("path.csv", "traj.csv", "obs.csv"))
        run(capsys, "lift", "--driver", "brownian", "--seed", "2", "--n-coarse", "16",
            "--n-fine", "4", "--out", str(path_file))
        common = ["--system", "unicycle", "--path", str(path_file), "--alpha", "0.4"]
        assert run(capsys, "solve", *common, "--out", str(traj_file))[0] == 0
        code, _, err = run(capsys, "observe", *common, "--intervals", "0,0.25;0,0.75",
                           "--out", str(obs_file))
        assert code == 0, err
        traj = read_trajectory_csv(traj_file)
        observed = reconstruct.read_observations_csv(obs_file)
        assert [obs.t for obs in observed] == [0.25, 0.75]
        for obs in observed:
            j = int(np.flatnonzero(traj.times == obs.t)[0])
            np.testing.assert_array_equal(obs.base_points, traj.states[:1])
            np.testing.assert_array_equal(obs.observed, traj.states[j : j + 1])

    def test_empty_intervals_is_usage_error(self, capsys, tmp_path):
        path_file = tmp_path / "path.csv"
        run(capsys, "lift", "--driver", "circle", "--n", "16", "--out", str(path_file))
        code, _, err = run(
            capsys, "observe", "--system", "rolling_ball", "--path", str(path_file),
            "--intervals", "", "--out", str(tmp_path / "o.csv"),
        )
        assert code == 64
        assert "--intervals is required" in err

    def test_off_grid_endpoint_is_usage_error(self, capsys, tmp_path):
        path_file = tmp_path / "path.csv"
        run(capsys, "lift", "--driver", "circle", "--n", "16", "--out", str(path_file))
        code, _, err = run(
            capsys, "observe", "--system", "rolling_ball", "--path", str(path_file),
            "--intervals", "0,0.33", "--out", str(tmp_path / "o.csv"),
        )
        assert code == 64
        assert "grid" in err


def write_config(tmp_path, text):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text)
    return str(cfg)


CIRCLE_CONFIG = """
[experiment]
system = rolling_ball
method = taylor
[driver]
kind = circle
n = 1024
[points]
mode = recommended
[schedule]
kind = uniform
s = 0.0
t = {t}
n = {n}
[solver]
n_internal = 2
n_sub = 4
[output]
dir = {out}
"""


class TestReconstructCommand:
    def test_circle_pipeline_outputs(self, capsys, tmp_path):
        # 64 driver steps split into 8 local intervals of length ~ 0.05
        t_end = 2.0 * np.pi * (64.0 / 1024.0)
        cfg = write_config(
            tmp_path, CIRCLE_CONFIG.format(t=f"{t_end:.17g}", n=8, out=tmp_path / "out")
        )
        code, out, _ = run(capsys, "reconstruct", "--config", cfg)
        assert code == 0
        outputs = json.loads(out)["outputs"]
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["n_intervals"] == 8
        assert results["rank"] == 3
        assert all(r["iterations"] >= 1 for r in results["results"])
        stitched = read_path_csv(outputs["stitched"])
        driver = lift_piecewise_linear(*circle_samples(1024))
        got = stitched.increment(0, 8)
        want = driver.increment(0, 64)
        assert np.linalg.norm(got.x - want.x) < 1e-3
        assert abs(got.a[0, 1] - want.a[0, 1]) < 1e-3
        errors = (tmp_path / "out" / "errors.csv").read_text().splitlines()
        assert errors[0] == "s,t,err_x,err_a"
        assert len(errors) == 9

    def test_repeated_runs_identical_bytes(self, capsys, tmp_path):
        blobs = []
        for sub in ("run1", "run2"):
            out_dir = tmp_path / sub
            cfg = write_config(
                tmp_path,
                """
[experiment]
system = rolling_ball
method = taylor
[driver]
kind = brownian
ell = 2
seed = 5
n_coarse = 64
n_fine = 4
horizon = 1.0
[points]
mode = recommended
[schedule]
kind = uniform
s = 0.0
t = 1.0
n = 4
[solver]
n_internal = 4
n_sub = 4
[output]
dir = {}
""".format(out_dir),
            )
            code, _, _ = run(capsys, "reconstruct", "--config", cfg)
            assert code == 0
            blobs.append(
                tuple(
                    (out_dir / name).read_bytes()
                    for name in ("results.json", "stitched.csv", "errors.csv")
                )
            )
        assert blobs[0] == blobs[1]

    def test_file_driver_equals_the_brownian_driver(self, capsys, tmp_path):
        # a Brownian lift read back from its CSV drives the experiment bitwise as the sampler does
        bm = tmp_path / "bm.csv"
        code, _, _ = run(capsys, "lift", "--driver", "brownian", "--ell", "3", "--seed", "5",
                         "--n-coarse", "64", "--n-fine", "4", "--horizon", "0.05", "--out", str(bm))
        assert code == 0
        blobs = []
        for kind in (["driver.kind=brownian"], ["driver.kind=file", f"driver.file={bm}"]):
            sets = ["driver.ell=3", "driver.n_coarse=64", "driver.n_fine=4", "driver.horizon=0.05",
                    "schedule.t=0.05", "schedule.n=8", "solver.n_internal=4", "solver.n_sub=4", *kind]
            out_dir = tmp_path / kind[0].split("=")[1]
            code, _, err = run(
                capsys, "reconstruct", "--system", "triple_product", "--method", "flow",
                "--seed", "5", *[arg for s in sets for arg in ("--set", s)],
                "--out-dir", str(out_dir),
            )
            assert code == 0, err
            blobs.append(tuple(
                (out_dir / name).read_bytes()
                for name in ("results.json", "errors.csv", "stitched.csv")
            ))
        assert blobs[0] == blobs[1]

    def test_constant_system_rank_deficient_error_json(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            """
[experiment]
system = constant_2_2
[driver]
kind = brownian
ell = 2
seed = 1
n_coarse = 8
n_fine = 2
horizon = 1.0
[schedule]
kind = uniform
s = 0.0
t = 1.0
n = 2
[output]
dir = {}
""".format(tmp_path / "out_c"),
        )
        code, out, _ = run(capsys, "reconstruct", "--config", cfg)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "RankDeficient"

    def test_log_ode_overflow_is_numerical_error_not_a_warning(self, capsys, tmp_path):
        # the triple-product flow blows up on these quarter-length intervals,
        # and the normal equations of one overflow; under warnings-as-errors
        # this used to end in a RuntimeWarning traceback from `jac.T @ r`
        code, out, _ = run(
            capsys, "reconstruct", "--system", "triple_product", "--method", "flow",
            "--seed", "2", "--set", "driver.kind=brownian", "--set", "driver.ell=3",
            "--set", "driver.n_coarse=64", "--set", "driver.n_fine=4", "--set", "schedule.n=4",
            "--set", "solver.n_internal=4", "--set", "solver.n_sub=4",
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NonFinite"
        assert not (tmp_path / "out").exists()

    def test_single_step_note_follows_the_run(self, capsys, tmp_path, monkeypatch):
        # eight one-step intervals: a run that succeeds ends with the note, one that fails
        # prints only its error
        monkeypatch.chdir(tmp_path)
        argv = ["reconstruct", "--system", "unicycle", "--set", "driver.kind=linear",
                "--set", "driver.v=1,0,0", "--set", "driver.n=8"]
        code, _, err = run(capsys, *argv)
        assert code == 0 and err.splitlines()[-1].startswith("note: interval with a single driver step")
        code, out, err = run(capsys, *argv, "--points", "nan,0,0")
        assert code == 64 and out == ""
        assert err.count("\n") == 1 and err.startswith("usage error:")

    @pytest.mark.parametrize("where", ["file", "set"])
    def test_given_intervals_are_used_whatever_the_kind(self, where, capsys, tmp_path):
        # two intervals given beside a uniform schedule of 8
        t1 = 2.0 * np.pi * (32.0 / 1024.0)
        intervals = f"0,{t1!r};{t1!r},{2 * t1!r}"
        text = CIRCLE_CONFIG.format(t=f"{8 * t1!r}", n=8, out=tmp_path / "out")
        if where == "file":
            text = text.replace("[solver]", f"intervals = {intervals}\n[solver]")
        extra = ["--set", f"schedule.intervals={intervals}"] if where == "set" else []
        code, _, err = run(capsys, "reconstruct", "--config", write_config(tmp_path, text), *extra)
        assert code == 0, err
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert [report["interval"] for report in results["results"]] == [[0.0, t1], [t1, 2 * t1]]

    def test_flow_solves_stop_at_an_accepted_step_within_the_floor(self, capsys, tmp_path):
        # the flow costs of these 1/8-length intervals settle while accepted
        # steps stay above tol; without the accepted-step stop, 7 of the 8
        # ran out of iterations
        code, out, _ = run(
            capsys, "reconstruct", "--system", "triple_product", "--method", "flow",
            "--seed", "5", "--set", "driver.kind=brownian", "--set", "driver.ell=3",
            "--set", "driver.n_coarse=64", "--set", "driver.n_fine=4", "--set", "schedule.n=8",
            "--set", "solver.n_internal=4", "--set", "solver.n_sub=4",
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 0, out
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert len(results["results"]) == 8
        assert max(report["iterations"] for report in results["results"]) < 50

    def test_observation_ingest_roundtrip(self, capsys, tmp_path):
        path_file = tmp_path / "path.csv"
        obs_file = tmp_path / "obs.csv"
        run(capsys, "lift", "--driver", "circle", "--n", "64", "--out", str(path_file))
        t1 = 2.0 * np.pi * (2.0 / 64.0)
        t2 = 2.0 * np.pi * (4.0 / 64.0)
        code, _, _ = run(
            capsys, "observe", "--system", "rolling_ball", "--path", str(path_file),
            "--points", "1,0,0,0,1,0,0,0,1",
            "--intervals", f"0,{t1:.17g};{t1:.17g},{t2:.17g}",
            "--n-internal", "4", "--out", str(obs_file),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "reconstruct", "--system", "rolling_ball", "--obs", str(obs_file),
            "--out-dir", str(tmp_path / "ingest"),
        )
        assert code == 0
        results = json.loads((tmp_path / "ingest" / "results.json").read_text())
        assert results["n_intervals"] == 2
        driver = lift_piecewise_linear(*circle_samples(64))
        want = driver.increment(0, 2)
        got = np.array(results["results"][0]["a_hat"])
        assert np.linalg.norm(got - want.x) < 5e-3

    def test_obs_file_with_two_point_sets(self, capsys, tmp_path):
        # consecutive intervals observed at two base-point sets: each set is
        # recovered at its own points, and the summary's sigma_min is the
        # smaller of their eps1
        path_file = tmp_path / "path.csv"
        run(capsys, "lift", "--driver", "circle", "--n", "64", "--out", str(path_file))
        t1, t2 = (f"{2.0 * np.pi * k / 64.0:.17g}" for k in (2, 4))
        lines = []
        for points, interval in (([], f"0,{t1}"), (["--points", "2,0,0,0,2,0,0,0,2"], f"{t1},{t2}")):
            obs_file = tmp_path / f"obs{len(lines)}.csv"
            code, _, err = run(
                capsys, "observe", "--system", "rolling_ball", "--path", str(path_file), *points,
                "--intervals", interval, "--out", str(obs_file),
            )
            assert code == 0, err
            rows = obs_file.read_text().splitlines(keepends=True)
            lines += rows[1:] if lines else rows
        both = tmp_path / "both.csv"
        both.write_text("".join(lines))
        code, _, err = run(
            capsys, "reconstruct", "--system", "rolling_ball", "--obs", str(both),
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 0, err
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        sets = reconstruct.read_observations_csv(both)
        assert [obs.base_points[0, 0] for obs in sets] == [1.0, 2.0]
        want = [
            reconstruct.reconstruction_report(
                local_reconstruct_taylor(rolling_ball().fields, obs), obs.s, obs.t
            )
            for obs in sets
        ]
        assert results["n_intervals"] == 2 and results["results"] == want
        assert results["sigma_min"] == min(report["eps1"] for report in want)
        assert want[0]["eps1"] != want[1]["eps1"]

    def test_reports_come_from_the_recoveries(self, capsys, tmp_path, monkeypatch):
        # each report's rank and sigma_min are its recovery's own rank test;
        # the command runs none of its own, simulated or from --obs
        calls = []
        matrix = reconstruct.reconstruction_matrix
        monkeypatch.setattr(
            reconstruct, "reconstruction_matrix", lambda *a, **kw: calls.append(a) or matrix(*a, **kw)
        )
        path_file, obs_file = tmp_path / "path.csv", tmp_path / "obs.csv"
        run(capsys, "lift", "--driver", "circle", "--n", "64", "--out", str(path_file))
        t1 = 2.0 * np.pi * (2.0 / 64.0)
        code, _, _ = run(
            capsys, "observe", "--system", "rolling_ball", "--path", str(path_file),
            "--intervals", f"0,{t1:.17g};{t1:.17g},{2 * t1:.17g}", "--out", str(obs_file),
        )
        assert code == 0
        t_end = 2.0 * np.pi * (64.0 / 1024.0)
        cfg = write_config(
            tmp_path, CIRCLE_CONFIG.format(t=f"{t_end:.17g}", n=8, out=tmp_path / "sim")
        )
        for argv, out_dir in (
            (["--config", cfg], tmp_path / "sim"),
            (["--system", "rolling_ball", "--obs", str(obs_file), "--out-dir", str(tmp_path / "obs")],
             tmp_path / "obs"),
        ):
            calls.clear()
            code, _, err = run(capsys, "reconstruct", *argv)
            assert code == 0, err
            assert calls == []
            results = json.loads((out_dir / "results.json").read_text())
            assert results["m"] == results["rank"] == 3
            assert results["sigma_min"] == results["results"][0]["sigma_min"]
            for report in results["results"]:
                assert report["rank"] == results["m"]
                assert report["sigma_min"] == report["eps1"]
        points = np.vstack(rolling_ball().recommended_points)
        assert results["sigma_min"] == matrix(rolling_ball().fields, points).singular_values[-1]


class TestDefaultCommands:
    """Unset, schedule.s and schedule.t span the driver's grid, so the default
    circle driver on [0, 2*pi] runs without a config."""

    def test_reconstruct(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in (["reconstruct"], ["reconstruct", "--system", "unicycle"]):
            code, _, err = run(capsys, *argv)
            assert code == 0, err
            results = json.loads((tmp_path / "out" / "results.json").read_text())
            intervals = [report["interval"] for report in results["results"]]
            assert len(intervals) == 8 and intervals[0][0] == 0.0
            assert intervals[-1][1] == pytest.approx(2.0 * np.pi, rel=1e-15)

    def test_convergence(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "convergence", "--out", "s.csv")
        assert code == 0, err
        assert json.loads(out)["slope"] > 2.0
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert float(lines[1].split(",")[0]) == pytest.approx(2.0 * np.pi, rel=1e-15)

    def test_one_end_set_the_other_from_the_grid(self, capsys, tmp_path, monkeypatch):
        # pi is the circle grid's middle time; the unset end is the grid's own
        monkeypatch.chdir(tmp_path)
        for key, span in (("s", [np.pi, 2.0 * np.pi]), ("t", [0.0, np.pi])):
            code, _, err = run(capsys, "reconstruct", "--set", f"schedule.{key}={np.pi!r}")
            assert code == 0, err
            results = json.loads((tmp_path / "out" / "results.json").read_text())
            intervals = [report["interval"] for report in results["results"]]
            assert len(intervals) == 8
            assert intervals[0][0] == pytest.approx(span[0], rel=1e-15)
            assert intervals[-1][1] == pytest.approx(span[1], rel=1e-15)

    def test_explicit_end_off_the_grid_is_still_a_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "reconstruct", "--set", "schedule.t=1.0")
        assert code == 64
        assert "schedule.t = 1.0 does not lie on the driver grid" in err


class TestConvergenceCommand:
    def test_circle_slope_at_least_two_and_a_half(self, capsys, tmp_path):
        t_end = 2.0 * np.pi * (512.0 / 4096.0)
        cfg = write_config(
            tmp_path,
            """
[experiment]
system = rolling_ball
method = taylor
[driver]
kind = circle
n = 4096
[points]
mode = recommended
[schedule]
kind = dyadic
s = 0.0
t = {}
levels = 5
[solver]
n_internal = 2
n_sub = 4
""".format(f"{t_end:.17g}"),
        )
        out_file = tmp_path / "conv.csv"
        code, out, _ = run(capsys, "convergence", "--config", cfg, "--out", str(out_file))
        assert code == 0
        info = json.loads(out)
        assert info["slope"] >= 2.5
        lines = out_file.read_text().splitlines()
        assert lines[0] == "length,err_x,err_a,slope_running"
        assert lines[-1].startswith("# slope=")

    def test_zero_driver_flagged_degenerate(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            """
[experiment]
system = rolling_ball
method = taylor
[driver]
kind = linear
ell = 2
v = 0,0,0
n = 16
horizon = 1.0
[points]
mode = recommended
[schedule]
kind = dyadic
s = 0.0
t = 1.0
levels = 3
""",
        )
        out_file = tmp_path / "conv.csv"
        code, out, _ = run(capsys, "convergence", "--config", cfg, "--out", str(out_file))
        assert code == 0
        assert json.loads(out)["degenerate"]
        assert "degenerate" in out_file.read_text().splitlines()[-1]

    @pytest.mark.parametrize(
        "levels, rule",
        [("1", "schedule.levels = 1: a slope needs at least 2 levels"),
         ("1000000000000000", "1000000000000000 dyadic levels do not align with the 4096 "
          "driver steps")],
    )
    def test_levels_without_a_slope_are_usage_error_before_observation(
        self, levels, rule, capsys, tmp_path, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise AssertionError("convergence began observing")

        monkeypatch.setattr(cli.rde, "observe_flows", fail)
        code, out, err = run(capsys, "convergence", "--system", "rolling_ball", "--set",
                             f"schedule.levels={levels}", "--out", str(tmp_path / "s.csv"))
        assert code == 64 and out == ""
        assert err == f"usage error: {rule}\n"
        assert list(tmp_path.iterdir()) == []

    def test_brownian_multi_seed_rows(self, capsys, tmp_path):
        cfg = write_config(tmp_path, MULTI_SEED_CONFIG)
        out_file = tmp_path / "conv.csv"
        code, out, _ = run(capsys, "convergence", "--config", cfg, "--out", str(out_file))
        assert code == 0
        info = json.loads(out)
        assert info["seeds"] == 3 and info["levels"] == 3
        assert len(out_file.read_text().splitlines()) == 5

    def test_lockstep_seeds_equal_a_per_seed_loop(self, capsys, tmp_path):
        # reference: each seed and dyadic level observed and recovered on its own
        cfg = write_config(tmp_path, MULTI_SEED_CONFIG)
        out_file = tmp_path / "conv.csv"
        code, out, _ = run(capsys, "convergence", "--config", cfg, "--out", str(out_file))
        assert code == 0
        fields = rolling_ball().fields
        points = np.vstack(rolling_ball().recommended_points)
        errors, slopes = [], []
        for seed in (3, 4, 5):
            path = sample_brownian_lift(2, 64, 16, 1.0, seed)
            rows = []
            for j in (32, 16, 8):
                obs = observe_flow(fields, points, path, 0, j, n_internal=8, n_sub=4)
                res = local_reconstruct_taylor(fields, obs)
                truth = path.increment(0, j)
                rows.append([path.times[j], np.linalg.norm(res.a_hat - truth.x),
                             np.linalg.norm(res.b_hat - truth.a)])
            rows = np.array(rows)
            errors.append(rows[:, 1:])
            slopes.append(np.polyfit(np.log(rows[:, 0]), np.log(rows[:, 1] + rows[:, 2]), 1)[0])
        lines = out_file.read_text().splitlines()
        table = np.array([[float(v) for v in line.split(",")[:3]] for line in lines[1:-1]])
        np.testing.assert_allclose(table[:, 0], [0.5, 0.25, 0.125], rtol=1e-12)
        np.testing.assert_allclose(table[:, 1:], np.median(errors, axis=0), rtol=1e-9)
        np.testing.assert_allclose(json.loads(out)["slope"], np.median(slopes), rtol=1e-9)

    def test_intervals_flag_is_usage_error(self, capsys, tmp_path):
        cfg = write_config(tmp_path, MULTI_SEED_CONFIG)
        code, _, err = run(capsys, "convergence", "--config", cfg, "--intervals", "0,0.25",
                           "--out", str(tmp_path / "conv.csv"))
        assert code == 64
        assert err.startswith("usage error:") and "--intervals" in err
        assert not (tmp_path / "conv.csv").exists()

    @pytest.mark.parametrize("where", ["file", "set"])
    def test_intervals_from_the_config_are_usage_error(self, where, capsys, tmp_path):
        text = MULTI_SEED_CONFIG
        if where == "file":
            text = text.replace("[solver]", "intervals = 0,0.25\n[solver]")
        extra = ["--set", "schedule.intervals=0,0.25"] if where == "set" else []
        code, _, err = run(capsys, "convergence", "--config", write_config(tmp_path, text),
                           *extra, "--out", str(tmp_path / "conv.csv"))
        assert code == 64
        assert err.startswith("usage error:") and "schedule.intervals" in err
        assert not (tmp_path / "conv.csv").exists()


MULTI_SEED_CONFIG = """
[experiment]
system = rolling_ball
method = taylor
[driver]
kind = brownian
ell = 2
seed = 3
n_seeds = 3
n_coarse = 64
n_fine = 16
horizon = 1.0
[points]
mode = recommended
[schedule]
kind = dyadic
s = 0.0
t = 0.5
levels = 3
[solver]
n_internal = 8
n_sub = 4
"""


def record_recoveries(monkeypatch):
    """The list that collects the results of every reconstruct_many call of a run."""
    results, many = [], reconstruct.reconstruct_many

    def recorded(*args):
        out = many(*args)
        results.extend(out)
        return out

    monkeypatch.setattr(reconstruct, "reconstruct_many", recorded)
    return results


def trust_region_note(err):
    """(K, N) of the one stderr line "note: K of N recoveries lie outside ...", which must be
    all of err."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("note: ")
    match = re.fullmatch(r"note: (\d+) of (\d+) recoveries lie outside the injectivity radius eps2, .*",
                         lines[0])
    assert match, lines[0]
    return int(match[1]), int(match[2])


class TestTrustRegionNote:
    """A run counts its recoveries flagged trust_region_exceeded on one stderr line."""

    def test_convergence_prints_one_note(self, capsys, tmp_path, monkeypatch):
        results = record_recoveries(monkeypatch)
        cfg = write_config(tmp_path, MULTI_SEED_CONFIG)
        code, _, err = run(capsys, "convergence", "--config", cfg, "--out", str(tmp_path / "c.csv"))
        assert code == 0
        k, n = trust_region_note(err)
        assert n == len(results) == 9
        assert 0 < k == sum("trust_region_exceeded" in res.warnings for res in results)

    def test_reconstruct_prints_one_note(self, capsys, tmp_path):
        # two circle intervals of 8 and 40 grid steps: |(A, B)| about 0.05 and
        # 0.24 against eps2 = 0.104 at the recommended point, so one is flagged
        h = 2.0 * np.pi / 1024.0
        cfg = write_config(tmp_path, CIRCLE_CONFIG.format(t=f"{64 * h:.17g}", n=8, out=tmp_path / "out"))
        code, _, err = run(capsys, "reconstruct", "--config", cfg,
                           "--intervals", f"0,{8 * h!r};{8 * h!r},{48 * h!r}")
        assert code == 0
        reports = json.loads((tmp_path / "out" / "results.json").read_text())["results"]
        flagged = sum("trust_region_exceeded" in report["warnings"] for report in reports)
        assert trust_region_note(err) == (flagged, len(reports)) == (1, 2)

    def test_obs_run_inside_the_radius_prints_nothing(self, capsys, tmp_path):
        # one-step intervals of a 128-step circle: |(A, B)| about 0.05 < eps2
        path_file, obs_file = tmp_path / "path.csv", tmp_path / "obs.csv"
        run(capsys, "lift", "--driver", "circle", "--n", "128", "--out", str(path_file))
        h = 2.0 * np.pi / 128.0
        code, _, _ = run(capsys, "observe", "--system", "rolling_ball", "--path", str(path_file),
                         "--intervals", f"0,{h!r};{h!r},{2 * h!r}", "--out", str(obs_file))
        assert code == 0
        code, _, err = run(capsys, "reconstruct", "--system", "rolling_ball", "--obs", str(obs_file),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 0 and err == ""
        reports = json.loads((tmp_path / "out" / "results.json").read_text())["results"]
        assert len(reports) == 2 and all(report["warnings"] == [] for report in reports)


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_unknown_flag_is_usage(self, capsys):
        assert main(["rank", "--system", "unicycle", "--frobnicate"]) == 64
        capsys.readouterr()

    def test_missing_subcommand_is_usage(self, capsys):
        assert main([]) == 64
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["lift", "--driver", "brownian", "--seed", "-1", "--out", "p.csv"],
            ["lift"],
            ["bogus"],
            ["rank", "--system", "unicycle", "--bogus", "1"],
            ["reconstruct", "--set", "foo"],
            ["lift", "--driver", "linear", "--out", "p.csv"],
            ["reconstruct", "--set", "driver.kind=linear"],
            ["reconstruct", "--set", "schedule.s=0", "--set", "schedule.t=0"],
            ["convergence", "--set", "schedule.s=0", "--set", "schedule.t=0", "--out", "c.csv"],
        ],
        ids=["bad_value", "missing_flags", "unknown_command", "unknown_flag", "malformed_set",
             "lift_linear_without_v", "reconstruct_linear_without_v", "reconstruct_empty_span",
             "convergence_empty_span"],
    )
    def test_parse_errors_are_one_usage_error_line(self, argv, capsys, tmp_path, monkeypatch):
        # flag errors read like every other usage error: one line, no usage block, no file
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert list(tmp_path.iterdir()) == []

    def test_module_entry_point_exit_codes(self, tmp_path):
        # python -m rdeinv runs cli.main_entry: rank passes, fails the rank test, refuses a spec
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        for system, want in (("unicycle", 0), ("kohn", 1), ("kohn_0", 64)):
            proc = subprocess.run([sys.executable, "-m", "rdeinv", "rank", "--system", system],
                                  capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
            assert proc.returncode == want, proc.stderr
            assert "Traceback" not in proc.stderr
            if want == 64:
                assert proc.stdout == "" and proc.stderr.count("\n") == 1
                assert proc.stderr.startswith("usage error: ")
            else:
                assert json.loads(proc.stdout)["pass"] is (want == 0)

    def test_command_help_exits_zero(self, capsys):
        assert main(["lift", "--help"]) == 0
        assert "--driver" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["lift", "--driver", "file", "--out", "{tmp}/p.csv"], "--samples"),
            # a path stores no Holder exponent, so no driver takes one, as a flag or a key
            (["lift", "--driver", "circle", "--n", "4", "--alpha", "0.4", "--out", "{tmp}/p.csv"],
             "unrecognized arguments: --alpha 0.4"),
            (["lift", "--driver", "brownian", "--alpha", "0.4", "--out", "{tmp}/p.csv"],
             "unrecognized arguments: --alpha 0.4"),
            (["reconstruct", "--set", "driver.kind=brownian", "--set", "driver.alpha=0.4",
              "--out-dir", "{tmp}/out"], "unknown config key driver.alpha"),
            # a circle has two channels, whatever count is asked for
            (["lift", "--driver", "circle", "--n", "4", "--ell", "5", "--out", "{tmp}/p.csv"],
             "a circle driver has 2 channels, not driver.ell = 5"),
            (["reconstruct", "--system", "rolling_ball", "--set", "driver.ell=3",
              "--out-dir", "{tmp}/out"], "a circle driver has 2 channels, not driver.ell = 3"),
        ],
        ids=["file_without_samples", "lift_alpha", "brownian_lift_alpha", "brownian_alpha_key",
             "circle_ell", "circle_ell_key"],
    )
    def test_lift_flags_that_do_not_fit_are_usage_error(self, argv, needle, capsys, tmp_path):
        code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert code == 64 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1 and needle in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["lift", "--driver", "brownian", "--seed", "-1", "--out", "{tmp}/p.csv"],
            ["search-points", "--system", "unicycle", "--seed", "-1", "--out", "{tmp}/s.json"],
            ["reconstruct", "--seed", "-1", "--set", "driver.kind=brownian",
             "--out-dir", "{tmp}/o"],
            ["reconstruct", "--set", "driver.kind=brownian", "--set", "driver.seed=-1",
             "--out-dir", "{tmp}/o"],
            ["reconstruct", "--set", "points.mode=search", "--set", "points.seed=-1",
             "--out-dir", "{tmp}/o"],
        ],
        ids=["lift", "search_points", "reconstruct_flag", "driver_seed_key", "points_seed_key"],
    )
    def test_negative_seed_is_usage_error(self, argv, capsys, tmp_path):
        code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert code == 64 and out == ""
        assert "must be an integer >= 0, got -1" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    # sizes beyond any address space, which numpy refuses at once
    @pytest.mark.parametrize("size", ["1000000000000000", "100000000000000000000"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["search-points", "--system", "unicycle", "--n-trials", "{size}"],
        ],
        ids=["search_points"],
    )
    def test_size_that_cannot_be_allocated_is_usage_error(self, argv, size, capsys, tmp_path):
        code, out, err = run(capsys, *(arg.format(tmp=tmp_path, size=size) for arg in argv))
        assert code == 64 and out == ""
        assert err.startswith("usage error: too large to allocate: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    # draws of more than MAX_SAMPLES samples: a Brownian driver's n_seeds * n_coarse *
    # n_fine, or a circle or linear driver's n, just above the ceiling and beyond any
    # address space
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lift", "--driver", "brownian", "--n-coarse", "1048577", "--n-fine", "4"],
             "n_seeds * n_coarse * n_fine = 1 * 1048577 * 4 = 4194308 Brownian samples, "
             "above MAX_SAMPLES = 4194304"),
            (["lift", "--driver", "brownian", "--n-coarse", "100000000000000000000"],
             "n_seeds * n_coarse * n_fine = 1 * 100000000000000000000 * 8 = "
             "800000000000000000000 Brownian samples, above MAX_SAMPLES = 4194304"),
            (["reconstruct", "--set", "driver.kind=brownian", "--set", "driver.n_coarse=1048577",
              "--set", "driver.n_fine=4"],
             "n_seeds * n_coarse * n_fine = 1 * 1048577 * 4 = 4194308 Brownian samples, "
             "above MAX_SAMPLES = 4194304"),
            (["convergence", "--set", "driver.kind=brownian", "--set", "driver.n_seeds=2",
              "--set", "driver.n_coarse=1048577", "--set", "driver.n_fine=2"],
             "n_seeds * n_coarse * n_fine = 2 * 1048577 * 2 = 4194308 Brownian samples, "
             "above MAX_SAMPLES = 4194304"),
            (["lift", "--driver", "circle", "--n", "4194305"],
             "argument --n: value must be at most 4194304, got 4194305"),
            (["lift", "--driver", "linear", "--v", "1,0,0", "--n", "100000000000000000000"],
             "argument --n: value must be at most 4194304, got 100000000000000000000"),
        ],
        ids=["brownian_lift", "brownian_lift_beyond_memory", "reconstruct", "convergence",
             "circle_lift", "linear_lift_beyond_memory"],
    )
    def test_draw_above_the_sample_ceiling_is_refused_before_any_work(
        self, argv, message, capsys, tmp_path, monkeypatch
    ):
        def fail(*args):
            raise AssertionError("a driver was drawn above the sample ceiling")

        for name in ("sample_brownian_fine", "sample_brownian_lift", "circle_samples",
                     "make_linear_rough_path"):
            monkeypatch.setattr(cli.roughpath, name, fail)
        out = {"lift": ["--out", str(tmp_path / "x.csv")],
               "reconstruct": ["--out-dir", str(tmp_path / "out")],
               "convergence": ["--out", str(tmp_path / "c.csv")]}[argv[0]]
        assert cli.MAX_SAMPLES == 4194304
        code, stdout, err = run(capsys, *argv, *out)
        assert (code, stdout, err) == (64, "", f"usage error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_brownian_draw_at_the_ceiling_is_allowed(self):
        at = Namespace(driver="brownian", n_coarse=cli.MAX_SAMPLES // 2, n_fine=2)
        cli._check_samples(at)
        with pytest.raises(cli.UsageError, match="2 \\* 2097152 \\* 2 = 8388608"):
            cli._check_samples(at, 2)

    def test_one_parser_serves_every_call(self):
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        assert parser.parse_args(["reconstruct", "--seed", "3"]).seed == 3
        assert not hasattr(parser.parse_args(["reconstruct"]), "seed")  # nothing carried over


PATH_HEAD = "t,X1,X2,A12\n0,0,0,0\n"
OBS_HEAD = "s,t,point_id,y1,y2,y3,z1,z2,z3\n"


def obs_row(pid, s=0.0):
    return f"{s},{s + 0.5},{pid},0,0,0,0.1,0.2,0.05\n"


# name -> (command, file text or None for a missing file, text expected on stderr)
MALFORMED = {
    "ragged_row": ("solve", PATH_HEAD + "0.5,1,2\n", None),
    "non_numeric_cell": ("solve", PATH_HEAD + "0.5,1,x,0\n", None),
    "nan_cell": ("solve", PATH_HEAD + "0.5,nan,2,0\n", None),
    "inf_cell": ("solve", PATH_HEAD + "0.5,1,2,-inf\n", None),
    "header_only": ("solve", "t,X1,X2,A12\n", None),
    "not_utf8": ("solve", PATH_HEAD + "0.5,1,2,\xff\n", None),
    "missing_path": ("solve", None, None),
    "area_column_not_a12": ("solve", "t,X1,X2,B12\n0,0,0,0\n0.5,1,2,0\n", None),
    "missing_obs": ("reconstruct", None, None),
    "obs_ragged_row": ("reconstruct", OBS_HEAD + obs_row(0).rsplit(",", 1)[0] + "\n", None),
    "repeated_interval": ("reconstruct", OBS_HEAD + obs_row(0) + obs_row(1) + obs_row(0)
                          + obs_row(1), None),
    "repeated_point_id": ("reconstruct", OBS_HEAD + obs_row(0) + obs_row(1) + obs_row(1), None),
    "interleaved_intervals": ("reconstruct", OBS_HEAD + obs_row(0) + obs_row(0, s=1.0)
                              + obs_row(1) + obs_row(1, s=1.0), None),
    "non_integer_point_id": ("reconstruct", OBS_HEAD + obs_row(0.5), None),
    "x0_wrong_length": ("solve", PATH_HEAD + "0.5,1,2,0\n", "x0"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_usage_error_names_the_input(self, case, capsys, tmp_path):
        command, text, needle = MALFORMED[case]
        file = tmp_path / "input.csv"
        if text is not None:
            file.write_bytes(text.encode("latin-1"))
        if command == "solve":
            argv = ["solve", "--system", "unicycle", "--path", str(file),
                    "--out", str(tmp_path / "traj.csv")]
            if case == "x0_wrong_length":
                argv += ["--x0", "1,2"]
        else:
            argv = ["reconstruct", "--system", "unicycle", "--obs", str(file),
                    "--out-dir", str(tmp_path / "out")]
        code, _, err = run(capsys, *argv)
        assert code == 64
        assert err.startswith("usage error:")
        assert (needle or str(file)) in err

    @pytest.mark.parametrize("command", ["solve_logode", "solve_euler2", "observe", "reconstruct"])
    def test_overflowing_path_increment_is_numerical_error(self, command, capsys, tmp_path):
        # every value is finite, but a step increment overflows (X2 from 1e308
        # to -1e308), or for euler2 the second level of a 1e308 step does;
        # under warnings-as-errors that ended in a RuntimeWarning traceback
        path = tmp_path / "path.csv"
        x2 = [1e308] * 4 if command == "solve_euler2" else [0, 1e308, -1e308, 0]
        path.write_text("t,X1,X2\n0,0,0\n" + "".join(
            f"{(k + 1) / 16},0,{v!r}\n" for k, v in enumerate(x2)))
        argv = {
            "solve_logode": ["solve", "--method", "logode", "--path", str(path),
                             "--out", str(tmp_path / "traj.csv")],
            "solve_euler2": ["solve", "--method", "euler2", "--path", str(path),
                             "--out", str(tmp_path / "traj.csv")],
            "observe": ["observe", "--path", str(path), "--intervals", "0,0.25",
                        "--out", str(tmp_path / "obs.csv")],
            "reconstruct": ["reconstruct", "--set", "driver.kind=file", "--set",
                            f"driver.file={path}", "--set", "schedule.t=0.25", "--set",
                            "schedule.n=4", "--out-dir", str(tmp_path / "out")],
        }[command]
        code, out, err = run(capsys, argv[0], "--system", "unicycle", *argv[1:])
        assert code == 1 and err == ""
        assert json.loads(out)["error"]["type"] == "NonFinite"

    @pytest.mark.parametrize("case", sorted(OVERFLOW_LIFTS))
    def test_overflowing_lift_is_one_usage_line(self, case, capsys, tmp_path):
        # the areas (brownian, linear) or values (linear) of finite flags overflow;
        # at warnings-as-errors that was a RuntimeWarning traceback, and without it
        # several warnings before a "symmetric residue nan" usage error
        out = tmp_path / "path.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run(capsys, *OVERFLOW_LIFTS[case], "--out", str(out))
        assert caught == []
        assert code == 64 and stdout == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "must be finite" in err or "non-finite" in err

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run(capsys, "lift", "--driver", "circle", "--n", "4",
                           "--out", str(blocker / "path.csv"))
        assert code == 64
        assert err.startswith("usage error:") and "path.csv" in err

    @pytest.mark.parametrize("command", ["rank", "search-points"])
    def test_report_to_a_missing_directory_prints_nothing(self, command, capsys, tmp_path):
        # the report file is written before the report is printed
        out = tmp_path / "missing" / "r.json"
        code, stdout, err = run(capsys, command, "--system", "unicycle", "--out", str(out))
        assert code == 64 and stdout == ""
        assert err.startswith("usage error:") and "r.json" in err


# base points '1,2,3;4' given to each command that takes points; {tmp} is the work directory
RAGGED_POINTS = {
    "rank": ["rank", "--system", "unicycle", "--points", "1,2,3;4"],
    "observe": ["observe", "--system", "unicycle", "--path", "{tmp}/path.csv", "--points",
                "1,2,3;4", "--intervals", "0,0.5", "--out", "{tmp}/obs.csv"],
    "points.points": ["reconstruct", "--system", "unicycle", "--set", "points.points=1,2,3;4",
                      "--out-dir", "{tmp}/out"],
}

# two base points of width 2, too narrow for the system, given to each command that observes
NARROW_POINTS = {
    "observe": ["observe", "--system", "rolling_ball", "--path", "{tmp}/path.csv", "--points",
                "1,0;0,1", "--intervals", "0,0.5", "--out", "{tmp}/obs.csv"],
    "reconstruct": ["reconstruct", "--system", "unicycle", "--points", "1,0;0,1",
                    "--out-dir", "{tmp}/out"],
    "convergence": ["convergence", "--system", "unicycle", "--points", "1,0;0,1",
                    "--out", "{tmp}/s.csv"],
}

# a 2-vector search box corner for the 3-state unicycle
WRONG_BOX = {
    "search-points": ["search-points", "--system", "unicycle", "--box-lo", "0,0"],
    "points.box_lo": ["reconstruct", "--system", "unicycle", "--set", "points.mode=search",
                      "--set", "points.box_lo=0,0", "--out-dir", "{tmp}/out"],
}


class TestPointErrors:
    @pytest.mark.parametrize("case", sorted(RAGGED_POINTS))
    def test_ragged_points_are_usage_error(self, case, capsys, tmp_path):
        (tmp_path / "path.csv").write_text(PATH_HEAD + "0.5,1,2,0\n1,1,2,0\n")
        argv = [a.format(tmp=tmp_path) for a in RAGGED_POINTS[case]]
        code, _, err = run(capsys, *argv)
        assert code == 64
        assert err.startswith("usage error:") and "[[1.0, 2.0, 3.0], [4.0]]" in err
        assert not (tmp_path / "obs.csv").exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(NARROW_POINTS))
    def test_points_of_the_wrong_width_are_usage_error(self, case, capsys, tmp_path):
        (tmp_path / "path.csv").write_text(PATH_HEAD + "0.5,1,2,0\n1,1,2,0\n")
        code, out, err = run(capsys, *[a.format(tmp=tmp_path) for a in NARROW_POINTS[case]])
        assert code == 64 and out == ""
        assert err.startswith("usage error: states must have shape") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["path.csv"]

    @pytest.mark.parametrize("case", sorted(WRONG_BOX))
    def test_search_box_of_wrong_size_is_usage_error(self, case, capsys, tmp_path):
        code, _, err = run(capsys, *[a.format(tmp=tmp_path) for a in WRONG_BOX[case]])
        assert code == 64
        assert err.startswith("usage error:") and "does not broadcast to (3,)" in err


# a bad value of every config key whose row carries a rule
RULED_BAD = [
    "experiment.method=bogus", "driver.kind=bogus", "points.mode=bogus", "schedule.kind=bogus",
    "driver.n=0", "driver.ell=0", "driver.n_seeds=0", "driver.n_coarse=-1", "driver.n_fine=2.5",
    "points.c_max=0", "points.n_trials=0", "schedule.n=0", "schedule.levels=0",
    "solver.n_internal=0", "solver.n_sub=x", "driver.horizon=nan",
]


class TestConfigKeys:
    @pytest.mark.parametrize(
        "ini, key",
        [
            ("[schedule]\nkind = uniform\nnn = 4\n", "schedule.nn"),
            ("[drivers]\nkind = circle\n", "drivers.kind"),
            ("[DEFAULT]\nseed = 3\n[driver]\nkind = circle\n", "DEFAULT.seed"),
            ("[driver]\nkind = circle\nalpha = 0.4\n", "driver.alpha"),
        ],
    )
    def test_unknown_key_in_file_is_usage_error(self, ini, key, capsys, tmp_path):
        cfg = write_config(tmp_path, ini)
        code, _, err = run(capsys, "reconstruct", "--config", cfg,
                           "--out-dir", str(tmp_path / "out"))
        assert code == 64
        assert err == f"usage error: unknown config key {key}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["reconstruct", "convergence"])
    @pytest.mark.parametrize("override", ["schedule.nn=4", "DEFAULT.seed=3", "driver.alpha=0.4"])
    def test_unknown_key_in_set_is_usage_error(self, command, override, capsys, tmp_path):
        out = ["--out-dir", str(tmp_path / "out")] if command == "reconstruct" else [
            "--out", str(tmp_path / "conv.csv")]
        code, _, err = run(capsys, command, "--set", override, *out)
        assert code == 64
        assert err == f"usage error: unknown config key {override.split('=')[0]}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "ini, needle",
        [
            ("system = unicycle\n", "no section headers"),
            ("[experiment]\nsystem = unicycle\nsystem = rolling_ball\n", "already exists"),
            (b"[experiment]\nsystem = unicycle\xff\n", "can't decode byte 0xff"),
            (None, "Is a directory"),
        ],
        ids=["no_section_header", "repeated_key", "not_utf8", "directory"],
    )
    def test_malformed_file_is_usage_error(self, ini, needle, capsys, tmp_path):
        if ini is None:  # the config path names a directory
            cfg = str(tmp_path)
        elif isinstance(ini, bytes):
            cfg = str(tmp_path / "exp.ini")
            (tmp_path / "exp.ini").write_bytes(ini)
        else:
            cfg = write_config(tmp_path, ini)
        code, _, err = run(capsys, "reconstruct", "--config", cfg,
                           "--out-dir", str(tmp_path / "out"))
        assert code == 64
        assert err.startswith(f"usage error: config file {cfg!r}: ") and needle in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["file", "set"])
    def test_percent_in_a_value_is_literal(self, where, capsys, tmp_path):
        out = tmp_path / "a%b"
        t_end = 2.0 * np.pi * (16.0 / 1024.0)
        cfg = write_config(tmp_path, CIRCLE_CONFIG.format(
            t=f"{t_end:.17g}", n=2, out=out if where == "file" else tmp_path / "out"))
        extra = ["--set", f"output.dir={out}"] if where == "set" else []
        code, _, _ = run(capsys, "reconstruct", "--config", cfg, *extra)
        assert code == 0
        assert (out / "results.json").exists()

    @pytest.mark.parametrize(
        "command, override",
        [
            ("reconstruct", "schedule.s=nan"),
            ("convergence", "schedule.s=nan"),
            ("convergence", "driver.n_seeds=0"),
            ("convergence", "driver.n_seeds=-3"),
            ("reconstruct", "driver.kind=file"),
        ],
    )
    def test_bad_value_is_usage_error(self, command, override, capsys, tmp_path):
        out = ["--out-dir", str(tmp_path / "out")] if command == "reconstruct" else [
            "--out", str(tmp_path / "conv.csv")]
        code, _, err = run(capsys, command, "--set", override, *out)
        assert code == 64
        key, value = override.split("=")
        assert err.startswith(f"usage error: {key}") and value in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, override",
        [(command, override) for command in ("reconstruct", "convergence") for override in RULED_BAD]
        # several seeds and dyadic schedules are convergence's
        + [("reconstruct", "driver.n_seeds=8"), ("reconstruct", "schedule.kind=dyadic")]
        # uniform schedules are reconstruct's, and only a Brownian driver has seeds
        + [("convergence", "schedule.kind=uniform"), ("convergence", "driver.n_seeds=3")]
        # a substep, point or sample count above its ceiling
        + [(command, f"{key}=1000000000000000") for command in ("reconstruct", "convergence")
           for key in ("solver.n_sub", "points.c_max", "driver.n")],
    )
    def test_ruled_value_is_rejected_before_any_work(
        self, command, override, capsys, tmp_path, monkeypatch
    ):
        def fail(*args):
            raise AssertionError("work began before every config value was checked")

        monkeypatch.setattr(cli.rde, "observe_flows", fail)
        monkeypatch.setattr(cli, "_build_driver", fail)
        out = ["--out-dir", str(tmp_path / "out")] if command == "reconstruct" else [
            "--out", str(tmp_path / "conv.csv")]
        code, _, err = run(capsys, command, "--set", override, *out)
        assert code == 64
        key, value = override.split("=")
        assert err.startswith(f"usage error: {key} = ") and value in err
        assert list(tmp_path.iterdir()) == []

    def test_readme_config_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        [block] = re.findall(r"```ini\n(.*?)```", readme, re.S)
        cfg, _ = cli._load_config(
            cli._build_parser().parse_args(["reconstruct", "--config", write_config(tmp_path, block)])
        )
        assert (cfg.driver, cfg.seed, cfg.n_intervals, cfg.out_dir) == ("brownian", 11, 16, "out")


def _commands():
    return cli._build_parser()._subparsers._group_actions[0].choices


ROWS = {attr: (cast, default) for attr, cast, default in cli._CONFIG.values()}
# flags whose dest is a row's attribute but which mirror no key
HAND_WRITTEN = {("solve", "method")}


def _mirrored_flags():
    """(command, action) of every flag that mirrors a config key."""
    return [
        (name, action)
        for name, p in _commands().items()
        for action in p._actions
        if action.dest in ROWS and (name, action.dest) not in HAND_WRITTEN
    ]


# the rest of a valid command line, and a bad value of each mirrored flag with
# the text of the rule it breaks
MIRROR_BASE = {
    "lift": ["--driver", "circle", "--out", "{tmp}/p.csv"],
    "solve": ["--system", "unicycle", "--path", "{tmp}/path.csv", "--out", "{tmp}/t.csv"],
    "observe": ["--system", "unicycle", "--path", "{tmp}/path.csv", "--intervals", "0,1",
                "--out", "{tmp}/o.csv"],
    "rank": ["--system", "unicycle", "--out", "{tmp}/r.json"],
    "search-points": ["--system", "unicycle", "--out", "{tmp}/s.json"],
    "reconstruct": ["--out-dir", "{tmp}/out"],
    "convergence": ["--out", "{tmp}/c.csv"],
}
MIRROR_BAD = {
    "--system": ("bogus", "unknown system"),
    "--method": ("bogus", "choose from taylor, flow"),
    "--driver": ("bogus", "choose from circle, brownian, linear, file"),
    "--n": ("0", "integer >= 1"),
    "--ell": ("0", "integer >= 1"),
    "--seed": ("-1", "integer >= 0"),
    "--n-coarse": ("0", "integer >= 1"),
    "--n-fine": ("-2", "integer >= 1"),
    "--horizon": ("nan", "finite and > 0"),
    "--v": ("x", "cannot parse vector"),
    "--points": ("1,x", "cannot parse vector"),
    "--c-max": ("0", "integer >= 1"),
    "--n-trials": ("0", "integer >= 1"),
    "--box-lo": ("x", "cannot parse vector"),
    "--box-hi": ("1,x", "cannot parse vector"),
    "--intervals": ("1,0", "need s < t"),
    "--n-internal": ("0", "integer >= 1"),
    "--n-sub": ("0", "integer >= 1"),
}
NO_RULE = {"--out-dir"}  # every string names a directory


class TestMirroredFlags:
    @pytest.mark.parametrize(
        "command, flag",
        sorted(
            (name, action.option_strings[0])
            for name, action in _mirrored_flags()
            if action.option_strings[0] not in NO_RULE
        ),
    )
    def test_bad_value_is_rejected_before_any_work(
        self, command, flag, capsys, tmp_path, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise AssertionError("work began before every flag value was checked")

        for owner, name in [
            (cli.roughpath, "read_path_csv"), (cli, "_build_driver"), (cli.rde, "observe_flows"),
            (cli.reconstruct, "search_points"), (cli.reconstruct, "reconstruction_matrix"),
        ]:
            monkeypatch.setattr(owner, name, fail)
        value, rule = MIRROR_BAD[flag]
        argv = [arg.format(tmp=tmp_path) for arg in MIRROR_BASE[command]] + [flag, value]
        code, out, err = run(capsys, command, *argv)
        assert code == 64 and out == ""
        assert rule in err and "<lambda>" not in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_flags_take_their_rows(self):
        seen = set()
        for name, action in _mirrored_flags():
            cast, default = ROWS[action.dest]
            assert action.type is cast, (name, action.dest)
            if name in ("reconstruct", "convergence"):
                default = SUPPRESS  # a given flag overrides the config
            elif (name, action.dest) == ("lift", "ell"):
                default = 2  # lift has no system to take an unset ell from
            assert action.default == default, (name, action.dest)
            seen.add(name)
        assert seen == set(_commands())


class TestInertAlpha:
    """The --alpha of solve and observe, which the benchmark passes: checked, then ignored."""

    ARGV = {
        "solve": ["--system", "unicycle", "--path", "{tmp}/path.csv", "--method", "euler2"],
        "observe": ["--system", "unicycle", "--path", "{tmp}/path.csv",
                    "--intervals", "0,0.5;0.25,1", "--n-sub", "2"],
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_alpha_changes_no_byte(self, command, capsys, tmp_path):
        run(capsys, "lift", "--driver", "brownian", "--seed", "3", "--n-coarse", "16",
            "--n-fine", "2", "--out", str(tmp_path / "path.csv"))
        argv = [arg.format(tmp=tmp_path) for arg in self.ARGV[command]]
        outs = []
        for name, alpha in (("plain.csv", []), ("alpha.csv", ["--alpha", "0.4"])):
            code, out, err = run(capsys, command, *argv, *alpha, "--out", str(tmp_path / name))
            assert code == 0, err
            outs.append(out.replace(name, "OUT"))
        assert outs[0] == outs[1]
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "alpha.csv").read_bytes()

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_bad_alpha_is_rejected_before_any_work(self, command, capsys, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work began before --alpha was checked")

        monkeypatch.setattr(cli.roughpath, "read_path_csv", fail)
        argv = [arg.format(tmp=tmp_path) for arg in self.ARGV[command]]
        code, out, err = run(capsys, command, *argv, "--alpha", "0.9", "--out", str(tmp_path / "o.csv"))
        assert code == 64 and out == ""
        assert err == "usage error: argument --alpha: alpha must lie in (1/3, 1/2], got 0.9\n"
        assert list(tmp_path.iterdir()) == []
