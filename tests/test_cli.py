import argparse
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy

import mcgehee
from mcgehee import chart, cli, integrate as ode, verify
from mcgehee.model import DomainError, ModelParams, PhasePoint, l_squared_point, physical_field

from test_chart import mp_sigma_root, same_bits


def run(argv):
    return cli.main(argv)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestRmin:
    def test_kepler_circular(self, capsys):
        code = run(["rmin", "--n", "2", "--m", "1", "--Z", "1", "--E", "-0.5", "--l2", "1"])
        out = capsys.readouterr().out.splitlines()
        assert code == cli.EXIT_OK
        assert float(out[0]) == 1.0
        assert float(out[1].split(":")[1]) < 1e-12

    def test_zero_angular_momentum(self, capsys):
        code = run(["rmin", "--n", "2", "--E", "-0.5", "--l2", "0"])
        out = capsys.readouterr().out.splitlines()
        assert code == cli.EXIT_OK
        assert float(out[0]) == 0.0
        assert "-" not in out[0]  # never print negative zero

    def test_general_n_zero_energy(self, capsys):
        # E = 0: r_min = (l^2 / 2mZ)^(n/(2n-2)); l2 = 2 gives exactly 1
        code = run(["rmin", "--n", "3", "--E", "0", "--l2", "2"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert float(out.splitlines()[0]) == pytest.approx(1.0, abs=1e-12)

    def test_delta_compares_newton_root_with_closed_form(self, capsys, monkeypatch):
        # n = 2 prints the closed form; a shifted Newton root must show up in
        # the delta line (it used to compare the closed form with itself)
        sigma_root = chart._sigma_root
        monkeypatch.setattr(chart, "_sigma_root", lambda *a: sigma_root(*a) + 1e-3)
        params = ModelParams(n=2, d=2, m=1.3, Z=0.8)
        argv = ["rmin", "--n", "2", "--m", "1.3", "--Z", "0.8", "--E", "-0.3", "--l2", "0.7"]
        assert run(argv) == cli.EXIT_OK
        r, delta = capsys.readouterr().out.splitlines()
        assert float(r) == chart.r_min_kepler(params, -0.3, 0.7)
        assert float(delta.split(":")[1]) == pytest.approx(1e-3, rel=1e-9)

    def test_delta_is_inf_when_only_the_closed_form_has_a_root(self, capsys):
        # at the circular threshold the two solvers can disagree by rounding
        argv = ["rmin", "--n", "2", "--E=-4.008359581379921", "--l2", "0.1247393079010815"]
        assert run(argv) == cli.EXIT_OK
        r, delta = capsys.readouterr().out.splitlines()
        assert float(r) == pytest.approx(0.1247393079010815, rel=1e-15)
        assert delta == "closed-form delta: inf"

    def test_delta_is_0_where_both_have_the_threshold_root(self, capsys):
        # the input that read inf before the threshold's value lost its s**n
        argv = ["rmin", "--n", "2", "--E", "-0.9", "--l2", "0.5555555555555556"]
        assert run(argv) == cli.EXIT_OK
        r, delta = capsys.readouterr().out.splitlines()
        assert float(r) == pytest.approx(0.5555555555555556, rel=1e-15)
        assert delta == "closed-form delta: 0.0"

    @pytest.mark.parametrize(
        "m, E, l2", [("0.3", "4.144e279", "5.256e-86"), ("1", "1e250", "1e-80")]
    )
    def test_root_where_l2_over_2mE_underflows(self, capsys, m, E, l2):
        # s**n underflows at the root: r_min is 4.5977164e-183 and
        # 7.0710678e-166, where Z s = l2/(2m) alone read ~1.4e-162
        assert run(["rmin", "--n", "3", "--m", m, "--E", E, "--l2", l2]) == cli.EXIT_OK
        params = ModelParams(n=3, d=2, m=float(m))
        want = mp_sigma_root(params, float(E), float(l2)) ** 1.5
        assert abs(float(capsys.readouterr().out.splitlines()[0]) - want) <= 1e-13 * want

    @pytest.mark.parametrize(
        "n, m, E, l2",
        [
            (3, "1", "1e-135", "1e174"),
            (4, "1", "1e-200", "1e250"),
            (3, "1", "-1e-206", "1"),
            (3, "3", "-2.4356567905771474e-223", "4.425618870325849e+111"),
            (4, "3", "-2.642260754640359e+301", "7.05047477931947e-101"),
        ],
    )
    def test_root_where_s_to_the_n_leaves_the_floats(self, capsys, n, m, E, l2):
        # l2/(2mE) overflows at the first two (r_min 2.236068e154 and
        # 7.0710678e224, which read nan) and the circular orbit's s**n at
        # the third (r_min 0.35355339, which read "no pericenter"); at 95 %
        # and 74 % of the circular threshold's l2, s**n overflows at the
        # fourth (r_min 2.8807519e166, which read "no pericenter") and
        # underflows at the fifth (r_min 1.5300004e-202, which read
        # 1.3808110e-202)
        assert run(["rmin", "--n", str(n), "--m", m, f"--E={E}", "--l2", l2]) == cli.EXIT_OK
        want = mp_sigma_root(ModelParams(n=n, d=2, m=float(m)), float(E), float(l2)) ** (n / 2)
        assert abs(float(capsys.readouterr().out.splitlines()[0]) - want) <= 1e-13 * want

    def test_no_pericenter_exit_code(self, capsys):
        code = run(["rmin", "--n", "2", "--E", "-0.5", "--l2", "2"])
        assert code == cli.EXIT_NO_PERICENTER
        assert "no pericenter" in capsys.readouterr().err


class TestParser:
    ACCEPTED = {
        "simulate": {"--config", "--out", "--n", "--d", "--m", "--Z", "--eps"},
        "verify": {"--config", "--out", "--seed"},
        "rmin": {"--config", "--n", "--d", "--m", "--Z", "--eps", "--E", "--l2"},
        "figures": {"which", "--out"},
    }

    def test_each_command_accepts_only_what_it_reads(self):
        (subs,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert subs.choices.keys() == self.ACCEPTED.keys()
        for command, sub in subs.choices.items():
            accepted = set()
            for action in sub._actions:
                if not isinstance(action, argparse._HelpAction):
                    accepted |= set(action.option_strings) or {action.dest}
            assert accepted == self.ACCEPTED[command], command

    @pytest.mark.parametrize(
        "command,flag",
        [("simulate", "--seed"), ("rmin", "--seed"), ("rmin", "--out")]
        + [("verify", flag) for flag in ("--n", "--d", "--m", "--Z", "--eps")],
    )
    def test_dropped_flags_exit_2(self, tmp_path, command, flag):
        # each was accepted and never read
        out = [] if command == "rmin" else ["--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            run([command, *out, flag, "3"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert not list(tmp_path.iterdir())

    # calls of `cli.main` in one process, each printed as [exit code, stdout, stderr]
    IN_ONE_PROCESS = """
import contextlib, io, json, sys
from mcgehee import cli
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""

    def test_one_parser_serves_many_calls(self, tmp_path):
        # the parser is built once per process; each call, a refused one
        # included, gives what a fresh process gives, outputs too
        cfg = write_config(tmp_path, {"params": {"n": 3, "d": 2}, "initial": {"q": [0.05, 0.0], "p": [-6.0, 1.0]},
                                      "t_span": [0.0, 0.1], "output_points": 40})
        calls = lambda out: [  # noqa: E731
            ["rmin", "--E", "-0.5", "--l2", "1"],
            ["rmin", "--E", "-0.5", "--l2", "1", "--seed", "3"],
            ["figures", "fig1", "--out", str(out / "figures")],
            ["simulate", "--config", cfg, "--out", str(out / "simulate")],
            ["rmin", "--n", "4", "--E", "0.25", "--l2", "0.3"],
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        env.pop("MCGEHEE_LOG", None)
        one = subprocess.run([sys.executable, "-c", self.IN_ONE_PROCESS, json.dumps(calls(tmp_path / "one"))],
                             capture_output=True, text=True, env=env, check=True)
        got = [json.loads(line) for line in one.stdout.splitlines()]
        fresh = [subprocess.run([sys.executable, "-m", "mcgehee.cli", *argv], capture_output=True, text=True, env=env)
                 for argv in calls(tmp_path / "fresh")]
        assert got == [[f.returncode, f.stdout, f.stderr] for f in fresh]
        assert [code for code, _, _ in got] == [cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_OK, cli.EXIT_OK, cli.EXIT_OK]
        for sub in ("figures", "simulate"):
            names = sorted(p.name for p in (tmp_path / "one" / sub).iterdir())
            assert names == sorted(p.name for p in (tmp_path / "fresh" / sub).iterdir()) and names
            for name in names:
                assert (tmp_path / "one" / sub / name).read_bytes() == (tmp_path / "fresh" / sub / name).read_bytes()


START = {"initial": {"q": [1.0, 0.0], "p": [0.0, 1.0]}, "t_span": [0.0, 0.1], "output_points": 3}


def config_error(capsys):
    """The `config error:` line on stderr; nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = [line for line in captured.err.splitlines() if line.startswith("config error: ")]
    return line


class TestConfigErrors:
    @pytest.mark.parametrize(
        "command,cfg,key",
        [
            ("verify", {"verify_points": "abc"}, "'verify_points'"),
            ("verify", {"verify_points": 0}, "'verify_points'"),  # checked nothing and passed
            ("verify", {"seed": "x"}, "'seed'"),
            ("verify", {"seed": -1}, "'seed'"),
            ("verify", {"thresholds": {"bracket": "x"}}, "'thresholds.bracket'"),
            ("verify", {"thresholds": [1e-5]}, "'thresholds'"),
            ("verify", {"report_file": 5}, "'report_file'"),
            ("rmin", {"E": "abc"}, "'E'"),
            ("rmin", {"E": -0.5, "l2": -1.0}, "'l2'"),
            ("simulate", {**START, "trajectory_file": 5}, "'trajectory_file'"),
            ("simulate", {**START, "trajectory_file": "../trajectory.csv"}, "'trajectory_file'"),
            ("simulate", {**START, "params": [1, 2]}, "'params'"),
            ("simulate", {**START, "params": {"n": True}}, "'params.n'"),
            ("simulate", {**START, "output_points": 2.5}, "'output_points'"),
            ("simulate", {**START, "initial": 5}, "'initial'"),
            ("simulate", {**START, "initial": {"q": [True, 0.0], "p": [0.0, 1.0]}}, "'initial.q'"),
            # took the collision and dropped q and p
            ("simulate", {**START, "initial": {**START["initial"], "collision": {"h": -0.5, "a": [1.0, 0.0]}}}, "'initial'"),
            # numpy's "Maximum allowed size exceeded", after the output directory was made
            ("simulate", {**START, "output_points": 10**20}, "'output_points'"),
            ("simulate", {**START, "output_points": cli.MAX_OUTPUT_POINTS + 1}, "'output_points'"),
        ],
    )
    def test_malformed_value_exits_2_naming_the_key(self, tmp_path, capsys, command, cfg, key):
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, cfg)]
        assert run(argv if command == "rmin" else argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        assert key in config_error(capsys)
        assert not out.exists()

    def test_output_points_cap_is_accepted(self):
        convert = cli.COMMANDS["simulate"][0]["output_points"]
        assert convert("'output_points'", cli.MAX_OUTPUT_POINTS) == cli.MAX_OUTPUT_POINTS

    @pytest.mark.parametrize(
        "command,cfg,key",
        [
            ("simulate", {**START, "seed": 3}, "'seed'"),
            ("simulate", {**START, "params": {"n": 2, "k": 1}}, "'params.k'"),
            ("simulate", {**START, "initial": {**START["initial"], "v": [1.0, 0.0]}}, "'initial.v'"),
            ("simulate", {**START, "initial": {"collision": {"h": -0.5, "a": [1.0, 0.0], "t": 0.0}}}, "'initial.collision.t'"),
            ("verify", {"params": {"n": 3}}, "'params'"),
            ("verify", {"thresholds": {"brackets": 1e-5}}, "'thresholds.brackets'"),
            ("rmin", {"E": -0.5, "l2": 1.0, "t_span": [0.0, 1.0]}, "'t_span'"),
            ("rmin", {"E": -0.5, "l2": 1.0, "params": {"N": 3}}, "'params.N'"),
        ],
    )
    def test_unread_key_exits_2_naming_it(self, tmp_path, capsys, command, cfg, key):
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, cfg)]
        assert run(argv if command == "rmin" else argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        assert config_error(capsys) == f"config error: config key {key} is not read by {command}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["verify", "--seed", "-1"], "--seed"),
            (["rmin", "--E", "nan"], "--E"),
            (["rmin", "--n", "2.5"], "--n"),
            (["simulate", "--m", "0"], "--m"),
        ],
    )
    def test_malformed_flag_exits_2_naming_it(self, tmp_path, capsys, argv, flag):
        # the flags go through the config's converters
        out = [] if argv[0] == "rmin" else ["--out", str(tmp_path / "out")]
        assert run(argv + out) == cli.EXIT_CONFIG
        assert config_error(capsys).startswith(f"config error: {flag} must be ")
        assert not (tmp_path / "out").exists()

    def test_flags_override_the_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"params": {"n": 3, "m": 2.0}, "E": 0.5, "l2": 1.0})
        assert run(["rmin", "--config", cfg, "--n", "2", "--l2", "2"]) == cli.EXIT_OK
        r = float(capsys.readouterr().out.splitlines()[0])
        assert r == chart.r_min_kepler(ModelParams(n=2, d=2, m=2.0), 0.5, 2.0)

    @pytest.mark.parametrize("data", [b"\xff\xfe{}", b"{'n': 2}"], ids=["not UTF-8", "not JSON"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, data):
        (tmp_path / "c.json").write_bytes(data)
        assert run(["rmin", "--config", str(tmp_path / "c.json")]) == cli.EXIT_CONFIG
        assert config_error(capsys).startswith("config error: cannot read config ")

    def test_missing_config_file(self, capsys):
        code = run(["rmin", "--config", "/nonexistent/config.json"])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_d1_rejected_with_explanation(self, capsys):
        code = run(["rmin", "--d", "1", "--E", "-0.5", "--l2", "0.1"])
        assert code == cli.EXIT_CONFIG
        assert "d >= 2" in capsys.readouterr().err

    def test_simulate_requires_initial_state(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"t_span": [0.0, 1.0]})
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "initial" in capsys.readouterr().err

    def test_simulate_where_E_over_Z_overflows(self, tmp_path):
        # n = 2, m = Z = 1e-300: E/Z ~ 1e599 made the panel count inf, and
        # simulate ended in an OverflowError traceback
        cfg = write_config(tmp_path, {"params": {"n": 2, "d": 2, "m": 1e-300, "Z": 1e-300},
                                      "initial": {"q": [1.0, 0.0], "p": [0.3, 0.4]}, "t_span": [0.0, 1.0],
                                      "output_points": 5})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
        last = (tmp_path / "trajectory.csv").read_text().splitlines()[-1].split(",")
        assert float(last[0]) == 1.0 and float(last[1]) == pytest.approx(3e299, rel=1e-14)

    def test_simulate_where_Z_over_h_underflows(self, tmp_path, caplog):
        # Z / |h| below the floats: math.log raised ValueError, a traceback;
        # the bound orbit's apocenter underflows, and the step is refused
        cfg = write_config(tmp_path, {"params": {"n": 2, "d": 2, "Z": 1e-300},
                                      "initial": {"collision": {"h": -1e150, "a": [0.6, 0.8]}}, "t_span": [0.0, 1.0],
                                      "output_points": 5})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_STEP_FAILURE
        (line,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert line.endswith("a bound orbit's apocenter sigma=0.0 is not a positive normal float")

    def test_regular_start_at_origin_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"initial": {"q": [0.0, 0.0], "p": [1.0, 0.0]}, "t_span": [0.0, 0.1]},
        )
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("a", [[0.0, 0.0], [float("nan"), 1.0], [float("inf"), 0.0]])
    def test_collision_direction_must_be_nonzero_and_finite(self, tmp_path, capsys, a):
        cfg = write_config(
            tmp_path,
            {"initial": {"collision": {"h": -0.5, "a": a}}, "t_span": [0.0, 0.1]},
        )
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "initial",
        [{"collision": {"h": "x", "a": [1.0, 0.0]}}, {"q": ["x", 0.0], "p": [1.0, 0.0]}],
    )
    def test_non_numeric_initial_state_rejected(self, tmp_path, capsys, initial):
        cfg = write_config(tmp_path, {"initial": initial, "t_span": [0.0, 0.1]})
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "initial",
        [
            {"q": [float("nan"), 0.0], "p": [1.0, 0.0]},
            {"q": [0.05, 0.0], "p": [0.0, float("inf")]},
            {"q": [float("-inf"), 0.0], "p": [0.0, 1.0]},
            {"collision": {"h": float("nan"), "a": [1.0, 0.0]}},
            {"collision": {"h": float("inf"), "a": [1.0, 0.0]}},
        ],
    )
    def test_non_finite_initial_state_rejected(self, tmp_path, capsys, initial):
        # these wrote a CSV of nan rows and exited 0
        cfg = write_config(tmp_path, {"initial": initial, "t_span": [0.0, 0.1]})
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_n1_collision_launch_needs_kinetic_energy(self, tmp_path, capsys):
        # n = 1: K = 0 at Q = 0 gives |P0|^2 = 2m(Z + h), so h <= -Z cannot launch
        cfg = write_config(
            tmp_path,
            {
                "params": {"n": 1, "d": 2},
                "initial": {"collision": {"h": -1.0, "a": [1.0, 0.0]}},
                "t_span": [0.0, 0.1],
            },
        )
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "d,initial",
        [(2, {"q": [1.0, 0.0, 0.0], "p": [0.0, 1.0, 0.0]}), (3, {"collision": {"h": -0.5, "a": [1.0, 0.0]}})],
    )
    def test_initial_state_of_the_wrong_dimension_rejected(self, tmp_path, capsys, d, initial):
        cfg = write_config(tmp_path, {"params": {"n": 2, "d": d}, "initial": initial, "t_span": [0.0, 0.1]})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert config_error(capsys) == f"config error: initial state has wrong dimension: d = {d}"
        assert not (tmp_path / "out").exists()

    def test_runtime_error_exits_3(self, monkeypatch, caplog):
        # one that no command reports itself is logged with the command's name
        def fail(*args):
            raise RuntimeError("no root")

        monkeypatch.setattr(chart, "r_min", fail)
        assert run(["rmin", "--E", "-0.5", "--l2", "1"]) == cli.EXIT_STEP_FAILURE
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] == ["rmin failed: no root"]

    @pytest.mark.parametrize(
        "grid",
        [
            {"t_span": [0.0, "a"]},
            {"t_span": 1.0},
            {"t_span": [0.0, float("nan")]},
            {"output_points": "many"},
            {"output_points": 0},
        ],
    )
    def test_bad_time_grid_rejected(self, tmp_path, capsys, grid):
        cfg = write_config(
            tmp_path,
            {"initial": {"q": [0.05, 0.0], "p": [0.0, 5.0]}, "t_span": [0.0, 0.1], **grid},
        )
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unwritable_output_dir(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"initial": {"q": [1.0, 0.0], "p": [0.0, 1.0]}, "t_span": [0.0, 0.1]},
        )
        code = run(["simulate", "--config", cfg, "--out", "/proc/mcgehee-denied"])
        assert code == cli.EXIT_UNWRITABLE

    def test_unwritable_output_file_exits_4(self, tmp_path, capsys):
        # a directory where the CSV goes: the write raised IsADirectoryError
        (tmp_path / "out" / "trajectory.csv").mkdir(parents=True)
        cfg = write_config(tmp_path, START)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_UNWRITABLE
        assert "trajectory.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["figures", "fig1"], ["verify"]])
    def test_figures_and_verify_unwritable_output_dir(self, tmp_path, capsys, argv):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        code = run(argv + ["--out", str(blocker / "out")])
        assert code == cli.EXIT_UNWRITABLE
        assert "is not writable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "which,orbit",
        [("fig1", "fig1_n2 (zero-energy, E=0.0, l=1.4142135623730951)"), ("fig2", "fig2_orbit1_l0.")],
        ids=["fig1", "fig2"],
    )
    def test_figures_orbit_failure_exits_3(self, tmp_path, monkeypatch, caplog, which, orbit):
        def fail(*args, **kwargs):
            raise RuntimeError("orbit sampling failed")

        monkeypatch.setattr(cli, "_orbit_curve", fail)
        code = run(["figures", which, "--out", str(tmp_path)])
        assert code == cli.EXIT_STEP_FAILURE
        # the first orbit of the figure, named with its constants
        (line,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert line.startswith(f"figure orbit {orbit}")
        assert line.endswith(" failed: orbit sampling failed")
        assert not list(tmp_path.glob("*.svg"))


def first_refused(params, start, t_span, count):
    """The first of simulate's output times at which `global_flow` raises."""
    for t in np.linspace(*t_span, count).tolist():
        try:
            chart.global_flow(params, start, t)
        except DomainError:
            return t
    return None


class TestSimulate:
    def test_integrator_config_is_rejected(self, tmp_path, capsys):
        # simulate integrates no ODE, so a tolerance it would not read is an error
        cfg = write_config(
            tmp_path,
            {
                "initial": {"q": [0.05, 0.0], "p": [-6.0, 0.0]},
                "integrator": {"rel_tol": 1e-12},
            },
        )
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "'integrator'" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("option", [["--rel-tol", "1e-8"], ["--abs-tol", "1e-8"]])
    @pytest.mark.parametrize("command", ["simulate", "verify", "rmin"])
    def test_tolerance_options_are_gone(self, tmp_path, command, option):
        out = [] if command == "rmin" else ["--out", str(tmp_path)]  # rmin writes no file
        with pytest.raises(SystemExit) as exc:
            run([command, *out] + option)
        assert exc.value.code == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "initial,t_span,failed_at",
        [
            # the end state at the second output, t = 5e307, overflows: r = 8.5e308
            ({"q": [0.05, 0.0], "p": [0.0, 20.0]}, [0.0, 1e308], "t=0.0 failed at the state q=[0.05, 0.0] p=[0.0, 20.0]"),
            # |q|**2 overflows: the start's radius is not finite
            ({"q": [1e200, 0.0], "p": [0.0, 1.0]}, [0.0, 1.0], "t=0.0 failed at the state q=[1e+200, 0.0] p=[0.0, 1.0]"),
            # G overflows at the start, which flows; its end at t = 5e159 (r = 5e313) is not finite
            ({"q": [3.0, 0.0], "p": [1e154, 1e150]}, [0.0, 1e160], "t=0.0 failed at the state q=[3.0, 0.0] p=[1e+154, 1e+150]"),
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_flow_exits_3_with_the_state(self, tmp_path, caplog, initial, t_span, failed_at):
        cfg = write_config(
            tmp_path, {"params": {"n": 3, "d": 2}, "initial": initial, "t_span": t_span, "output_points": 3}
        )
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == cli.EXIT_STEP_FAILURE
        (line,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        # the start, and the first output time at which `global_flow` refuses
        assert line.startswith(f"flow from {failed_at}: ") and "not finite" in line
        start = PhasePoint(np.array(initial["q"]), np.array(initial["p"]))
        assert line.endswith(f" after t={first_refused(ModelParams(n=3, d=2), start, t_span, 3)!r}")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_overflowing_potential_exits_3(self, tmp_path, caplog):
        # |q|**(-alpha) beyond the float range (n = 50, |q| = 1e-160): the
        # energy is -inf and the start is refused, with no RuntimeWarning
        initial = {"q": [1e-160, 0.0], "p": [0.0, 1.0]}
        cfg = write_config(
            tmp_path, {"params": {"n": 50, "d": 2}, "initial": initial, "t_span": [0.0, 0.02], "output_points": 5}
        )
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_STEP_FAILURE
        (line,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert line.startswith("flow from t=0.0 failed at the state q=[1e-160, 0.0] p=[0.0, 1.0]: ") and "not finite" in line
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failing_later_step_logs_its_start(self, tmp_path, caplog):
        # r = 1.7e308 at the 2nd of 11 outputs, t = 1e307, beyond the float range at the 3rd
        initial, t_span = {"q": [0.05, 0.0], "p": [0.0, 20.0]}, [0.0, 1e308]
        cfg = write_config(
            tmp_path, {"params": {"n": 3, "d": 2}, "initial": initial, "t_span": t_span, "output_points": 11}
        )
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_STEP_FAILURE
        start = PhasePoint(np.array(initial["q"]), np.array(initial["p"]))
        t = first_refused(ModelParams(n=3, d=2), start, t_span, 11)
        assert t == np.linspace(*t_span, 11)[2]
        (line,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert line.startswith("flow from t=0.0 failed at the state q=[0.05, 0.0] p=[0.0, 20.0]: ")
        assert line.endswith(f"the end state is not finite, from {chart.Regular(start)} after t={t!r}")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_rows_are_the_trajectory(self, tmp_path):
        # a launch from the collision set, its t = 0 row on the collision
        cfg = write_config(tmp_path, {
            "params": {"n": 3, "d": 2}, "initial": {"collision": {"h": -0.5, "a": [1.0, 0.0]}},
            "t_span": [-1.0, 2.0], "output_points": 31,
        })
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
        ts = np.linspace(-1.0, 2.0, 31)
        points = chart.trajectory(ModelParams(n=3, d=2), chart.Collision(h=-0.5, a=np.array([1.0, 0.0])), ts)
        lines = (tmp_path / "trajectory.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(lines) == 31 and lines[10] == "0.0,0.0,0.0,,,-0.5,0.0,1"
        for line, t, point in zip(lines, ts.tolist(), points):
            values = line.split(",")
            assert float(values[0]) == t
            if isinstance(point, chart.Regular):
                assert np.array(values[1:5], dtype=float).tobytes() == np.concatenate((point.x.q, point.x.p)).tobytes()
            else:
                assert values[3:5] == ["", ""] and float(values[5]) == point.h

    def test_far_out_second_step_flows(self, tmp_path):
        # the first step of 5e149 ends near |q| = 8.5e150, where E s**n
        # overflows at the pericenter root's first start s = l**2/(2mZ)
        cfg = write_config(
            tmp_path,
            {"params": {"n": 3, "d": 2}, "initial": {"q": [0.05, 0.0], "p": [0.0, 20.0]},
             "t_span": [0.0, 1e150], "output_points": 3},
        )
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
        rows = [list(map(float, line.split(",")[:6])) for line in (tmp_path / "trajectory.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == [0.0, 5e149, 1e150]
        speed = np.sqrt(2.0 * rows[0][5])  # sqrt(2H/m), m = 1: the far-out speed
        for t, q1, q2, p1, p2, _ in rows[1:]:
            assert np.hypot(q1, q2) / t == pytest.approx(speed, rel=1e-12)
            assert np.hypot(p1, p2) == pytest.approx(speed, rel=1e-12)

    def test_zero_span_single_row(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "initial": {"q": [1.0, 0.0], "p": [0.0, 1.0]},
                "t_span": [0.0, 0.0],
            },
        )
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,q_1,q_2,p_1,p_2,H,l2,in_U_eps"
        assert len(lines) == 2
        row = lines[1].split(",")
        assert float(row[1]) == 1.0 and float(row[4]) == 1.0
        assert float(row[5]) == pytest.approx(-0.5)  # circular Kepler energy

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "initial": {"q": [1.0, 0.0], "p": [0.1, 0.9]},
                "t_span": [0.0, 2.0],
                "output_points": 40,
            },
        )
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
        first = (tmp_path / "trajectory.csv").read_bytes()
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
        assert (tmp_path / "trajectory.csv").read_bytes() == first

    def test_energy_conserved_along_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "initial": {"q": [0.5, 0.0], "p": [0.0, 1.2]},
                "t_span": [0.0, 3.0],
                "output_points": 60,
            },
        )
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        hs = [float(line.split(",")[5]) for line in lines]
        assert max(hs) - min(hs) < 1e-8

    def test_l2_column_below_the_normal_floats(self, tmp_path):
        # <q,q> = 1e-340 is not a normal float: l**2 read -1e-240 at t = 0,
        # and -1e-114 later, before q and p were scaled by powers of two
        q, p = [1e-170, 0.0], [1e50, 1e60]
        cfg = write_config(tmp_path, {"params": {"n": 3, "d": 2, "eps": 0.1}, "initial": {"q": q, "p": p},
                                      "t_span": [0.0, 1e-230], "output_points": 5})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        column = lines[0].split(",").index("l2")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        exact = float((mpmath.mpf(q[0]) * mpmath.mpf(p[1]) - mpmath.mpf(q[1]) * mpmath.mpf(p[0])) ** 2)
        assert len(rows) == 5 and rows[0][column] == pytest.approx(exact, rel=1e-15, abs=0.0)
        for row in rows[1:]:
            # p nearly along q: |q|**2 |p|**2 - <q,p>**2 keeps l**2 only to
            # a few ulps of |q|**2 |p|**2
            qp_scale = (math.hypot(*row[1:3]) * math.hypot(*row[3:5])) ** 2
            assert abs(row[column] - exact) <= 1e-15 * qp_scale

    def test_collision_launch_by_a_time_below_the_normal_floats(self, tmp_path):
        # t_span [0, 5e-324]: the launch's first guess divided by T(g) = 0
        # (ZeroDivisionError, a traceback and exit 1); it flows as its
        # scaled image, off the collision and outward
        cfg = write_config(
            tmp_path,
            {"params": {"n": 4, "d": 2}, "initial": {"collision": {"h": 2.0, "a": [1, 0]}}, "t_span": [0, 5e-324]},
        )
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
        rows = [line.split(",") for line in (tmp_path / "trajectory.csv").read_text().splitlines()[1:]]
        assert len(rows) == 200 and float(rows[-1][0]) == 5e-324
        q, p = np.array(rows[-1][1:3], dtype=float), np.array(rows[-1][3:5], dtype=float)
        assert 0.0 < np.abs(q).max() < 1e-180 and np.dot(q, p) > 0.0

    def test_failing_collision_launch_logs_its_start(self, tmp_path, caplog):
        # r = 2e308 at t = 1e308 on the hyperbola of h = 2
        cfg = write_config(
            tmp_path,
            {"params": {"n": 2, "d": 2}, "initial": {"collision": {"h": 2.0, "a": [1.0, 0.0]}},
             "t_span": [0.0, 1e308], "output_points": 3},
        )
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_STEP_FAILURE
        (line,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert line.startswith("flow from t=0.0 failed at the state collision h=2.0 a=[1.0, 0.0]: ")
        assert line.endswith("the end state is not finite, from Collision(h=2.0, a=array([1., 0.])) after t=1e+308")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_collision_launch_scenario(self, tmp_path):
        # start at the collision itself and launch outward; the energy
        # column must stay at h and the position path must leave the origin
        # continuously
        cfg = write_config(
            tmp_path,
            {
                "params": {"n": 2, "d": 2, "eps": 0.1},
                "initial": {"collision": {"h": -0.5, "a": [1.0, 0.0]}},
                "t_span": [0.0, 0.02],
                "output_points": 30,
            },
        )
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        rs = [np.hypot(float(r[1]), float(r[2])) for r in rows]
        assert rs[0] == 0.0
        assert all(b > a for a, b in zip(rs, rs[1:]))  # monotone departure
        assert rs[1] < 0.02  # continuous: tiny radius right after launch
        hs = [float(r[5]) for r in rows]
        assert max(abs(h + 0.5) for h in hs) < 1e-6

    def test_radial_infall_crosses_collision(self, tmp_path):
        # radial Kepler drop from inside the chart: the run must continue
        # through the collision and come back out on the same ray
        cfg = write_config(
            tmp_path,
            {
                "params": {"n": 2, "d": 2, "eps": 0.1},
                "initial": {"q": [0.05, 0.0], "p": [-6.0, 0.0]},
                "t_span": [0.0, 0.02],
                "output_points": 50,
            },
        )
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        q1s = [float(r[1]) for r in rows]
        assert min(q1s) >= 0.0  # bounce, never crosses to the far side
        assert q1s[-1] > 0.01  # and it did come back out
        hs = [float(r[5]) for r in rows if r[5] != ""]
        assert max(hs) - min(hs) < 1e-6


class TestFigures:
    def test_fig1_outputs(self, tmp_path):
        code = run(["figures", "fig1", "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        svg = (tmp_path / "fig1.svg").read_text()
        assert svg.startswith("<svg") and svg.count("<polyline") == 4
        for n in (2, 3, 4, 6):
            lines = (tmp_path / f"fig1_n{n}.csv").read_text().splitlines()
            assert lines[0] == "t,q_1,q_2"
            # each curve passes through its pericenter at radius 1
            rmins = [
                np.hypot(float(r.split(",")[1]), float(r.split(",")[2]))
                for r in lines[1:]
            ]
            assert min(rmins) == pytest.approx(1.0, abs=1e-3)
            assert max(rmins) >= 19.0


    @pytest.mark.parametrize(
        "option", [["--rel-tol", "1e-8"], ["--abs-tol", "1e-8"], ["--config", "c.json"], ["--n", "3"]]
    )
    def test_options_figures_does_not_read_are_rejected(self, tmp_path, option):
        # its orbits are fixed and integrate no ODE
        with pytest.raises(SystemExit) as exc:
            run(["figures", "fig1", "--out", str(tmp_path)] + option)
        assert exc.value.code == cli.EXIT_CONFIG


def read_curve(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)


class TestFigureOrbits:
    """figures samples every orbit from its radial integrals; the oracles
    here integrate the physical field instead."""

    @pytest.fixture(scope="class")
    def figs(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("figs")
        assert run(["figures", "all", "--out", str(out)]) == cli.EXIT_OK
        return out

    @staticmethod
    def figure_orbits():
        """The orbits of `figures all` with their times, as `cmd_figures` builds them."""
        orbits = []
        for n in (2, 3, 4, 6):
            orbit = chart._ZeroEnergyOrbit(ModelParams(n=n, d=2), np.sqrt(2.0))
            ts = np.linspace(0.0, orbit.time(orbit.u_at(20.0)), 400)
            orbits.append((orbit, np.concatenate((-ts[:0:-1], ts))))
        params = ModelParams(n=3, d=2)
        for target in cli.FIG2_TARGETS:
            l = cli.FIG2_MIDDLE_L if target is None else cli._periodic_l(params, cli.FIG2_ENERGY, target, (0.1, 1.03))
            orbits.append((chart._BoundOrbit(params, cli.FIG2_ENERGY, l), np.linspace(0.0, 60.0, 2000)))
        return orbits

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
    @pytest.mark.parametrize("m, Z, l", [(1.0, 1.0, math.sqrt(2.0)), (1.3, 0.8, 0.3), (0.7, 2.5, 1.7), (1e3, 1e-3, 0.05)])
    def test_zero_energy_samples_mirror_about_the_apse_line(self, n, m, Z, l):
        # the symmetry fig1's inbound branch is built from: t -> -t keeps r
        # and the pericenter and negates p_r, the swept angle and q2, to the bit
        orbit = chart._ZeroEnergyOrbit(ModelParams(n=n, d=2, m=m, Z=Z), l)
        ts = np.random.default_rng(n).uniform(0.0, orbit.time(orbit.u_at(1e4)), 300)
        out, back = chart._sample(orbit, ts), chart._sample(orbit, -ts)
        assert same_bits(back.r, out.r) and same_bits(back.pericenter, out.pericenter)
        assert same_bits(back.p_r, -out.p_r) and same_bits(back.swept, -out.swept)
        (q1, q2), (b1, b2) = (cli._orbit_curve("zero-energy", orbit, s) for s in (ts, -ts))
        assert same_bits(b1, q1) and same_bits(b2, -q2)

    def test_samples_do_not_depend_on_the_chunk(self, monkeypatch):
        # each time is solved alone: its bracket and its stop are its own
        for orbit, ts in self.figure_orbits():
            whole = chart._sample(orbit, ts)
            for chunk in (64, 1):
                monkeypatch.setattr(chart, "_SAMPLE_CHUNK", chunk)
                part = chart._sample(orbit, ts)
                assert all(same_bits(a, b) for a, b in zip(part[:5], whole[:5])), (type(orbit).__name__, orbit.l, chunk)
                assert same_bits(part.solve.x, whole.solve.x)
            monkeypatch.undo()

    def test_runs_no_ode(self, tmp_path, monkeypatch):
        def no_ode(*args, **kwargs):
            raise AssertionError("figures integrated an ODE")

        monkeypatch.setattr(ode, "integrate", no_ode)
        assert run(["figures", "all", "--out", str(tmp_path)]) == cli.EXIT_OK

    def test_fig2_hits_its_apsidal_targets(self):
        params = ModelParams(n=3, d=2)
        for target in (4.0 * np.pi / 3.0, 10.0 * np.pi / 7.0):
            l = cli._periodic_l(params, cli.FIG2_ENERGY, target, (0.1, 1.03))
            assert abs(chart._BoundOrbit(params, cli.FIG2_ENERGY, l).apsis - target) <= 1e-12

    def test_fig2_matches_dop853_over_two_periods(self, figs):
        # DOP853 at rtol 1e-13 is itself about 9e-9 r_apo off after two periods
        # of the l = 0.213 orbit, so the oracle runs at rtol 3e-14
        params = ModelParams(n=3, d=2)
        tight = ode.IntegratorConfig(rel_tol=3e-14, abs_tol=1e-15)
        paths = sorted(figs.glob("fig2_orbit*.csv"))
        assert len(paths) == 3
        for path in paths:
            data = read_curve(path)
            rp = data[0, 1]
            p_mag = np.sqrt(2.0 * (cli.FIG2_ENERGY + rp ** -params.alpha))
            orbit = chart._BoundOrbit(params, cli.FIG2_ENERGY, rp * p_mag)
            rows = data[data[:, 0] <= 2.0 * orbit.period]
            y0 = np.array([rp, 0.0, 0.0, p_mag])
            traj = ode.integrate(physical_field(params), y0, (0.0, rows[-1, 0]), tight)
            q = np.array([traj(t)[:2] for t in rows[:, 0]])
            err = np.max(np.hypot(*(q - rows[:, 1:3]).T))
            assert err <= 1e-8 * orbit.s1**1.5

    def test_fig1_matches_escape_and_the_parabola(self, figs):
        for n in (2, 3, 4, 6):
            params = ModelParams(n=n, d=2)
            data = read_curve(figs / f"fig1_n{n}.csv")
            half = (len(data) + 1) // 2
            y0 = np.array([data[half - 1, 1], 0.0, 0.0, np.sqrt(2.0)])
            for rows, traj in zip(
                (data[:half][::-1], data[half - 1:]),
                verify.escape(params, y0, 20.0, chart._TIGHT),
            ):
                assert traj.t_end == pytest.approx(rows[-1, 0], rel=1e-9)
                ts = np.clip(rows[:, 0], *sorted((traj.t0, traj.t_end)))
                q = np.array([traj(t)[:2] for t in ts])
                assert np.max(np.hypot(*(q - rows[:, 1:3]).T)) <= 1e-8 * 20.0
        # n = 2 at E = 0 is the parabola r (1 + cos theta) = 2 r_min, r_min = 1
        data = read_curve(figs / "fig1_n2.csv")
        r = np.hypot(data[:, 1], data[:, 2])
        assert np.max(np.abs(r + data[:, 1] - 2.0)) / 2.0 <= 1e-8

    def test_debug_log_reports_each_orbit(self, tmp_path, figs, caplog):
        with caplog.at_level(logging.DEBUG, logger="mcgehee"):
            assert run(["figures", "all", "--out", str(tmp_path)]) == cli.EXIT_OK
        lines = [r.getMessage() for r in caplog.records if "orbit E=" in r.getMessage()]
        assert len(lines) == 7
        for line in lines:
            for field in ("s0=", "s1=", "period=", "apsis=", "newton_iterations=", "worst_residual="):
                assert field in line
        # a bound orbit's residual covers all of its times, not one chunk of them
        params = ModelParams(n=3, d=2)
        bound = [dict(re.findall(r"(\w+)=(\S+)", line)) for line in lines if line.startswith("bound")]
        assert len(bound) == 3
        for fields in bound:
            orbit = chart._BoundOrbit(params, float(fields["E"]), float(fields["l"]))
            _, _, sol = orbit.place(np.linspace(0.0, 60.0, 2000))
            assert float(fields["worst_residual"]) == np.max(np.abs(orbit.time(sol.x) - sol.t))
        for path in figs.iterdir():
            assert (tmp_path / path.name).read_bytes() == path.read_bytes()


def oracle_curve_csv(path, data):
    """The per-value CSV writer of the (k, 3) rows (t, q1, q2) that `cli._write_curve_csv` replaced."""
    lines = ["t,q_1,q_2"]
    lines += [",".join(cli._fmt(v) for v in row) for row in data]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def oracle_svg_polylines(curves, path, size=600):
    """The per-point SVG writer that `cli._svg_polylines` replaced."""
    all_pts = np.vstack(curves)
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = max(float(np.max(hi - lo)), 1e-12)
    pad = 0.05 * span

    def to_px(pt):
        x = (pt[0] - lo[0] + pad) / (span + 2 * pad) * size
        y = size - (pt[1] - lo[1] + pad) / (span + 2 * pad) * size
        return x, y

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for k, curve in enumerate(curves):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_px(p) for p in curve))
        parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{colors[k % len(colors)]}" stroke-width="1"/>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


EDGE_ROWS = np.array(
    [
        [-0.0, 5e-324, 1e-5],
        [1e16, 1e22, -1e22],
        [-5e-324, -1e-5, -1e16],
        [0.1, -2.0 / 3.0, 123456.789],
        [0.0, -0.0, 1.0 + 2.0**-52],
    ]
)


def rounding_ties(lo=-1.3, span=3.0, size=600):
    """A curve in the square [lo, lo + span]**2 whose pixel coordinates land
    exactly on ties of the .2f format (k + 1/8, ..., k + 7/8), so that an
    ulp of difference in the pixel arithmetic flips a printed digit."""
    pad = 0.05 * span
    pts = [lo, lo + span]
    for k in range(28, 572):
        target = k + 0.125 * (2 * (k % 4) + 1)
        v = np.float64(lo + target / size * (span + 2 * pad) - pad)
        for _ in range(64):
            px = (v - lo + pad) / (span + 2 * pad) * size
            if px == target:
                pts.append(v)
                break
            v = np.nextafter(v, np.inf if px < target else -np.inf)
    assert len(pts) > 300
    pts = np.array(pts)
    return np.column_stack((pts, pts[::-1]))


def oracle_figures(out):
    """`figures all` as it was written before fig1's inbound branch was
    mirrored: every orbit sampled by `chart._sample` at each of its times
    (fig1's at -t and t), each file written by the per-value writers above."""
    out.mkdir()
    orbits = TestFigureOrbits.figure_orbits()
    curves = {"fig1": [], "fig2": []}
    for k, (orbit, ts) in enumerate(orbits[:4] + sorted(orbits[4:], key=lambda o: o[0].l)):
        sample = chart._sample(orbit, ts)
        data = np.column_stack((ts, sample.r * np.cos(sample.swept), sample.r * np.sin(sample.swept)))
        name = f"fig1_n{orbit.n}" if k < 4 else f"fig2_orbit{k - 3}_l{orbit.l:.6f}"
        oracle_curve_csv(out / f"{name}.csv", data)
        curves[name[:4]].append(data[:, 1:])
    for figure, figure_curves in curves.items():
        oracle_svg_polylines(figure_curves, out / f"{figure}.svg")


class TestWriters:
    """The array writers give the bytes of the per-value oracles above."""

    def test_figures_match_the_oracle_writers(self, tmp_path):
        assert run(["figures", "all", "--out", str(tmp_path / "new")]) == cli.EXIT_OK
        oracle_figures(tmp_path / "old")
        names = sorted(p.name for p in (tmp_path / "old").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "new").iterdir()) and len(names) == 9
        for name in names:
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()

    @pytest.mark.parametrize("rows", [EDGE_ROWS, EDGE_ROWS[:1], -EDGE_ROWS])
    def test_csv_edge_values(self, tmp_path, rows):
        # a column is floats or their reprs
        t, q1, q2 = rows.T.tolist()
        cli._write_curve_csv(tmp_path / "new.csv", list(map(repr, t)), q1, q2)
        oracle_curve_csv(tmp_path / "old.csv", rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("rows", [EDGE_ROWS, EDGE_ROWS[:1], -EDGE_ROWS])
    def test_mirrored_edge_values(self, tmp_path, rows):
        # the rows before the first mirrored, t and q2 negated, as text and as the curve
        text, curve = cli._mirrored(*rows.T)
        whole = np.vstack((rows[:0:-1] * [-1.0, 1.0, -1.0], rows))
        cli._write_curve_csv(tmp_path / "new.csv", *text)
        oracle_curve_csv(tmp_path / "old.csv", whole)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert same_bits(curve, whole[:, 1:])

    def test_negated_text_is_the_repr_of_the_negation(self):
        # the mirrored rows' sign flip of the outbound text, for every float:
        # edge values, infinities, NaN and random bit patterns
        bits = np.random.default_rng(5).integers(-(2**63), 2**63, size=20000, dtype=np.int64)
        special = [0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e22, 0.1, 1.0 + 2.0**-52, 1.7976931348623157e308]
        values = np.array([0.0, *special, *(-x for x in special), math.inf, -math.inf, math.nan, *bits.view(float)])
        (t, _, q2), _ = cli._mirrored(values, values, values)
        want = [repr(-x) for x in values[:0:-1].tolist()]
        assert t[: len(want)] == want and q2[: len(want)] == want

    @pytest.mark.parametrize(
        "curves",
        [
            [EDGE_ROWS[:, :2], EDGE_ROWS[:, 1:]],
            [EDGE_ROWS[[0, 2, 4], :2]],  # span of tiny and signed zero values
            [np.array([[0.25, -0.5]])],  # one point: the span floor 1e-12
            [np.array([[-0.0, 5e-324]]), np.array([[-0.0, 5e-324]])],
            [np.array([[3.0, -1e-5], [3.0, 1e-5]]), -EDGE_ROWS[3:, :2]],
            [rounding_ties()],
        ],
    )
    def test_svg_edge_values(self, tmp_path, curves):
        cli._svg_polylines(curves, tmp_path / "new.svg")
        oracle_svg_polylines(curves, tmp_path / "old.svg")
        assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()


def oracle_state_rows(path, params, ts, points):
    """The per-row trajectory writer that `cli._write_trajectory_csv` replaced."""
    def row(t, state):
        if isinstance(state, chart.Collision):  # momentum undefined at collision
            return [cli._fmt(t)] + [cli._fmt(0.0)] * params.d + [""] * params.d + [cli._fmt(state.h), cli._fmt(0.0), "1"]
        x = state.x
        r, H, _ = chart._radius_energy_radial(params, x)
        values = (t, *x.q, *x.p, H, l_squared_point(x))
        return [cli._fmt(v) for v in values] + ["1" if chart._in_domain(params, r, H) else "0"]

    header = ["t", *(f"{v}_{i+1}" for v in "qp" for i in range(params.d)), "H", "l2", "in_U_eps"]
    rows = [header] + [row(t, point) for t, point in zip(ts, points)]
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")


def edge_trajectory(d):
    """Rows at the trajectory writer's edges in d dimensions, collisions among them."""
    e = np.eye(d)
    states = [
        (0.05 * e[0], -6.0 * e[0] + e[1]),  # in U^eps: in_U_eps 1
        (1.2 * e[0] + 0.3 * e[-1], 0.8 * e[1]),  # in_U_eps 0
        (1e-160 * e[0] + 3e-161 * e[1], 2e-160 * e[0] + 1e-160 * e[-1]),  # |q| < 1.5e-154, <p,p> subnormal
        (1e200 * e[0], 1e-200 * e[1]),  # beyond l_squared_point's hypot range
        (5e153 * e[0] - 1e153 * e[1], 0.5 * e[1]),  # inside it, past the Lagrange rows' 1.3e154 / 2d
        (1e160 * e[1], 1e160 * (e[0] + e[1])),  # <p,p> overflows: H = inf
        (1e-5 * e[0], 1e5 * e[-1]),
        (-0.03 * e[1], 1e-170 * e[0]),  # <p,p> below the floats
    ]
    points = [chart.Regular(PhasePoint(q, p)) for q, p in states]
    points[3:3] = [chart.Collision(h=0.25, a=e[1])]
    points = [chart.Collision(h=-0.5, a=e[0])] + points + [chart.Collision(h=-1.0 / 3.0, a=-e[0])] * 2
    ts = [0.0, -0.0, 5e-324, 1e-300, 0.1, -2.0 / 3.0, 1e16, 123456.789, -1e-5, 7.0, 1.0 + 2.0**-52, 2.0]
    return ts[: len(points)], points


SIMULATE_SCENARIOS = [
    # a launch from the collision set: its t = 0 row is the collision
    {"params": {"n": 3, "d": 2}, "initial": {"collision": {"h": -0.5, "a": [1.0, 0.0]}},
     "t_span": [-1.0, 2.0], "output_points": 31},
    {"params": {"n": 4, "d": 3}, "initial": {"q": [0.05, 0.0, 0.0], "p": [-6.0, 1.0, 0.0]},
     "t_span": [0.0, 0.1], "output_points": 50},
    {"params": {"n": 2, "d": 2}, "initial": {"q": [0.05, 0.0], "p": [-6.0, 0.0]}, "t_span": [0.0, 0.02],
     "output_points": 50},
    # |q| below 1.5e-154 and <p,p> subnormal
    {"params": {"n": 2, "d": 2}, "initial": {"q": [1e-160, 0.0], "p": [2e-160, 1e-160]}, "t_span": [0.0, 1e-240],
     "output_points": 20},
    {"params": {"n": 1, "d": 3}, "initial": {"q": [0.3, 0.1, 0.0], "p": [-1.0, 0.0, 0.2]}, "t_span": [0.0, 2.0],
     "output_points": 40},
]


class TestTrajectoryWriter:
    """`simulate`'s CSV gives the bytes of the per-row oracle above."""

    @pytest.mark.parametrize("cfg", SIMULATE_SCENARIOS)
    def test_simulate_matches_the_oracle_writer(self, tmp_path, monkeypatch, cfg):
        config = write_config(tmp_path, cfg)
        assert run(["simulate", "--config", config, "--out", str(tmp_path / "new")]) == cli.EXIT_OK
        monkeypatch.setattr(cli, "_write_trajectory_csv", oracle_state_rows)
        assert run(["simulate", "--config", config, "--out", str(tmp_path / "old")]) == cli.EXIT_OK
        new, old = ((tmp_path / w / "trajectory.csv").read_bytes() for w in ("new", "old"))
        assert new == old and len(new.splitlines()) == cfg["output_points"] + 1

    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (3, 3), (6, 4)])
    @pytest.mark.parametrize("block", [cli._BLOCK_ROWS, 3, 1])
    def test_edge_rows(self, tmp_path, monkeypatch, n, d, block):
        params = ModelParams(n=n, d=d)
        ts, points = edge_trajectory(d)
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
        cli._write_trajectory_csv(tmp_path / "new.csv", params, ts, points)
        oracle_state_rows(tmp_path / "old.csv", params, ts, points)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert {line.rsplit(b",", 1)[1] for line in new.splitlines()[1:]} == {b"0", b"1"}

    def test_collision_rows_only(self, tmp_path):
        params = ModelParams(n=2, d=2)
        ts, points = [0.0, 1.0], [chart.Collision(h=np.float64(-0.5), a=np.array([1.0, 0.0]))] * 2
        cli._write_trajectory_csv(tmp_path / "new.csv", params, ts, points)
        oracle_state_rows(tmp_path / "old.csv", params, ts, points)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestVerifyCommand:
    def test_corrupted_convention_fails_with_exit_5(self, tmp_path):
        # negative control: a zero bracket threshold no residual can meet
        cfg = write_config(
            tmp_path, {"thresholds": {"bracket": 0.0}, "verify_points": 1}
        )
        code = run(["verify", "--config", cfg, "--out", str(tmp_path), "--seed", "0"])
        assert code == cli.EXIT_VERIFY_FAILED
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["ok"] is False
        # only the section with the impossible threshold is out of tolerance
        assert report["bracket_table"]["max_residual"] > report["thresholds"]["bracket"]
        assert report["dirac"]["max_residual"] < report["thresholds"]["dirac"]
        assert report["transit_bound"]["violations"] == []
        assert report["bracket_table"]["measured_signs"] == {
            "ab": -1.0,
            "bb": -1.0,
            "ll": -1.0,
        }

    def test_sections_count_failed_transits_and_collision_roundtrips(self, monkeypatch):
        # a transit over its bound is a violation; a chart point that comes
        # back as the collision is a round trip of error inf
        monkeypatch.setattr(verify, "transit_time_check", lambda params, x: verify.TransitCheck(2.0, 1.0, False))
        section = cli._transit_section(np.random.default_rng(0))
        assert section["checked"] == 30 and len(section["violations"]) == 30
        assert section["violations"][0] == {"n": 2, "measured": 2.0, "bound": 1.0}
        monkeypatch.setattr(chart, "chart_inverse", lambda params, c: chart.Collision(h=c.H, a=c.A))
        assert cli._roundtrip_section(np.random.default_rng(0), [(2, 2)], 3) == np.inf

    def test_report_reproduces_its_worst_points(self, tmp_path):
        # the report alone names the seed, the versions and each cell's worst
        # point, and bracket_table there gives the recorded worst row again
        cfg = write_config(tmp_path, {"verify_points": 1})
        run(["verify", "--config", cfg, "--out", str(tmp_path), "--seed", "11"])
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["seed"] == 11
        assert report["versions"] == {
            "mcgehee": mcgehee.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
        cells = report["bracket_table"]["per_entry"]
        assert len(cells) == 8
        for cell in cells:
            params = ModelParams(n=cell["n"], d=cell["d"], m=1.0, Z=1.0, eps=0.1)
            rep = verify.bracket_table(params, PhasePoint(cell["q"], cell["p"]))
            worst = max(rep.entries, key=lambda e: e.residual)
            assert list(worst.names) == cell["worst_pair"]
            assert worst.residual == cell["worst_residual"]

    def test_report_takes_worst_and_signs_over_all_points(self, monkeypatch):
        # the first point of every (n, d) cell is the worst one and measures a
        # flipped mixed-family sign; the report must show both
        from types import SimpleNamespace

        calls = []

        def fake_table(params, x):
            first = len(calls) % 2 == 0
            calls.append((params.n, params.d))
            resid = 1e-3 if first else 1e-9
            entry = SimpleNamespace(
                names=("A_0", "B_0") if first else ("H", "T"),
                computed=resid,
                expected=0.0,
                residual=resid,
            )
            return SimpleNamespace(
                entries=[entry], ab_sign=1.0 if first else -1.0, bb_sign=-1.0, ll_sign=-1.0
            )

        monkeypatch.setattr(cli.verify, "bracket_table", fake_table)
        monkeypatch.setattr(cli, "_conservation_section", lambda: {})
        monkeypatch.setattr(cli, "_transit_section", lambda rng: {})
        monkeypatch.setattr(cli, "_roundtrip_section", lambda rng, grid, points: 0.0)
        report = cli._verify_report(seed=0, points=2)["bracket_table"]
        assert len(calls) == 16
        for cell in report["per_entry"]:
            assert cell["worst_pair"] == ["A_0", "B_0"]
            assert cell["worst_residual"] == 1e-3
        assert report["measured_signs"] == {"ab": 0.0, "bb": -1.0, "ll": -1.0}
