import json

import numpy as np
import pytest

from mcgehee import chart, cli
from mcgehee.model import ModelParams


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
        argv = ["rmin", "--n", "2", "--E", "-0.9", "--l2", "0.5555555555555556"]
        assert run(argv) == cli.EXIT_OK
        r, delta = capsys.readouterr().out.splitlines()
        assert float(r) == pytest.approx(0.5555555555555556, rel=1e-15)
        assert delta == "closed-form delta: inf"

    def test_no_pericenter_exit_code(self, capsys):
        code = run(["rmin", "--n", "2", "--E", "-0.5", "--l2", "2"])
        assert code == cli.EXIT_NO_PERICENTER
        assert "no pericenter" in capsys.readouterr().err


class TestConfigErrors:
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

    @pytest.mark.parametrize("argv", [["figures", "fig1"], ["verify"]])
    def test_figures_and_verify_unwritable_output_dir(self, tmp_path, capsys, argv):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        code = run(argv + ["--out", str(blocker / "out")])
        assert code == cli.EXIT_UNWRITABLE
        assert "is not writable" in capsys.readouterr().err

    def test_figures_integration_failure_exits_3(self, tmp_path, monkeypatch):
        def no_escape(*args):
            raise RuntimeError("orbit did not reach the evaluation radius")

        monkeypatch.setattr(cli.verify, "escape", no_escape)
        code = run(["figures", "fig1", "--out", str(tmp_path)])
        assert code == cli.EXIT_STEP_FAILURE


class TestSimulate:
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
        code = run(
            ["figures", "fig1", "--out", str(tmp_path), "--rel-tol", "1e-8", "--abs-tol", "1e-8"]
        )
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
        args = cli.build_parser().parse_args(["verify", "--seed", "0"])
        report = cli._verify_report({"verify_points": 2}, args)["bracket_table"]
        assert len(calls) == 16
        for cell in report["per_entry"]:
            assert cell["worst_pair"] == ["A_0", "B_0"]
            assert cell["worst_residual"] == 1e-3
        assert report["measured_signs"] == {"ab": 0.0, "bb": -1.0, "ll": -1.0}
