"""Command-line harness: simulate, figures, verify, rmin.

Configuration is a single JSON document; command-line flags override file
values.  Outputs are CSV (comma-separated, '.' decimal point, shortest
round-trip float formatting), JSON reports and hand-rolled SVG polyline
figures.  Identical configuration produces byte-identical outputs.

Exit codes: 0 success, 2 config error, 3 integration step failure,
4 unwritable output directory, 5 verification threshold violation,
6 no pericenter for the requested (E, l2).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__, chart, integrate as ode, verify
from .model import (
    ModelParams,
    PhasePoint,
    hamiltonian,
    l_squared_point,
    physical_field,
)

log = logging.getLogger("mcgehee")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STEP_FAILURE = 3
EXIT_UNWRITABLE = 4
EXIT_VERIFY_FAILED = 5
EXIT_NO_PERICENTER = 6


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(x))


def _setup_logging() -> None:
    level = os.environ.get("MCGEHEE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _params_from(cfg: dict, args: argparse.Namespace) -> ModelParams:
    p = dict(cfg.get("params", {}))
    for key in ("n", "d", "m", "Z", "eps"):
        val = getattr(args, key, None)
        if val is not None:
            p[key] = val
    p.setdefault("n", 2)
    p.setdefault("d", 2)
    if p.get("d", 2) < 2:
        raise ConfigError(
            "d = 1 is not supported: on the line the regularised phase space "
            "has two components and the chart construction does not apply; "
            "use d >= 2"
        )
    try:
        return ModelParams(
            n=int(p["n"]),
            d=int(p["d"]),
            m=float(p.get("m", 1.0)),
            Z=float(p.get("Z", 1.0)),
            eps=float(p.get("eps", 0.1)),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid params: {exc}") from exc


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise PermissionError(f"output directory {out} is not writable: {exc}") from exc
    return out


def _initial_state(cfg: dict, params: ModelParams) -> chart.ExtendedPoint:
    init = cfg.get("initial")
    if init is None:
        raise ConfigError("config must provide an 'initial' state")
    try:
        if "collision" in init:
            c = init["collision"]
            h = float(c["h"])
            a = np.asarray(c["a"], dtype=float)
            if len(a) != params.d:
                raise ConfigError("collision direction has wrong dimension")
            a_norm = np.linalg.norm(a)
            if not (np.isfinite(a_norm) and a_norm > 0.0):
                raise ConfigError("collision direction a must be nonzero and finite")
            if params.n == 1 and not h > -params.Z:
                raise ConfigError("an n = 1 collision launch needs kinetic energy h + Z > 0")
            return chart.Collision(h=h, a=a / a_norm)
        q = np.asarray(init["q"], dtype=float)
        p = np.asarray(init["p"], dtype=float)
        if len(q) != params.d or len(p) != params.d:
            raise ConfigError("initial state has wrong dimension")
        x = PhasePoint(q, p)
        x.require_noncollision()
    except (KeyError, TypeError, ValueError) as exc:  # DomainError included
        raise ConfigError(f"invalid initial state: {exc}") from exc
    return chart.Regular(x)


def _state_row(params: ModelParams, t: float, state: chart.ExtendedPoint) -> list[str]:
    if isinstance(state, chart.Collision):
        row = [_fmt(t)]
        row += [_fmt(0.0)] * params.d
        row += [""] * params.d  # momentum undefined at collision
        row += [_fmt(state.h), _fmt(0.0), "1"]
        return row
    x = state.x
    row = [_fmt(t)]
    row += [_fmt(v) for v in x.q]
    row += [_fmt(v) for v in x.p]
    row += [
        _fmt(hamiltonian(params, x)),
        _fmt(l_squared_point(x)),
        "1" if chart.in_U_eps(params, x) else "0",
    ]
    return row


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    if "integrator" in cfg:
        raise ConfigError("config key 'integrator' is not read: simulate integrates no ODE")
    params = _params_from(cfg, args)
    out = _out_dir(args)
    state = _initial_state(cfg, params)
    try:
        t0, t1 = (float(v) for v in cfg.get("t_span", (0.0, 1.0)))
        n_out = int(cfg.get("output_points", 200))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid t_span or output_points: {exc}") from exc
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ConfigError("t_span must be finite")
    if n_out < 1:
        raise ConfigError("output_points must be at least 1")
    ts = np.linspace(t0, t1, n_out) if t1 != t0 else np.array([t0])

    header = (
        ["t"]
        + [f"q_{i+1}" for i in range(params.d)]
        + [f"p_{i+1}" for i in range(params.d)]
        + ["H", "l2", "in_U_eps"]
    )
    rows = [header]
    current = chart.global_flow(params, state, ts[0]) if ts[0] != 0.0 else state
    rows.append(_state_row(params, ts[0], current))
    for k in range(1, len(ts)):
        current = chart.global_flow(params, current, float(ts[k] - ts[k - 1]))
        rows.append(_state_row(params, float(ts[k]), current))

    path = out / cfg.get("trajectory_file", "trajectory.csv")
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    log.info("wrote %s (%d rows)", path, len(rows) - 1)
    return EXIT_OK


# ---------------------------------------------------------------------------
# figures


def _svg_polylines(curves: list[np.ndarray], path: Path, size: int = 600) -> None:
    """Minimal SVG rendering of planar curves as polylines."""
    all_pts = np.vstack(curves)
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = max(float(np.max(hi - lo)), 1e-12)
    pad = 0.05 * span

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for k, curve in enumerate(curves):
        x = (curve[:, 0] - lo[0] + pad) / (span + 2 * pad) * size
        y = size - (curve[:, 1] - lo[1] + pad) / (span + 2 * pad) * size
        pts = " ".join(map("{:.2f},{:.2f}".format, x.tolist(), y.tolist()))
        parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{colors[k % len(colors)]}" stroke-width="1"/>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def _log_orbit(kind: str, orbit, sol: chart.Solve) -> None:
    """One DEBUG line per figure orbit: its constants and the work of its solve."""
    if not log.isEnabledFor(logging.DEBUG):  # the residual costs one more pass of T
        return
    log.debug(
        "%s orbit E=%r l=%r s0=%r s1=%r period=%r apsis=%r newton_iterations=%d "
        "worst_residual=%r",
        kind,
        *(float(v) for v in (orbit.E, orbit.l, orbit.s0, orbit.s1, orbit.period, orbit.apsis)),
        sol.iterations,
        sol.residual(),
    )


def _energy_zero_orbit(params: ModelParams, l: float, r_far: float, points: int) -> np.ndarray:
    """Planar E = 0 orbit through its pericenter, as (t, q1, q2): both
    branches out to r_far, each sampled at `points` times."""
    orbit = chart._ZeroEnergyOrbit(params, l)
    ts = np.linspace(0.0, orbit.time(orbit.u_at(r_far)), points)
    ts = np.concatenate((-ts[:0:-1], ts))
    r, theta, sol = orbit.sample(ts)
    _log_orbit("zero-energy", orbit, sol)
    return np.column_stack((ts, r * np.cos(theta), r * np.sin(theta)))


def _periodic_l(params: ModelParams, E: float, target: float, bracket: tuple[float, float]) -> float:
    """Angular momentum whose apsidal angle equals `target` (orbit closes)."""
    from scipy.optimize import brentq

    return brentq(
        lambda l: chart._BoundOrbit(params, E, l).apsis - target, *bracket, xtol=1e-13
    )


def _bounded_orbit(
    params: ModelParams, E: float, l: float, t_total: float, points: int
) -> np.ndarray:
    """Bound orbit from its pericenter on the q_1 axis, sampled in time, as (t, q1, q2)."""
    orbit = chart._BoundOrbit(params, E, l)
    ts = np.linspace(0.0, t_total, points)
    r, theta, sol = orbit.sample(ts)
    _log_orbit("bound", orbit, sol)
    return np.column_stack((ts, r * np.cos(theta), r * np.sin(theta)))


FIG2_ENERGY = -0.5
# apsidal-angle targets inside the attainable band (1.227 pi, 1.5 pi) for
# n = 3 at E = -0.5: 4pi/3 closes after 3 radial periods, 10pi/7 after 7;
# the middle l gives a generic (annulus-filling) apsidal angle
FIG2_TARGETS = [4.0 * np.pi / 3.0, None, 10.0 * np.pi / 7.0]
FIG2_MIDDLE_L = 0.35


def cmd_figures(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    which = args.which

    if which in ("fig1", "all"):
        curves = []
        for n in (2, 3, 4, 6):
            params = ModelParams(n=n, d=2, m=1.0, Z=1.0, eps=0.1)
            l = np.sqrt(2.0 * params.m * params.Z)  # pericenter radius 1 for every n
            data = _energy_zero_orbit(params, l, r_far=20.0, points=400)
            _write_curve_csv(out / f"fig1_n{n}.csv", data)
            curves.append(data[:, 1:3])
        _svg_polylines(curves, out / "fig1.svg")

    if which in ("fig2", "all"):
        params = ModelParams(n=3, d=2, m=1.0, Z=1.0, eps=0.1)
        ls = sorted(
            FIG2_MIDDLE_L if target is None
            else _periodic_l(params, FIG2_ENERGY, target, (0.1, 1.03))
            for target in FIG2_TARGETS
        )
        curves = []
        for k, l in enumerate(ls):
            data = _bounded_orbit(params, FIG2_ENERGY, l, t_total=60.0, points=2000)
            _write_curve_csv(out / f"fig2_orbit{k+1}_l{l:.6f}.csv", data)
            curves.append(data[:, 1:3])
        _svg_polylines(curves, out / "fig2.svg")

    return EXIT_OK


def _write_curve_csv(path: Path, data: np.ndarray) -> None:
    lines = ["t,q_1,q_2"]
    lines += [",".join(map(repr, row)) for row in data.tolist()]  # repr(float) is _fmt
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# verify


DEFAULT_THRESHOLDS = {
    "bracket": 1e-5,
    "dirac": 1e-6,
    "conservation": 1e-8,
    "roundtrip": 1e-8,
}


def _verify_report(cfg: dict, args: argparse.Namespace) -> dict:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = int(cfg.get("seed", 0))
    rng = np.random.default_rng(seed)
    points = int(cfg.get("verify_points", 3))
    grid = [(n, d) for n in (1, 2, 3, 4) for d in (2, 3)]

    bracket_entries = []
    bracket_max = 0.0
    seen_signs: dict[str, set] = {"ab": set(), "bb": set(), "ll": set()}
    for (n, d) in grid:
        params = ModelParams(n=n, d=d, m=1.0, Z=1.0, eps=0.1)
        worst = worst_x = None
        for x in verify.sample_domain_points(params, rng, points):
            rep = verify.bracket_table(params, x)
            for e in rep.entries:
                bracket_max = max(bracket_max, e.residual)
                if worst is None or e.residual > worst.residual:
                    worst, worst_x = e, x
            seen_signs["ab"].add(rep.ab_sign)
            seen_signs["bb"].add(rep.bb_sign)
            seen_signs["ll"].add(rep.ll_sign)
        if worst is not None:
            bracket_entries.append(
                {
                    "n": n,
                    "d": d,
                    "worst_pair": list(worst.names),
                    "worst_residual": worst.residual,
                    # the worst point itself: bracket_table there gives the row again
                    "q": worst_x.q.tolist(),
                    "p": worst_x.p.tolist(),
                }
            )
    # a family's sign is reported only when every point that measured it
    # (sign 0: none, as for L_ij in d = 2) measured the same one
    signs = {}
    for k, v in seen_signs.items():
        v.discard(0.0)
        signs[k] = v.pop() if len(v) == 1 else 0.0

    dirac_max = 0.0
    for d in (2, 3, 4):
        q = np.zeros(d)
        q[0] = 1.0
        p = rng.normal(size=d)
        p -= np.dot(p, q) * q
        drep = verify.dirac_bracket_check(PhasePoint(q, p))
        dirac_max = max(dirac_max, drep.max_residual)

    conservation = _conservation_section()
    transit = _transit_section(rng)
    roundtrip_max = _roundtrip_section(rng, grid, points)

    return {
        "seed": seed,
        "versions": {"mcgehee": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        "bracket_table": {
            "max_residual": bracket_max,
            "per_entry": bracket_entries,
            "measured_signs": signs,
        },
        "dirac": {"max_residual": dirac_max},
        "conservation": conservation,
        "transit_bound": transit,
        "chart_roundtrip": {"max_error": roundtrip_max},
    }


def _conservation_section() -> dict:
    params = ModelParams(n=2, d=3, m=1.0, Z=1.0, eps=0.1)
    q = np.array([1.2, 0.0, 0.3])
    p = np.array([0.1, 0.8, -0.2])

    traj = ode.integrate(physical_field(params), np.concatenate([q, p]), (0.0, 20.0))
    rep = verify.conservation_report(params, traj)
    return {
        "max_drifts": {
            "H": rep.h_drift,
            "L": rep.l_drift,
            "l2": rep.l2_drift,
        }
    }


def _transit_section(rng: np.random.Generator) -> dict:
    violations = []
    count = 0
    for n in (2, 3, 4):
        params = ModelParams(n=n, d=2, m=1.0, Z=1.0, eps=0.1)
        for _ in range(10):
            x = _random_entry_state(params, rng)
            check = verify.transit_time_check(params, x)
            count += 1
            if not check.ok:
                violations.append(
                    {"n": n, "measured": check.measured, "bound": check.bound}
                )
    return {"checked": count, "violations": violations}


def _random_entry_state(params: ModelParams, rng: np.random.Generator) -> PhasePoint:
    """Random inward state on the chart-domain boundary sphere."""
    r = params.eps * (1.0 - 1e-12)
    u = rng.normal(size=params.d)
    u /= np.linalg.norm(u)
    floor = 2.0 * params.m * (1.0 - 0.5 / params.n) * params.Z * r ** (-params.alpha)
    p_mag = np.sqrt(floor * rng.uniform(1.05, 4.0))
    while True:
        v = rng.normal(size=params.d)
        v /= np.linalg.norm(v)
        if np.dot(u, v) < -0.05:
            break
    return PhasePoint(q=r * u, p=p_mag * v)


def _roundtrip_section(rng, grid, points) -> float:
    worst = 0.0
    for (n, d) in grid:
        params = ModelParams(n=n, d=d, m=1.0, Z=1.0, eps=0.1)
        for x in verify.sample_domain_points(params, rng, points):
            c = chart.chart_forward(params, x)
            back = chart.chart_inverse(params, c)
            if not isinstance(back, chart.Regular):
                worst = max(worst, np.inf)
                continue
            err = max(
                float(np.max(np.abs(back.x.q - x.q))),
                float(np.max(np.abs(back.x.p - x.p))),
            )
            worst = max(worst, err)
    return worst


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(args)
    thresholds = {**DEFAULT_THRESHOLDS, **cfg.get("thresholds", {})}
    report = _verify_report(cfg, args)
    ok = (
        report["bracket_table"]["max_residual"] < thresholds["bracket"]
        and report["dirac"]["max_residual"] < thresholds["dirac"]
        and all(
            v < thresholds["conservation"]
            for v in report["conservation"]["max_drifts"].values()
        )
        and not report["transit_bound"]["violations"]
        and report["chart_roundtrip"]["max_error"] < thresholds["roundtrip"]
    )
    report["thresholds"] = thresholds
    report["ok"] = ok
    path = out / cfg.get("report_file", "verify_report.json")
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    log.info("wrote %s (ok=%s)", path, ok)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# rmin


def cmd_rmin(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    params = _params_from(cfg, args)
    E = args.E if args.E is not None else float(cfg.get("E", 0.0))
    l2 = args.l2 if args.l2 is not None else float(cfg.get("l2", 0.0))
    try:
        r = chart.r_min(params, E, l2)
    except chart.NoPericenterError as exc:
        log.error("%s", exc)
        print(f"no pericenter: {exc}", file=sys.stderr)
        return EXIT_NO_PERICENTER
    print(_fmt(r))
    if params.n == 2:
        # r is the closed form for n = 2; the delta checks the Newton root
        try:
            delta = abs(chart._r_min_root(params, E, l2) - r)
        except chart.NoPericenterError:  # rounding at the circular threshold
            delta = np.inf
        print(f"closed-form delta: {_fmt(delta)}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=str, default=None)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--m", type=float, default=None)
    sub.add_argument("--Z", type=float, default=None)
    sub.add_argument("--eps", type=float, default=None)
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcgehee",
        description="Regularised Hamiltonian flow for homogeneous attractive potentials",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="integrate a scenario, write trajectory CSV")
    _add_common(sim)
    sim.set_defaults(fn=cmd_simulate)

    fig = subs.add_parser("figures", help="emit orbit-curve CSV + SVG figures")
    fig.add_argument("which", choices=["fig1", "fig2", "all"])
    fig.add_argument("--out", type=str, default=None)  # fixed orbits: no config, no tolerances
    fig.set_defaults(fn=cmd_figures)

    ver = subs.add_parser("verify", help="run verification suites, write JSON report")
    _add_common(ver)
    ver.set_defaults(fn=cmd_verify)

    rmin = subs.add_parser("rmin", help="pericenter radius for given (E, l2)")
    _add_common(rmin)
    rmin.add_argument("--E", type=float, default=None)
    rmin.add_argument("--l2", type=float, default=None)
    rmin.set_defaults(fn=cmd_rmin)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PermissionError as exc:
        log.error("%s", exc)
        print(str(exc), file=sys.stderr)
        return EXIT_UNWRITABLE
    except RuntimeError as exc:  # HillRegionError included
        log.error("integration failed: %s", exc)
        return EXIT_STEP_FAILURE


if __name__ == "__main__":
    sys.exit(main())
