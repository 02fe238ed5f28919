"""Command-line harness: simulate, figures, verify, rmin.

Configuration is a single JSON document; command-line flags override file
values.  `COMMANDS` holds the flags and config keys each command reads, and
an unread key or a malformed value is a config error.  Outputs are CSV
(comma-separated, '.' decimal point, shortest round-trip float formatting),
JSON reports and hand-rolled SVG polyline figures.  Identical configuration
produces byte-identical outputs.

Exit codes: 0 success, 2 config error, 3 flow step or figure orbit failure
(the failing state or orbit is logged), 4 unwritable output directory or file, 5 verification threshold
violation, 6 no pericenter for the requested (E, l2).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from contextlib import suppress
from functools import cache
from itertools import groupby
from pathlib import Path

import numpy as np
import scipy

from . import __version__, chart, integrate as ode, verify
from .model import (
    DomainError,
    ModelParams,
    PhasePoint,
    kinetic_rows,
    l_squared_rows,
    physical_field,
    radius_rows,
    row_dot,
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


def _converter(text: str, convert, ok):
    """Converts the value of a config key or a flag (a string); a boolean, or
    a value that `convert` or `ok(value, converted)` refuses, must be `text`."""
    def converted(name: str, v):
        with suppress(TypeError, ValueError, OverflowError):
            x = convert(v)
            if not isinstance(v, bool) and ok(v, x):
                return x
        raise ConfigError(f"{name} must be {text}, got {v!r}")

    return converted


def _number(kind, text: str, test):
    """A finite number or numeric string; an int refuses a fraction."""
    return _converter(text, kind, lambda v, x: (x == v or isinstance(v, str)) and math.isfinite(x) and test(x))


_FINITE = _number(float, "finite", lambda x: True)
_POSITIVE = _number(float, "finite and > 0", lambda x: x > 0.0)
_COUNT = _number(int, "an integer >= 1", lambda k: k >= 1)
# every output state is held in memory until the CSV is written, in blocks of _BLOCK_ROWS rows per format call
MAX_OUTPUT_POINTS = 10**7
_BLOCK_ROWS = 4096
_VECTOR = _converter("finite numbers in a list", lambda v: np.asarray(v, dtype=float), lambda v, x: (
    isinstance(v, list) and bool not in map(type, v) and x.ndim == 1 and np.isfinite(x).all()))
_FILE = _converter("a file name, written into --out", lambda v: v, lambda v, x: (
    isinstance(v, str) and v not in ("", ".", "..") and Path(v).name == v))
DEFAULT_THRESHOLDS = {"bracket": 1e-5, "dirac": 1e-6, "conservation": 1e-8, "roundtrip": 1e-8}
MODEL = {"n": _COUNT, "d": _number(int, "an integer d >= 2 (on a line the chart construction does not apply)", lambda k: k >= 2),
         "m": _POSITIVE, "Z": _POSITIVE, "eps": _POSITIVE}

# What each command reads: its config keys with their converters (a dict is
# a nested object), and its flags besides --config.  A flag other than --out
# overrides the key of its name, in `params` for the model's five.
COMMANDS = {
    "simulate": ({
        "params": MODEL,
        "initial": {"q": _VECTOR, "p": _VECTOR, "collision": {"h": _FINITE, "a": _VECTOR}},
        "t_span": _converter("two finite numbers in a list", lambda v: [_FINITE("", t) for t in v],
                             lambda v, x: isinstance(v, list) and len(x) == 2),
        "output_points": _number(int, f"an integer from 1 to {MAX_OUTPUT_POINTS}", lambda k: 1 <= k <= MAX_OUTPUT_POINTS),
        "trajectory_file": _FILE,
    }, ("out", *MODEL)),
    "verify": ({
        "seed": _number(int, "an integer >= 0", lambda k: k >= 0), "verify_points": _COUNT,
        # as given: the report repeats them
        "thresholds": dict.fromkeys(DEFAULT_THRESHOLDS, _converter(
            "finite and >= 0", lambda v: v, lambda v, x: type(v) in (int, float) and 0 <= v < math.inf)),
        "report_file": _FILE,
    }, ("out", "seed")),
    "rmin": ({"params": MODEL, "E": _FINITE, "l2": _number(float, "finite and >= 0", lambda x: x >= 0.0)},
             (*MODEL, "E", "l2")),
}


def _section(obj, keys: dict, command: str, path: str = "") -> dict:
    """One config object at `path` ('params.'), its keys converted; a key that `command` does not read is an error."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{repr(path[:-1]) if path else 'config root'} must be a JSON object, got {obj!r}")
    for key in obj:
        if key not in keys:
            raise ConfigError(f"config key {path + key!r} is not read by {command}")
    return {
        key: _section(value, keys[key], command, f"{path}{key}.") if isinstance(keys[key], dict)
        else keys[key](repr(path + key), value)
        for key, value in obj.items()
    }


def _read_config(args: argparse.Namespace) -> dict:
    """What `args.command` reads: its config file's keys, with its flags over them, every value converted."""
    keys, flags = COMMANDS[args.command]
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    cfg = _section(cfg, keys, args.command)
    for flag in flags:
        value = getattr(args, flag)
        if flag != "out" and value is not None:
            section = cfg.setdefault("params", {}) if flag in MODEL else cfg
            section[flag] = (MODEL.get(flag) or keys[flag])(f"--{flag}", value)
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise PermissionError(f"output directory {out} is not writable: {exc}") from exc
    return out


def _initial_state(init: dict | None, params: ModelParams) -> chart.ExtendedPoint:
    if init is None:
        raise ConfigError("config must provide an 'initial' state")
    if not (init.keys() == {"q", "p"} or init.keys() == {"collision"} and init["collision"].keys() == {"h", "a"}):
        raise ConfigError("'initial' needs 'q' and 'p', or a 'collision' with 'h' and 'a', not both")
    if any(len(v) != params.d for v in ([init["collision"]["a"]] if "collision" in init else init.values())):
        raise ConfigError(f"initial state has wrong dimension: d = {params.d}")
    if "collision" in init:
        h, a = init["collision"]["h"], init["collision"]["a"]
        a_norm = np.linalg.norm(a)
        if not 0.0 < a_norm < np.inf:
            raise ConfigError("collision direction a must be nonzero and finite")
        if params.n == 1 and not h > -params.Z:
            raise ConfigError("an n = 1 collision launch needs kinetic energy h + Z > 0")
        return chart.Collision(h=h, a=a / a_norm)
    x = PhasePoint(init["q"], init["p"])
    try:
        x.require_noncollision()
    except DomainError as exc:
        raise ConfigError(f"invalid initial state: {exc}") from exc
    return chart.Regular(x)


def _describe(state: chart.ExtendedPoint) -> str:
    if isinstance(state, chart.Collision):
        return f"collision h={state.h!r} a={state.a.tolist()}"
    return f"q={state.x.q.tolist()} p={state.x.p.tolist()}"


def _regular_rows(params: ModelParams, rows: list) -> str:
    """CSV lines of (t, `Regular`) rows: t, q, p, H, l2 and in_U_eps, bit for
    bit as `hamiltonian`, `l_squared_point` and `in_U_eps` give them one state
    at a time (H as `chart_forward_rows` takes it), in one format call."""
    t = np.array([t for t, _ in rows])
    q = np.array([state.x.q for _, state in rows])
    p = np.array([state.x.p for _, state in rows])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf and nan are written as they are
        qq, pp, qp = row_dot(q, q), row_dot(p, p), row_dot(q, p)
        r = radius_rows(q, qq)
        H = kinetic_rows(p, pp, params.m) - params.Z * chart._pow(r, -params.alpha)
        inside = chart._in_domain(params, r, H)
    table = np.column_stack((t, q, p, H, l_squared_rows(q, p, qq, pp, qp), inside))
    return ("%r," * (2 * params.d + 3) + "%d\n") * len(rows) % tuple(table.ravel().tolist())


def _write_trajectory_csv(path: Path, params: ModelParams, ts: list, points: list) -> None:
    """The header, then each run of regular rows by `_regular_rows` in blocks
    of _BLOCK_ROWS, and each collision row, whose momentum is undefined, as
    t, 0 for q, empty p fields, h, 0 for l2 and in_U_eps 1."""
    header = ["t", *(f"{v}_{i+1}" for v in "qp" for i in range(params.d)), "H", "l2", "in_U_eps"]
    collision = "%r," + "0.0," * params.d + "," * params.d + "%r,0.0,1\n"
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for regular, run in groupby(zip(ts, points), key=lambda row: isinstance(row[1], chart.Regular)):
            run = list(run)
            if regular:
                for i in range(0, len(run), _BLOCK_ROWS):
                    fh.write(_regular_rows(params, run[i:i + _BLOCK_ROWS]))
            else:
                fh.writelines(collision % (t, float(state.h)) for t, state in run)


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _read_config(args)
    params = ModelParams(**{"n": 2, "d": 2, **cfg.get("params", {})})
    state = _initial_state(cfg.get("initial"), params)
    out = _out_dir(args)
    t0, t1 = cfg.get("t_span", (0.0, 1.0))
    n_out = cfg.get("output_points", 200)
    ts = np.linspace(t0, t1, n_out) if t1 != t0 else np.array([t0])

    try:
        points = chart.trajectory(params, state, ts)
    except DomainError as exc:  # its message names the failing time
        log.error("flow from t=0.0 failed at the state %s: %s", _describe(state), exc)
        return EXIT_STEP_FAILURE

    path = out / cfg.get("trajectory_file", "trajectory.csv")
    _write_trajectory_csv(path, params, ts.tolist(), points)
    log.info("wrote %s (%d rows)", path, len(points))
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
        pts = " ".join(["%.2f,%.2f"] * len(curve)) % tuple(np.column_stack((x, y)).ravel().tolist())
        parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{colors[k % len(colors)]}" stroke-width="1"/>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def _orbit_curve(kind: str, orbit, ts: np.ndarray) -> np.ndarray:
    """An orbit with its pericenter on the q_1 axis, sampled at the times ts
    since the pericenter, as (t, q1, q2).  Logs one DEBUG line: the orbit's
    constants and the work of its solve."""
    sample = chart._sample(orbit, ts)
    r, theta, sol = sample.r, sample.swept, sample.solve
    if log.isEnabledFor(logging.DEBUG):  # the residual costs one more pass of T
        constants = (float(v) for v in (orbit.E, orbit.l, orbit.s0, orbit.s1, orbit.period, orbit.apsis))
        log.debug("%s orbit E=%r l=%r s0=%r s1=%r period=%r apsis=%r newton_iterations=%d worst_residual=%r",
                  kind, *constants, sol.iterations, sol.residual())
    return np.column_stack((ts, r * np.cos(theta), r * np.sin(theta)))


def _periodic_l(params: ModelParams, E: float, target: float, bracket: tuple[float, float]) -> float:
    """Angular momentum whose apsidal angle equals `target` (orbit closes)."""
    from scipy.optimize import brentq

    return brentq(
        lambda l: chart._BoundOrbit(params, E, l).apsis - target, *bracket, xtol=1e-13
    )


FIG2_ENERGY = -0.5
# apsidal-angle targets inside the attainable band (1.227 pi, 1.5 pi) for
# n = 3 at E = -0.5: 4pi/3 closes after 3 radial periods, 10pi/7 after 7;
# the middle l gives a generic (annulus-filling) apsidal angle
FIG2_TARGETS = [4.0 * np.pi / 3.0, None, 10.0 * np.pi / 7.0]
FIG2_MIDDLE_L = 0.35


def cmd_figures(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    which = args.which
    figures = {}  # figure -> its orbits as (file stem, kind, orbit, times)
    if which in ("fig1", "all"):
        figures["fig1"] = []
        for n in (2, 3, 4, 6):
            params = ModelParams(n=n, d=2, m=1.0, Z=1.0, eps=0.1)
            l = np.sqrt(2.0 * params.m * params.Z)  # pericenter radius 1 for every n
            orbit = chart._ZeroEnergyOrbit(params, l)
            # both branches out to r = 20, 400 times each
            ts = np.linspace(0.0, orbit.time(orbit.u_at(20.0)), 400)
            figures["fig1"].append((f"fig1_n{n}", "zero-energy", orbit, np.concatenate((-ts[:0:-1], ts))))
    if which in ("fig2", "all"):
        params = ModelParams(n=3, d=2, m=1.0, Z=1.0, eps=0.1)
        ls = sorted(
            FIG2_MIDDLE_L if target is None
            else _periodic_l(params, FIG2_ENERGY, target, (0.1, 1.03))
            for target in FIG2_TARGETS
        )
        figures["fig2"] = [
            (f"fig2_orbit{k+1}_l{l:.6f}", "bound", chart._BoundOrbit(params, FIG2_ENERGY, l), np.linspace(0.0, 60.0, 2000))
            for k, l in enumerate(ls)
        ]
    for figure, orbits in figures.items():
        curves = []
        for name, kind, orbit, ts in orbits:
            try:
                data = _orbit_curve(kind, orbit, ts)
            except RuntimeError as exc:
                log.error("figure orbit %s (%s, E=%r, l=%r) failed: %s", name, kind, float(orbit.E), float(orbit.l), exc)
                return EXIT_STEP_FAILURE
            _write_curve_csv(out / f"{name}.csv", data)
            curves.append(data[:, 1:3])
        _svg_polylines(curves, out / f"{figure}.svg")
    return EXIT_OK


def _write_curve_csv(path: Path, data: np.ndarray) -> None:
    """The (k, 3) rows (t, q1, q2) in one format call: %r of a float is `_fmt`."""
    path.write_text("t,q_1,q_2\n" + "%r,%r,%r\n" * len(data) % tuple(data.ravel().tolist()), encoding="utf-8")


# ---------------------------------------------------------------------------
# verify


def _verify_report(seed: int, points: int) -> dict:
    rng = np.random.default_rng(seed)
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
    cfg = _read_config(args)
    out = _out_dir(args)
    thresholds = {**DEFAULT_THRESHOLDS, **cfg.get("thresholds", {})}
    report = _verify_report(cfg.get("seed", 0), cfg.get("verify_points", 3))
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
    cfg = _read_config(args)
    params = ModelParams(**{"n": 2, "d": 2, **cfg.get("params", {})})
    E, l2 = cfg.get("E", 0.0), cfg.get("l2", 0.0)
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


def _add_command(subs, command: str, fn, help: str) -> None:
    """A subparser with --config and the command's flags in `COMMANDS`."""
    sub = subs.add_parser(command, help=help)
    sub.add_argument("--config")
    for flag in COMMANDS[command][1]:
        sub.add_argument(f"--{flag}")
    sub.set_defaults(fn=fn)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcgehee",
        description="Regularised Hamiltonian flow for homogeneous attractive potentials",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    _add_command(subs, "simulate", cmd_simulate, "integrate a scenario, write trajectory CSV")

    fig = subs.add_parser("figures", help="emit orbit-curve CSV + SVG figures")
    fig.add_argument("which", choices=["fig1", "fig2", "all"])
    fig.add_argument("--out", type=str, default=None)  # fixed orbits: no config, no tolerances
    fig.set_defaults(fn=cmd_figures)

    _add_command(subs, "verify", cmd_verify, "run verification suites, write JSON report")
    _add_command(subs, "rmin", cmd_rmin, "pericenter radius for given (E, l2)")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:  # one per process: parsing leaves it as it was
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # an output directory or file that cannot be written
        log.error("%s", exc)
        print(str(exc), file=sys.stderr)
        return EXIT_UNWRITABLE
    except RuntimeError as exc:  # one that the command did not report itself
        log.error("%s failed: %s", args.command, exc)
        return EXIT_STEP_FAILURE


if __name__ == "__main__":
    sys.exit(main())
