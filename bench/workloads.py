"""The three benchmark workloads: seeded inputs, the timed op, and its oracle.

Each workload builds its inputs from the seed alone and hands the library
nothing else.  A session walks the ops in a fixed order as a generator: it
yields ``(fn, args)`` for the next op, the caller times ``fn(*args)`` and
sends back ``(result, exception)``, and the session does its bookkeeping
between yields, outside the timed call.  One pass over the inputs is a
fixed list of ops; after it the session starts the same pass again.
``passes`` counts the passes completed, and ``pass_ops`` is the length of
the first pass once it is known.
``check(limit)`` applies the oracle to the first ``limit`` ops; failures are
counted, never dropped.  ``outputs()`` has one entry per attempted op, so a
repeated op can be compared with its first run.

Only public functions of the library are called.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from mcgehee import chart, cli, verify
from mcgehee.model import ModelParams, PhasePoint, hamiltonian, l_squared_point

# (n, d) cells, walked round-robin by every workload that takes parameters
GRID = [(n, d) for n in (1, 2, 3, 4) for d in (2, 3)]
EPS = 0.1

# acceptance gates of the certification criteria (tests/test_acceptance.py)
BRACKET_GATE = 1e-5
ROUNDTRIP_GATE = 1e-8
# the repository's conservation threshold (cli.DEFAULT_THRESHOLDS), used for
# every collide invariant, reversibility and Kepler-period return
FLOW_GATE = 1e-8
# closed-form parabola of the n = 2 curve in fig1_n2.csv
PARABOLA_GATE = 1e-8

# one pass: 8 cells x 32 points, about 12 s at reference speed
CERTIFY_POINTS_PER_CELL = 32
COLLIDE_STEPS_PER_ORBIT = 16
# one pass: 24 slots x 16 orbits x up to 16 steps, about 11 s
COLLIDE_ORBITS_PER_SLOT = 16
# orbits of one slot walk their main parameter through this many strata
STRATA = 8
# a step is this fraction of the orbit's time scale sqrt(m/Z) r**(1 + alpha/2)
COLLIDE_DT_FRACTION = 0.1

# known defects of the library at edges the inputs reach; their failed ops
# count in failed_frac like any other, but do not make the run incorrect
# (see bench/README.md)
DEFECT_N1_LAUNCH = "n1-collision-launch"
DEFECT_AT_REST = "at-rest-start"
DEFECT_SWITCH_SPHERE = "confined-in-switch-sphere"
DEFECT_HANDOFF_STALL = "switch-sphere-handoff-stall"
DEFECT_TINY_L = "stencil-reaches-collision-orbit"
DEFECT_NEAR_PARABOLIC = "near-parabolic"


@dataclass
class Verdict:
    """Oracle outcome of one attempted op."""

    ok: bool
    ratio: float = 0.0  # worst error / its gate; > 1 fails
    reason: str = ""
    known_defect: Optional[str] = None


def _known_failure(exc: Optional[BaseException]) -> Optional[str]:
    """The known defect behind an exception the library raised, if it is one.

    global_flow can localise an inward crossing of the switch sphere just
    outside the 1e-12 band it then tests; it restarts the physical
    integrator on the sphere, the crossing fires again at once, and the
    loop ends after 10 000 segments.  Fast crossings hit it.
    """
    if isinstance(exc, RuntimeError) and "too many segments" in str(exc):
        return DEFECT_HANDOFF_STALL
    return None


def _raised(exc: BaseException) -> Verdict:
    return Verdict(False, reason=f"raised {exc!r}", known_defect=_known_failure(exc))


def params_for(n: int, d: int) -> ModelParams:
    return ModelParams(n=n, d=d, m=1.0, Z=1.0, eps=EPS)


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    u = rng.normal(size=d)
    return u / np.linalg.norm(u)


def _unit_perp(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    v = rng.normal(size=len(u))
    v -= np.dot(v, u) * u
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# certify


def _entry_state(params: ModelParams, rng: np.random.Generator) -> PhasePoint:
    """Inward state on the chart-domain boundary sphere (as `mcgehee verify` draws)."""
    r = params.eps * (1.0 - 1e-12)
    u = _unit(rng, params.d)
    floor = 2.0 * params.m * (1.0 - 0.5 / params.n) * params.Z * r ** (-params.alpha)
    p_mag = np.sqrt(floor * rng.uniform(1.05, 4.0))
    while True:
        v = _unit(rng, params.d)
        if np.dot(u, v) < -0.05:
            return PhasePoint(q=r * u, p=p_mag * v)


def _domain_point(params: ModelParams, rng: np.random.Generator, j: int) -> PhasePoint:
    """A chart-domain point drawn as `verify.sample_domain_points` draws it,
    with the angle between q and p taken from stratum j mod STRATA.

    The angle sets the pericenter depth, which sets most of an op's cost, so
    every seed gets the same spread of costs.  The draw keeps that sampler's
    defaults: radius uniform in (0.25, 0.85) eps, kinetic energy 1.1 to 3
    times the domain's floor, and p's direction uniform, here through the
    distribution of its angle to q (uniform in d = 2, uniform cosine in d = 3).
    """
    while True:
        r = rng.uniform(0.25, 0.85) * params.eps
        u = _unit(rng, params.d)
        floor = 2.0 * params.m * (1.0 - 0.5 / params.n) * params.Z * r ** (-params.alpha)
        p_mag = math.sqrt(floor * rng.uniform(1.1, 3.0))
        s = _stratified(rng, j)
        angle = math.pi * s if params.d == 2 else math.acos(2.0 * s - 1.0)
        v = math.cos(angle) * u + math.sin(angle) * _unit_perp(rng, u)
        x = PhasePoint(q=r * u, p=p_mag * v)
        if chart.in_U_eps(params, x):
            return x


def certify_op(params: ModelParams, x: PhasePoint, x_entry: PhasePoint):
    """One certified chart-domain point: bracket table, roundtrip, transit."""
    report = verify.bracket_table(params, x)
    back = chart.chart_inverse(params, chart.chart_forward(params, x))
    transit = verify.transit_time_check(params, x_entry)
    return report, back, transit


def _certify_edge(params: ModelParams, x: PhasePoint) -> Optional[str]:
    """The known chart-accuracy edge a certify point lies on, if any."""
    # a stencil point of bracket_table turns q or p by up to two steps of
    # the default fraction; within twice that reach of a collision orbit
    # (l = 0) the chart's differences lose the gate
    sin_angle = math.sqrt(max(l_squared_point(x), 0.0)) / (x.r * np.linalg.norm(x.p))
    if sin_angle <= 4.0 * verify.DEFAULT_STEP_FRACTION:
        return DEFECT_TINY_L
    # near zero energy, and with a deep pericenter, chart_forward's T and
    # chart_inverse lose the gates (seen for |H| up to 1e-3 of U(q))
    if abs(hamiltonian(params, x)) <= 1e-3 * params.Z * x.r ** (-params.alpha):
        return DEFECT_NEAR_PARABOLIC
    return None


class Certify:
    def __init__(self, seed: int):
        per_cell = []
        for c, (n, d) in enumerate(GRID):
            params = params_for(n, d)
            rng = np.random.default_rng([seed, c])
            points = [_domain_point(params, rng, j) for j in range(CERTIFY_POINTS_PER_CELL)]
            per_cell.append([(params, x, _entry_state(params, rng)) for x in points])
        self.items = [cell[k] for k in range(CERTIFY_POINTS_PER_CELL) for cell in per_cell]

    def session(self) -> "CertifySession":
        return CertifySession(self.items)


class CertifySession:
    def __init__(self, items):
        self.items = items
        self.pass_ops = len(items)
        self.passes = 0
        self.results = []  # (item, result, exception) per attempted op

    def ops(self):
        while True:
            for item in self.items:
                result, exc = yield certify_op, item
                self.results.append((item, result, exc))
            self.passes += 1

    def outputs(self) -> list:
        out = []
        for _, result, exc in self.results:
            if exc is not None:
                out.append(repr(exc))
                continue
            report, back, transit = result
            state = back.x if isinstance(back, chart.Regular) else None
            out.append((
                report.max_residual, report.ab_sign, report.bb_sign,
                None if state is None else (state.q.tobytes(), state.p.tobytes()),
                transit.measured,
            ))
        return out

    def check(self, limit: int) -> list[Verdict]:
        verdicts = []
        for (params, x, _), result, exc in self.results[:limit]:
            verdict = self._verdict(params, x, result, exc)
            if not verdict.ok and verdict.known_defect is None:
                verdict.known_defect = _certify_edge(params, x)
            verdicts.append(verdict)
        return verdicts

    @staticmethod
    def _verdict(params: ModelParams, x: PhasePoint, result, exc) -> Verdict:
        if exc is not None:
            return _raised(exc)
        report, back, transit = result
        if not isinstance(back, chart.Regular):
            return Verdict(False, reason="roundtrip left the regular states")
        roundtrip = max(
            float(np.max(np.abs(back.x.q - x.q))), float(np.max(np.abs(back.x.p - x.p)))
        )
        ratio = max(
            report.max_residual / BRACKET_GATE,
            roundtrip / ROUNDTRIP_GATE,
            transit.measured / verify.transit_bound(params),
        )
        if report.ab_sign != -1.0 or report.bb_sign != -1.0:
            return Verdict(False, ratio, "bracket family sign is not -1")
        return Verdict(ratio <= 1.0, ratio, "" if ratio <= 1.0 else "gate")


# ---------------------------------------------------------------------------
# collide


@dataclass
class Orbit:
    params: ModelParams
    start: chart.ExtendedPoint
    dt: float
    H0: float  # energy the orbit was built with
    l2: float  # its scalar angular momentum
    kepler_period: Optional[float] = None
    known_defect: Optional[str] = None


def _time_scale(params: ModelParams, r: float) -> float:
    """sqrt(m/Z) r**(1 + alpha/2): the homogeneous time unit at radius r."""
    return math.sqrt(params.m / params.Z) * r ** (1.0 + 0.5 * params.alpha)


def _apocenter(params: ModelParams, E: float, l2: float, r: float) -> float:
    """Outer turning radius of a bound orbit through radius r (E < 0, n >= 2)."""
    n, Z = params.n, params.Z

    def f(s: float) -> float:  # E s^2 + Z s^(2/n) - l2/2m, positive inside the annulus
        return E * s * s + Z * s ** (2.0 / n) - l2 / (2.0 * params.m)

    lo = max(r, (Z / (n * -E)) ** (n / (2.0 * (n - 1.0))))
    hi = 2.0 * lo
    while f(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _stratified(rng: np.random.Generator, j: int) -> float:
    """Uniform on (0, 1), drawn from stratum j mod STRATA.

    The j-th orbit of each slot takes the next stratum, so every seed
    spreads its orbits over the range in the same proportions.
    """
    return (j % STRATA + rng.uniform()) / STRATA


def _collision_orbit(params: ModelParams, rng: np.random.Generator, j: int) -> Orbit:
    """Launch from the glued collision set with h < 0: it recollides every period."""
    if params.n == 1:
        h = -(0.1 + 0.8 * _stratified(rng, j)) * params.Z
        dt = params.eps / (8.0 * math.sqrt(2.0 * params.m * (h + params.Z)))
        # chart._launch_collision gives every n = 1 launch energy 0, not h
        defect = DEFECT_N1_LAUNCH
    else:
        r_max = (1.5 + 2.5 * _stratified(rng, j)) * params.eps
        h = -params.Z * r_max ** (-params.alpha)
        dt = COLLIDE_DT_FRACTION * _time_scale(params, r_max)
        defect = None
    start = chart.Collision(h=h, a=_unit(rng, params.d))
    return Orbit(params, start, dt, h, 0.0, known_defect=defect)


def _bound_orbit(params: ModelParams, rng: np.random.Generator, j: int) -> Orbit:
    """Bound orbit from its apocenter, a few eps out, diving below the switch sphere."""
    d, n, m, Z = params.d, params.n, params.m, params.Z
    u = _unit(rng, d)
    v = _unit_perp(rng, u)
    if n == 1:
        # free motion has no bound orbits: a line through the switch sphere
        r0 = rng.uniform(2.0, 5.0) * params.eps
        b = 0.5 * _stratified(rng, j) * params.eps
        speed = math.sqrt(2.0 * m * rng.uniform(0.1, 1.0) * Z)
        x = PhasePoint(q=-r0 * u + b * v, p=speed * u)
        return Orbit(params, chart.Regular(x), r0 / (8.0 * speed / m),
                     hamiltonian(params, x), l_squared_point(x))
    r_max = rng.uniform(2.0, 5.0) * params.eps
    # pericenters from 1e-3 eps to 0.4 eps, log-uniform
    r_min = 10.0 ** (-3.0 + (3.0 + math.log10(0.4)) * _stratified(rng, j)) * params.eps
    # both turning points solve E r^2 + Z r^(2/n) = l^2 / 2m
    E = -Z * (r_max ** (2.0 / n) - r_min ** (2.0 / n)) / (r_max**2 - r_min**2)
    l2 = 2.0 * m * (E * r_max**2 + Z * r_max ** (2.0 / n))
    x = PhasePoint(q=r_max * u, p=math.sqrt(l2) / r_max * v)
    H0 = hamiltonian(params, x)
    period = None
    if n == 2:
        a = -Z / (2.0 * H0)
        period = 2.0 * math.pi * math.sqrt(m * a**3 / Z)
    return Orbit(params, chart.Regular(x),
                 COLLIDE_DT_FRACTION * _time_scale(params, r_max), H0,
                 l_squared_point(x), kepler_period=period)


def _regular_orbit(params: ModelParams, rng: np.random.Generator, j: int) -> Orbit:
    """Regular start at a radius in (0, eps); every second one at rest.

    The others are chart-domain points over the whole radius range, not only
    the stencil-safe band.  They step by a tenth of the time scale of the
    region they sweep, so that a deep orbit confined near the origin is not
    flowed through thousands of periods per step.  A state at rest steps by
    the cell's fixed dt, as `simulate` rows do.  Inside the switch sphere
    that step is longer than the fall to the origin, and global_flow routes
    the fall to the physical integrator by the sign of <q, p>.  That
    integrator fails at the singularity (ROADMAP item 4).
    """
    stratum = (j // 2) % STRATA
    if j % 2 == 0:
        r_range = (stratum / STRATA, (stratum + 1) / STRATA)
        x = verify.sample_domain_points(params, rng, 1, r_range=r_range)[0]
    else:
        r = _stratified(rng, j // 2) * params.eps
        x = PhasePoint(q=r * _unit(rng, params.d), p=np.zeros(params.d))
    H0 = hamiltonian(params, x)
    l2 = l_squared_point(x)
    r_sweep, defect = params.eps, None
    if params.n >= 2 and j % 2 == 1:
        defect = DEFECT_AT_REST
    elif params.n >= 2 and H0 < 0.0:
        r_apo = _apocenter(params, H0, l2, x.r)
        if r_apo <= 0.5 * params.eps:
            r_sweep, defect = r_apo, DEFECT_SWITCH_SPHERE
    return Orbit(params, chart.Regular(x),
                 COLLIDE_DT_FRACTION * _time_scale(params, r_sweep), H0, l2,
                 known_defect=defect)


ORBIT_KINDS = {
    "collision": _collision_orbit,
    "bound": _bound_orbit,
    "regular": _regular_orbit,
}


def _state_error(params: ModelParams, got: chart.ExtendedPoint, want: chart.ExtendedPoint) -> float:
    """Distance of `got` from the regular state `want`, in natural units there.

    Positions relative to |q|, momenta relative to the larger of |p| and
    sqrt(2 m Z |q|**-alpha), the momentum scale of the potential at that
    radius (a start at an apocenter can have |p| far below it).
    """
    if not (isinstance(got, chart.Regular) and isinstance(want, chart.Regular)):
        return math.inf
    r = want.x.r
    p_scale = max(float(np.linalg.norm(want.x.p)),
                  math.sqrt(2.0 * params.m * params.Z * r ** (-params.alpha)))
    return max(float(np.linalg.norm(got.x.q - want.x.q)) / r,
               float(np.linalg.norm(got.x.p - want.x.p)) / p_scale)


def _term_scales(params: ModelParams, state: chart.ExtendedPoint) -> tuple[float, float]:
    """Largest terms in computing H and l^2 at a state: U(q) and |q|^2 |p|^2.

    H and l^2 are differences of these terms, so their rounding error is
    relative to them, not to the result.  A collision state carries its
    energy exactly and l^2 = 0.
    """
    if isinstance(state, chart.Collision):
        return 0.0, 0.0
    x = state.x
    return (params.Z * x.r ** (-params.alpha),
            float(np.dot(x.q, x.q)) * float(np.dot(x.p, x.p)))


def _invariant_error(orbit: Orbit, state: chart.ExtendedPoint) -> float:
    """Drift of H and l^2 from the orbit's start, relative to their scales.

    The scale is the larger of the start value and the terms of both
    evaluations, the start's and this state's.
    """
    params = orbit.params
    u0, qp0 = _term_scales(params, orbit.start)
    u, qp = _term_scales(params, state)
    if isinstance(state, chart.Collision):
        u = params.Z * params.eps ** (-params.alpha)
        return abs(state.h - orbit.H0) / max(abs(orbit.H0), u0, u)
    x = state.x
    dH = abs(hamiltonian(params, x) - orbit.H0) / max(abs(orbit.H0), u0, u)
    dl2 = abs(l_squared_point(x) - orbit.l2) / max(orbit.l2, qp0, qp, 1e-300)
    return max(dH, dl2)


class Collide:
    def __init__(self, seed: int):
        slots = [(c, kind) for c in range(len(GRID)) for kind in ORBIT_KINDS]
        per_slot = []
        for s, (c, kind) in enumerate(slots):
            rng = np.random.default_rng([seed, 100 + s])
            params = params_for(*GRID[c])
            per_slot.append([ORBIT_KINDS[kind](params, rng, j) for j in range(COLLIDE_ORBITS_PER_SLOT)])
        self.orbits = [slot[k] for k in range(COLLIDE_ORBITS_PER_SLOT) for slot in per_slot]

    def session(self) -> "CollideSession":
        return CollideSession(self.orbits)


@dataclass
class OrbitRun:
    orbit: Orbit
    states: list = field(default_factory=list)
    error: Optional[BaseException] = None
    first_op: int = 0


class CollideSession:
    def __init__(self, orbits):
        self.orbits = orbits
        self.runs: list[OrbitRun] = []
        self.attempted = 0
        self.pass_ops: Optional[int] = None  # an orbit that raises ends early
        self.passes = 0

    def ops(self):
        while True:
            for orbit in self.orbits:
                run = OrbitRun(orbit, first_op=self.attempted)
                self.runs.append(run)
                state = orbit.start
                for _ in range(COLLIDE_STEPS_PER_ORBIT):
                    state, exc = yield chart.global_flow, (orbit.params, state, orbit.dt)
                    self.attempted += 1
                    if exc is not None:
                        run.error = exc
                        break
                    run.states.append(state)
            if self.pass_ops is None:
                self.pass_ops = self.attempted
            self.passes += 1

    def outputs(self) -> list:
        out = []
        for run in self.runs:
            for s in run.states:
                if isinstance(s, chart.Collision):
                    out.append(("collision", s.h, s.a.tobytes()))
                else:
                    out.append((s.x.q.tobytes(), s.x.p.tobytes()))
            if run.error is not None:
                out.append(repr(run.error))
        return out

    def check(self, limit: int) -> list[Verdict]:
        verdicts: list[Verdict] = []
        for run in self.runs:
            if run.first_op >= limit:
                break
            orbit = run.orbit
            for state in run.states:
                ratio = _invariant_error(orbit, state) / FLOW_GATE
                verdicts.append(Verdict(ratio <= 1.0, ratio, "" if ratio <= 1.0 else "invariant drift"))
            if run.error is not None:
                verdicts.append(_raised(run.error))
            elif len(run.states) == COLLIDE_STEPS_PER_ORBIT:
                # orbit-level oracles are charged to the orbit's last step
                last = verdicts[-1]
                ratio, reason, exc = self._orbit_check(run)
                last.ratio = max(last.ratio, ratio)
                if not ratio <= 1.0:
                    if last.ok:
                        last.reason, last.known_defect = reason, _known_failure(exc)
                    last.ok = False
            if orbit.known_defect is not None:
                for v in verdicts[run.first_op:]:
                    v.known_defect = orbit.known_defect
        return verdicts[:limit]

    @staticmethod
    def _orbit_check(run: OrbitRun):
        """Reversibility by the same steps backward, and the n = 2 Kepler return.

        Reversibility is checked back to the first step's state: a start can
        sit so close to the origin that an error of 1e-13 in time alone
        moves it by more than the gate.  Returns (worst error / gate,
        reason, exception raised by the oracle's own flow).
        """
        orbit = run.orbit
        params = orbit.params
        want = run.states[0]
        try:
            state = run.states[-1]
            for _ in range(len(run.states) - 1):
                state = chart.global_flow(params, state, -orbit.dt)
            worst = (_state_error(params, state, want) / FLOW_GATE, "not reversible", None)
            if orbit.kepler_period is not None:
                after = chart.global_flow(params, orbit.start, orbit.kepler_period)
                kepler = _state_error(params, after, orbit.start) / FLOW_GATE
                if not kepler <= worst[0]:
                    worst = (kepler, "no Kepler return", None)
            return worst
        except Exception as exc:  # the oracle's own flow failed: the op fails
            return math.inf, f"oracle flow raised {exc!r}", exc


# ---------------------------------------------------------------------------
# figures


def _tree_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _parabola_error(csv_path: Path) -> float:
    """Worst |r (1 + cos theta) - 2 r_min| / (2 r_min) along the n = 2 curve.

    figures launches every fig1 curve with l^2 = 2 m Z at E = 0, whose
    Kepler orbit is the parabola with pericenter r_min = l^2 / (2 m Z) = 1
    on the positive q_1 axis.
    """
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    q1, q2 = data[:, 1], data[:, 2]
    r = np.hypot(q1, q2)
    r_min = 1.0
    return float(np.max(np.abs(r + q1 - 2.0 * r_min))) / (2.0 * r_min)


def figures_op(out_dir: str) -> int:
    return cli.main(["figures", "all", "--out", out_dir])


class Figures:
    """`mcgehee figures all` in-process; its config is fixed, so no seed applies."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.reference: Optional[str] = None  # digest of the first op in the process

    def session(self) -> "FiguresSession":
        return FiguresSession(self)


class FiguresSession:
    def __init__(self, workload: Figures):
        self.workload = workload
        self.pass_ops = 1
        self.passes = 0
        self.results = []  # (exit code, digest, parabola error) or exception

    def ops(self):
        out = self.workload.out_dir
        while True:
            code, exc = yield figures_op, (str(out),)
            if exc is not None:
                self.results.append(exc)
            else:
                digest = _tree_digest(out)
                if self.workload.reference is None:
                    self.workload.reference = digest
                self.results.append((code, digest, _parabola_error(out / "fig1_n2.csv")))
            self.passes += 1

    def outputs(self) -> list:
        return [r if isinstance(r, tuple) else repr(r) for r in self.results]

    def check(self, limit: int) -> list[Verdict]:
        verdicts = []
        for r in self.results[:limit]:
            if not isinstance(r, tuple):
                verdicts.append(_raised(r))
                continue
            code, digest, err = r
            ratio = err / PARABOLA_GATE
            if code != 0:
                verdicts.append(Verdict(False, ratio, f"exit code {code}"))
            elif digest != self.workload.reference:
                verdicts.append(Verdict(False, ratio, "output differs from the first op"))
            else:
                verdicts.append(Verdict(ratio <= 1.0, ratio, "" if ratio <= 1.0 else "parabola"))
        return verdicts


def make(name: str, seed: int, scratch: Path):
    if name == "certify":
        return Certify(seed)
    if name == "collide":
        return Collide(seed)
    if name == "figures":
        return Figures(scratch / "figures")
    raise ValueError(f"unknown workload {name!r}")
